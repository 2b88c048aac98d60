"""Command-line front end.

JSON descriptions (or catalog keys) in, text or JSON out.  Exit codes:
0 success, 2 invalid input, 3 verification mismatch or a failed internal
check.  All output is deterministic for fixed flags; randomized checks
take an explicit --seed.  `table` and `verify` solve each catalog entry
once and compare it with its expected row by one predicate.  `table`
streams the entries, keeping only the numbers it prints, so it holds about
one module at a time; `verify` keeps the whole solved list, since its
sections read every entry and the additivity section reads them in pairs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from random import Random

from . import catalog
from .ed_solver import (
    BudgetExceededError,
    brute_force_min_rank,
    genus_equal,
    classify_ed_le_one,
    min_permutation_rank,
    verify_certificate,
)
from .fp_module import coinvariants, fixed_image_subspace, reduce_mod_p
from .group_core import (
    dihedral8,
    direct_product,
    heisenberg27,
    make_cyclic,
    quaternion8,
    subgroup_class,
)
from .int_lattice import direct_sum
from .jsonio import (
    dump_json,
    load_json,
    parse_expected_table,
    parse_module,
    parse_presentation,
    result_to_json,
)
from .random_modules import conjugate_basis, random_module

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3

PARAM_FAMILIES = catalog.PARAM_FAMILIES


def _resolve_module(text: str, prime: int | None):
    """A module from a JSON file path or a catalog key; returns (module, prime)."""
    if os.path.exists(text):
        if prime is None:
            raise ValueError("--prime is required when the input is a file")
        return parse_module(load_json(text), prime), prime
    entry = catalog.parse_catalog_key(text)
    if prime is not None and prime != entry.p:
        raise ValueError(f"prime {prime} conflicts with catalog key {text!r}")
    return entry.module, entry.p


def _budget(args, default: int) -> int:
    """--budget when given, refusing a negative one; else the default."""
    if args.budget is not None and args.budget < 0:
        raise ValueError(f"--budget must be nonnegative, got {args.budget}")
    return default if args.budget is None else args.budget


def _emit(args, payload, text: str) -> None:
    """Print the JSON payload under --json, else the text."""
    print(dump_json(payload) if args.json else text)


def _cmd_ed(args) -> int:
    if bool(args.input) == bool(args.catalog):
        raise ValueError("give exactly one of --input or --catalog")
    module, p = _resolve_module(args.input or args.catalog, args.prime)
    budget = _budget(args, module.group.order * max(1, module.dim))
    if args.budget is not None and not args.oracle:
        raise ValueError("--budget applies only with --oracle")
    if args.oracle:
        result = brute_force_min_rank(module, p, budget)
    else:
        result = min_permutation_rank(module, p)
    _emit(args, result_to_json(result, {"prime": p}), f"min_rank={result.min_rank} ed={result.ed}")
    return EXIT_OK


def _solved_catalog(p: int, max_r: int | None):
    """Every catalog entry at p (r capped at max_r) with its solver result, one at a time."""
    return ((e, min_permutation_rank(e.module, p))
            for e in catalog.instantiated_catalog(p, max_r))


def _agrees(entry, result, row) -> bool:
    """Whether a solved entry is torsion-free with its expected row's rank and ed."""
    return (row is not None and not entry.module.torsion
            and entry.module.free_rank == row[2] and result.ed == row[3])


def _table_rows(p: int, max_r: int | None):
    """One row per expected family.

    The solved entries stream past; each leaves only the numbers the table
    prints and, if it disagrees with its row, its family's failure.
    """
    expected = catalog.expected_table(p)
    by_family = {row[0]: row for row in expected}
    computed, failed = {}, set()
    for e, res in _solved_catalog(p, max_r):
        computed.setdefault(e.family, []).append({
            "r": e.r, "rank": e.module.free_rank, "ed": res.ed, "torsion": list(e.module.torsion)})
        if not _agrees(e, res, by_family.get(e.family)):
            failed.add(e.family)
    rows = []
    for family, r_values, rank, ed in expected:
        mine = computed.get(family, [])
        if family in PARAM_FAMILIES and not r_values:
            status = "N/A (range empty)"
        elif not mine:
            status = "skipped"
        else:
            status = "FAIL" if family in failed else "ok"
        rows.append({
            "family": family,
            "r_values": list(r_values),
            "expected": {"rank": rank, "ed": ed},
            "computed": mine,
            "status": status,
        })
    return rows


def _format_r(row) -> str:
    if row["r_values"]:
        vals = row["r_values"]
        return str(vals[0]) if len(vals) == 1 else f"{vals[0]}..{vals[-1]}"
    return "-"


def _cmd_table(args) -> int:
    rows = _table_rows(args.prime, args.max_r)
    header = f"{'family':<6} {'r':<6} {'rank':>4} {'got':>4} {'ed':>3} {'got':>4}  status"
    lines = [header, "-" * len(header)]
    for row in rows:
        exp = row["expected"]
        got = row["computed"][0] if row["computed"] else {"rank": "-", "ed": "-"}
        lines.append(f"{row['family']:<6} {_format_r(row):<6} {exp['rank']:>4} {got['rank']:>4} "
                     f"{exp['ed']:>3} {got['ed']:>4}  {row['status']}")
    _emit(args, {"prime": args.prime, "rows": rows}, "\n".join(lines))
    return EXIT_MISMATCH if any(row["status"] == "FAIL" for row in rows) else EXIT_OK


def _cmd_genus(args) -> int:
    # --input and --catalog append to one list, in command-line order.
    inputs = args.modules or []
    if len(inputs) != 2:
        raise ValueError("genus needs exactly two modules (--input/--catalog twice)")
    first, p = _resolve_module(inputs[0], args.prime)
    second, _ = _resolve_module(inputs[1], p)
    answer = genus_equal(first, second, p, budget=_budget(args, 10 ** 6), seed=args.seed)
    _emit(args, {"genus_equal": answer, "prime": p}, f"genus_equal={answer}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    if not args.input:
        raise ValueError("--input with a presentation file is required")
    group, summands, vector = parse_presentation(load_json(args.input))
    value = classify_ed_le_one(group, summands, vector, args.prime)
    _emit(args, {"ed": value, "prime": args.prime}, f"ed={value}")
    return EXIT_OK


def _cmd_catalog(args) -> int:
    # Listed, not streamed: the entries are read twice below.
    entries = list(catalog.instantiated_catalog(args.prime, args.max_r))
    _emit(args, [{
        "key": e.key,
        "family": e.family,
        "r": e.r,
        "expected_rank": e.expected_rank,
        "expected_ed": e.expected_ed,
    } for e in entries], "\n".join(
        f"{e.key} expected_rank={e.expected_rank} expected_ed={e.expected_ed}" for e in entries))
    return EXIT_OK


def _oracle_groups(p: int):
    if p == 2:
        c2 = make_cyclic(2)
        return [c2, make_cyclic(4), direct_product(c2, c2), dihedral8(), quaternion8()]
    if p == 3:
        return [make_cyclic(3), make_cyclic(9), heisenberg27()]
    return [make_cyclic(p), make_cyclic(p * p)]


# The genus-invariance section of `verify` covers catalog entries of free
# rank up to this: it compares each entry with itself in a random basis,
# and the p-local Hom kernel in rank^2 unknowns behind genus_equal still
# takes about 30 s for each rank-25 entry at p=5 in such a basis
# (M12r@p=5,r=1 on a shared 2-vCPU machine).
VERIFY_GENUS_RANK_CAP = 12
# Random modules that the oracle section of `verify` checks.
VERIFY_ORACLE_COUNT = 25
# The dimension of the coinvariant space W of M/pM for each family that
# the rank-C section of `verify` checks.
VERIFY_RANK_C = {"M7": 1, "M8": 1, "M9r": 2, "M10r": 2, "M11r": 2, "M12r": 2}


def _section(name: str, noun: str, outcomes: list[bool]):
    """One `verify` section: (name, noun, outcomes that hold, outcomes)."""
    return name, noun, sum(outcomes), len(outcomes)


def _genus_holds(rng: Random, entry, result, p: int, budget: int, seed: int) -> bool:
    """Whether the entry in a random basis keeps its ed and its genus."""
    other = conjugate_basis(rng, entry.module)
    return (min_permutation_rank(other, p).ed == result.ed
            and genus_equal(entry.module, other, p, budget=budget, seed=seed) == "yes")


def _oracle_agrees(module, p: int) -> bool:
    """Whether the greedy's min rank is the oracle's and its certificate replays."""
    fast = min_permutation_rank(module, p)
    slow = brute_force_min_rank(module, p, module.group.order * max(1, module.dim))
    return fast.min_rank == slow.min_rank and verify_certificate(module, fast.certificate, p)


def verify_sections(p: int, expected_rows, seed: int, max_r: int | None, genus_budget: int):
    """The verification suite; returns [(name, noun, ok, total)].

    The genus and oracle sections each draw from their own Random(seed).
    """
    # Listed: the sections below read every entry, some of them in pairs.
    solved = list(_solved_catalog(p, max_r))
    by_family = {row[0]: row for row in expected_rows}
    genus_rng, oracle_rng = Random(seed), Random(seed)
    groups = _oracle_groups(p)
    return [
        _section("table", "entries", [
            _agrees(e, res, by_family.get(e.family)) for e, res in solved]),
        _section("additivity", "pairs", [
            min_permutation_rank(direct_sum(e.module, f.module), p).ed == a.ed + b.ed
            for (e, a), (f, b) in itertools.combinations(solved, 2)]),
        _section("genus", "entries", [
            _genus_holds(genus_rng, e, res, p, genus_budget, seed) for e, res in solved
            if not e.module.torsion and e.module.free_rank <= VERIFY_GENUS_RANK_CAP]),
        _section("fixed-image", "entries", [
            fixed_image_subspace(e.module, subgroup_class(e.module.group, range(p * p))).dim == 0
            for e, _ in solved if e.family in PARAM_FAMILIES]),
        _section("rank-C", "entries", [
            coinvariants(reduce_mod_p(e.module))[0] == VERIFY_RANK_C[e.family]
            for e, _ in solved if e.family in VERIFY_RANK_C]),
        _section("oracle", "modules", [
            _oracle_agrees(random_module(oracle_rng, oracle_rng.choice(groups), p, max_dim=4), p)
            for _ in range(VERIFY_ORACLE_COUNT)]),
    ]


def _cmd_verify(args) -> int:
    if args.expected:
        expected_rows = parse_expected_table(load_json(args.expected))
    else:
        expected_rows = catalog.expected_table(args.prime)
    sections = verify_sections(args.prime, expected_rows, seed=args.seed,
                               max_r=args.max_r,
                               genus_budget=_budget(args, 4096))
    passed = all(ok == total for _, _, ok, total in sections)
    _emit(args, {
        "prime": args.prime,
        "sections": [{"name": n, "ok": ok, "total": total} for n, _, ok, total in sections],
        "pass": passed,
    }, "\n".join([f"{name}: {ok}/{total} {noun} {'OK' if ok == total else 'FAIL'}"
                  for name, noun, ok, total in sections] + ["PASS" if passed else "FAIL"]))
    return EXIT_OK if passed else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edlat",
        description="Essential p-dimension of finite diagonalizable groups "
                    "via minimal permutation covers of their character modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    ed = sub.add_parser("ed", help="minimal cover rank and essential dimension")
    ed.add_argument("--prime", type=int)
    ed.add_argument("--input", help="module JSON file, or a catalog key")
    ed.add_argument("--catalog", help="catalog key, e.g. M7@p=3")
    ed.add_argument("--oracle", action="store_true", help="use the brute-force search")
    ed.add_argument("--budget", type=int, help="rank budget of the --oracle search")
    ed.add_argument("--json", action="store_true")
    ed.set_defaults(func=_cmd_ed)

    table = sub.add_parser("table", help="recompute the twelve-family table")
    table.add_argument("--prime", type=int, required=True)
    table.add_argument("--max-r", type=int, dest="max_r")
    table.add_argument("--json", action="store_true")
    table.set_defaults(func=_cmd_table)

    genus = sub.add_parser("genus", help="same genus at p: yes / no / unknown")
    genus.add_argument("--prime", type=int)
    genus.add_argument("--input", action="append", dest="modules", metavar="INPUT")
    genus.add_argument("--catalog", action="append", dest="modules", metavar="CATALOG")
    genus.add_argument("--budget", type=int)
    genus.add_argument("--seed", type=int, default=0)
    genus.add_argument("--json", action="store_true")
    genus.set_defaults(func=_cmd_genus)

    classify = sub.add_parser("classify", help="ed of Z[set]/<fixed vector>: 0 or 1")
    classify.add_argument("--prime", type=int, required=True)
    classify.add_argument("--input", required=True, help="presentation JSON file")
    classify.add_argument("--json", action="store_true")
    classify.set_defaults(func=_cmd_classify)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--prime", type=int, required=True)
    verify.add_argument("--expected", help="override the expected-values table (JSON)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--max-r", type=int, dest="max_r")
    verify.add_argument("--budget", type=int)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    cat = sub.add_parser("catalog", help="list catalog keys at a prime")
    cat.add_argument("--prime", type=int, required=True)
    cat.add_argument("--max-r", type=int, dest="max_r")
    cat.add_argument("--json", action="store_true")
    cat.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AssertionError as exc:
        # A library invariant failed: the answer cannot be trusted, which is
        # a verification failure, not bad input.
        print(f"error: internal check failed: {str(exc) or 'assertion without message'}",
              file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
