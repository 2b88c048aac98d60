"""Command-line front end.

JSON descriptions (or catalog keys) in, text or JSON out.  Exit codes:
0 success, 2 invalid input, 3 verification mismatch or a failed internal
check.  All output is deterministic for fixed flags; randomized checks
take an explicit --seed.
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
        raise ValueError(f"--prime {prime} conflicts with catalog key {text!r}")
    return entry.module, entry.p


def _budget(args, default: int) -> int:
    """--budget when given, refusing a negative one; else the default."""
    if args.budget is not None and args.budget < 0:
        raise ValueError(f"--budget must be nonnegative, got {args.budget}")
    return default if args.budget is None else args.budget


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
    if args.json:
        print(dump_json(result_to_json(result, {"prime": p})))
    else:
        print(f"min_rank={result.min_rank} ed={result.ed}")
    return EXIT_OK


def _table_rows(p: int, max_r: int | None):
    rows = []
    for family, r_values, rank, ed in catalog.expected_table(p):
        if family in PARAM_FAMILIES:
            sweep = [r for r in r_values if max_r is None or r <= max_r]
        else:
            sweep = [None]
        computed = []
        for r in sweep:
            entry = catalog.build_list_L(family, p, r)
            res = min_permutation_rank(entry.module, p)
            computed.append({
                "r": r,
                "rank": entry.module.free_rank,
                "ed": res.ed,
                "torsion": list(entry.module.torsion),
            })
        if family in PARAM_FAMILIES and not r_values:
            status = "N/A (range empty)"
        elif computed and all(c["rank"] == rank and c["ed"] == ed and not c["torsion"]
                              for c in computed):
            status = "ok"
        elif not computed:
            status = "skipped"
        else:
            status = "FAIL"
        rows.append({
            "family": family,
            "r_values": list(r_values),
            "expected": {"rank": rank, "ed": ed},
            "computed": computed,
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
    failed = any(row["status"] == "FAIL" for row in rows)
    if args.json:
        print(dump_json({"prime": args.prime, "rows": rows}))
        return EXIT_MISMATCH if failed else EXIT_OK
    header = f"{'family':<6} {'r':<6} {'rank':>4} {'got':>4} {'ed':>3} {'got':>4}  status"
    print(header)
    print("-" * len(header))
    for row in rows:
        exp = row["expected"]
        if row["computed"]:
            got_rank = str(row["computed"][0]["rank"])
            got_ed = str(row["computed"][0]["ed"])
        else:
            got_rank = got_ed = "-"
        print(f"{row['family']:<6} {_format_r(row):<6} {exp['rank']:>4} {got_rank:>4} "
              f"{exp['ed']:>3} {got_ed:>4}  {row['status']}")
    return EXIT_MISMATCH if failed else EXIT_OK


def _cmd_genus(args) -> int:
    # --input and --catalog append to one list, in command-line order.
    inputs = args.modules or []
    if len(inputs) != 2:
        raise ValueError("genus needs exactly two modules (--input/--catalog twice)")
    first, p = _resolve_module(inputs[0], args.prime)
    second, q = _resolve_module(inputs[1], p)
    if p != q:
        raise ValueError("the two modules use different primes")
    answer = genus_equal(first, second, p, budget=_budget(args, 10 ** 6), seed=args.seed)
    if args.json:
        print(dump_json({"genus_equal": answer, "prime": p}))
    else:
        print(f"genus_equal={answer}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    if not args.input:
        raise ValueError("--input with a presentation file is required")
    group, summands, vector = parse_presentation(load_json(args.input))
    value = classify_ed_le_one(group, summands, vector, args.prime)
    if args.json:
        print(dump_json({"ed": value, "prime": args.prime}))
    else:
        print(f"ed={value}")
    return EXIT_OK


def _cmd_catalog(args) -> int:
    entries = catalog.instantiated_catalog(args.prime, args.max_r)
    if args.json:
        print(dump_json([{
            "key": e.key,
            "family": e.family,
            "r": e.r,
            "expected_rank": e.expected_rank,
            "expected_ed": e.expected_ed,
        } for e in entries]))
        return EXIT_OK
    for e in entries:
        print(f"{e.key} expected_rank={e.expected_rank} expected_ed={e.expected_ed}")
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


def verify_sections(p: int, expected_rows, seed: int, max_r: int | None, genus_budget: int):
    """The verification suite; returns [(name, noun, ok, total)]."""
    entries = catalog.instantiated_catalog(p, max_r)
    sections = []

    by_family = {row[0]: row for row in expected_rows}
    results = {}
    ok = 0
    for e in entries:
        res = min_permutation_rank(e.module, p)
        results[e.key] = res
        row = by_family.get(e.family)
        if (row is not None and not e.module.torsion
                and e.module.free_rank == row[2] and res.ed == row[3]):
            ok += 1
    sections.append(("table", "entries", ok, len(entries)))

    pairs = list(itertools.combinations(range(len(entries)), 2))
    ok = 0
    for i, j in pairs:
        total = direct_sum(entries[i].module, entries[j].module)
        res = min_permutation_rank(total, p)
        if res.ed == results[entries[i].key].ed + results[entries[j].key].ed:
            ok += 1
    sections.append(("additivity", "pairs", ok, len(pairs)))

    rng = Random(seed)
    ok = total = 0
    for e in entries:
        if e.module.torsion or e.module.free_rank > VERIFY_GENUS_RANK_CAP:
            continue
        total += 1
        other = conjugate_basis(rng, e.module)
        same_ed = min_permutation_rank(other, p).ed == results[e.key].ed
        if same_ed and genus_equal(e.module, other, p, budget=genus_budget, seed=seed) == "yes":
            ok += 1
    sections.append(("genus", "entries", ok, total))

    ok = total = 0
    for e in entries:
        if e.family not in ("M9r", "M10r", "M11r", "M12r"):
            continue
        total += 1
        full_group = subgroup_class(e.module.group, range(p * p))
        if fixed_image_subspace(e.module, full_group).dim == 0:
            ok += 1
    sections.append(("fixed-image", "entries", ok, total))

    expected_c = {"M7": 1, "M8": 1, "M9r": 2, "M10r": 2, "M11r": 2, "M12r": 2}
    ok = total = 0
    for e in entries:
        want = expected_c.get(e.family)
        if want is None:
            continue
        total += 1
        w_dim, _ = coinvariants(reduce_mod_p(e.module))
        if w_dim == want:
            ok += 1
    sections.append(("rank-C", "entries", ok, total))

    groups = _oracle_groups(p)
    rng = Random(seed)
    ok = 0
    for _ in range(VERIFY_ORACLE_COUNT):
        group = rng.choice(groups)
        module = random_module(rng, group, p, max_dim=4)
        fast = min_permutation_rank(module, p)
        slow = brute_force_min_rank(module, p, group.order * max(1, module.dim))
        if (fast.min_rank == slow.min_rank
                and verify_certificate(module, fast.certificate, p)):
            ok += 1
    sections.append(("oracle", "modules", ok, VERIFY_ORACLE_COUNT))
    return sections


def _cmd_verify(args) -> int:
    if args.expected:
        expected_rows = parse_expected_table(load_json(args.expected))
    else:
        expected_rows = catalog.expected_table(args.prime)
    sections = verify_sections(args.prime, expected_rows, seed=args.seed,
                               max_r=args.max_r,
                               genus_budget=_budget(args, 4096))
    passed = all(ok == total for _, _, ok, total in sections)
    if args.json:
        print(dump_json({
            "prime": args.prime,
            "sections": [{"name": n, "ok": ok, "total": total}
                         for n, _, ok, total in sections],
            "pass": passed,
        }))
    else:
        for name, noun, ok, total in sections:
            print(f"{name}: {ok}/{total} {noun} {'OK' if ok == total else 'FAIL'}")
        print("PASS" if passed else "FAIL")
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
