"""Seeded inputs and checked operations for the three benchmark workloads.

Each workload is a list of inputs made from the seed during set-up and one
operation applied to each input.  An operation checks its own output and
raises WrongAnswer when the program returned something incorrect; any other
exception, or a warning, is a failure the harness counts.

Library functions are always reached through their module (for example
``ed_solver.min_permutation_rank``) so that the span wrappers installed by
``spans.Tracer`` see every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from random import Random
from typing import Any, Callable

from edlattice import catalog, ed_solver, fp_module, group_core, int_lattice, jsonio
from edlattice import random_modules

# Catalog: every instantiated entry at these primes.  M1-M8 at p = 7 are
# left out: they took 6 s of a 9 s pass, which left room for only three
# passes in a run, and op_p50_ms then moved 27% from run to run.
CATALOG_PRIMES = (2, 3, 5)

# Module structures come from this fixed generation seed; the run's seed
# picks a random basis of every module's free part and the operation order.
# Random structures per seed moved a pass by 25-40% from seed to seed
# (the cover search's cost depends on each sum's minimum, not only on its
# size), so no bound could tell a regression from a change of inputs.  A
# change of basis leaves every module, and so the solver's work, the same up
# to isomorphism, while the program still receives different matrices.
STRUCTURE_SEED = 0

# Cover search: (group, w_dim, number of sums), sums of 3 to 5 parts.  The
# C2^3 sums at w_dim 7 (16 subgroup classes) take about half of a pass.
COVER_LEVELS = [("C2xC2xC2", d, 4) for d in range(3, 8)] + [("C2xC4", d, 4) for d in range(3, 9)]
COVER_PART_POOL = 80

# Oracle: modules of dimension <= 4 per group, same count for every group.
ORACLE_MODULES_PER_GROUP = 28


class WrongAnswer(Exception):
    """The program returned a result that the benchmark's check rejects."""


@dataclass
class Workload:
    name: str
    inputs: list  # one item per operation, in run order
    labels: list  # a short description of each item, for failure records
    operation: Callable[[Any], None]
    digest: str  # sha256 of the generated inputs


# --- groups not built into the library ------------------------------------

def dihedral8() -> group_core.FiniteGroup:
    """D8 = <r, s | r^4, s^2, srs = r^-1>, element r^a s^b at index a + 4b."""
    def index(a, b):
        return a % 4 + 4 * (b % 2)
    table = [[index(a + (c if b == 0 else -c), b + d)
              for d in range(2) for c in range(4)]
             for b in range(2) for a in range(4)]
    return group_core.from_table(table, name="D8")


def quaternion8() -> group_core.FiniteGroup:
    """Q8 = {+-1, +-i, +-j, +-k}; unit u in (1, i, j, k) with sign s at index u + 4[s < 0]."""
    units = {  # (u, v) -> (sign, w) with u * v = sign * w
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    elements = [(s, u) for s in (1, -1) for u in range(4)]
    table = []
    for s1, u1 in elements:
        row = []
        for s2, u2 in elements:
            s, w = units[(u1, u2)]
            row.append(w + (4 if s * s1 * s2 < 0 else 0))
        table.append(row)
    return group_core.from_table(table, name="Q8")


def heisenberg27() -> group_core.FiniteGroup:
    """Upper unitriangular 3x3 matrices over F_3; (a, b, c) at index a + 3b + 9c."""
    elements = [(a, b, c) for c in range(3) for b in range(3) for a in range(3)]
    table = [[(x[0] + y[0]) % 3 + 3 * ((x[1] + y[1]) % 3)
              + 9 * ((x[2] + y[2] + x[0] * y[1]) % 3)
              for y in elements] for x in elements]
    return group_core.from_table(table, name="H27")


def _product(*factors):
    group = factors[0]
    for factor in factors[1:]:
        group = group_core.direct_product(group, factor)
    return group


# --- input digest ----------------------------------------------------------

def describe_module(module) -> list:
    """Group table plus generator matrices: what the program receives."""
    gens = module.group.generators() or [0]
    return [module.prime, module.free_rank, list(module.torsion),
            module.group.cayley, [[g, module.action(g)] for g in gens]]


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def _count(n: int, scale: float) -> int:
    return max(1, round(n * scale))


# --- catalog -----------------------------------------------------------------

def _catalog_op(key):
    family, p, r = key
    entry = catalog.build_list_L(family, p, r)
    result = ed_solver.min_permutation_rank(entry.module, p)
    if not ed_solver.verify_certificate(entry.module, result.certificate, p):
        raise WrongAnswer("certificate rejected")
    if entry.module.torsion or entry.module.free_rank != entry.expected_rank:
        raise WrongAnswer(f"rank {entry.module.free_rank} torsion {entry.module.torsion}, "
                          f"expected rank {entry.expected_rank}")
    if result.ed != entry.expected_ed:
        raise WrongAnswer(f"ed {result.ed}, expected {entry.expected_ed}")
    payload = json.loads(jsonio.dump_json(jsonio.result_to_json(result, {"prime": p})))
    if payload["ed"] != result.ed or payload["min_rank"] != result.min_rank:
        raise WrongAnswer("JSON result differs from the computed one")


def make_catalog(seed: int, scale: float = 1.0) -> Workload:
    keys = []
    for p in CATALOG_PRIMES:
        keys += [(f, p, None) for f in catalog.FIXED_FAMILIES]
        keys += [(f, p, r) for f in catalog.PARAM_FAMILIES for r in catalog.admissible_r(f, p)]
    # A smaller scale keeps the cheapest entries (table order is by prime).
    keys = keys[:_count(len(keys), scale)]
    Random(seed).shuffle(keys)
    labels = [f"{f}@p={p}" + (f",r={r}" if r is not None else "") for f, p, r in keys]
    return Workload("catalog", keys, labels, _catalog_op, digest(labels))


# --- cover_search ------------------------------------------------------------

def _w_dim(module) -> int:
    if module.dim == 0:
        return 0
    return fp_module.coinvariants(fp_module.reduce_mod_p(module))[0]


def _cover_op(item):
    total, parts = item
    result = ed_solver.min_permutation_rank(total, 2)
    if not ed_solver.verify_certificate(total, result.certificate, 2):
        raise WrongAnswer("certificate rejected")
    part_sum = sum(ed_solver.min_permutation_rank(part, 2).min_rank for part in parts)
    if result.min_rank != part_sum:
        raise WrongAnswer(f"min_rank {result.min_rank} of the sum, "
                          f"{part_sum} summed over its parts")


def make_cover_search(seed: int, scale: float = 1.0) -> Workload:
    shape = Random(STRUCTURE_SEED)
    c2 = group_core.make_cyclic(2)
    groups = {"C2xC2xC2": _product(c2, c2, c2), "C2xC4": _product(c2, group_core.make_cyclic(4))}
    pools = {}
    for name, group in groups.items():
        pool = []
        while len(pool) < COVER_PART_POOL:
            part = random_modules.random_module(shape, group, 2, max_dim=4)
            w = _w_dim(part)
            if w:
                pool.append((w, part))
        pools[name] = pool
    sums = []
    for name, target, count in COVER_LEVELS[:_count(len(COVER_LEVELS), scale)]:
        for _ in range(_count(count, scale)):
            for _attempt in range(10000):
                chosen = shape.sample(pools[name], shape.choice((3, 4, 5)))
                if sum(w for w, _ in chosen) == target:
                    break
            else:
                raise RuntimeError(f"no 3 to 5 parts over {name} add up to w_dim {target}")
            sums.append((f"{name} w_dim={target} parts={len(chosen)}", [m for _, m in chosen]))
    rng = Random(seed)
    rng.shuffle(sums)
    inputs, labels = [], []
    for label, parts in sums:
        parts = [random_modules.conjugate_basis(rng, part) for part in parts]
        total = parts[0]
        for part in parts[1:]:
            total = int_lattice.direct_sum(total, part)
        inputs.append((random_modules.conjugate_basis(rng, total), parts))
        labels.append(label)
    return Workload("cover_search", inputs, labels, _cover_op,
                    digest([describe_module(total)] + [describe_module(m) for m in parts]
                           for total, parts in inputs))


# --- oracle --------------------------------------------------------------------

def _oracle_op(item):
    module, p = item
    fast = ed_solver.min_permutation_rank(module, p)
    slow = ed_solver.brute_force_min_rank(module, p, module.group.order * max(1, module.dim))
    if not ed_solver.verify_certificate(module, fast.certificate, p):
        raise WrongAnswer("certificate rejected")
    if (fast.min_rank, fast.ed) != (slow.min_rank, slow.ed):
        raise WrongAnswer(f"solver says {fast.min_rank}, oracle says {slow.min_rank}")


def oracle_groups() -> dict:
    c2, c3 = group_core.make_cyclic(2), group_core.make_cyclic(3)
    return {
        2: [c2, group_core.make_cyclic(4), _product(c2, c2), dihedral8(), quaternion8()],
        3: [c3, group_core.make_cyclic(9), _product(c3, c3), heisenberg27()],
    }


def make_oracle(seed: int, scale: float = 1.0) -> Workload:
    shape = Random(STRUCTURE_SEED)
    items = []
    for p, groups in oracle_groups().items():
        for group in groups:
            for _ in range(_count(ORACLE_MODULES_PER_GROUP, scale)):
                items.append((random_modules.random_module(shape, group, p, max_dim=4), p))
    rng = Random(seed)
    rng.shuffle(items)
    items = [(random_modules.conjugate_basis(rng, m), p) for m, p in items]
    labels = [f"{m.group.name} p={p} dim={m.dim}" for m, p in items]
    return Workload("oracle", items, labels, _oracle_op,
                    digest(describe_module(m) for m, _ in items))


def make(name: str, seed: int, scale: float = 1.0) -> Workload:
    makers = {"catalog": make_catalog, "cover_search": make_cover_search, "oracle": make_oracle}
    return makers[name](seed, scale)
