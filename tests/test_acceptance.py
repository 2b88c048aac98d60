"""Acceptance gate: nine end-to-end checks of the whole pipeline.

Each test covers one numbered criterion and appends a PASS line to REPORT,
which conftest prints in the terminal summary. Timing limits are asserted
where the criterion carries a budget; measured times ride along in the
report line either way.
"""

import itertools
import time
from math import gcd
from random import Random

import pytest

from edlattice.catalog import (
    build_list_L,
    instantiated_catalog,
    permutation_module,
)
from edlattice.ed_solver import (
    CoverCertificate,
    brute_force_min_rank,
    classify_ed_le_one,
    genus_equal,
    min_permutation_rank,
    verify_certificate,
)
from edlattice.fp_module import coinvariants, fixed_image_subspace, reduce_mod_p
from edlattice.group_core import direct_product, make_cyclic, subgroup_class, subgroup_classes
from edlattice.int_lattice import (
    direct_sum,
    is_p_power,
    quotient_by_orbit_relations,
    smith_normal_form,
)
from edlattice.random_modules import random_module

PRIMES = (2, 3, 5)

REPORT: list[str] = []


def _record(criterion: int, detail: str) -> None:
    REPORT.append(f"[criterion {criterion}] PASS: {detail}")


# --- shared computations (each criterion reads, never mutates) ----------


@pytest.fixture(scope="module")
def catalog_solutions():
    """All catalog entries solved, per prime, with wall time."""
    out = {}
    for p in PRIMES:
        start = time.perf_counter()
        solved = [(e, min_permutation_rank(e.module, p))
                  for e in instantiated_catalog(p)]
        out[p] = (solved, time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def unit_sweep(multiplicative_order, twisted_torsion_module):
    """Every p-subgroup of (Z/p^n)^* acting on Z/p^n, for n up to 4.

    Multiplication by distinct units gives distinct maps, so every
    subgroup acts faithfully; enumerating subgroups of the p-Sylow is
    exactly the set of faithful p-subgroups.
    """
    records = []
    start = time.perf_counter()
    for p in PRIMES:
        for n in range(1, 5):
            modulus = p ** n
            sylow_units = [u for u in range(1, modulus)
                           if gcd(u, modulus) == 1
                           and is_p_power(multiplicative_order(u, modulus), p)]
            sylow = twisted_torsion_module(p, n, sylow_units)
            for cls in subgroup_classes(sylow.group):
                values = sorted(sylow.action(g)[0][0] % modulus
                                for g in cls.representative)
                module = twisted_torsion_module(p, n, values)
                result = min_permutation_rank(module, p)
                records.append((p, n, module, result, len(values)))
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def additivity_pairs():
    entries = instantiated_catalog(3)
    start = time.perf_counter()
    solved = []
    for a, b in itertools.combinations(entries, 2):
        total = direct_sum(a.module, b.module)
        result = min_permutation_rank(total, 3)
        solved.append((total, result, a.expected_ed + b.expected_ed))
    return solved, time.perf_counter() - start


@pytest.fixture(scope="module")
def random_sweep():
    rng = Random(0)
    plan = [(2, make_cyclic(2)), (2, make_cyclic(4)),
            (2, direct_product(make_cyclic(2), make_cyclic(2))),
            (3, make_cyclic(3)), (3, make_cyclic(9))]
    records = []
    start = time.perf_counter()
    for p, group in plan:
        for _ in range(40):
            module = random_module(rng, group, p, max_dim=4)
            fast = min_permutation_rank(module, p)
            slow = brute_force_min_rank(module, p,
                                        group.order * max(1, module.dim))
            records.append((p, module, fast, slow))
    return records, time.perf_counter() - start


# --- the nine criteria ---------------------------------------------------


def test_criterion_1_catalog_tables(catalog_solutions):
    elapsed = sum(spent for _, spent in catalog_solutions.values())
    counts = {}
    for p in PRIMES:
        solved, _ = catalog_solutions[p]
        counts[p] = len(solved)
        for entry, result in solved:
            assert not entry.module.torsion, entry.key
            assert entry.module.free_rank == entry.expected_rank, entry.key
            assert result.ed == entry.expected_ed, entry.key
    assert counts == {2: 9, 3: 13, 5: 21}
    assert elapsed < 60.0
    _record(1, f"catalog ranks and dimensions reproduced at p=2,3,5 "
               f"({sum(counts.values())} entries, {elapsed:.1f}s < 60s)")


def test_criterion_2_twisted_cyclic_modules(unit_sweep):
    records, elapsed = unit_sweep
    for p, n, module, result, order in records:
        assert module.group.order == order
        assert result.ed == order, (p, n, order, result.ed)
    per_case = {}
    for p, n, *_ in records:
        per_case[p, n] = per_case.get((p, n), 0) + 1
    # subgroup counts of the Sylow: C2^0..C2 x C4 at p=2, cyclic otherwise
    assert per_case == {(2, 1): 1, (2, 2): 2, (2, 3): 5, (2, 4): 8,
                        (3, 1): 1, (3, 2): 2, (3, 3): 3, (3, 4): 4,
                        (5, 1): 1, (5, 2): 2, (5, 3): 3, (5, 4): 4}
    kleins = [(module, result)
              for p, n, module, result, order in records
              if (p, n) == (2, 3) and order == 4
              and all(module.group.cayley[g][g] == 0
                      for g in module.group.elements())]
    assert len(kleins) == 1, "the non-cyclic order-4 unit group mod 8"
    assert kleins[0][1].ed == 4
    assert elapsed < 60.0
    _record(2, f"dimension equals acting-group order for all {len(records)} "
               f"faithful unit actions, n<=4, incl. the Klein group on Z/8 "
               f"({elapsed:.1f}s)")


def test_criterion_3_additivity(additivity_pairs):
    solved, elapsed = additivity_pairs
    assert len(solved) == 78
    for module, result, want in solved:
        assert result.ed == want, (module.free_rank, result.ed, want)
    assert elapsed < 300.0
    _record(3, f"dimension additive on all 78 catalog pairs at p=3 "
               f"({elapsed:.1f}s < 300s)")


def test_criterion_4_oracle_equivalence(random_sweep, catalog_solutions):
    records, elapsed = random_sweep
    assert len(records) == 200
    for p, module, fast, slow in records:
        assert module.dim <= 4
        assert fast.min_rank == slow.min_rank, (p, module.free_rank,
                                                module.torsion)
    solved_p2, _ = catalog_solutions[2]
    for entry, result in solved_p2:
        slow = brute_force_min_rank(
            entry.module, 2, entry.module.group.order * max(1, entry.module.dim))
        assert slow.min_rank == result.min_rank, entry.key
    _record(4, f"solver matches brute-force oracle on 200 random modules "
               f"and the full p=2 catalog, zero disagreements ({elapsed:.1f}s)")


def test_criterion_5_certificate_soundness(catalog_solutions, unit_sweep,
                                           additivity_pairs, random_sweep):
    checked = 0
    for p in PRIMES:
        for entry, result in catalog_solutions[p][0]:
            assert verify_certificate(entry.module, result.certificate, p)
            checked += 1
    for p, _n, module, result, _order in unit_sweep[0]:
        assert verify_certificate(module, result.certificate, p)
        checked += 1
    for module, result, _want in additivity_pairs[0]:
        assert verify_certificate(module, result.certificate, 3)
        checked += 1
    for p, module, fast, slow in random_sweep[0]:
        assert verify_certificate(module, fast.certificate, p)
        assert verify_certificate(module, slow.certificate, p)
        checked += 2
    # negative controls: a correct verifier must reject broken covers
    entry = build_list_L("M3", 3)
    good = min_permutation_rank(entry.module, 3).certificate
    scaled = CoverCertificate(tuple((cls, tuple(3 * x for x in gen))
                                    for cls, gen in good.summands),
                              good.total_rank)
    assert not verify_certificate(entry.module, scaled, 3)
    assert not verify_certificate(entry.module, CoverCertificate((), 0), 3)
    _record(5, f"all {checked} certificates verified sound; tampered and "
               f"empty covers rejected")


def test_criterion_6_zero_dimension_characterization(catalog_solutions, cover_module):
    start = time.perf_counter()
    lattices = 0
    for order, p in ((4, 2), (9, 3)):
        group = make_cyclic(order)
        classes = sorted(subgroup_classes(group), key=lambda c: c.index)
        for sizes in itertools.product(*[range(13)] * len(classes)):
            rank = sum(s * c.index for s, c in zip(sizes, classes))
            if rank == 0 or rank > 12:
                continue
            module = None
            for count, cls in zip(sizes, classes):
                for _ in range(count):
                    piece = permutation_module(group, cls, p)
                    module = piece if module is None else direct_sum(module, piece)
            assert min_permutation_rank(module, p).ed == 0, (order, sizes)
            lattices += 1
    assert lattices == 122
    zero_entries = 0
    for p in PRIMES:
        for entry, result in catalog_solutions[p][0]:
            if entry.expected_ed != 0:
                continue
            cover = cover_module(entry.module, result.certificate)
            assert genus_equal(entry.module, cover, p) == "yes", entry.key
            zero_entries += 1
    assert zero_entries == 9
    _record(6, f"all {lattices} permutation lattices of rank <= 12 over C4/C9 "
               f"get dimension 0; all {zero_entries} dimension-0 catalog "
               f"entries are genus-equal to their covers "
               f"({time.perf_counter() - start:.1f}s)")


def test_criterion_7_classifier_agreement():
    start = time.perf_counter()
    checked = 0
    branch = {}
    for p in (3, 5):
        group = make_cyclic(p * p)
        by_index = {c.index: c for c in subgroup_classes(group)}
        indices = (1, p, p * p)
        multisets = ([(i,) for i in indices]
                     + list(itertools.combinations_with_replacement(indices, 2)))
        for multiset in multisets:
            summands = [by_index[i] for i in multiset]
            base = permutation_module(group, summands[0], p)
            for cls in summands[1:]:
                base = direct_sum(base, permutation_module(group, cls, p))
            patterns = [[0] * len(multiset), [1] * len(multiset),
                        [p] * len(multiset)]
            if len(multiset) == 2:
                patterns += [[1, p], [p, 1]]
            for pattern in patterns:
                vector = []
                for coeff, cls in zip(pattern, summands):
                    vector.extend([coeff] * cls.index)
                if any(vector):
                    module = quotient_by_orbit_relations(base, [vector])
                else:
                    module = base
                got = min_permutation_rank(module, p).ed
                assert got == classify_ed_le_one(group, summands, vector, p), \
                    (p, multiset, pattern)
                checked += 1
                if pattern == [1] * len(multiset):
                    branch[p, multiset] = got
        # the two sum-zero branches: all orbits of size divisible by p
        # give dimension 1, a free orbit pulls it back down to 0
        assert branch[p, (p, p)] == 1
        assert branch[p, (1, p)] == 0
    assert checked == 78
    _record(7, f"classifier agrees with the solver on all {checked} "
               f"one-relation presentations at p=3,5, both sum-zero branches "
               f"({time.perf_counter() - start:.1f}s)")


def test_criterion_8_fixed_image_and_coinvariants():
    param = ("M9r", "M10r", "M11r", "M12r")
    expected_w = {"M7": 1, "M8": 1, "M9r": 2, "M10r": 2, "M11r": 2, "M12r": 2}
    fixed_checked = w_checked = 0
    for p in (3, 5):
        for entry in instantiated_catalog(p):
            if entry.family in param:
                whole_group = subgroup_class(entry.module.group, range(p * p))
                assert fixed_image_subspace(entry.module, whole_group).dim == 0, \
                    entry.key
                fixed_checked += 1
            want = expected_w.get(entry.family)
            if want is not None:
                w_dim, _ = coinvariants(reduce_mod_p(entry.module))
                assert w_dim == want, entry.key
                w_checked += 1
    assert fixed_checked == 18 and w_checked == 22
    _record(8, f"invariants vanish in coinvariants for all {fixed_checked} "
               f"parametrized entries at p=3,5; all {w_checked} coinvariant "
               f"dimensions match")


def test_criterion_9_normal_form_properties(check_smith_form):
    rng = Random(0)
    start = time.perf_counter()
    for _ in range(10_000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        check_smith_form(matrix, *smith_normal_form(matrix))
    _record(9, f"10000 random normal forms: divisibility chain, u @ m is "
               f"diag(d) times rows extending to a unimodular matrix, "
               f"u @ u^-1 = I, zero failures ({time.perf_counter() - start:.1f}s)")
