import itertools
import json
import os
import subprocess
import sys
import time
from operator import mul
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from edlattice import cli, ed_solver, fp_module
from edlattice.catalog import (
    build_cyclic,
    build_list_L,
    parse_catalog_key,
    permutation_module,
    trivial_lattice,
)
from edlattice.ed_solver import (
    BudgetExceededError,
    CoverCertificate,
    EdResult,
    brute_force_min_rank,
    classify_ed_le_one,
    genus_equal,
    min_permutation_rank,
    verify_certificate,
)
from edlattice.fp_module import (
    Echelon,
    Subspace,
    coinvariants,
    layout,
    project,
    reduce_mod_p,
)
from edlattice.group_core import (
    coset_action,
    dihedral8,
    direct_product,
    heisenberg27,
    make_cyclic,
    quaternion8,
    subgroup_class,
    subgroup_classes,
)
from edlattice.int_lattice import (
    GaloisModule,
    direct_sum,
    fixed_submodule,
    hermite_normal_form,
    hom_module,
    local_fixed_bases,
    smith_normal_form,
)
from edlattice.jsonio import module_to_json, result_to_json
from edlattice.random_modules import conjugate_basis, random_module


def _sign(g):
    return GaloisModule(g, 2, 1, [], {1: [[-1]]})


def test_zero_module():
    g = make_cyclic(2)
    m = GaloisModule(g, 2, 0, [], {1: []})
    res = min_permutation_rank(m, 2)
    assert (res.min_rank, res.ed) == (0, 0)
    assert verify_certificate(m, res.certificate, 2)


def test_trivial_lattice_is_free_of_cost():
    g = make_cyclic(9)
    m = trivial_lattice(g, 3, 4)
    res = min_permutation_rank(m, 3)
    assert (res.min_rank, res.ed) == (4, 0)


def test_regular_lattice_costs_its_rank():
    g = make_cyclic(4)
    res = min_permutation_rank(permutation_module(g, subgroup_class(g, (0,)), 2), 2)
    assert (res.min_rank, res.ed) == (4, 0)


def test_m3_cover_is_one_middle_coset_summand():
    entry = build_list_L("M3", 3)
    res = min_permutation_rank(entry.module, 3)
    assert (res.min_rank, res.ed) == (3, 1)
    assert len(res.certificate.summands) == 1
    cls, gen = res.certificate.summands[0]
    assert cls.index == 3
    assert verify_certificate(entry.module, res.certificate, 3)


def test_sign_plus_trivial_needs_rank_three():
    g = make_cyclic(2)
    m = direct_sum(_sign(g), trivial_lattice(g, 2, 1))
    fast = min_permutation_rank(m, 2)
    slow = brute_force_min_rank(m, 2, 8)
    assert fast.min_rank == slow.min_rank == 3
    assert fast.ed == 1


def test_twisted_cyclic_values():
    for (p, n, a, want) in [(3, 2, 4, 3), (2, 3, 3, 2), (3, 1, 1, 1), (2, 2, 3, 2)]:
        entry = build_cyclic(p, n, a)
        res = min_permutation_rank(entry.module, p)
        assert res.ed == want == entry.expected_ed


def test_certificate_rejects_tampering():
    entry = build_list_L("M3", 3)
    res = min_permutation_rank(entry.module, 3)
    cert = res.certificate
    assert verify_certificate(entry.module, cert, 3)
    # scaling a generator by p makes the cokernel divisible by p
    cls, gen = cert.summands[0]
    scaled = CoverCertificate(((cls, tuple(3 * x for x in gen)),), cert.total_rank)
    assert not verify_certificate(entry.module, scaled, 3)
    # dropping a summand cannot stay surjective
    empty = CoverCertificate((), 0)
    assert not verify_certificate(entry.module, empty, 3)


def test_certificate_fixedness_and_cokernel_checks():
    # Z/9 twisted by 4 over C3: fixed points of the full group are 3Z/9
    m = build_cyclic(3, 2, 4).module
    full = [c for c in subgroup_classes(m.group) if c.index == 1][0]
    # 1 is not fixed (4*1 = 4), so a full-stabilizer summand on it is invalid
    unfixed = CoverCertificate(((full, (1,)),), 1)
    assert not verify_certificate(m, unfixed, 3)
    # 3 is fixed, but its orbit only reaches 3Z/9: cokernel of order 3
    shallow = CoverCertificate(((full, (3,)),), 1)
    assert not verify_certificate(m, shallow, 3)


def test_certificate_wrong_prime_raises():
    entry = build_list_L("M3", 3)
    res = min_permutation_rank(entry.module, 3)
    with pytest.raises(ValueError):
        verify_certificate(entry.module, res.certificate, 5)


def test_brute_force_budget_errors(monkeypatch):
    g = make_cyclic(2)
    m = trivial_lattice(g, 2, 5)
    with monkeypatch.context() as patch:
        patch.setattr(ed_solver, "ORACLE_ENUMERATION_CAP", 10)
        with pytest.raises(BudgetExceededError):
            brute_force_min_rank(m, 2, 20)
    with pytest.raises(BudgetExceededError):
        brute_force_min_rank(m, 2, 3)  # needs rank 5


def test_solver_rejects_non_p_group():
    g = make_cyclic(6)
    m = trivial_lattice(g, 3, 1)
    with pytest.raises(ValueError):
        min_permutation_rank(m, 3)


def test_solver_rejects_wrong_prime():
    m = trivial_lattice(make_cyclic(2), 2, 1)
    with pytest.raises(ValueError):
        min_permutation_rank(m, 3)


def test_classifier_branches():
    c9 = make_cyclic(9)
    classes = {c.index: c for c in subgroup_classes(c9)}
    delta3 = [1, 1, 1]
    assert classify_ed_le_one(c9, [classes[3]], delta3, 3) == 1
    assert classify_ed_le_one(c9, [classes[3], classes[1]], delta3 + [1], 3) == 0
    assert classify_ed_le_one(c9, [classes[3], classes[1]], delta3 + [3], 3) == 1
    assert classify_ed_le_one(c9, [classes[3]], [0, 0, 0], 3) == 0
    assert classify_ed_le_one(c9, [classes[9]], [1] * 9, 3) == 1


def _reference_classify(group, summands, coeffs, p):
    """The classifier as written with a permuted copy of the whole vector."""
    if p == 2:
        raise ValueError("classifier is only valid for odd p")
    if not group.is_p_group(p):
        raise ValueError("acting group must be a p-group for odd prime p")
    actions = [coset_action(group, cls) for cls in summands]
    degrees = [a.degree for a in actions]
    if len(coeffs) != sum(degrees):
        raise ValueError("coefficient vector does not match the set size")
    for g in group.generators():
        permuted = []
        offset = 0
        for act, deg in zip(actions, degrees):
            perm = act.permutations[g]
            block = [0] * deg
            for i in range(deg):
                block[perm[i]] = coeffs[offset + i]
            permuted.extend(block)
            offset += deg
        if permuted != list(coeffs):
            raise ValueError("vector is not fixed by the group")
    if not any(coeffs):
        return 0
    offset = 0
    for deg in degrees:
        if deg == 1 and coeffs[offset] % p:
            return 0
        offset += deg
    return 1


@pytest.mark.parametrize("make_group, p", [
    (lambda: make_cyclic(9), 3), (lambda: direct_product(make_cyclic(3), make_cyclic(3)), 3),
    (heisenberg27, 3), (lambda: make_cyclic(25), 5),
], ids=["C9", "C3xC3", "H27", "C25"])
def test_classifier_matches_the_permuted_vector_reference(make_group, p):
    group = make_group()
    classes = subgroup_classes(group)
    rng = Random(p * 1000 + group.order)
    outcomes = set()
    for _ in range(150):
        summands = [rng.choice(classes) for _ in range(rng.randrange(1, 4))]
        size = sum(cls.index for cls in summands)
        kind = rng.randrange(4)
        if kind < 2:  # fixed: constant on each block, which G permutes transitively
            vector = [c for cls in summands
                      for c in [rng.choice((0, 0, 1, p, rng.randrange(-p, 2 * p)))] * cls.index]
        elif kind == 2:  # any vector, almost never fixed
            vector = [rng.randrange(-1, p + 1) for _ in range(size)]
        else:  # the wrong length
            vector = [1] * (size + rng.choice((-1, 1)))
        try:
            expected = _reference_classify(group, summands, vector, p)
        except ValueError as exc:
            expected = str(exc)
        try:
            got = classify_ed_le_one(group, summands, vector, p)
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (summands, vector)
        outcomes.add(expected)
    assert outcomes == {0, 1, "vector is not fixed by the group",
                        "coefficient vector does not match the set size"}


def test_classifier_rejects_p2_and_unfixed_vectors():
    c2 = make_cyclic(2)
    cls = subgroup_classes(c2)[0]
    with pytest.raises(ValueError):
        classify_ed_le_one(c2, [cls], [1, 1], 2)
    c9 = make_cyclic(9)
    full = [c for c in subgroup_classes(c9) if c.index == 9][0]
    with pytest.raises(ValueError):
        classify_ed_le_one(c9, [full], [1, 0, 0, 0, 0, 0, 0, 0, 0], 3)


def test_genus_frozen_examples():
    g = make_cyclic(2)
    reg = permutation_module(g, subgroup_class(g, (0,)), 2)
    split = direct_sum(trivial_lattice(g, 2, 1), _sign(g))
    assert genus_equal(reg, split, 2) == "no"
    assert genus_equal(reg, reg, 2) == "yes"
    # rank mismatch is an immediate no
    assert genus_equal(reg, trivial_lattice(g, 2, 1), 2) == "no"
    # multiplication by 2 identifies M with its index-2^rank sublattice,
    # and 2^rank is prime to 3
    m5 = build_list_L("M5", 3).module
    assert genus_equal(m5, m5, 3) == "yes"
    # Hom out of the trivial Z^n has up to n^2 maps, more terms than rows
    # of length n can sum without a reduction after each; a "no" needs the
    # exhaustive pass over every combination.
    for left, right, maps, want in (
            ("perm@p=2,n=4,indices=1+1+1", "perm@p=2,n=4,indices=1+1+1", 9, "yes"),
            ("perm@p=2,n=4,indices=1+1+1", "perm@p=2,n=4,indices=1+2", 6, "no"),
            ("perm@p=3,n=3,indices=1+1+1", "perm@p=3,n=3,indices=1+1+1", 9, "yes"),
            ("perm@p=3,n=3,indices=1+1+1", "perm@p=3,n=3,indices=3", 3, "no"),
            ("perm@p=3,n=3,indices=1+1+1+1", "perm@p=3,n=3,indices=1+3", 8, "no")):
        l, m = parse_catalog_key(left).module, parse_catalog_key(right).module
        assert len(hom_module(l, m)) == maps
        assert genus_equal(l, m, l.prime) == want, (left, right)


def test_genus_unknown_is_explicit():
    g = make_cyclic(2)
    reg = permutation_module(g, subgroup_class(g, (0,)), 2)
    split = direct_sum(trivial_lattice(g, 2, 1), _sign(g))
    # budget 1 forbids the exhaustive pass; sampling cannot prove "no"
    assert genus_equal(reg, split, 2, budget=1) == "unknown"


def test_a_solve_reduces_its_module_mod_p_once(monkeypatch):
    built = []
    init = fp_module.FpGaloisModule.__init__

    def counting(self, module):
        built.append(module)
        init(self, module)

    monkeypatch.setattr(fp_module.FpGaloisModule, "__init__", counting)
    m = build_list_L("M7", 3).module
    min_permutation_rank(m, 3)
    assert built == [m]
    built.clear()
    brute_force_min_rank(m, 3, m.group.order * m.dim)
    assert built == [m]
    built.clear()
    assert verify_certificate(m, min_permutation_rank(m, 3).certificate, 3)
    assert built == [m, m]


C16_REGULAR_RANDOM_BASIS = Path(__file__).parent / "data" / "c16_regular_random_basis.json"


def test_genus_of_a_dense_basis_lattice_is_fast():
    # An integer HNF of this Hom system (`kernel_basis`) takes 98-107 s;
    # the p-local kernel that `hom_module` uses takes about 2 s.
    c16 = make_cyclic(16)
    reg = permutation_module(c16, subgroup_class(c16, (0,)), 2)
    other = conjugate_basis(Random(0), reg)
    # The committed CLI input is this module.
    assert json.loads(C16_REGULAR_RANDOM_BASIS.read_text()) == module_to_json(other)
    start = time.perf_counter()
    assert genus_equal(reg, other, 2) == "yes"
    assert time.perf_counter() - start < 30


def test_cover_module_matches_certificate(cover_module):
    entry = build_list_L("M2", 3)
    res = min_permutation_rank(entry.module, 3)
    cover = cover_module(entry.module, res.certificate)
    assert cover.free_rank == res.min_rank
    assert genus_equal(entry.module, cover, 3) == "yes"


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_solver_matches_oracle_on_random_modules(seed):
    rng = Random(seed)
    groups = [make_cyclic(2), make_cyclic(4),
              direct_product(make_cyclic(2), make_cyclic(2))]
    g = rng.choice(groups)
    m = random_module(rng, g, 2, max_dim=3)
    fast = min_permutation_rank(m, 2)
    slow = brute_force_min_rank(m, 2, g.order * max(1, m.dim))
    assert fast.min_rank == slow.min_rank
    assert verify_certificate(m, fast.certificate, 2)
    assert verify_certificate(m, slow.certificate, 2)


def test_examined_counter_reported():
    entry = build_list_L("M7", 3)
    res = min_permutation_rank(entry.module, 3)
    w_dim, _ = coinvariants(reduce_mod_p(entry.module))
    # the greedy keeps one summand per dimension of W, at its class's index
    summands = res.certificate.summands
    assert len(summands) == w_dim
    assert sum(cls.index for cls, _ in summands) == res.min_rank


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [1, 3, 5, 32, 45, 55])
def test_solver_matches_oracle_on_d8(d8, seed):
    m = random_module(Random(seed), d8, 2, max_dim=4)
    fast = min_permutation_rank(m, 2)
    slow = brute_force_min_rank(m, 2, d8.order * max(1, m.dim))
    assert fast.min_rank == slow.min_rank
    assert verify_certificate(m, fast.certificate, 2)


@pytest.mark.filterwarnings("error")
def test_fixed_lattices_are_computed_only_when_reached(monkeypatch):
    calls = []

    def counting(m, classes):
        for cls, basis in local_fixed_bases(m, classes):
            calls.append(cls.index)
            yield cls, basis

    monkeypatch.setattr(ed_solver, "local_fixed_bases", counting)
    # The index-1 class already spans W for M1, so the loop stops there.
    min_permutation_rank(build_list_L("M1", 3).module, 3)
    assert calls == [1]
    calls.clear()
    min_permutation_rank(build_list_L("M7", 3).module, 3)
    assert calls == [1, 3, 9]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["M7@p=3", "d8-seed-43"])
def test_certificate_generators_are_fixed_basis_vectors(d8, case):
    if case == "M7@p=3":
        m, p = build_list_L("M7", 3).module, 3
    else:
        # covered by summands of index 1, 1 and 2
        m, p = random_module(Random(43), d8, 2, max_dim=4), 2
    res = min_permutation_rank(m, p)
    assert res.certificate.summands
    classes = [cls for cls, _ in res.certificate.summands]
    bases = dict(local_fixed_bases(m, classes))
    for cls, gen in res.certificate.summands:
        assert list(gen) in [m.canon_vector(b) for b in bases[cls]]
        # gen lies in M^H: appending it to the HNF basis adds only a zero row.
        fixed = fixed_submodule(m, cls)
        assert hermite_normal_form(fixed + [list(gen)]) == fixed + [[0] * m.dim]


def _hnf_greedy(m, p):
    """The greedy of `min_permutation_rank` walking HNF bases of M^H: the
    reference the p-local bases must agree with."""
    w_dim, projection = coinvariants(reduce_mod_p(m))
    span, summands = Echelon(layout(w_dim, p)), []
    for cls in sorted(subgroup_classes(m.group), key=lambda c: c.index):
        if len(span.rows) == w_dim:
            break
        for b in fixed_submodule(m, cls):
            if span.insert(project(projection, b, p)) is not None:
                summands.append((cls, tuple(m.canon_vector(b))))
    total = sum(cls.index for cls, _ in summands)
    return EdResult(total, total - m.free_rank, CoverCertificate(tuple(summands), total))


def test_greedy_on_local_bases_agrees_with_the_hnf_walk(small_p_groups):
    rng = Random(7)
    modules = [random_module(rng, g, p, max_dim=6)
               for g, p in small_p_groups for _ in range(45)]
    other_generators = 0
    for m in modules:
        p = m.prime
        got, want = min_permutation_rank(m, p), _hnf_greedy(m, p)
        assert (got.min_rank, got.ed) == (want.min_rank, want.ed), m
        got_json, want_json = result_to_json(got), result_to_json(want)
        assert got_json["diagnostics"] == want_json["diagnostics"], m
        assert ([cls for cls, _ in got.certificate.summands]
                == [cls for cls, _ in want.certificate.summands]), m
        assert verify_certificate(m, got.certificate, p)
        assert verify_certificate(m, want.certificate, p)
        other_generators += got.certificate != want.certificate
    assert len(modules) >= 300
    assert sum(not m.group.is_abelian() for m in modules) >= 100
    # The bases differ often enough that the agreement is not vacuous.
    assert other_generators >= 30


def _snf_cover(m, cert, p, coset_reps):
    """Integral reference: the relation columns and the image of every coset
    form a matrix whose cokernel is M / image; it is finite of order prime
    to p iff the SNF has full rank and no invariant factor divisible by p.
    coset_reps maps each class to one element of each of its cosets."""
    columns = [[q * (i == m.free_rank + j) for i in range(m.dim)]
               for j, q in enumerate(m.torsion)]  # q_j e_(n+j)
    for cls, gen in cert.summands:
        for x in coset_reps[cls]:
            columns.append([sum(map(mul, row, gen)) for row in m.action(x)])
    d, _, _ = smith_normal_form([[col[i] for col in columns] for i in range(m.dim)])
    return len(d) == m.dim and all(x % p for x in d)


def test_mod_p_verification_matches_snf_reference(reference_coset_action):
    c2 = make_cyclic(2)
    groups = [(c2, 2), (make_cyclic(4), 2), (direct_product(c2, c2), 2), (dihedral8(), 2),
              (quaternion8(), 2), (make_cyclic(3), 3), (make_cyclic(9), 3),
              (heisenberg27(), 3), (make_cyclic(5), 5)]
    rng = Random(2026)
    checked = valid = torsion_modules = 0
    for group, p in groups:
        classes = subgroup_classes(group)
        coset_reps = {cls: [c[0] for c in reference_coset_action(group, cls.representative)[0]]
                      for cls in classes}
        for _ in range(60):
            m = random_module(rng, group, p, max_dim=4)
            torsion_modules += bool(m.torsion)
            fixed = {}

            def random_summand():
                # A random integral combination of the HNF basis of M^H.
                cls = rng.choice(classes)
                if cls not in fixed:
                    fixed[cls] = fixed_submodule(m, cls)
                gen = [0] * m.dim
                for b in fixed[cls]:
                    c = rng.randrange(-2, 3)
                    gen = [x + c * y for x, y in zip(gen, b)]
                return cls, tuple(gen)

            greedy = list(min_permutation_rank(m, p).certificate.summands)
            certs = [greedy]
            for _ in range(9):
                if rng.random() < 0.5:
                    summands = list(greedy)
                else:
                    summands = [random_summand() for _ in range(rng.randrange(4))]
                for _ in range(rng.randrange(1, 3)):
                    kind = rng.randrange(3)
                    if kind == 0 and summands:  # scale a generator by p
                        i = rng.randrange(len(summands))
                        cls, gen = summands[i]
                        summands[i] = (cls, tuple(p * x for x in gen))
                    elif kind == 1 and summands:  # drop a summand
                        summands.pop(rng.randrange(len(summands)))
                    else:
                        summands.append(random_summand())
                certs.append(summands)
            for summands in certs:
                cert = CoverCertificate(tuple(summands), sum(cls.index for cls, _ in summands))
                want = _snf_cover(m, cert, p, coset_reps)
                assert verify_certificate(m, cert, p) == want, (m, cert)
                checked += 1
                valid += want
    assert checked >= 5000 and torsion_modules >= 100
    assert min(valid, checked - valid) >= 1000


@pytest.mark.filterwarnings("error")
def test_rejected_certificate_is_an_internal_failure(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise RuntimeError("the solver must not fall back to the oracle")

    monkeypatch.setattr(ed_solver, "_replays", lambda m, mbar, cert: False)
    monkeypatch.setattr(ed_solver, "brute_force_min_rank", refuse)
    with pytest.raises(AssertionError, match="failed certificate verification"):
        min_permutation_rank(build_list_L("M7", 3).module, 3)
    assert cli.main(["ed", "--catalog", "M1@p=2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal check failed" in captured.err


def _c2_cubed():
    c2 = make_cyclic(2)
    return direct_product(direct_product(c2, c2), c2)


def _line(v, p):
    inv = pow(next(x for x in v if x), -1, p)
    return tuple(x * inv % p for x in v)


@pytest.mark.parametrize("make_group, p", [(dihedral8, 2), (_c2_cubed, 2), (heisenberg27, 3)],
                         ids=["D8", "C2^3", "H27"])
def test_brute_force_spins_each_projective_point_once(monkeypatch, make_group, p):
    # The oracle spins each point with orbit_span, which reports the orbit
    # points its walk met; none of them may be spun again.
    walk, projective_points = ed_solver.orbit_span, ed_solver.projective_points
    spun = []
    met = set()
    offered = set()

    def counting(mbar, v):
        line = _line(mbar.layout.unpack(v), p)
        assert line not in met, "a point met by an earlier walk was spun again"
        spun.append(line)
        span, points = walk(mbar, v)
        met.update(_line(mbar.layout.unpack(q), p) for q in points)
        return span, points

    def recording(vectors, lay):
        for lead, tail, point in projective_points(vectors, lay):
            offered.add(_line(lay.unpack(point), p))
            yield lead, tail, point

    monkeypatch.setattr(ed_solver, "orbit_span", counting)
    monkeypatch.setattr(ed_solver, "projective_points", recording)
    group = make_group()
    rng = Random(11)
    total_spun = total_offered = 0
    for _ in range(8):
        m = random_module(rng, group, p, max_dim=4)
        spun.clear()
        met.clear()
        offered.clear()
        brute_force_min_rank(m, p, group.order * max(1, m.dim))
        assert len(spun) >= (m.dim > 0)
        # c.v spans what v spans, so one spin per line through 0 suffices.
        assert len(spun) == len(set(spun)) <= (p ** m.dim - 1) // (p - 1)
        assert set(spun) <= offered
        total_spun += len(spun)
        total_offered += len(offered)
    # g.v spans what v spans too, so a walk spares the other points of its orbit.
    assert total_spun < total_offered


@pytest.mark.parametrize("make_group, p", [(dihedral8, 2), (quaternion8, 2), (heisenberg27, 3),
                                            (lambda: make_cyclic(9), 3)],
                         ids=["D8", "Q8", "H27", "C9"])
def test_brute_force_lifts_nothing(monkeypatch, make_group, p):
    # Each candidate carries the integral H-fixed vector its point was
    # enumerated from, so the oracle never solves for a lift over F_p.
    def refuse(*args):
        raise AssertionError("the oracle called rref")

    monkeypatch.setattr(ed_solver, "rref", refuse)
    group = make_group()
    rng = Random(31)
    for _ in range(6):
        m = random_module(rng, group, p, max_dim=4)
        slow = brute_force_min_rank(m, p, group.order * max(1, m.dim))
        assert slow.min_rank == min_permutation_rank(m, p).min_rank


def test_oracle_replays_its_certificate_under_python_O():
    # The replay is an explicit check, not an assert that -O strips: with
    # the certificate replay made to reject, the oracle must still raise.
    code = ("from edlattice import ed_solver\n"
            "from edlattice.catalog import build_list_L\n"
            "ed_solver._replays = lambda m, mbar, cert: False\n"
            "m = build_list_L('M3', 3).module\n"
            "ed_solver.brute_force_min_rank(m, 3, m.group.order * m.dim)\n")
    src = str(Path(ed_solver.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 1
    assert "AssertionError: oracle cover failed certificate verification" in proc.stderr


def _unpruned_min_rank(m, p, rank_budget):
    """Least total index of a cover of M/pM within the budget, or None.

    Lists every multiset of summands (class H, nonzero point of the image
    of M^H in M/pM), cheapest total first, and asks of each whether the
    orbits of its points span M/pM.  No span is merged with another, a
    summand may repeat, and nothing is remembered between multisets.
    """
    dim = m.dim
    mbar = reduce_mod_p(m)
    summands = []  # (index, every image g.v of the point)
    for cls in subgroup_classes(m.group):
        basis = [[x % p for x in b] for b in fixed_submodule(m, cls)]
        points = {tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(dim))
                  for coeffs in itertools.product(range(p), repeat=len(basis))}
        for point in sorted(points - {(0,) * dim}):
            orbit = [mbar.act(g, mbar.layout.pack(point)) for g in m.group.elements()]
            summands.append((cls.index, orbit))

    def multisets(start, cost):
        if cost == 0:
            yield []
            return
        for i in range(start, len(summands)):
            if summands[i][0] <= cost:
                for rest in multisets(i, cost - summands[i][0]):
                    yield [i] + rest

    for total in range(rank_budget + 1):
        for chosen in multisets(0, total):
            vectors = [w for i in chosen for w in summands[i][1]]
            if Subspace(dim, p, vectors).dim == dim:
                return total
    return None


@pytest.mark.parametrize("make_group, p", [
    (lambda: make_cyclic(2), 2), (lambda: make_cyclic(4), 2),
    (lambda: direct_product(make_cyclic(2), make_cyclic(2)), 2), (dihedral8, 2),
    (quaternion8, 2), (lambda: make_cyclic(3), 3), (lambda: make_cyclic(9), 3)],
    ids=["C2", "C4", "C2^2", "D8", "Q8", "C3", "C9"])
def test_brute_force_matches_an_unpruned_enumeration(make_group, p):
    # The oracle offers each orbit span once, from its cheapest class, and
    # searches subsets; this reference has none of that.
    group = make_group()
    rng = Random(23)
    for _ in range(20):
        m = random_module(rng, group, p, max_dim=3)
        if m.dim == 0:
            continue
        budget = group.order * m.dim
        result = brute_force_min_rank(m, p, budget)
        least = result.min_rank
        assert _unpruned_min_rank(m, p, budget) == least
        # A budget of exactly the minimum finds the same cover as a looser one.
        assert result_to_json(brute_force_min_rank(m, p, least)) == result_to_json(result)
        # One below the minimum, neither finds a cover.
        assert _unpruned_min_rank(m, p, least - 1) is None
        with pytest.raises(BudgetExceededError, match="no cover within rank budget"):
            brute_force_min_rank(m, p, least - 1)


def _sum_of_random_modules(group, seed):
    rng = Random(seed)
    total = random_module(rng, group, 2, max_dim=4)
    while total.dim < 6:
        total = direct_sum(total, random_module(rng, group, 2, max_dim=4))
    return total


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("make_group, seed", [(dihedral8, 1), (dihedral8, 2), (dihedral8, 3),
                                              (_c2_cubed, 0), (_c2_cubed, 1), (_c2_cubed, 2)])
def test_solver_matches_oracle_on_larger_sums(make_group, seed):
    group = make_group()
    m = _sum_of_random_modules(group, seed)
    assert 6 <= m.dim <= 8
    fast = min_permutation_rank(m, 2)
    slow = brute_force_min_rank(m, 2, group.order * m.dim)
    assert fast.min_rank == slow.min_rank
    assert verify_certificate(m, fast.certificate, 2)
    assert verify_certificate(m, slow.certificate, 2)


@pytest.mark.parametrize("make_group, p", [(_c2_cubed, 2), (dihedral8, 2), (quaternion8, 2),
                                           (lambda: make_cyclic(9), 3), (heisenberg27, 3)],
                         ids=["C2^3", "D8", "Q8", "C9", "H27"])
def test_solver_matches_oracle_past_dimension_four(make_group, p):
    # Criterion 4 stops at dimension 4; these modules have dimension 5-7.
    group = make_group()
    rng = Random(23)
    dims = []
    while len(dims) < 12:
        m = random_module(rng, group, p, max_dim=7)
        if not 5 <= m.dim <= 7:
            continue
        assert p ** m.dim <= ed_solver.ORACLE_ENUMERATION_CAP
        fast = min_permutation_rank(m, p)
        slow = brute_force_min_rank(m, p, group.order * m.dim)
        assert fast.min_rank == slow.min_rank
        dims.append(m.dim)
    assert 7 in dims


D8_DIM9_ORACLE = Path(__file__).parent / "data" / "d8_dim9_oracle.json"


def test_oracle_search_is_bounded_by_the_enumeration_cap(monkeypatch):
    # 2^9 points pass the point cap, but the search over them does not end
    # in reasonable time; the visited-state count stops it.
    m = _sum_of_random_modules(dihedral8(), 0)
    assert (m.free_rank, m.torsion) == (5, [2, 2, 2, 4])
    # The committed CLI input is this module.
    assert json.loads(D8_DIM9_ORACLE.read_text()) == module_to_json(m)
    monkeypatch.setattr(ed_solver, "ORACLE_ENUMERATION_CAP", 1000)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="visited more than 1000 states"):
        brute_force_min_rank(m, 2, m.group.order * m.dim)
    assert time.perf_counter() - start < 1.0
