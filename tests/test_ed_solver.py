from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from edlattice import cli, ed_solver
from edlattice.catalog import build_cyclic, build_list_L, permutation_module, trivial_lattice
from edlattice.ed_solver import (
    BudgetExceededError,
    CoverCertificate,
    brute_force_min_rank,
    classify_ed_le_one,
    cover_module,
    genus_equal,
    min_permutation_rank,
    verify_certificate,
)
from edlattice.fp_module import coinvariants, orbit_span, reduce_mod_p
from edlattice.group_core import (
    coset_action,
    dihedral8,
    direct_product,
    heisenberg27,
    make_cyclic,
    quaternion8,
    subgroup_classes,
)
from edlattice.int_lattice import (
    GaloisModule,
    direct_sum,
    fixed_submodule,
    mat_vec,
    smith_normal_form,
)
from edlattice.random_modules import random_module


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
    res = min_permutation_rank(permutation_module(g, (0,), 2), 2)
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


def test_brute_force_budget_errors():
    g = make_cyclic(2)
    m = trivial_lattice(g, 2, 5)
    with pytest.raises(BudgetExceededError):
        brute_force_min_rank(m, 2, 20, enumeration_cap=10)
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
    reg = permutation_module(g, (0,), 2)
    split = direct_sum(trivial_lattice(g, 2, 1), _sign(g))
    assert genus_equal(reg, split, 2) == "no"
    assert genus_equal(reg, reg, 2) == "yes"
    # rank mismatch is an immediate no
    assert genus_equal(reg, trivial_lattice(g, 2, 1), 2) == "no"
    # multiplication by 2 identifies M with its index-2^rank sublattice,
    # and 2^rank is prime to 3
    m5 = build_list_L("M5", 3).module
    assert genus_equal(m5, m5, 3) == "yes"


def test_genus_unknown_is_explicit():
    g = make_cyclic(2)
    reg = permutation_module(g, (0,), 2)
    split = direct_sum(trivial_lattice(g, 2, 1), _sign(g))
    # budget 1 forbids the exhaustive pass; sampling cannot prove "no"
    assert genus_equal(reg, split, 2, budget=1) == "unknown"


def test_cover_module_matches_certificate():
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

    def counting(m, cls):
        calls.append(cls.index)
        return fixed_submodule(m, cls)

    monkeypatch.setattr(ed_solver, "fixed_submodule", counting)
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
    for cls, gen in res.certificate.summands:
        assert list(gen) in [m.canon_vector(b) for b in fixed_submodule(m, cls)]


def _snf_cover(m, cert, p):
    """Integral reference: the relation columns and the image of every coset
    form a matrix whose cokernel is M / image; it is finite of order prime
    to p iff the SNF has full rank and no invariant factor divisible by p."""
    columns = m.relation_vectors()
    for cls, gen in cert.summands:
        for coset in coset_action(m.group, cls).cosets:
            columns.append(mat_vec(m.action(coset[0]), list(gen)))
    d, _, _ = smith_normal_form([[col[i] for col in columns] for i in range(m.dim)])
    return len(d) == m.dim and all(x % p for x in d)


def test_mod_p_verification_matches_snf_reference():
    c2 = make_cyclic(2)
    groups = [(c2, 2), (make_cyclic(4), 2), (direct_product(c2, c2), 2), (dihedral8(), 2),
              (quaternion8(), 2), (make_cyclic(3), 3), (make_cyclic(9), 3),
              (heisenberg27(), 3), (make_cyclic(5), 5)]
    rng = Random(2026)
    checked = valid = torsion_modules = 0
    for group, p in groups:
        classes = subgroup_classes(group)
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
                want = _snf_cover(m, cert, p)
                assert verify_certificate(m, cert, p) == want, (m, cert)
                checked += 1
                valid += want
    assert checked >= 5000 and torsion_modules >= 100
    assert min(valid, checked - valid) >= 1000


@pytest.mark.filterwarnings("error")
def test_rejected_certificate_is_an_internal_failure(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise RuntimeError("the solver must not fall back to the oracle")

    monkeypatch.setattr(ed_solver, "verify_certificate", lambda m, cert, p: False)
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


@pytest.mark.parametrize("make_group, p", [(dihedral8, 2), (_c2_cubed, 2), (heisenberg27, 3)],
                         ids=["D8", "C2^3", "H27"])
def test_brute_force_spins_each_projective_point_once(monkeypatch, make_group, p):
    spun = []

    def counting(mbar, v):
        spun.append(tuple(v))
        return orbit_span(mbar, v)

    monkeypatch.setattr(ed_solver, "orbit_span", counting)
    group = make_group()
    rng = Random(11)
    for _ in range(8):
        m = random_module(rng, group, p, max_dim=4)
        spun.clear()
        brute_force_min_rank(m, p, group.order * max(1, m.dim))
        # c.v spans what v spans, so one spin per line through 0 suffices.
        assert len(spun) == len(set(spun)) <= (p ** m.dim - 1) // (p - 1)


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
