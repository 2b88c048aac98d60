import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from edlattice.group_core import direct_product, make_cyclic, subgroup_classes
from edlattice.int_lattice import (
    GaloisModule,
    MixedTorsionError,
    determinant,
    direct_sum,
    fixed_submodule,
    hermite_normal_form,
    hnf_basis,
    hom_module,
    identity_matrix,
    is_prime,
    kernel_basis,
    mat_mul,
    quotient_by_orbit_relations,
    smith_normal_form,
)
from edlattice.random_modules import random_module

small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


def test_hnf_frozen_example():
    h, u = hermite_normal_form([[2, 4], [6, 8]])
    assert h == [[2, 0], [0, 4]]
    assert mat_mul(u, [[2, 4], [6, 8]]) == h
    assert determinant(u) in (1, -1)


def test_snf_frozen_example():
    d, u, v = smith_normal_form([[2, 4], [6, 8]])
    assert d == [2, 4]
    prod = mat_mul(mat_mul(u, [[2, 4], [6, 8]]), v)
    assert prod == [[2, 0], [0, 4]]


@given(small_matrix)
@settings(max_examples=60)
def test_hnf_properties(m):
    h, u = hermite_normal_form(m)
    assert mat_mul(u, m) == h
    assert determinant(u) in (1, -1)
    # pivots positive, entries above each pivot reduced into [0, pivot)
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if nz:
            pivots.append((nz[0], row[nz[0]]))
    cols = [c for c, _ in pivots]
    assert cols == sorted(cols) and len(set(cols)) == len(cols)
    for i, (c, piv) in enumerate(pivots):
        assert piv > 0
        for k in range(i):
            assert 0 <= h[k][c] < piv


@given(small_matrix)
@settings(max_examples=60)
def test_snf_properties(m):
    d, u, v = smith_normal_form(m)
    prod = mat_mul(mat_mul(u, m), v)
    for i, row in enumerate(prod):
        for j, x in enumerate(row):
            if i == j and i < len(d):
                assert x == d[i] > 0
            else:
                assert x == 0
    for a, b in zip(d, d[1:]):
        assert b % a == 0
    assert determinant(u) in (1, -1)
    assert determinant(v) in (1, -1)


@given(small_matrix)
@settings(max_examples=60)
def test_kernel_is_exact_and_saturated(m):
    basis = kernel_basis(m)
    cols = len(m[0])
    for vec in basis:
        assert all(sum(row[j] * vec[j] for j in range(cols)) == 0 for row in m)
    # rank-nullity against the SNF rank
    assert len(basis) == cols - len(smith_normal_form(m)[0])


def test_kernel_frozen():
    assert kernel_basis([[1, 1]]) == [[1, -1]]
    assert kernel_basis([[0, 0]]) == identity_matrix(2)


def test_hnf_basis_dedups():
    assert hnf_basis([[2, 0], [0, 2], [2, 2]]) == [[2, 0], [0, 2]]


def _mult_module(p, n, unit, group_order):
    g = make_cyclic(group_order)
    return GaloisModule(g, p, 0, [p ** n], {1: [[unit]]})


def test_module_validation():
    g = make_cyclic(2)
    # sign action on Z is fine
    GaloisModule(g, 2, 1, [], {1: [[-1]]})
    # det not a unit: the closing edge compares [[2]] @ [[2]] with [[1]]
    with pytest.raises(ValueError, match="not a group homomorphism"):
        GaloisModule(g, 2, 1, [], {1: [[2]]})
    with pytest.raises(ValueError):
        GaloisModule(g, 2, 0, [6], {1: [[1]]})  # torsion not a p-power
    with pytest.raises(ValueError):
        GaloisModule(g, 2, 0, [4, 2], {1: [[1, 0], [0, 1]]})  # not ascending
    with pytest.raises(ValueError, match="not a group homomorphism"):
        # x -> 2x on Z/4 is not invertible mod 2
        GaloisModule(g, 2, 0, [4], {1: [[2]]})


def test_module_rejects_cyclic_non_homomorphism():
    # x -> -x has order 2, so it cannot define an action of C3: the search
    # builds action(1) = -1 and action(2) = 1 along tree edges, and only the
    # closing edge 1 * 2 = 0 compares -1 with the identity.
    with pytest.raises(ValueError, match="not a group homomorphism"):
        GaloisModule(make_cyclic(3), 3, 1, [], {1: [[-1]]})


def test_module_rejects_noncommuting_involutions():
    # C2 x C2 is abelian, but these two involutions do not commute.
    g = direct_product(make_cyclic(2), make_cyclic(2))
    with pytest.raises(ValueError, match="not a group homomorphism"):
        GaloisModule(g, 2, 2, [], {1: [[0, 1], [1, 0]], 2: [[1, 0], [0, -1]]})
    # the commuting pair (swap, -1) is accepted
    GaloisModule(g, 2, 2, [], {1: [[0, 1], [1, 0]], 2: [[-1, 0], [0, -1]]})


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(10 ** 4) if is_prime(n)] == [n for n in range(10 ** 4) if trial(n)]


def test_is_prime_large_values():
    start = time.perf_counter()
    assert is_prime(1000000000000000003)
    assert not is_prime(1000000000000000001)
    assert time.perf_counter() - start < 1.0
    # strong pseudoprimes to several small bases
    assert not is_prime(3215031751)  # bases 2, 3, 5, 7
    assert not is_prime(3825123056546413051)  # bases 2 to 23
    # composites are proven at any size; a prime above the bound is not
    assert not is_prime(2 ** 89 + 1)
    with pytest.raises(ValueError, match="cannot prove"):
        is_prime(2 ** 89 - 1)


def test_torsion_compatibility_check():
    # map from the Z/9 coordinate into the Z/3 coordinate must respect
    # the quotient: the (Z/3 <- Z/9) entry may be anything, the reverse
    # direction must be divisible by 3.
    g = make_cyclic(3)
    GaloisModule(g, 3, 0, [3, 9], {1: [[1, 1], [0, 1]]})
    with pytest.raises(ValueError):
        GaloisModule(g, 3, 0, [3, 9], {1: [[1, 0], [1, 1]]})


def test_fixed_submodule_mult_by_4_mod_9():
    m = _mult_module(3, 2, 4, 3)
    assert fixed_submodule(m, (0, 1, 2)) == [[3]]
    # trivial subgroup fixes everything
    assert fixed_submodule(m, (0,)) == [[1]]


def test_fixed_submodule_regular():
    g = make_cyclic(2)
    reg = GaloisModule(g, 2, 2, [], {1: [[0, 1], [1, 0]]})
    assert fixed_submodule(reg, (0, 1)) == [[1, 1]]


def test_direct_sum_reorders_torsion():
    a = _mult_module(3, 2, 4, 3)   # Z/9, generator acts by 4
    b = _mult_module(3, 1, 1, 3)   # Z/3, trivial
    s = direct_sum(a, b)
    assert list(s.torsion) == [3, 9]
    # coordinates follow the sorted torsion: Z/3 first, then Z/9
    assert s.action(1) == [[1, 0], [0, 4]]


def test_quotient_regular_by_diagonal_is_sign():
    g = make_cyclic(2)
    reg = GaloisModule(g, 2, 2, [], {1: [[0, 1], [1, 0]]})
    q = quotient_by_orbit_relations(reg, [[1, 1]])
    assert (q.free_rank, list(q.torsion)) == (1, [])
    assert q.action(1) == [[-1]]


def test_quotient_mixed_torsion_raises():
    g = make_cyclic(2)
    reg = GaloisModule(g, 2, 2, [], {1: [[0, 1], [1, 0]]})
    with pytest.raises(MixedTorsionError):
        quotient_by_orbit_relations(reg, [[3, 3]])


def test_hom_module_ranks():
    g = make_cyclic(2)
    triv = GaloisModule(g, 2, 1, [], {1: [[1]]})
    sign = GaloisModule(g, 2, 1, [], {1: [[-1]]})
    reg = GaloisModule(g, 2, 2, [], {1: [[0, 1], [1, 0]]})
    assert hom_module(triv, sign) == []
    assert len(hom_module(reg, reg)) == 2
    assert len(hom_module(reg, triv)) == 1
    for f in hom_module(reg, reg):
        # equivariance: f swap = swap f
        swap = [[0, 1], [1, 0]]
        assert mat_mul(f, swap) == mat_mul(swap, f)


def test_fixed_submodule_is_conjugation_invariant():
    g = direct_product(make_cyclic(2), make_cyclic(2))
    gens = {k: mat for k, mat in zip(g.generators(), (
        [[0, 1], [1, 0]],
        [[-1, 0], [0, -1]],
    ))}
    m = GaloisModule(g, 2, 2, [], gens)
    # abelian, so conjugates coincide; the fixed module of each subgroup
    # is well defined on classes
    for c in subgroup_classes(g):
        assert fixed_submodule(m, c) == fixed_submodule(m, c.representative)


def test_fixed_submodule_is_fixed_on_d8(d8):
    # nonabelian: M^H is not G-stable when H is not normal, so the basis
    # must not be closed under the whole group
    m = random_module(Random(1), d8, 2, max_dim=4)
    for c in subgroup_classes(d8):
        for v in fixed_submodule(m, c):
            assert all(m.act(g, v) == m.canon_vector(v) for g in c.representative), (c, v)
