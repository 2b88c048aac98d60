from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from edlattice.fp_module import (
    Subspace,
    coinvariants,
    fixed_image_subspace,
    orbit_span,
    project,
    reduce_mod_p,
    rref,
)
from edlattice.group_core import dihedral8, heisenberg27, make_cyclic, quaternion8
from edlattice.int_lattice import GaloisModule
from edlattice.catalog import build_list_L, permutation_module
from edlattice.random_modules import random_module

NONABELIAN = [(dihedral8, 2), (quaternion8, 2), (heisenberg27, 3)]


def test_rref_canonical_under_shuffle():
    vectors = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
    rows, pivots = rref([v[:] for v in vectors], 3, 3)
    rng = Random(7)
    for _ in range(10):
        shuffled = [v[:] for v in vectors]
        rng.shuffle(shuffled)
        assert rref(shuffled, 3, 3) == (rows, pivots)


@given(st.lists(st.lists(st.integers(min_value=0, max_value=4),
                         min_size=3, max_size=3), min_size=0, max_size=5))
@settings(max_examples=60)
def test_subspace_structural_equality(vectors):
    s = Subspace(3, 5, vectors)
    # doubling every vector spans the same subspace
    t = Subspace(3, 5, [[2 * x % 5 for x in v] for v in vectors])
    assert s == t and hash(s) == hash(t)
    for v in vectors:
        assert s.contains(v)
    assert s.dim <= 3


def test_subspace_add_and_with_vector():
    a = Subspace(3, 2, [[1, 0, 0]])
    b = Subspace(3, 2, [[0, 1, 0]])
    assert a.add(b).dim == 2


def test_coinvariants_regular_c2():
    g = make_cyclic(2)
    reg = GaloisModule(g, 2, 2, [], {1: [[0, 1], [1, 0]]})
    w_dim, projection = coinvariants(reduce_mod_p(reg))
    assert w_dim == 1
    # both basis vectors map to the same class
    assert project(projection, [1, 0], 2) == project(projection, [0, 1], 2)
    assert project(projection, [1, 0], 2) != [0]


def test_coinvariants_trivial_action_is_identity():
    g = make_cyclic(3)
    m = GaloisModule(g, 3, 2, [], {1: [[1, 0], [0, 1]]})
    w_dim, _ = coinvariants(reduce_mod_p(m))
    assert w_dim == 2


def test_coinvariants_nonzero_module_never_collapses():
    # over the local group algebra of a p-group the radical quotient of a
    # nonzero module is nonzero
    for key, p in (("M7", 3), ("M8", 3), ("M5", 2), ("M9r", 2)):
        entry = build_list_L(key, p, 1 if key == "M9r" else None)
        w_dim, _ = coinvariants(reduce_mod_p(entry.module))
        assert w_dim >= 1


def test_orbit_span_is_group_stable():
    g = make_cyclic(9)
    m = reduce_mod_p(permutation_module(g, (0, 3, 6), 3))
    span = orbit_span(m, [1, 0, 0])
    for x in g.elements():
        for b in span.basis:
            assert span.contains(m.act(x, list(b)))
    assert span.dim == 3


def test_fixed_image_depends_on_integral_fixed_points():
    # Z/9 with multiplication by 4: integral fixed points are 3Z/9, which
    # dies mod 3, so the full-group image in W is zero even though the
    # reduction of the action is the identity.
    g = make_cyclic(3)
    m = GaloisModule(g, 3, 0, [9], {1: [[4]]})
    assert fixed_image_subspace(m, (0, 1, 2)).dim == 0
    assert fixed_image_subspace(m, (0,)).dim == 1


def test_fixed_image_m7_only_trivial_class_contributes():
    entry = build_list_L("M7", 3)
    full = tuple(range(9))
    middle = tuple(range(0, 9, 3))
    assert fixed_image_subspace(entry.module, full).dim == 0
    assert fixed_image_subspace(entry.module, middle).dim == 0
    assert fixed_image_subspace(entry.module, (0,)).dim == 1


@pytest.mark.parametrize("make_group,p", NONABELIAN)
def test_orbit_span_matches_full_orbit_on_nonabelian_groups(make_group, p):
    group = make_group()
    rng = Random(11)
    for _ in range(12):
        mbar = reduce_mod_p(random_module(rng, group, p, max_dim=4))
        for _ in range(4):
            v = [rng.randrange(p) for _ in range(mbar.dim)]
            full = Subspace(mbar.dim, p, [mbar.act(g, v) for g in group.elements()])
            assert orbit_span(mbar, v) == full


@pytest.mark.parametrize("make_group,p", NONABELIAN)
def test_reduction_is_a_view_of_a_checked_module(make_group, p):
    group = make_group()
    identity = [[1, 0], [0, 1]]
    # Singular mod p on the free part, and x -> p x on Z/p^2: both are
    # rejected by the GaloisModule constructor, before any reduction.
    for dim_args, singular in (((2, []), [[1, 0], [0, p]]), ((1, [p * p]), [[1, 0], [0, p]])):
        for g in group.generators():
            action = {h: identity for h in group.generators()}
            action[g] = singular
            with pytest.raises(ValueError, match="not a group homomorphism"):
                GaloisModule(group, p, *dim_args, action)
    rng = Random(5)
    for _ in range(6):
        m = random_module(rng, group, p, max_dim=4)
        mbar = reduce_mod_p(m)
        assert (mbar.group, mbar.p, mbar.dim) == (m.group, p, m.dim)
        for g in group.elements():
            assert mbar.action(g) == [[x % p for x in row] for row in m.action(g)]
