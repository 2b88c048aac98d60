from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from edlattice.fp_module import (
    Subspace,
    _echelon_insert,
    _orbit_walk,
    coinvariants,
    fixed_image_subspace,
    orbit_span,
    project,
    reduce_mod_p,
    rref,
    spin,
)
from edlattice.group_core import (
    dihedral8,
    direct_product,
    heisenberg27,
    make_cyclic,
    quaternion8,
    subgroup_class,
)
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
        assert s.add(Subspace(3, 5, [v])) == s
    assert s.dim <= 3


def test_subspace_add_and_with_vector():
    a = Subspace(3, 2, [[1, 0, 0]])
    b = Subspace(3, 2, [[0, 1, 0]])
    assert a.add(b).dim == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subspace_sums_and_orbit_spans_are_canonical(p):
    # add and orbit_span skip the full echelon pass; their results must be
    # the very basis, and hash, that Subspace(...) gives the same span.
    rng = Random(p)
    for _ in range(40):
        n = rng.randrange(1, 6)
        a, b = (Subspace(n, p, [[rng.randrange(p) for _ in range(n)]
                                for _ in range(rng.randrange(4))]) for _ in range(2))
        joined = a.add(b)
        expected = Subspace(n, p, list(a.basis) + list(b.basis))
        assert joined == expected and hash(joined) == hash(expected)
        assert joined.pivots == expected.pivots
    group = {2: dihedral8, 3: heisenberg27, 5: lambda: make_cyclic(25)}[p]()
    for _ in range(12):
        mbar = reduce_mod_p(random_module(rng, group, p, max_dim=4))
        for _ in range(4):
            v = [rng.randrange(p) for _ in range(mbar.dim)]
            span = orbit_span(mbar, v)
            expected = Subspace(mbar.dim, p, spin(mbar, [v]))
            assert span == expected and hash(span) == hash(expected)
            assert span.pivots == expected.pivots


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
    m = reduce_mod_p(permutation_module(g, subgroup_class(g, (0, 3, 6)), 3))
    span = orbit_span(m, [1, 0, 0])
    for x in g.elements():
        images = Subspace(span.ambient_dim, 3, [m.act(x, list(b)) for b in span.basis])
        assert span.add(images) == span
    assert span.dim == 3


def test_fixed_image_depends_on_integral_fixed_points():
    # Z/9 with multiplication by 4: integral fixed points are 3Z/9, which
    # dies mod 3, so the full-group image in W is zero even though the
    # reduction of the action is the identity.
    g = make_cyclic(3)
    m = GaloisModule(g, 3, 0, [9], {1: [[4]]})
    assert fixed_image_subspace(m, subgroup_class(g, (0, 1, 2))).dim == 0
    assert fixed_image_subspace(m, subgroup_class(g, (0,))).dim == 1


def test_fixed_image_m7_only_trivial_class_contributes():
    entry = build_list_L("M7", 3)
    g = entry.module.group
    full = subgroup_class(g, range(9))
    middle = subgroup_class(g, range(0, 9, 3))
    assert fixed_image_subspace(entry.module, full).dim == 0
    assert fixed_image_subspace(entry.module, middle).dim == 0
    assert fixed_image_subspace(entry.module, subgroup_class(g, (0,))).dim == 1


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


def _reference_spin(m, vectors):
    """The spin that expands every reduced row and pushes every image.

    Kept as a reference: `spin` drops images equal to their source, and
    `orbit_span` walks orbit points instead of reduced rows.
    """
    p = m.p
    rows, pivots = [], []
    pending = [[x % p for x in v] for v in vectors]
    gens = m.group.generators()
    while pending and len(rows) < m.dim:
        row = _echelon_insert(rows, pivots, pending.pop(), p)
        if row is not None:
            pending.extend(m.act(g, row) for g in gens)
    return rows, pivots


def _spin_reference_groups():
    c2 = make_cyclic(2)
    return [("C2^3", direct_product(direct_product(c2, c2), c2), 2),
            ("C2xC4", direct_product(c2, make_cyclic(4)), 2),
            ("D8", dihedral8(), 2), ("Q8", quaternion8(), 2),
            ("C9", make_cyclic(9), 3), ("H27", heisenberg27(), 3)]


@pytest.mark.parametrize("name,group,p", _spin_reference_groups(),
                         ids=[name for name, _, _ in _spin_reference_groups()])
def test_spin_and_orbit_walk_match_the_reduced_row_spin(name, group, p):
    rng = Random(3)
    cases = 0
    torsion = set()
    for _ in range(12):
        mbar = reduce_mod_p(random_module(rng, group, p, max_dim=6))
        torsion.add(bool(mbar.module.torsion))
        elements = group.elements()
        for _ in range(3):
            vectors = [[rng.randrange(-p, 2 * p) for _ in range(mbar.dim)]
                       for _ in range(rng.randrange(1, 4))]
            rows, pivots = _reference_spin(mbar, vectors)
            # Dropping fixed images leaves every row of the spin as it was.
            assert spin(mbar, vectors) == rows
            v = vectors[0]
            span, met = _orbit_walk(mbar, v)
            assert span == Subspace._from_echelon(mbar.dim, p, *_reference_spin(mbar, [v]))
            assert orbit_span(mbar, v) == span
            orbit = {tuple(mbar.act(g, [x % p for x in v])) for g in elements}
            assert met[0] == [x % p for x in v]
            for q in met:
                assert tuple(q) in orbit
                assert Subspace(mbar.dim, p, [mbar.act(g, q) for g in elements]) == span
            cases += 1
    assert cases == 36 and torsion == {False, True}


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
            dense = m.action(g)
            for j in range(m.dim):
                e_j = [int(i == j) for i in range(m.dim)]
                assert mbar.act(g, e_j) == [row[j] % p for row in dense]
