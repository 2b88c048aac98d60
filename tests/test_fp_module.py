from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from edlattice.fp_module import (
    Echelon,
    Subspace,
    coinvariants,
    fixed_image_subspace,
    layout,
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
from edlattice.int_lattice import GaloisModule, sparse_mat_vec
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
    lay = layout(3, 5)
    s = Subspace(3, 5, map(lay.pack, vectors))
    # doubling every vector spans the same subspace
    t = Subspace(3, 5, [lay.pack([2 * x % 5 for x in v]) for v in vectors])
    assert s == t and hash(s) == hash(t)
    for v in vectors:
        assert s.add(Subspace(3, 5, [lay.pack(v)])) == s
    assert s.dim <= 3


def test_subspace_add_and_with_vector():
    lay = layout(3, 2)
    a = Subspace(3, 2, [lay.pack([1, 0, 0])])
    b = Subspace(3, 2, [lay.pack([0, 1, 0])])
    assert a.add(b).dim == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subspace_sums_and_orbit_spans_are_canonical(p):
    # add and orbit_span skip the full echelon pass; their results must be
    # the very basis, and hash, that Subspace(...) gives the same span.
    rng = Random(p)
    for _ in range(40):
        n = rng.randrange(1, 6)
        a, b = (Subspace(n, p, [layout(n, p).pack([rng.randrange(p) for _ in range(n)])
                                for _ in range(rng.randrange(4))]) for _ in range(2))
        joined = a.add(b)
        expected = Subspace(n, p, list(a.basis) + list(b.basis))
        assert joined == expected and hash(joined) == hash(expected)
        assert joined.pivots == expected.pivots
    group = {2: dihedral8, 3: heisenberg27, 5: lambda: make_cyclic(25)}[p]()
    for _ in range(12):
        mbar = reduce_mod_p(random_module(rng, group, p, max_dim=4))
        for _ in range(4):
            v = mbar.layout.pack([rng.randrange(p) for _ in range(mbar.dim)])
            span, _ = orbit_span(mbar, v)
            expected = Subspace(mbar.dim, p, spin(mbar, [v])[0].rows.values())
            assert span == expected and hash(span) == hash(expected)
            assert span.pivots == expected.pivots


def test_coinvariants_regular_c2():
    g = make_cyclic(2)
    reg = GaloisModule(g, 2, 2, [], {1: [[0, 1], [1, 0]]})
    w_dim, projection = coinvariants(reduce_mod_p(reg))
    assert w_dim == 1
    # both basis vectors map to the same class
    assert project(projection, [1, 0], 2) == project(projection, [0, 1], 2)
    assert project(projection, [1, 0], 2) != 0


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
    span, _ = orbit_span(m, m.layout.pack([1, 0, 0]))
    for x in g.elements():
        images = Subspace(span.ambient_dim, 3, [m.act(x, b) for b in span.basis])
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
            packed = mbar.layout.pack(v)
            full = Subspace(mbar.dim, p, [mbar.act(g, packed) for g in group.elements()])
            assert orbit_span(mbar, packed)[0] == full


def _list_act(m, g, v):
    """g.v in M/pM on list rows, from the module's stored sparse rows."""
    return [y % m.p for y in sparse_mat_vec(m.module.sparse_action(g), v)]


def _reference_spin(m, vectors, insert):
    """The spin on list rows that expands every reduced row and pushes every image.

    Kept as a reference: `spin` and `orbit_span` walk the vectors as they
    were pushed instead of reduced rows, drop images equal to their source
    and push nothing once the basis fills the space.
    """
    p = m.p
    rows, pivots = [], []
    pending = [[x % p for x in v] for v in vectors]
    gens = m.group.generators()
    while pending and len(rows) < m.dim:
        row = insert(rows, pivots, pending.pop(), p)
        if row is not None:
            pending.extend(_list_act(m, g, row) for g in gens)
    return rows, pivots


def _spin_reference_groups():
    c2 = make_cyclic(2)
    return [("C2^3", direct_product(direct_product(c2, c2), c2), 2),
            ("C2xC4", direct_product(c2, make_cyclic(4)), 2),
            ("D8", dihedral8(), 2), ("Q8", quaternion8(), 2),
            ("C9", make_cyclic(9), 3), ("H27", heisenberg27(), 3)]


@pytest.mark.parametrize("name,group,p", _spin_reference_groups(),
                         ids=[name for name, _, _ in _spin_reference_groups()])
def test_spin_and_orbit_walk_match_the_reduced_row_spin(name, group, p, list_rows):
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
            lay = mbar.layout
            rows, pivots = _reference_spin(mbar, vectors, list_rows.insert)
            # The walk finds other rows than the reduced-row spin, of the same span.
            walk, _ = spin(mbar, [lay.pack(v) for v in vectors])
            assert list_rows.rref([lay.unpack(row) for row in walk.rows.values()],
                                  mbar.dim, p) == list_rows.reduced(rows, pivots, mbar.dim, p)
            v = vectors[0]
            span, met = orbit_span(mbar, lay.pack(v))
            reference = list_rows.reduced(*_reference_spin(mbar, [v], list_rows.insert),
                                          mbar.dim, p)
            assert ([lay.unpack(row) for row in span.basis], list(span.pivots)) == reference
            orbit = {tuple(_list_act(mbar, g, [x % p for x in v])) for g in elements}
            assert lay.unpack(met[0]) == [x % p for x in v]
            for q in met:
                assert tuple(lay.unpack(q)) in orbit
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
                e_j = mbar.layout.pack([int(i == j) for i in range(m.dim)])
                assert mbar.layout.unpack(mbar.act(g, e_j)) == [row[j] % p for row in dense]


def _block_module(rng, p, n):
    """A module of dimension n over C_p whose generator acts block by block.

    Free blocks are the regular permutation module (size p), the companion
    matrix of the p-th cyclotomic polynomial (size p - 1, last column -1)
    and the trivial lattice (size 1); up to three torsion coordinates Z/p^2
    are acted on by 1 + p.  Blocks keep every orbit span small, so the list
    reference stays cheap at large n.
    """
    group = make_cyclic(p)
    torsion = rng.randrange(min(n, 3) + 1)
    free = n - torsion
    mat = [[0] * n for _ in range(n)]
    start = 0
    while start < free:
        size = rng.choice([s for s in (p, p - 1, 1) if start + s <= free])
        for i in range(size):
            if size == p:
                mat[start + (i + 1) % p][start + i] = 1
            elif size == p - 1 and size > 1:
                mat[start + i][start + size - 1] = -1
                if i + 1 < size:
                    mat[start + i + 1][start + i] = 1
            else:
                # size 1: trivial, or for p = 2 also the companion block (-1)
                mat[start][start] = -1 if p == 2 and rng.random() < 0.5 else 1
        start += size
    for i in range(free, n):
        mat[i][i] = 1 + p
    return GaloisModule(group, p, free, [p * p] * torsion, {group.generators()[0]: mat})


def _support_vector(rng, p, n, k):
    v = [0] * n
    for i in rng.sample(range(n), min(k, n)):
        v[i] = rng.randrange(1, p)
    return v


@pytest.mark.parametrize("n", [0, 1, 2, 17, 64, 65, 256, 1892])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 43])
def test_packed_rows_match_list_rows(p, n, list_rows):
    rng = Random(1000 * p + n)
    lay = layout(n, p)
    unpack = lay.unpack

    # reduce is exact field by field up to the bound n (p - 1)^2 + p.
    bound = n * (p - 1) ** 2 + p
    for fields in ([p - 1] * n, [n * (p - 1) ** 2] * n, [bound - 1] * n,
                   [rng.randrange(bound) for _ in range(n)]):
        raw = sum(x << (64 * i) for i, x in enumerate(fields))
        assert unpack(lay.reduce(raw)) == [x % p for x in fields]
    # A combination of n columns at p - 1 with coefficients p - 1.
    full = lay.pack([p - 1] * n)
    assert unpack(project([full] * n, [p - 1] * n, p)) == [n * (p - 1) ** 2 % p] * n

    # Insertion, rref and Subspace.add against the list rows.
    vectors = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(4)]
    vectors += [_support_vector(rng, p, n, 3) for _ in range(3)]
    vectors += [[3 * a - 2 * b for a, b in zip(vectors[0], vectors[4])], [0] * n]
    rng.shuffle(vectors)
    echelon = Echelon(lay)
    basis, pivots = [], []
    for v in vectors:
        got = echelon.insert(lay.pack(v))
        want = list_rows.insert(basis, pivots, [x % p for x in v], p)
        assert (got if got is None else unpack(got)) == want
    assert (list(echelon.rows), [unpack(r) for r in echelon.rows.values()]) == (pivots, basis)
    reference = list_rows.rref(vectors, n, p)
    rows, rref_pivots = rref(vectors, n, p)
    assert ([unpack(r) for r in rows], rref_pivots) == reference
    half = len(vectors) // 2
    a, b = (Subspace(n, p, map(lay.pack, part)) for part in (vectors[:half], vectors[half:]))
    joined = a.add(b)
    assert ([unpack(r) for r in joined.basis], list(joined.pivots)) == reference
    assert joined == Subspace(n, p, map(lay.pack, vectors))

    # spin and the orbit walk against the list spin of the same module.
    m = _block_module(rng, p, n)
    mbar = reduce_mod_p(m)
    starts = [_support_vector(rng, p, n, k) for k in (1, 2)]
    if n <= 65:
        starts.append([rng.randrange(p) for _ in range(n)])
    for v in starts:
        rows, pivots = _reference_spin(mbar, [v], list_rows.insert)
        assert [unpack(r) for r in spin(mbar, [lay.pack(v)])[0].rows.values()] == rows
        span, met = orbit_span(mbar, lay.pack(v))
        assert ([unpack(r) for r in span.basis], list(span.pivots)) == \
            list_rows.reduced(rows, pivots, n, p)
        assert met[0] == lay.pack(v)

    # coinvariants and project against the list rref of the columns of A - I.
    columns = [[0] * n for _ in range(n)]
    for i, row in enumerate(m.sparse_action(m.group.generators()[0])):
        for j, x in row:
            columns[j][i] = x % p
    deltas = []
    for j, delta in enumerate(columns):
        delta[j] = (delta[j] - 1) % p
        if any(delta):
            deltas.append(delta)
    radical, radical_pivots = list_rows.rref(deltas, n, p)
    kept = [j for j in range(n) if j not in set(radical_pivots)]
    want = [[int(i == j) for j in kept] for i in range(n)]
    for row, piv in zip(radical, radical_pivots):
        want[piv] = [-row[j] % p for j in kept]
    w_dim, projection = coinvariants(mbar)
    w = layout(w_dim, p)
    assert (w_dim, [w.unpack(c) for c in projection]) == (len(kept), want)
    # Dense vectors only while n w_dim list steps stay cheap.
    for v in (vectors if n <= 256 else [v for v in vectors if sum(map(bool, v)) <= 3]):
        image = [0] * w_dim
        for x, c in zip(v, want):
            if x:
                image = [(y + x * z) % p for y, z in zip(image, c)]
        assert w.unpack(project(projection, v, p)) == image
    assert all(project(projection, d, p) == 0 for d in deltas)


def test_layout_reduces_exactly_at_the_bound_and_widens_past_64_bits(list_rows):
    # The largest cases in use keep 64-bit fields: catalog dimension p^2 + p
    # at p = 43, and an input module of the largest dimension at p = 2039,
    # the largest prime order of an admitted group.  Only the trivial group
    # reaches a prime that needs wider fields.
    rng = Random(4)
    huge = 10 ** 18 + 3
    for n, p, width in ((1892, 43, 64), (256, 2039, 64), (5, huge, 256)):
        lay = layout(n, p)
        assert lay.width == width and layout(n, p) is lay
        bound = n * (p - 1) ** 2 + p
        fields = [bound - 1 - rng.randrange(p) for _ in range(n)]
        raw = sum(x << (width * i) for i, x in enumerate(fields))
        assert lay.unpack(lay.reduce(raw)) == [x % p for x in fields]
    vectors = [[rng.randrange(-huge, huge) for _ in range(5)] for _ in range(3)]
    vectors.append([a - 7 * b for a, b in zip(vectors[0], vectors[2])])
    lay = layout(5, huge)
    assert [lay.unpack(lay.pack(v)) for v in vectors] == [[x % huge for x in v] for v in vectors]
    rows, pivots = rref(vectors, 5, huge)
    assert ([lay.unpack(r) for r in rows], pivots) == list_rows.rref(vectors, 5, huge)


def test_vectors_are_refused_where_they_are_packed():
    m = build_list_L("M2", 2).module
    mbar = reduce_mod_p(m)
    assert mbar.dim == 2
    with pytest.raises(ValueError, match="length 4 does not match dimension 2"):
        mbar.layout.pack([1, 0, 5, 7])
    with pytest.raises(ValueError, match="length 1 does not match dimension 2"):
        mbar.layout.pack([1])
    with pytest.raises(ValueError, match="length 3 does not match dimension 2"):
        mbar.layout.pack([1, 0, 0])
    _, projection = coinvariants(mbar)
    with pytest.raises(ValueError, match="length 5 does not match dimension 2"):
        project(projection, [1, 0, 0, 0, 1], 2)
    with pytest.raises(ValueError, match="length 3 does not match dimension 2"):
        rref([[1, 2, 3]], 2, 3)
    with pytest.raises(ValueError, match="4 is not prime"):
        Subspace(3, 4)
