import itertools
import time
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from edlattice.group_core import (
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
    MixedTorsionError,
    direct_sum,
    fixed_submodule,
    hermite_normal_form,
    hom_module,
    identity_matrix,
    is_prime,
    kernel_basis,
    local_fixed_bases,
    quotient_by_orbit_relations,
    smith_normal_form,
    sparse_product,
)
from edlattice import int_lattice
from edlattice.catalog import (
    instantiated_catalog,
    parse_catalog_key,
    permutation_module,
    trivial_lattice,
)
from edlattice.fp_module import Subspace, coinvariants, layout, reduce_mod_p, rref
from edlattice.jsonio import module_to_json, parse_module
from edlattice.random_modules import conjugate_basis, random_module, random_unimodular

from conftest import mat_mul

small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


def _reduce(basis, v):
    """v minus integer multiples of the echelon basis rows, pivot by pivot.

    A zero result proves v an integer combination of the rows, whatever the
    basis; for a basis in echelon form, a nonzero one proves it is not.
    """
    v = list(v)
    for row in basis:
        c = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[c], row[c])
        if r:
            return v
        v = [a - q * b for a, b in zip(v, row)]
    return v


def _assert_hnf_of(h, m, seed, determinant):
    """h has HNF shape and spans the row lattice of m."""
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if nz:
            pivots.append((nz[0], row[nz[0]]))
    # nonzero rows first, pivots positive and strictly to the right,
    # entries above each pivot reduced into [0, pivot)
    assert all(any(row) for row in h[:len(pivots)]) and not any(map(any, h[len(pivots):]))
    cols = [c for c, _ in pivots]
    assert cols == sorted(cols) and len(set(cols)) == len(cols)
    for i, (c, piv) in enumerate(pivots):
        assert piv > 0
        for k in range(i):
            assert 0 <= h[k][c] < piv
    assert len(pivots) == len(smith_normal_form(m)[0])
    assert all(not any(_reduce(h[:len(pivots)], row)) for row in m)
    if len(m) == len(m[0]) and determinant(m):
        prod = 1
        for _, piv in pivots:
            prod *= piv
        assert prod == abs(determinant(m))
    # canonical: a unimodular change of rows leaves h unchanged
    assert hermite_normal_form(mat_mul(random_unimodular(Random(seed), len(m))[0], m)) == h


def test_hnf_frozen_example(determinant):
    m = [[2, 4], [6, 8]]
    h = hermite_normal_form(m)
    assert h == [[2, 0], [0, 4]]
    _assert_hnf_of(h, m, 0, determinant)


def test_snf_frozen_example(check_smith_form):
    d, u, u_inv = smith_normal_form([[2, 4], [6, 8]])
    assert d == [2, 4]
    check_smith_form([[2, 4], [6, 8]], d, u, u_inv)
    # 2 does not divide 3, so row 1 is added to row 0 and u^-1 takes the
    # inverse column operation.
    d, u, u_inv = smith_normal_form([[2, 0], [0, 3]])
    assert d == [1, 6]
    check_smith_form([[2, 0], [0, 3]], d, u, u_inv)


@given(small_matrix)
@settings(max_examples=60)
def test_hnf_properties(determinant, m):
    _assert_hnf_of(hermite_normal_form(m), m, len(m) * 10 + len(m[0]), determinant)


@given(small_matrix)
@settings(max_examples=60)
def test_snf_properties(check_smith_form, m):
    check_smith_form(m, *smith_normal_form(m))


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


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60)
def test_random_unimodular_pair_is_inverse(n, seed):
    u, u_inv = random_unimodular(Random(seed), n)
    assert mat_mul(u, u_inv) == mat_mul(u_inv, u) == identity_matrix(n)


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
    # Torsion moduli out of order are sorted, moving rows and columns along.
    unsorted = GaloisModule(g, 2, 0, [4, 2], {1: [[-1, 0], [1, 1]]})
    ascending = GaloisModule(g, 2, 0, [2, 4], {1: [[1, 1], [0, -1]]})
    assert unsorted.torsion == ascending.torsion == [2, 4]
    assert unsorted.sparse_action(1) == ascending.sparse_action(1)
    with pytest.raises(ValueError, match="not a group homomorphism"):
        # x -> 2x on Z/4 is not invertible mod 2
        GaloisModule(g, 2, 0, [4], {1: [[2]]})


def test_module_rejects_action_keys_that_do_not_generate_the_group():
    # 2 generates only the subgroup of order 2 of C4.
    with pytest.raises(ValueError, match="do not generate"):
        GaloisModule(make_cyclic(4), 2, 1, [], {2: [[1]]})


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
    assert fixed_submodule(m, subgroup_class(m.group, (0, 1, 2))) == [[3]]
    # trivial subgroup fixes everything
    assert fixed_submodule(m, subgroup_class(m.group, (0,))) == [[1]]


def test_fixed_submodule_regular():
    g = make_cyclic(2)
    reg = GaloisModule(g, 2, 2, [], {1: [[0, 1], [1, 0]]})
    assert fixed_submodule(reg, subgroup_class(g, (0, 1))) == [[1, 1]]


def test_direct_sum_reorders_torsion():
    a = _mult_module(3, 2, 4, 3)   # Z/9, generator acts by 4
    b = _mult_module(3, 1, 1, 3)   # Z/3, trivial
    s = direct_sum(a, b)
    assert list(s.torsion) == [3, 9]
    # coordinates follow the sorted torsion: Z/3 first, then Z/9
    assert s.action(1) == [[1, 0], [0, 4]]


def _pairwise_sum(a, b):
    """The two-module block sum, written out: free(a), free(b), then the
    torsion of a and of b stably sorted by modulus."""
    unsorted = list(a.torsion) + list(b.torsion)
    order = sorted(range(len(unsorted)), key=lambda i: (unsorted[i], i))
    n = a.free_rank + b.free_rank
    place_a = list(range(a.free_rank)) + [n + order.index(i) for i in range(len(a.torsion))]
    place_b = (list(range(a.free_rank, n))
               + [n + order.index(len(a.torsion) + i) for i in range(len(b.torsion))])
    dim = n + len(unsorted)
    gens = {}
    for g in a.group.generators() or [0]:
        big = [[0] * dim for _ in range(dim)]
        for m, place in ((a, place_a), (b, place_b)):
            for i, di in enumerate(place):
                for j, dj in enumerate(place):
                    big[di][dj] = m.action(g)[i][j]
        gens[g] = big
    return GaloisModule(a.group, a.prime, n, [unsorted[i] for i in order], gens)


@pytest.mark.parametrize("make_group,p", [(dihedral8, 2), (lambda: make_cyclic(4), 2),
                                          (lambda: make_cyclic(9), 3), (heisenberg27, 3)])
def test_direct_sum_of_many_equals_pairwise_fold(make_group, p):
    g = make_group()
    rng = Random(11)
    pool = [random_module(rng, g, p, max_dim=3) for _ in range(6)]
    for _ in range(12):
        parts = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
        parts.append(parts[0])  # the same module object twice
        total = parts[0]
        for part in parts[1:]:
            total = _pairwise_sum(total, part)
        one_shot = direct_sum(*parts)
        assert (one_shot.free_rank, one_shot.torsion) == (total.free_rank, total.torsion)
        assert all(one_shot.action(x) == total.action(x) for x in g.elements())


def test_direct_sum_needs_a_module_and_a_common_group():
    with pytest.raises(ValueError, match="at least one"):
        direct_sum()
    a = _mult_module(3, 2, 4, 3)
    with pytest.raises(ValueError, match="common acting group"):
        direct_sum(a, a, _mult_module(3, 1, 1, 9))


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


def _orbit_relation_cases(seed, per_group):
    """(base, relations, g): a sum of one or two coset lattices of index at
    most 9 over C4, C9, D8, Q8 or H27, one or two small relation vectors
    and a group element."""
    rng = Random(seed)
    for group, p in [(make_cyclic(4), 2), (make_cyclic(9), 3), (dihedral8(), 2),
                     (quaternion8(), 2), (heisenberg27(), 3)]:
        classes = [cls for cls in subgroup_classes(group) if 1 < cls.index <= 9]
        for _ in range(per_group):
            base = direct_sum(*(permutation_module(group, rng.choice(classes), p)
                                for _ in range(rng.randrange(1, 3))))
            relations = [[rng.randrange(-2, 3) for _ in range(base.free_rank)]
                         for _ in range(rng.randrange(1, 3))]
            yield base, relations, rng.randrange(group.order)


def _quotient_json(base, relations):
    try:
        return module_to_json(quotient_by_orbit_relations(base, relations))
    except MixedTorsionError as exc:
        return str(exc)


def test_spun_relation_lattice_is_the_hnf_of_the_orbit_columns(monkeypatch):
    # The spin must reach the span of g.v over every g and relation v, read
    # here off the matrix whose columns the Smith form receives: the HNF
    # rows of the spun lattice, at most dim of them.
    seen = []
    snf = int_lattice.smith_normal_form
    monkeypatch.setattr(int_lattice, "smith_normal_form", lambda m: seen.append(m) or snf(m))
    checked = 0
    for base, relations, _ in _orbit_relation_cases(7, 8):
        seen.clear()
        _quotient_json(base, relations)
        (matrix,) = seen
        dim = base.free_rank
        assert len(matrix) == dim and all(len(row) <= dim for row in matrix)
        spun = [[row[j] for row in matrix] for j in range(len(matrix[0]))]
        orbit = [[sum(map(mul, row, v)) for row in base.action(g)]
                 for v in relations for g in range(base.group.order)]
        assert spun == [row for row in hermite_normal_form(orbit) if any(row)], (base, relations)
        checked += bool(spun)
    assert checked >= 30


def test_quotient_takes_one_hnf_of_the_relation_orbit(monkeypatch):
    # The relation lattice is one HNF of the relations' orbit, however many
    # vectors the orbit has: p for the catalog's relations, up to |G| each
    # for the random ones.
    real = int_lattice.hermite_normal_form
    calls = []

    def counting(mat):
        calls.append(1)
        return real(mat)

    monkeypatch.setattr(int_lattice, "hermite_normal_form", counting)
    for key in ("M7@p=3", "M8@p=5", "M12r@p=5,r=1"):
        del calls[:]
        parse_catalog_key(key)
        assert len(calls) == 1, key
    for base, relations, _ in _orbit_relation_cases(7, 2):
        del calls[:]
        _quotient_json(base, relations)
        assert len(calls) == 1, (base, relations)


def test_quotient_depends_only_on_the_relation_lattice():
    # v and {g.v, v} span the same action-closed lattice, so the quotients
    # agree coordinate for coordinate, not just up to isomorphism.
    cases = list(_orbit_relation_cases(11, 8))
    for base, relations, g in cases:
        v = relations[0]
        gv = [sum(map(mul, row, v)) for row in base.action(g)]
        assert _quotient_json(base, [v]) == _quotient_json(base, [gv, v]), (base, v, g)
    assert len(cases) == 40


def test_quotient_by_no_relations_keeps_the_base():
    # The Smith form of a dim x 0 matrix has no invariant factors and u = I.
    assert smith_normal_form([[], [], []]) == ([], identity_matrix(3), identity_matrix(3))
    assert smith_normal_form([]) == ([], [], [])
    base = permutation_module(dihedral8(), subgroup_classes(dihedral8())[1], 2)
    assert module_to_json(quotient_by_orbit_relations(base, [])) == module_to_json(base)
    empty = trivial_lattice(dihedral8(), 2, 0)
    for relations in ([], [[]]):
        q = quotient_by_orbit_relations(empty, relations)
        assert (q.dim, module_to_json(q)) == (0, module_to_json(empty))


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


def _torsion_free_module(rng, group, p):
    while True:
        m = random_module(rng, group, p, max_dim=5)
        if not m.torsion and m.free_rank:
            return m


def test_hom_module_spans_the_hnf_kernel_mod_p():
    # The p-local Hom basis against the HNF kernel of the same system, built
    # here from F A_l(g) - A_m(g) F = 0: same rank, same image mod p, and
    # every map integral and equivariant.
    c2 = make_cyclic(2)
    groups = [(make_cyclic(4), 2), (make_cyclic(8), 2), (dihedral8(), 2), (quaternion8(), 2),
              (direct_product(c2, make_cyclic(4)), 2), (make_cyclic(9), 3), (heisenberg27(), 3)]
    rng = Random(17)
    pairs = 0
    for group, p in groups:
        for _ in range(10):
            l, m = _torsion_free_module(rng, group, p), _torsion_free_module(rng, group, p)
            nl, nm = l.free_rank, m.free_rank
            rows = []
            for g in group.generators():
                al, am = l.action(g), m.action(g)
                for i in range(nm):
                    for j in range(nl):
                        row = [[0] * nl for _ in range(nm)]
                        for k in range(nl):
                            row[i][k] += al[k][j]
                        for k in range(nm):
                            row[k][j] -= am[i][k]
                        rows.append([x for r in row for x in r])
            maps = hom_module(l, m)
            flat = [[x for r in f for x in r] for f in maps]
            reference = kernel_basis(rows)
            assert len(flat) == len(reference)
            assert rref(flat, nl * nm, p) == rref(reference, nl * nm, p)
            for f in maps:
                assert all(isinstance(x, int) for r in f for x in r)
                for g in group.elements():
                    assert mat_mul(f, l.action(g)) == mat_mul(m.action(g), f)
            pairs += bool(maps)
    assert pairs >= 50


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
        assert fixed_submodule(m, c) == fixed_submodule(m, subgroup_class(g, c.representative))


def test_fixed_submodule_is_fixed_on_d8(d8):
    # nonabelian: M^H is not G-stable when H is not normal, so the basis
    # must not be closed under the whole group
    m = random_module(Random(1), d8, 2, max_dim=4)
    for c in subgroup_classes(d8):
        for v in fixed_submodule(m, c):
            assert all(m.act(g, v) == m.canon_vector(v) for g in c.representative), (c, v)


@pytest.mark.parametrize("make_group,p", [(dihedral8, 2), (quaternion8, 2), (heisenberg27, 3)])
def test_fixed_submodule_of_a_class_matches_its_members(make_group, p):
    # An enumerated class carries the generators it was first reached
    # with, `subgroup_class` of its members those of the greedy; both
    # describe the same lattice M^H.
    g = make_group()
    rng = Random(3)
    for _ in range(8):
        m = random_module(rng, g, p, max_dim=4)
        for c in subgroup_classes(g):
            assert fixed_submodule(m, c) == fixed_submodule(m, subgroup_class(g, c.representative))


def test_fixed_submodule_validates_member_tuples(d8):
    m = random_module(Random(1), d8, 2, max_dim=4)
    with pytest.raises(ValueError, match="not closed"):
        fixed_submodule(m, subgroup_class(d8, (0, 1)))


def _cayley_walk(group, free_rank, torsion, action):
    """The former homomorphism check, kept as a reference.

    Fills in every element's matrix along a search of the Cayley graph,
    action(g x) = action(g) action(x), and compares on the edges that reach
    an element already filled in.  Returns the |G| matrices, or None when
    some edge disagrees.
    """
    n = free_rank

    def canon(mat):
        return [row if i < n else [x % torsion[i - n] for x in row] for i, row in enumerate(mat)]

    gens = {g: canon(mat) for g, mat in action.items()}
    mats = [None] * group.order
    mats[0] = identity_matrix(n + len(torsion))
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g, gmat in gens.items():
            y = group.cayley[g][x]
            product = canon(mat_mul(gmat, mats[x]))
            if mats[y] is None:
                mats[y] = product
                frontier.append(y)
            elif product != mats[y]:
                return None
    return mats


def _random_matrix(rng, free_rank, torsion):
    """A matrix of the block shape every module accepts: no torsion-to-free
    entries, and torsion entries that respect the moduli."""
    n, dim = free_rank, free_rank + len(torsion)
    mat = [[0] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            mat[i][j] = rng.randint(-1, 1)
    for i, qi in enumerate(torsion):
        for j in range(dim):
            qj = torsion[j - n] if j >= n else 0
            step = qi // qj if qi > qj > 0 else 1
            mat[n + i][j] = step * rng.randrange(qi // step)
    return mat


def _random_generating_set(rng, group):
    """The group's own generators, or random elements (the identity among
    them at times) drawn until they generate the group."""
    if rng.random() < 0.5:
        return group.generators() or [0]
    gens = [0] if rng.random() < 0.2 else []
    while group.closure(gens) != tuple(group.elements()):
        gens.append(rng.randrange(group.order))
    return sorted(set(gens))


def _random_action(rng, group, p):
    """Random matrices for a generating set, or a valid module's matrices
    with one of them replaced, negated or swapped for another's."""
    gens = _random_generating_set(rng, group)
    if rng.random() < 0.5:
        free_rank = rng.randint(0, 2)
        torsion = sorted(rng.choice((p, p * p)) for _ in range(rng.randint(0, 2)))
        if free_rank + len(torsion) == 0:
            free_rank = 1
        return free_rank, torsion, {g: _random_matrix(rng, free_rank, torsion) for g in gens}
    m = random_module(rng, group, p, max_dim=3)
    action = {g: [row[:] for row in m.action(g)] for g in gens}
    if not gens:  # the trivial group, generated by no element
        return m.free_rank, list(m.torsion), action
    g = rng.choice(gens)
    roll = rng.random()
    if roll < 0.3:
        action[g] = _random_matrix(rng, m.free_rank, m.torsion)
    elif roll < 0.6:
        action[g] = action[rng.choice(gens)]
    elif roll < 0.8:
        action[g] = [[-x for x in row[:m.free_rank]] + row[m.free_rank:] for row in action[g]]
    return m.free_rank, list(m.torsion), action


def _c2_cubed():
    c2 = make_cyclic(2)
    return direct_product(direct_product(c2, c2), c2)


# C1 has no pc generator; every pc power of C2^3 is trivial; "s3", a
# fixture, is solvable and not nilpotent.
@pytest.mark.parametrize("make_group,p", [
    (lambda: make_cyclic(2), 2), (lambda: make_cyclic(3), 3), (lambda: make_cyclic(4), 2),
    (lambda: make_cyclic(9), 3), (lambda: direct_product(make_cyclic(2), make_cyclic(4)), 2),
    (dihedral8, 2), (quaternion8, 2), (heisenberg27, 3), (lambda: make_cyclic(1), 2),
    (_c2_cubed, 2), ("s3", 3)],
    ids=["C2", "C3", "C4", "C9", "C2xC4", "D8", "Q8", "H27", "C1", "C2^3", "S3"])
def test_module_accepts_exactly_what_the_cayley_walk_accepts(request, make_group, p):
    g = request.getfixturevalue(make_group) if isinstance(make_group, str) else make_group()
    rng = Random(17)
    outcomes = set()
    for _ in range(300):
        free_rank, torsion, action = _random_action(rng, g, p)
        mats = _cayley_walk(g, free_rank, torsion, action)
        try:
            m = GaloisModule(g, p, free_rank, torsion, action)
        except ValueError as exc:
            assert "not a group homomorphism" in str(exc)
            assert mats is None, action
            outcomes.add("rejected")
            continue
        assert mats is not None, action
        assert [m.action(x) for x in g.elements()] == mats
        outcomes.add("accepted")
    assert outcomes == {"accepted", "rejected"}


def test_module_over_a_solvable_nonnilpotent_group(s3):
    m = permutation_module(s3, subgroup_class(s3, s3.closure([s3.generators()[-1]])), 3)
    assert m.dim == 3
    gens = s3.generators()
    for x in s3.elements():
        assert sorted(map(sorted, m.action(x))) == [[0, 0, 1]] * 3
    for y in s3.elements():
        assert mat_mul(m.action(gens[0]), m.action(y)) == m.action(s3.cayley[gens[0]][y])
    # an element of order 3 cannot act as a transposition of coordinates
    assert s3.element_order(gens[0]) == 3
    swapped = {g: m.action(g) for g in gens}
    swapped[gens[0]] = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match="not a group homomorphism"):
        GaloisModule(s3, 3, 3, [], swapped)


def test_module_needs_a_solvable_group(a5):
    with pytest.raises(ValueError, match="not solvable"):
        trivial_lattice(a5, 2, 1)


def test_action_matrices_are_built_on_demand(monkeypatch):
    real = GaloisModule._product
    calls = []

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(GaloisModule, "_product", counting)
    g = make_cyclic(121)
    g.pc_presentation()
    m = permutation_module(g, subgroup_class(g, (0,)), 11)
    # The relations of the two pc generators, not one product per element.
    assert len(calls) <= 20
    del calls[:]
    shift = m.sparse_action(1)
    assert m.sparse_action(1) is shift and not calls
    mat = m.sparse_action(25)  # 25 = 3 + 2 * 11: at most a few products
    assert len(calls) <= 4 and m.sparse_action(25) is mat
    assert all(mat[(c + 25) % 121] == [(c, 1)] for c in range(121))


def test_module_check_forms_only_the_relation_products(monkeypatch):
    real = GaloisModule._product
    calls = []

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(GaloisModule, "_product", counting)
    g = _c2_cubed()
    pc = g.pc_presentation()
    assert sorted(pc.generators) == g.generators() and pc.powers == (0, 0, 0)
    # Each pc generator negates one coordinate.  Three squares for the
    # power relations and two products per commutator relation, and no
    # other: the power relations make every X_i invertible, so no product
    # with the matrix of an inverse is formed.
    action = {x: [[-1 if i == j == k else int(i == j) for j in range(3)] for i in range(3)]
              for k, x in enumerate(pc.generators)}
    GaloisModule(g, 2, 3, [], action)
    assert len(calls) == 9
    # The power check alone still rejects a matrix of order 4 for an involution.
    action[pc.generators[0]] = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match="not a group homomorphism"):
        GaloisModule(g, 2, 3, [], action)
    # C4 = <g_0, g_1 | g_0^2 = g_1, g_1^2 = 1> acting by a rotation R:
    # X_1 = R^2 is one product, X_1^2 one more, and the commutator relation
    # two.  The generator's inverse g_0^3, whose matrix would be X_0 X_1,
    # is never built.
    del calls[:]
    GaloisModule(make_cyclic(4), 2, 2, [], {1: [[0, -1], [1, 0]]})
    assert len(calls) == 4


def _trivial_module(p, free_rank, torsion):
    """A module over the trivial group, to call `_product` on."""
    return GaloisModule(make_cyclic(1), p, free_rank, torsion,
                        {0: identity_matrix(free_rank + len(torsion))})


@st.composite
def _product_operands(draw):
    """(module, a, b): two stored-form matrices of one random block shape.

    Free rows have no torsion columns, entry (i, k) of torsion rows is a
    multiple of q_i/q_k when q_i > q_k, and torsion rows are reduced
    modulo q_i.  A density picks one entry per row (permutation-like), a
    random subset, or every allowed entry.
    """
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_value=0, max_value=4))
    torsion = sorted(draw(st.lists(st.sampled_from([p, p * p, p ** 3]),
                                   min_size=0 if n else 1, max_size=3)))
    moduli = [0] * n + torsion
    dim = len(moduli)
    density = draw(st.sampled_from(["permutation", "sparse", "full"]))
    value = st.integers(min_value=-30, max_value=30)

    def matrix():
        out = []
        for i, q in enumerate(moduli):
            allowed = range(n) if i < n else range(dim)
            if density == "permutation":
                cols = [draw(st.sampled_from(allowed))]
            elif density == "sparse":
                cols = [k for k in allowed if draw(st.booleans())]
            else:
                cols = list(allowed)
            row = []
            for k in cols:
                x = draw(value)
                if q and moduli[k] and q > moduli[k]:
                    x *= q // moduli[k]
                if q:
                    x %= q
                if x:
                    row.append((k, x))
            out.append(row)
        return out

    return _trivial_module(p, n, torsion), matrix(), matrix()


def _dense(sparse, cols):
    """Dense rows, `cols` wide, of a stored-form matrix."""
    rows = [[0] * cols for _ in sparse]
    for out, row in zip(rows, sparse):
        for j, x in row:
            out[j] = x
    return rows


def _is_stored_form(sparse):
    """Every row zero-free, with strictly ascending columns."""
    return (all(x for row in sparse for _, x in row)
            and all([j for j, _ in row] == sorted({j for j, _ in row}) for row in sparse))


@given(_product_operands())
@settings(max_examples=200)
def test_product_matches_a_dense_reference(operands):
    m, a, b = operands
    n, dim = m.free_rank, m.dim
    want = mat_mul(_dense(a, dim), _dense(b, dim))
    for i, q in enumerate(m.torsion):
        want[n + i] = [x % q for x in want[n + i]]
    got = m._product(a, b)
    assert _dense(got, dim) == want
    assert _is_stored_form(got)


@st.composite
def _quotient_shaped_operands(draw):
    """(a, b, moduli, keep): a wide keep x dim matrix a and a tall dim x keep
    matrix b in stored form, keep <= dim, with free rows (modulus 0) before
    torsion rows, the shapes of a quotient's u action(g) and u^-1 columns."""
    dim = draw(st.integers(min_value=1, max_value=8))
    keep = draw(st.integers(min_value=0, max_value=dim))
    torsion = sorted(draw(st.lists(st.sampled_from([2, 3, 4, 8, 9, 27]), max_size=keep)))
    moduli = [0] * (keep - len(torsion)) + torsion
    value = st.integers(min_value=-30, max_value=30)

    def matrix(rows, cols):
        return [[(j, x) for j in range(cols) if draw(st.booleans()) and (x := draw(value))]
                for _ in range(rows)]

    return matrix(keep, dim), matrix(dim, keep), moduli, keep


@given(_quotient_shaped_operands())
@settings(max_examples=200)
def test_sparse_product_on_quotient_shapes_matches_a_dense_reference(operands):
    a, b, moduli, keep = operands
    want = [[x % q for x in row] if q else row
            for row, q in zip(mat_mul(_dense(a, len(b)), _dense(b, keep)), moduli)]
    got = sparse_product(a, b, moduli)
    assert _dense(got, keep) == want
    assert _is_stored_form(got)


def test_product_rereads_a_column_that_cancels_and_is_written_again():
    # Row 0 writes column 0 with 1, cancels it with -1, then writes 2.
    # Row 1 cancels column 0 and leaves it 0.  The torsion row (mod 4)
    # cancels column 0, writes it again with -1 (b's 3 read as -1), and
    # sums column 2 to 4, which is 0 mod 4.
    m = _trivial_module(2, 3, [4])
    a = [[(0, 1), (1, 1), (2, 1)], [(0, 1), (1, 1)], [(2, 1)], [(0, 2), (1, 2), (3, 1)]]
    b = [[(0, 1), (2, 2)], [(0, -1)], [(0, 2), (1, 5)], [(0, 3)]]
    assert m._product(a, b) == [[(0, 2), (1, 5), (2, 2)], [(2, 2)], [(0, 2), (1, 5)],
                                [(0, 3)]]


@pytest.mark.parametrize("make_group,p", [
    (lambda: make_cyclic(8), 2), (dihedral8, 2), (quaternion8, 2), (heisenberg27, 3)],
    ids=["C8", "D8", "Q8", "H27"])
def test_stored_matrices_are_canonical_and_match_dense_products(make_group, p):
    g = make_group()
    rng = Random(3)
    modules = [random_module(rng, g, p, max_dim=5) for _ in range(12)]
    assert any(m.torsion for m in modules) and any(not m.torsion for m in modules)
    for m in modules:
        n, dim = m.free_rank, m.dim
        moduli = [0] * n + m.torsion
        gens = g.generators() or [0]
        mats = _cayley_walk(g, n, m.torsion, {x: m.action(x) for x in gens})
        mbar = reduce_mod_p(m)
        for x in g.elements():
            for row, q in zip(m.sparse_action(x), moduli):
                cols = [j for j, _ in row]
                assert cols == sorted(set(cols)) and all(0 <= j < dim for j in cols)
                assert all(v and (not q or 0 <= v < q) for _, v in row)
            assert m.action(x) == mats[x]
            for _ in range(3):
                v = [rng.randint(-5, 5) for _ in range(dim)]
                got = mbar.layout.unpack(mbar.act(x, mbar.layout.pack(v)))
                assert got == [sum(a * b for a, b in zip(row, v)) % p for row in mats[x]]
        # The coinvariant projection sends e_i to its residue modulo the
        # columns of A - I, reduced with dense rows.
        deltas = [[(mats[x][i][j] - (i == j)) % p for i in range(dim)]
                  for x in gens for j in range(dim)]
        radical = Subspace(dim, p, [mbar.layout.pack(d) for d in deltas])
        kept = [j for j in range(dim) if j not in radical.pivots]
        # In reduced echelon form e_i's residue is e_i minus the basis row
        # with pivot i, if there is one.
        pivot_rows = dict(zip(radical.pivots, map(mbar.layout.unpack, radical.basis)))
        residues = [[(int(i == j) - pivot_rows.get(i, [0] * dim)[j]) % p for j in range(dim)]
                    for i in range(dim)]
        w_dim, projection = coinvariants(mbar)
        # The projection lists the image of each e_i in W, packed.
        assert (w_dim, [layout(w_dim, p).unpack(c) for c in projection]) == \
            (len(kept), [[r[j] for j in kept] for r in residues])
        if not dim:
            continue
        # One entry of one generator changed: no longer an action.
        x = rng.choice(gens)
        i = rng.randrange(dim)
        j = rng.randrange(n) if i < n else i
        action = {y: m.action(y) for y in gens}
        action[x][i][j] += 1
        assert _cayley_walk(g, n, m.torsion, action) is None
        with pytest.raises(ValueError, match="not a group homomorphism"):
            GaloisModule(g, p, n, m.torsion, action)


def _d8_sum_with_torsion():
    """Free rank 5 and torsion [2, 2, 2, 4] over D8."""
    rng = Random(0)
    parts = [random_module(rng, dihedral8(), 2, max_dim=4) for _ in range(3)]
    return direct_sum(*parts)


def test_fixed_submodule_of_a_lattice_is_the_kernel_hnf(monkeypatch):
    # A lattice, and a module with torsion, whose relation vectors the
    # kernel's projection must already contain.
    c9 = make_cyclic(9)
    modules = [permutation_module(c9, subgroup_class(c9, (0,)), 3), _d8_sum_with_torsion()]
    real = int_lattice.hermite_normal_form
    calls = []

    def counting(mat):
        calls.append(1)
        return real(mat)

    monkeypatch.setattr(int_lattice, "hermite_normal_form", counting)
    for m in modules:
        for cls in subgroup_classes(m.group):
            del calls[:]
            basis = fixed_submodule(m, cls)
            # One HNF of the augmented system, none for the trivial subgroup.
            assert len(calls) == (1 if cls.generators else 0)
            assert basis == real(basis)
            assert all(m.act(x, v) == m.canon_vector(v)
                       for x in cls.representative for v in basis)


def _fixed_lattice_modules():
    """Per group, one module of dimension <= 4 without torsion and one with."""
    c2 = make_cyclic(2)
    groups = [(make_cyclic(4), 2), (direct_product(c2, c2), 2), (dihedral8(), 2),
              (quaternion8(), 2), (heisenberg27(), 3)]
    rng = Random(11)
    for g, p in groups:
        found = {}
        while len(found) < 2:
            m = random_module(rng, g, p, max_dim=4)
            if 0 < m.dim <= 4:
                found.setdefault(bool(m.torsion), m)
        yield from found.values()


def test_fixed_submodule_against_box_enumeration():
    # Reference: the fixed points of the box [-2, 2]^dim, found by acting
    # with every member of H, must lie in the span of the basis; so must
    # the relation vectors, which fixed_submodule never adds explicitly.
    modules = list(_fixed_lattice_modules())
    assert sum(bool(m.torsion) for m in modules) == 5
    for m in modules:
        box = list(itertools.product(range(-2, 3), repeat=m.dim))
        for cls in subgroup_classes(m.group):
            basis = fixed_submodule(m, cls)
            members = cls.representative
            for v in basis:
                assert all(m.act(h, v) == m.canon_vector(v) for h in members), (m, cls, v)
            for x in box:
                x = list(x)
                if all(m.act(h, x) == m.canon_vector(x) for h in members):
                    assert not any(_reduce(basis, x)), (m, cls, x)
            # the relation vectors q_j e_(n+j)
            for j, q in enumerate(m.torsion):
                r = [q * (i == m.free_rank + j) for i in range(m.dim)]
                assert not any(_reduce(basis, r)), (m, cls, r)


def _first_nonzero_kernel(rows, width):
    """The kernel vectors a first-nonzero pivot rule gives: one per non-pivot
    column f of the reduced echelon form over Q, 1 at f and 0 at the other
    non-pivot columns, scaled to a primitive integer vector."""
    echelon, pivots = [], []
    for row in rows:
        row = [Fraction(x) for x in row]
        for prow, c in zip(echelon, pivots):
            x = row[c]
            row = [a - x * b for a, b in zip(row, prow)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        row = [x / row[lead] for x in row]
        echelon = [[a - prow[lead] * b for a, b in zip(prow, row)] for prow in echelon]
        echelon.append(row)
        pivots.append(lead)
    kernel = []
    for f in range(width):
        if f in pivots:
            continue
        vec = [Fraction(f == j) for j in range(width)]
        for prow, c in zip(echelon, pivots):
            vec[c] = -prow[f]
        den = lcm(*(x.denominator for x in vec))
        ints = [int(x * den) for x in vec]
        g = gcd(*ints)
        kernel.append([x // g for x in ints])
    return kernel


@pytest.mark.parametrize("p", [2, 3])
def test_local_kernel_pivots_on_a_unit(p):
    # A first-nonzero pivot (p) gives (-1, p, 0) and (-1, 0, p), which are
    # dependent mod p; the unit pivot (1) gives a basis over Z_(p).
    assert _first_nonzero_kernel([[p, 1, 1]], 3) == [[-1, p, 0], [-1, 0, p]]
    assert int_lattice._local_kernel([[p, 1, 1]], 3, p) == [[1, -p, 0], [0, -1, 1]]


@given(small_matrix, st.sampled_from([2, 3, 5]))
@settings(max_examples=100)
def test_local_kernel_spans_the_kernel_mod_p(m, p):
    cols = len(m[0])
    basis = int_lattice._local_kernel(m, cols, p)
    for vec in basis:
        assert all(sum(row[j] * vec[j] for j in range(cols)) == 0 for row in m)
    assert len(basis) == cols - len(smith_normal_form(m)[0])
    assert rref(basis, cols, p) == rref(kernel_basis(m), cols, p)


def _fresh_local_basis(m, cls):
    rows, width = int_lattice._fixed_system(m, cls)
    return [v[:m.dim] for v in int_lattice._local_kernel(rows, width, m.prime) if any(v[:m.dim])]


def test_shared_prefix_states_match_a_fresh_elimination(monkeypatch):
    # One walk per module serves the classes in the greedy's order, then
    # reversed, then shuffled; every basis must be the fresh elimination's.
    # A stored state that changed would break a later repeat of its class.
    # Each generator prefix is eliminated once per walk, and `shared` counts
    # the blocks distinct classes did not eliminate again.
    c2 = make_cyclic(2)
    groups = [(direct_product(direct_product(c2, c2), c2), 2),
              (direct_product(c2, make_cyclic(4)), 2), (dihedral8(), 2),
              (quaternion8(), 2), (heisenberg27(), 3)]
    rng = Random(18)
    modules = [random_module(rng, g, p, max_dim=6) for g, p in groups for _ in range(12)]
    assert sum(bool(m.torsion) for m in modules) >= 10
    assert sum(not m.torsion for m in modules) >= 10
    blocks = []
    shared = 0
    eliminate = int_lattice._local_eliminate

    def counting(echelon, pivots, rows, p):
        blocks.append(len(rows))
        eliminate(echelon, pivots, rows, p)

    for m in modules:
        classes = sorted(subgroup_classes(m.group), key=lambda c: c.index)
        fresh = {cls: _fresh_local_basis(m, cls) for cls in classes}
        shuffled = list(classes)
        rng.shuffle(shuffled)
        walk = classes + classes[::-1] + shuffled
        blocks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(int_lattice, "_local_eliminate", counting)
            for cls, basis in local_fixed_bases(m, walk):
                assert basis == fresh[cls], (m, cls)
        prefixes = {cls.generators[:k] for cls in walk for k in range(1, len(cls.generators) + 1)}
        assert len(blocks) == len(prefixes) < sum(len(cls.generators) for cls in walk), m
        shared += sum(len(cls.generators) for cls in classes) - len(prefixes)
    assert shared >= 200


def test_local_fixed_basis_spans_the_hnf_lattice_mod_p(small_p_groups):
    # Every vector of the p-local basis lies in the HNF lattice M^H, and
    # both have the same image in M/pM.  `needed` counts the classes where
    # first-nonzero pivots would fall short of that image, so the unit
    # pivot rule is exercised, not just present.
    modules = [e.module for p in (2, 3, 5) for e in instantiated_catalog(p)]
    rng = Random(2024)
    for g, p in small_p_groups:
        modules += [random_module(rng, g, p, max_dim=6) for _ in range(40)]
    assert sum(bool(m.torsion) for m in modules) >= 100
    needed = set()
    for k, m in enumerate(modules):
        p = m.prime
        for cls, local in local_fixed_bases(m, subgroup_classes(m.group)):
            hnf = fixed_submodule(m, cls)
            for v in local:
                assert not any(_reduce(hnf, v)), (m, cls, v)
            image = rref(hnf, m.dim, p)
            assert rref(local, m.dim, p) == image, (m, cls)
            rows, width = int_lattice._fixed_system(m, cls)
            raw = [v[:m.dim] for v in _first_nonzero_kernel(rows, width)]
            if rref(raw, m.dim, p) != image:
                needed.add((m.group.name, k, cls.representative))
    assert len(needed) >= 20
    assert {"D8", "Q8", "C9"} <= {name for name, _, _ in needed}


def _checked_copy(m):
    """m rebuilt through the public constructor from its generators' dense matrices."""
    return GaloisModule(m.group, m.prime, m.free_rank, m.torsion,
                        {g: m.action(g) for g in m.group.generators()})


def test_derived_modules_pass_the_homomorphism_check():
    # Sums, quotients, coset lattices and changes of basis skip the check;
    # rebuilt through it, each must be accepted and act the same on every
    # element.
    c2 = make_cyclic(2)
    groups = [(make_cyclic(4), 2), (make_cyclic(8), 2), (direct_product(c2, c2, c2), 2),
              (dihedral8(), 2), (quaternion8(), 2), (make_cyclic(9), 3), (heisenberg27(), 3)]
    rng = Random(20261021)
    modules = [e.module for p in (2, 3, 5, 7) for e in instantiated_catalog(p)]
    catalog_count = len(modules)
    for g, p in groups:
        parts = [random_module(rng, g, p, max_dim=5) for _ in range(45)]
        modules += parts + [direct_sum(*rng.sample(parts, rng.randrange(2, 4)))
                            for _ in range(12)]
    assert len(modules) - catalog_count == 399
    assert sum(bool(m.torsion) for m in modules) >= 50
    for m in modules:
        checked = _checked_copy(m)
        assert (checked.free_rank, checked.torsion) == (m.free_rank, m.torsion)
        assert all(checked.sparse_action(x) == m.sparse_action(x)
                   for x in m.group.elements()), m


def test_derived_modules_do_not_run_the_check_and_inputs_do(monkeypatch):
    class CheckRan(Exception):
        pass

    def refuse(*args):
        raise CheckRan

    g = dihedral8()
    sample = GaloisModule(g, 2, 2, [], {1: [[0, -1], [1, 0]], 4: [[1, 0], [0, -1]]})
    text = module_to_json(sample)
    monkeypatch.setattr(GaloisModule, "_is_action", refuse)
    regular = permutation_module(g, subgroup_class(g, (0,)), 2)
    total = direct_sum(regular, permutation_module(g, subgroup_class(g, (0, 4)), 2),
                       trivial_lattice(g, 2, 2))
    quotient = quotient_by_orbit_relations(total, [[1] * total.free_rank])
    rebased = conjugate_basis(Random(3), quotient)
    assert (quotient.dim, rebased.dim) == (13, 13)
    assert len(list(instantiated_catalog(5))) == 21
    # What comes from outside still runs the check: JSON modules, the
    # catalog's cyclic twists and modules written by hand.
    with pytest.raises(CheckRan):
        parse_module(text, 2)
    with pytest.raises(CheckRan):
        parse_catalog_key("cyclic@p=3,n=2,a=4")
    with pytest.raises(CheckRan):
        GaloisModule(g, 2, 1, [], {1: [[1]], 4: [[-1]]})
    monkeypatch.undo()
    assert _checked_copy(rebased).dim == 13
    # s acting trivially would make r an involution.
    text["action"]["4"] = [["1", "0"], ["0", "1"]]
    with pytest.raises(ValueError, match="not a group homomorphism"):
        parse_module(text, 2)
