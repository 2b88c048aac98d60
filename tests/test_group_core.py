from random import Random

import pytest
from hypothesis import given, strategies as st

from edlattice import group_core, jsonio
from edlattice.group_core import (
    FiniteGroup,
    coset_action,
    conjugate_subgroup,
    dihedral8,
    direct_product,
    from_table,
    heisenberg27,
    is_p_power,
    make_cyclic,
    orbit,
    quaternion8,
    subgroup_class,
    subgroup_classes,
    subgroup_of,
)


def test_cyclic_basics():
    g = make_cyclic(6)
    assert g.order == 6
    assert g.cayley[4][5] == 3
    assert g.inverse[2] == 4
    assert g.element_order(2) == 3
    assert g.is_abelian()


def test_direct_product_element_orders():
    g = direct_product(make_cyclic(2), make_cyclic(3))
    # (1, 1) packs to index 1*3 + 1 = 4 and has order lcm(2, 3) = 6
    assert g.order == 6
    assert g.element_order(4) == 6


def test_prime_power_detection():
    assert make_cyclic(1).is_p_group(5)
    assert not make_cyclic(6).is_p_group(3)


def _p_power_by_trial_division(n, p):
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


@given(st.sampled_from([2, 3, 5, 7, 11, 101]), st.integers(min_value=0, max_value=300),
       st.integers(min_value=-3, max_value=40))
def test_is_p_power_matches_trial_division(p, k, cofactor):
    for n in (p ** k * cofactor, p ** k + cofactor, cofactor):
        assert is_p_power(n, p) == _p_power_by_trial_division(n, p)


def test_is_p_power_rejects_p_below_2():
    with pytest.raises(ValueError):
        is_p_power(8, 1)


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        from_table([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(ValueError):
        from_table([[1, 0], [0, 1]])  # identity is not index 0


def test_nonassociative_table_rejected_at_order_70():
    table = [[(i + j) % 70 for j in range(70)] for i in range(70)]
    table[2][3], table[2][4] = table[2][4], table[2][3]
    with pytest.raises(ValueError, match="associative"):
        from_table(table)


def test_nonassociative_table_whose_powers_never_reach_the_identity_is_rejected():
    # Identity and two-sided inverses hold, but 1, 1*1 = 2, 2*1 = 3, 3*1 = 2,
    # ... never walks back to 0: `FiniteGroup.powers` must stop the walk.
    table = [[0, 1, 2, 3, 4],
             [1, 2, 1, 1, 0],
             [2, 3, 1, 0, 1],
             [3, 2, 0, 1, 1],
             [4, 0, 1, 1, 1]]
    with pytest.raises(ValueError, match="cayley table is not associative"):
        from_table(table)


def test_powers_walk_to_the_first_identity(s3):
    for g in (make_cyclic(1), make_cyclic(12), _c2_times_c4(), dihedral8(), quaternion8(),
              heisenberg27(), s3):
        for a in g.elements():
            powers = g.powers(a)
            assert powers[-1] == 0 and 0 not in powers[:-1]
            assert len(powers) == g.element_order(a)
            assert powers[0] == a
            assert all(g.cayley[x][a] == y for x, y in zip(powers, powers[1:]))


def test_subgroup_of_validates():
    g = make_cyclic(4)
    assert subgroup_of(g, [0, 2]) == (0, 2)
    with pytest.raises(ValueError):
        subgroup_of(g, [0, 1])  # not closed
    with pytest.raises(ValueError):
        subgroup_of(g, [1, 2])  # no identity


def test_subgroup_classes_c4():
    g = make_cyclic(4)
    classes = subgroup_classes(g)
    assert [(c.representative, c.index) for c in classes] == [
        ((0,), 4),
        ((0, 2), 2),
        ((0, 1, 2, 3), 1),
    ]


def test_subgroup_classes_klein_four():
    g = direct_product(make_cyclic(2), make_cyclic(2))
    classes = subgroup_classes(g)
    assert sorted(c.index for c in classes) == [1, 2, 2, 2, 4]
    # abelian group: every class is a single subgroup, so all 5 are listed
    assert sorted(c.representative for c in classes) == [
        (0,), (0, 1), (0, 1, 2, 3), (0, 2), (0, 3)]


@given(st.integers(min_value=0, max_value=4))
def test_cyclic_p_power_subgroup_count(k):
    # C_{2^k} has exactly one subgroup per divisor, so k + 1 classes.
    g = make_cyclic(2 ** k)
    assert len(subgroup_classes(g)) == k + 1


@given(st.integers(min_value=1, max_value=24))
def test_all_subgroup_orders_divide(n):
    g = make_cyclic(n)
    for c in subgroup_classes(g):
        assert g.order % len(c.representative) == 0
        assert c.index * len(c.representative) == g.order


def test_conjugation_fixes_abelian_subgroups():
    g = make_cyclic(9)
    h = subgroup_of(g, [0, 3, 6])
    for x in g.elements():
        assert conjugate_subgroup(g, h, x) == h


def test_coset_action_c4_mod_c2():
    g = make_cyclic(4)
    act = coset_action(g, subgroup_class(g, (0, 2)))
    assert act.degree == 2
    # the generator swaps the two cosets, and it is the only element kept
    assert act.permutations == {1: (1, 0)}


def test_coset_action_regular():
    g = make_cyclic(3)
    act = coset_action(g, subgroup_class(g, (0,)))
    assert act.degree == 3
    # left translation by 1 sends coset {i} to {i+1}
    assert act.permutations[1] == (1, 2, 0)


def test_generators_generate():
    for g in (make_cyclic(12), direct_product(make_cyclic(2), make_cyclic(4))):
        gens = g.generators()
        assert g.closure(gens) == tuple(g.elements())


def test_nonabelian_constructors():
    # (order, element orders as a sorted list, number of subgroup classes)
    expected = {
        "D8": (8, [1, 2, 2, 2, 2, 2, 4, 4], 8),
        "Q8": (8, [1, 2, 4, 4, 4, 4, 4, 4], 6),
        "H27": (27, [1] + [3] * 26, 11),
    }
    for g in (dihedral8(), quaternion8(), heisenberg27()):
        order, orders, n_classes = expected[g.name]
        assert g.order == order and not g.is_abelian()
        assert sorted(g.element_order(x) for x in g.elements()) == orders
        assert len(subgroup_classes(g)) == n_classes


def _c2_cubed():
    c2 = make_cyclic(2)
    return direct_product(direct_product(c2, c2), c2)


def _c2_times_c4():
    return direct_product(make_cyclic(2), make_cyclic(4))


def test_subgroup_enumeration_stops_at_the_cap(monkeypatch):
    # C2^3 has 16 subgroups: a cap of 16 builds them all, one less refuses.
    monkeypatch.setattr(group_core, "MAX_SUBGROUPS", 16)
    assert len(subgroup_classes(_c2_cubed())) == 16
    monkeypatch.setattr(group_core, "MAX_SUBGROUPS", 15)
    with pytest.raises(ValueError, match="more than 15 subgroups"):
        subgroup_classes(_c2_cubed())


def _d8_times_c2():
    return direct_product(dihedral8(), make_cyclic(2))


@pytest.mark.parametrize("make_group", [
    dihedral8, quaternion8, heisenberg27, pytest.param(lambda: make_cyclic(1), id="C1"),
    pytest.param(_c2_cubed, id="C2^3"), pytest.param(_c2_times_c4, id="C2xC4")])
def test_coset_action_matches_all_pairs_reference(make_group, reference_coset_action):
    # Only the generators' permutations are kept; the trivial group has
    # none, so its actions keep no permutation.
    g = make_group()
    kept = g.generators()
    for cls in subgroup_classes(g):
        act = coset_action(g, cls)
        cosets, perms = reference_coset_action(g, cls.representative)
        assert act.degree == len(cosets)
        assert act.permutations == {x: perms[x] for x in kept}


def test_subgroup_class_validates_sorts_and_dedupes():
    g = make_cyclic(4)
    assert subgroup_class(g, [2, 0, 2, 0]) == subgroup_class(g, (0, 2))
    assert subgroup_class(g, [2, 0, 2, 0]).representative == (0, 2)
    assert subgroup_class(g, range(4)) == subgroup_classes(g)[-1]
    with pytest.raises(ValueError, match="identity"):
        subgroup_class(g, [1, 2, 3])
    with pytest.raises(ValueError, match="not closed"):
        subgroup_class(g, [0, 1])
    with pytest.raises(ValueError, match="not an element"):
        subgroup_class(g, [0, 4])


def _subgroup_by_all_pairs(g, elements):
    """The former check, kept as a reference: the sorted members when every
    product and inverse of members is a member, else None."""
    elems = tuple(sorted(set(elements)))
    if not elems or elems[0] != 0 or elems[-1] >= g.order:
        return None
    members = set(elems)
    if all(g.inverse[x] in members and all(g.cayley[x][y] in members for y in elems)
           for x in elems):
        return elems
    return None


@pytest.mark.parametrize("make_group", [_c2_times_c4, dihedral8, quaternion8, heisenberg27])
def test_subgroup_of_matches_the_all_pairs_check(make_group):
    # Member lists drawn three ways: a subgroup (the closure of random
    # elements), that subgroup with one element added or removed, and a
    # random subset, each listed out of order, with repeats, and sometimes
    # without the identity or with an element past the group.
    g = make_group()
    rng = Random(7)
    outcomes = set()
    for _ in range(150):
        kind = rng.randrange(3)
        if kind < 2:
            members = list(g.closure(rng.sample(range(g.order), rng.randint(1, 2))))
            if kind == 1:
                x = rng.randrange(1, g.order + 1)
                members = [y for y in members if y != x] if x in members else members + [x]
        else:
            members = rng.sample(range(g.order), rng.randint(1, g.order))
        if rng.random() < 0.1:
            members = [y for y in members if y != 0]
        members += rng.sample(members, len(members) // 3)
        rng.shuffle(members)
        expected = _subgroup_by_all_pairs(g, members)
        outcomes.add(expected is None)
        if expected is None:
            with pytest.raises(ValueError):
                subgroup_of(g, members)
        else:
            assert subgroup_of(g, members) == expected
    assert outcomes == {True, False}


def test_subgroup_of_accepts_the_whole_of_c1849_and_rejects_it_without_1():
    g = make_cyclic(1849)
    assert subgroup_of(g, range(g.order)) == tuple(range(g.order))
    with pytest.raises(ValueError, match="not closed"):
        subgroup_of(g, [x for x in g.elements() if x != 1])


def test_subgroup_class_keeps_the_given_conjugate(reference_coset_action):
    # D8's reflections (0, 4) and (0, 6) are conjugate, not normal: the
    # enumerated class represents both by (0, 4), and a member list keeps
    # the subgroup it names.
    g = dihedral8()
    assert conjugate_subgroup(g, (0, 4), 1) == (0, 6)
    enumerated = [c for c in subgroup_classes(g) if c.representative == (0, 4)]
    assert subgroup_class(g, (0, 4)) in enumerated
    other = subgroup_class(g, (6, 0))
    assert (other.representative, other.index, other.generators) == ((0, 6), 4, (6,))
    assert other not in subgroup_classes(g)
    for cls in (subgroup_class(g, (0, 4)), other):
        _, perms = reference_coset_action(g, cls.representative)
        assert coset_action(g, cls).permutations == {x: perms[x] for x in g.generators()}


def test_group_data_is_computed_once_per_instance():
    g = dihedral8()
    gens = g.generators()
    gens.append(5)  # callers get copies, never the cached list
    assert g.generators() == gens[:-1]
    classes = subgroup_classes(g)
    classes.clear()
    assert subgroup_classes(g) and subgroup_classes(g)[0] is subgroup_classes(g)[0]
    cls = subgroup_classes(g)[1]
    assert coset_action(g, cls) is coset_action(g, cls)
    assert coset_action(g, subgroup_class(g, [0, 4])) is coset_action(g, subgroup_class(g, (0, 4)))
    # a second instance with the same table computes its own
    assert coset_action(dihedral8(), cls) is not coset_action(g, cls)


@pytest.mark.parametrize("make_group", [_c2_cubed, _c2_times_c4, dihedral8, quaternion8,
                                        heisenberg27])
def test_class_generators_generate_the_representative(make_group):
    g = make_group()
    for cls in subgroup_classes(g):
        assert g.closure(cls.generators) == cls.representative
        assert all(x in cls.representative for x in cls.generators)


@given(st.sampled_from([_c2_times_c4(), dihedral8(), heisenberg27()]),
       st.lists(st.integers(min_value=0, max_value=26), max_size=6))
def test_subgroup_generators_cover_a_non_subgroup(g, picks):
    members = [x % g.order for x in picks]
    gens = g.subgroup_generators(members)
    assert set(gens) <= set(members)
    assert set(members) <= set(g.closure(gens))


def _order_by_walk(g, a):
    k, x = 1, a
    while x != 0:
        x = g.cayley[x][a]
        k += 1
    return k


def _reference_subgroup_generators(g, members):
    """The greedy with each member's order found by walking its own powers."""
    gens, reached = [], {0}
    for a in sorted(members, key=lambda x: (-_order_by_walk(g, x), x)):
        if a not in reached:
            gens.append(a)
            reached = set(g.closure(gens))
    return gens


@pytest.mark.parametrize("make_group", [lambda: make_cyclic(2048), _c2_cubed, _c2_times_c4,
                                        dihedral8, quaternion8, heisenberg27])
def test_subgroup_generators_match_the_element_order_sort(make_group):
    g = make_group()
    if g.order > 64:
        # subgroup_classes is slow at this order: take the even elements
        # and a non-subgroup listed out of order.
        member_sets = [range(0, g.order, 2), [6, 3, 12, 0, 5]]
    else:
        member_sets = [cls.representative for cls in subgroup_classes(g)] + [[5, 1, 3]]
    for members in member_sets:
        assert g.subgroup_generators(members) == _reference_subgroup_generators(g, members)
    assert g.generators() == _reference_subgroup_generators(g, g.elements())
    assert all(g.element_order(x) == _order_by_walk(g, x) for x in g.elements())


def test_subgroup_generators_returns_a_fresh_list_per_call():
    g = dihedral8()
    members = [cls.representative for cls in subgroup_classes(g)][-1]
    first = g.subgroup_generators(members)
    first.append(-1)
    assert g.subgroup_generators(reversed(members)) == first[:-1]
    assert g.subgroup_generators(members) is not g.subgroup_generators(members)


def _reference_subgroup_classes(group):
    """Depth-first enumeration seeded with every member, then conjugacy dedup."""
    known = {(0,)}
    frontier = [(0,)]
    while frontier:
        h = frontier.pop()
        for x in group.elements():
            if x not in h:
                extended = group.closure(h + (x,))
                if extended not in known:
                    known.add(extended)
                    frontier.append(extended)
    classes, seen = [], set()
    for h in sorted(known):
        if h not in seen:
            orbit = {conjugate_subgroup(group, h, g) for g in group.elements()}
            seen |= orbit
            rep = min(orbit)
            classes.append((rep, group.order // len(rep), len(rep)))
    return sorted(classes, key=lambda c: (-c[1], c[0]))


@pytest.mark.parametrize("make_group", [_c2_cubed, _c2_times_c4, dihedral8, quaternion8,
                                        heisenberg27, lambda: make_cyclic(64), _d8_times_c2])
def test_subgroup_classes_match_reference_enumeration(make_group):
    g = make_group()
    classes = [(c.representative, c.index, len(c.representative))
               for c in subgroup_classes(g)]
    assert classes == _reference_subgroup_classes(g)


def test_enumeration_seeds_stay_small(monkeypatch):
    g = make_cyclic(512)
    real = FiniteGroup.closure
    sizes = []

    def closure(self, seed):
        seed = list(seed)
        sizes.append(len(seed))
        return real(self, seed)

    monkeypatch.setattr(FiniteGroup, "closure", closure)
    assert len(subgroup_classes(g)) == 10
    # Seeded with every member of h, the largest seed had 257 elements.
    assert sizes and max(sizes) <= 10


def _pc_groups():
    c2 = make_cyclic(2)
    return [make_cyclic(1), make_cyclic(2), make_cyclic(6), make_cyclic(121), make_cyclic(512),
            _c2_cubed(), _c2_times_c4(), dihedral8(), quaternion8(), heisenberg27(),
            _d8_times_c2(), direct_product(make_cyclic(9), make_cyclic(3)),
            direct_product(direct_product(c2, c2), make_cyclic(3))]


def _check_pc_presentation(g):
    pc = g.pc_presentation()
    k = len(pc.generators)
    assert len(pc.relative_orders) == k and len(pc.exponents) == g.order
    assert all(r >= 2 and all(r % d for d in range(2, r)) for r in pc.relative_orders)

    def evaluate(exponents):
        x = 0
        for gen, e in zip(pc.generators, exponents):
            for _ in range(e):
                x = g.cayley[x][gen]
        return x

    # Each element is its normal form, and the normal forms are all the
    # exponent vectors below the relative orders: so |G| = r_0 ... r_{k-1}.
    assert [evaluate(e) for e in pc.exponents] == list(g.elements())
    assert all(all(0 <= e < r for e, r in zip(exps, pc.relative_orders))
               for exps in pc.exponents)
    assert len(set(pc.exponents)) == g.order
    # G_i = <g_i, ..., g_{k-1}> is normal in G_{i-1}, and the relation words
    # lie in G_{i+1}: their exponents vanish up to position i.
    terms = [g.closure(pc.generators[i:]) for i in range(k + 1)]
    for i in range(k):
        assert len(terms[i]) == pc.relative_orders[i] * len(terms[i + 1])
        assert all(conjugate_subgroup(g, terms[i + 1], x) == terms[i + 1] for x in terms[i])
    for i, (gen, r) in enumerate(zip(pc.generators, pc.relative_orders)):
        power = 0
        for _ in range(r):
            power = g.cayley[power][gen]
        assert pc.powers[i] == power
        assert not any(pc.exponents[power][:i + 1])
    assert set(pc.conjugates) == {(i, j) for i in range(k) for j in range(i + 1, k)}
    for (i, j), w in pc.conjugates.items():
        gi, gj = pc.generators[i], pc.generators[j]
        assert g.cayley[gj][gi] == g.cayley[gi][w]
        assert not any(pc.exponents[w][:i + 1])
    return pc


@pytest.mark.parametrize("g", _pc_groups(), ids=lambda g: g.name)
def test_pc_presentation_is_a_normal_form_with_its_relations(g):
    pc = _check_pc_presentation(g)
    assert pc is g.pc_presentation()  # computed once per group
    if g.order > 1 and g.is_p_group(pc.relative_orders[0]):
        assert set(pc.relative_orders) == {pc.relative_orders[0]}


def test_pc_presentation_of_cyclic_p_squared():
    pc = make_cyclic(121).pc_presentation()
    assert (pc.generators, pc.relative_orders, pc.powers) == ((1, 11), (11, 11), (11, 0))
    assert pc.exponents[25] == (3, 2)


def test_pc_presentation_of_solvable_nonnilpotent_groups(s3, a4):
    for g in (s3, a4):
        pc = _check_pc_presentation(g)
        assert sorted(pc.relative_orders) == sorted({6: [2, 3], 12: [2, 2, 3]}[g.order])


def _commutators(g, xs):
    c, inv = g.cayley, g.inverse
    return [c[c[inv[x]][inv[y]]][c[x][y]] for x in xs for y in xs]


def test_derived_subgroup_is_the_closure_of_all_commutators(s3, a4, s4, d8):
    # Down the derived series, [H, H] must be the subgroup generated by
    # every commutator [x, y] with x, y in H.  In A4 and S4 the commutators
    # of the generators alone generate a smaller subgroup, so there the
    # conjugates are needed.
    short = {}
    for g in (s3, a4, s4, d8, quaternion8(), heisenberg27()):
        members = tuple(g.elements())
        while len(members) > 1:
            derived = group_core._derived_subgroup(g, members)
            assert derived == g.closure(_commutators(g, members)), (g, members)
            gens = g.subgroup_generators(members)
            short.setdefault(g.name, (len(g.closure(_commutators(g, gens))), len(derived)))
            members = derived
    assert short["A4"] == (2, 4) and short["S4"] == (3, 12)


def test_pc_presentation_needs_a_solvable_group(a5):
    with pytest.raises(ValueError, match="not solvable"):
        a5.pc_presentation()


@pytest.mark.parametrize("make_group", [lambda: make_cyclic(9), dihedral8, heisenberg27])
def test_words_reach_their_targets(make_group):
    g = make_group()
    gens = g.generators()
    targets = list(g.elements())
    words = g.words(gens, targets)
    for t, runs in zip(targets, words):
        x = 0
        for s, e in runs:
            assert s in gens and e >= 1
            for _ in range(e):
                x = g.cayley[x][s]
        assert x == t
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))  # runs are maximal
    assert g.words(gens, [0]) == [[]]
    assert make_cyclic(16).words([1], [15]) == [[(1, 15)]]


def test_enumeration_tries_one_element_per_coset(monkeypatch):
    g = make_cyclic(512)
    # The enumeration asks is_abelian, which reads generators(); that is
    # computed once per group, by a closure of its own, so count from after it.
    g.generators()
    real = FiniteGroup.closure
    calls = []

    def closure(self, seed):
        calls.append(1)
        return real(self, seed)

    monkeypatch.setattr(FiniteGroup, "closure", closure)
    classes = subgroup_classes(g)
    # At most one closure per (subgroup h, coset of h other than h), 1,013,
    # against 4,097 when every element outside h was tried.  An x covers
    # every coset hz with z a generator of <x>, so in a cyclic group only
    # one x per larger subgroup is tried: 45 pairs h < K of the 10 classes.
    assert len(calls) == 45 < sum(c.index - 1 for c in classes) == 1013


def test_enumeration_of_c1849_makes_at_most_five_closures(monkeypatch):
    # Trying x covers h times every generator of <x>: 1,892 closures when
    # it covered the coset hx alone, counted the same way.
    g = make_cyclic(1849)
    real = FiniteGroup.closure
    calls = []

    def closure(self, seed):
        calls.append(1)
        return real(self, seed)

    monkeypatch.setattr(FiniteGroup, "closure", closure)
    assert [c.index for c in subgroup_classes(g)] == [1849, 43, 1]
    assert len(calls) <= 5


def _all_subgroups(group):
    """Every subgroup: adjoin each element to each subgroup found, by its generators."""
    gens = {(0,): ()}
    queue = [(0,)]
    for h in queue:
        for x in group.elements():
            if x not in h:
                extended = group.closure(gens[h] + (x,))
                if extended not in gens:
                    gens[extended] = gens[h] + (x,)
                    queue.append(extended)
    return queue


def _product(*factors):
    group = factors[0]
    for factor in factors[1:]:
        group = direct_product(group, factor)
    return group


@pytest.mark.parametrize("make_group", [
    lambda: make_cyclic(256),
    lambda: _product(*[make_cyclic(2)] * 5),
    lambda: _product(dihedral8(), make_cyclic(2), make_cyclic(2)),
    lambda: _product(quaternion8(), make_cyclic(2)),
    lambda: _product(heisenberg27(), make_cyclic(3)),
], ids=["C256", "C2^5", "D8xC2xC2", "Q8xC2", "H27xC3"])
def test_conjugacy_orbits_by_generators_match_all_elements(make_group):
    # The classes are found by conjugating with the group's generators only
    # (not at all when they commute); conjugating every subgroup by every
    # element must give the same representatives in the same order.  An
    # orbit that too few conjugations split would add a representative.
    g = make_group()
    reference, seen = [], set()
    for h in sorted(_all_subgroups(g)):
        if h not in seen:
            orbit = {conjugate_subgroup(g, h, x) for x in g.elements()}
            seen |= orbit
            rep = min(orbit)
            reference.append((rep, g.order // len(rep)))
    reference.sort(key=lambda c: (-c[1], c[0]))
    classes = subgroup_classes(g)
    assert [(c.representative, c.index) for c in classes] == reference
    assert all(g.closure(c.generators) == c.representative for c in classes)


def _is_abelian_by_all_pairs(g):
    """The definition: every pair of elements commutes."""
    return all(g.cayley[a][b] == g.cayley[b][a] for a in g.elements() for b in g.elements())


def test_is_abelian_matches_the_all_pairs_definition(s3, a4, a5):
    # is_abelian compares the generators only, which generate the group.
    groups = _pc_groups() + [
        make_cyclic(12), make_cyclic(256), _product(*[make_cyclic(2)] * 5),
        _product(dihedral8(), make_cyclic(2), make_cyclic(2)),
        _product(quaternion8(), make_cyclic(2)), _product(heisenberg27(), make_cyclic(3)),
        s3, a4, a5]
    answers = [g.is_abelian() for g in groups]
    assert answers == [_is_abelian_by_all_pairs(g) for g in groups]
    assert True in answers and False in answers


def _pairwise_product(a, b):
    """The two-factor table as written before products took any number of
    factors: (x, y) packed as x * |b| + y, named "AxB"."""
    nb = b.order
    table = [[a.cayley[x1][x2] * nb + b.cayley[y1][y2]
              for x2 in range(a.order) for y2 in range(nb)]
             for x1 in range(a.order) for y1 in range(nb)]
    return FiniteGroup(table, name=f"{a.name}x{b.name}")


@pytest.mark.parametrize("make_factors", [
    lambda: [make_cyclic(2), make_cyclic(3), make_cyclic(4)],
    lambda: [dihedral8(), make_cyclic(2)],
    lambda: [quaternion8(), make_cyclic(3)],
    lambda: [make_cyclic(2)] * 5,
    lambda: [heisenberg27()],
], ids=["C2xC3xC4", "D8xC2", "Q8xC3", "C2^5", "H27"])
def test_direct_product_of_many_factors_is_the_left_fold(make_factors):
    factors = make_factors()
    fold = factors[0]
    for factor in factors[1:]:
        fold = _pairwise_product(fold, factor)
    g = direct_product(*factors)
    assert (g.cayley, g.name, g.order) == (fold.cayley, fold.name, fold.order)


def test_direct_product_needs_a_factor():
    with pytest.raises(ValueError, match="product needs at least one factor"):
        direct_product()


# The smallest loop that is not a group: a Latin square with identity 0 in
# which every element is its own inverse, of order 5, which no group of
# order 5 allows.
_LOOP5 = [[0, 1, 2, 3, 4],
          [1, 0, 3, 4, 2],
          [2, 4, 0, 1, 3],
          [3, 2, 4, 0, 1],
          [4, 3, 1, 2, 0]]


def test_direct_product_skips_the_table_check_and_tables_do_not(monkeypatch):
    factors = [dihedral8(), make_cyclic(3), quaternion8()]
    fold = factors[0]
    for factor in factors[1:]:
        fold = _pairwise_product(fold, factor)

    def refuse(*args, **kwargs):
        raise AssertionError("the table check ran")

    monkeypatch.setattr(FiniteGroup, "__init__", refuse)
    g = direct_product(*factors)
    monkeypatch.undo()
    assert (g.cayley, g.inverse, g.name) == (fold.cayley, fold.inverse, fold.name)
    with pytest.raises(ValueError, match="not associative"):
        from_table(_LOOP5)
    # A factor given as a table is checked before the product is formed.
    with pytest.raises(ValueError, match="not associative"):
        jsonio.parse_group({"type": "product", "factors": [
            {"type": "cyclic", "order": 2}, {"type": "table", "cayley": _LOOP5}]})


def _reference_table_check(cayley):
    """The constructor's checks as written entry by entry, with Light's test:
    the first failing check's message, or None when the table is a group."""
    n = len(cayley)
    if n == 0:
        return "group must contain an identity element"
    table = [list(row) for row in cayley]
    for i, row in enumerate(table):
        if len(row) != n:
            return f"cayley row {i} has length {len(row)}, expected {n}"
        for x in row:
            if not 0 <= x < n:
                return f"cayley entry {x} out of range"
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            return "element 0 is not a two-sided identity"
    inverse = [-1] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == 0:
                inverse[a] = b
                break
        if inverse[a] == -1 or table[inverse[a]][a] != 0:
            return f"element {a} has no two-sided inverse"
    for s in range(n):
        for x in range(n):
            for y in range(n):
                if table[table[x][s]][y] != table[x][table[s][y]]:
                    return "cayley table is not associative"
    return None


def _corrupt(rng, table):
    n = len(table)
    out = [list(row) for row in table]
    kind = rng.randrange(6)
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    if kind == 0:  # one or two entries of a row out of range
        out[i][j] = rng.choice((-1, n, n + 3))
        out[i][k] = rng.choice((-2, n + 1, out[i][k]))
    elif kind == 1:  # the identity moved by relabelling the elements
        relabel = list(range(n))
        rng.shuffle(relabel)
        out = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                out[relabel[a]][relabel[b]] = relabel[table[a][b]]
    elif kind == 2:  # a row without 0
        out[i] = [x if x else rng.randrange(1, n) for x in out[i]]
    elif kind == 3:  # a swapped pair within a row
        out[i][j], out[i][k] = out[i][k], out[i][j]
    elif kind == 4:  # a swapped pair within a column
        out[i][j], out[k][j] = out[k][j], out[i][j]
    else:  # a short row
        out[i] = out[i][:-1]
    return out


_TABLE_CHECKS = ("length", "out of range", "identity", "inverse", "associative")


def test_table_checks_match_the_entry_by_entry_reference(s3):
    # The constructor checks a row at a time; it must accept the same tables
    # and fail on the same first check, naming the same entry or element.
    rng = Random(20261020)
    tables = [g.cayley for g in (make_cyclic(4), make_cyclic(6), _c2_cubed(), _c2_times_c4(),
                                 dihedral8(), quaternion8(), make_cyclic(9), s3)]
    reached = set()
    for trial in range(400):
        table = tables[trial % len(tables)]
        bad = table if trial < len(tables) else _corrupt(rng, table)
        expected = _reference_table_check(bad)
        try:
            FiniteGroup(bad)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (trial, bad)
        reached.add(next((c for c in _TABLE_CHECKS if expected and c in expected), None))
    assert reached == set(_TABLE_CHECKS) | {None}


def test_orbit_lists_seeds_first_then_breadth_first_each_point_once():
    # On Z/12 under x -> 2x and x -> x + 3: the seeds 1 and 5 (1 given
    # twice), then their images 2, 4, 10, 8, then theirs, 7 and 11.
    maps = [lambda x: 2 * x % 12, lambda x: (x + 3) % 12]
    assert orbit([1, 5, 1], maps) == [1, 5, 2, 4, 10, 8, 7, 11]
    assert orbit([3, 3, 0], []) == [3, 0]
    assert orbit([], maps) == []


@pytest.mark.parametrize("make_group", [
    lambda: make_cyclic(1), lambda: make_cyclic(7), lambda: make_cyclic(16),
    lambda: _product(*[make_cyclic(2)] * 4), _c2_times_c4, dihedral8, quaternion8, heisenberg27,
], ids=["C1", "C7", "C16", "C2^4", "C2xC4", "D8", "Q8", "H27"])
def test_closure_is_the_orbit_of_the_identity_under_the_seed(make_group):
    # `closure` keeps its own table loop; it must list what the one walk
    # lists from the identity under left multiplication by the seed.
    g = make_group()
    rng = Random(7)
    for size in (0, 1, 1, 2, 2, 3):
        seed = [rng.randrange(g.order) for _ in range(size)]
        assert g.closure(seed) == tuple(sorted(orbit([0], [g.cayley[s].__getitem__ for s in seed])))
