import pytest
from hypothesis import given, strategies as st

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
    quaternion8,
    subgroup_classes,
    subgroup_of,
)


def test_cyclic_basics():
    g = make_cyclic(6)
    assert g.order == 6
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
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
    # abelian group: every class is a single subgroup
    assert all(c.class_size == 1 for c in classes)


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
    act = coset_action(g, (0, 2))
    assert act.degree == 2
    assert act.cosets == ((0, 2), (1, 3))
    # the generator swaps the two cosets
    assert act.permutations[1] == (1, 0)
    assert act.permutations[2] == (0, 1)


def test_coset_action_regular():
    g = make_cyclic(3)
    act = coset_action(g, (0,))
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


def _reference_coset_action(group, members):
    """Cosets and permutations from scratch, with the law checked on all pairs."""
    cosets = sorted({tuple(sorted(group.mul(x, h) for h in members))
                     for x in group.elements()})
    position = {c: i for i, c in enumerate(cosets)}
    perms = [tuple(position[tuple(sorted(group.mul(g, y) for y in c))] for c in cosets)
             for g in group.elements()]
    for a in group.elements():
        for b in group.elements():
            pab, pa, pb = perms[group.mul(a, b)], perms[a], perms[b]
            assert all(pab[i] == pa[pb[i]] for i in range(len(cosets)))
    return tuple(cosets), tuple(perms)


@pytest.mark.parametrize("make_group", [dihedral8, quaternion8, heisenberg27])
def test_coset_action_matches_all_pairs_reference(make_group):
    g = make_group()
    for cls in subgroup_classes(g):
        act = coset_action(g, cls)
        assert (act.cosets, act.permutations) == _reference_coset_action(g, cls.representative)
        assert act.subgroup == cls


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
    assert coset_action(g, [0, 4]) is coset_action(g, (0, 4))
    # a second instance with the same table computes its own
    assert coset_action(dihedral8(), cls) is not coset_action(g, cls)


def _c2_cubed():
    c2 = make_cyclic(2)
    return direct_product(direct_product(c2, c2), c2)


def _c2_times_c4():
    return direct_product(make_cyclic(2), make_cyclic(4))


def _d8_times_c2():
    return direct_product(dihedral8(), make_cyclic(2))


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
            classes.append((rep, group.order // len(rep), len(orbit), len(rep)))
    return sorted(classes, key=lambda c: (-c[1], c[0]))


@pytest.mark.parametrize("make_group", [_c2_cubed, _c2_times_c4, dihedral8, quaternion8,
                                        heisenberg27, lambda: make_cyclic(64), _d8_times_c2])
def test_subgroup_classes_match_reference_enumeration(make_group):
    g = make_group()
    classes = [(c.representative, c.index, c.class_size, len(c.representative))
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
                x = g.mul(x, gen)
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
            power = g.mul(power, gen)
        assert pc.powers[i] == power
        assert not any(pc.exponents[power][:i + 1])
    assert set(pc.conjugates) == {(i, j) for i in range(k) for j in range(i + 1, k)}
    for (i, j), w in pc.conjugates.items():
        gi, gj = pc.generators[i], pc.generators[j]
        assert g.mul(gj, gi) == g.mul(gi, w)
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
                x = g.mul(x, s)
        assert x == t
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))  # runs are maximal
    assert g.words(gens, [0]) == [[]]
    assert make_cyclic(16).words([1], [15]) == [[(1, 15)]]


def test_enumeration_tries_one_element_per_coset(monkeypatch):
    g = make_cyclic(512)
    real = FiniteGroup.closure
    calls = []

    def closure(self, seed):
        calls.append(1)
        return real(self, seed)

    monkeypatch.setattr(FiniteGroup, "closure", closure)
    classes = subgroup_classes(g)
    # One closure per (subgroup h, coset of h other than h): 1,013 calls,
    # against 4,097 when every element outside h was tried.
    assert len(calls) == sum(c.index - 1 for c in classes) == 1013


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
    # element must give the same representatives, order and sizes.
    g = make_group()
    reference, seen = [], set()
    for h in sorted(_all_subgroups(g)):
        if h not in seen:
            orbit = {conjugate_subgroup(g, h, x) for x in g.elements()}
            seen |= orbit
            rep = min(orbit)
            reference.append((rep, g.order // len(rep), len(orbit)))
    reference.sort(key=lambda c: (-c[1], c[0]))
    classes = subgroup_classes(g)
    assert [(c.representative, c.index, c.class_size) for c in classes] == reference
    assert all(g.closure(c.generators) == c.representative for c in classes)
