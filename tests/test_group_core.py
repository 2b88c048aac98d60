import pytest
from hypothesis import given, strategies as st

from edlattice.group_core import (
    FiniteGroup,
    coset_action,
    conjugate_subgroup,
    direct_product,
    from_table,
    make_cyclic,
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
    assert make_cyclic(8).prime_power() == (2, 3)
    assert make_cyclic(9).prime_power() == (3, 2)
    assert make_cyclic(6).prime_power() is None
    assert make_cyclic(1).is_p_group(5)
    assert not make_cyclic(6).is_p_group(3)


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
