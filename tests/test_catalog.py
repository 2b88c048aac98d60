import time
from random import Random

import pytest

from edlattice.catalog import (
    _p_power_order,
    admissible_r,
    build_cyclic,
    build_list_L,
    build_norm_one,
    expected_table,
    instantiated_catalog,
    parse_catalog_key,
    permutation_module,
)
from edlattice.cli import main
from edlattice.ed_solver import min_permutation_rank
from edlattice.group_core import (
    MAX_GROUP_ORDER,
    is_p_power,
    make_cyclic,
    subgroup_class,
    subgroup_classes,
)


def test_expected_table_shape():
    for p in (2, 3, 5):
        rows = expected_table(p)
        assert len(rows) == 12
        assert [r[0] for r in rows] == [
            "M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8",
            "M9r", "M10r", "M11r", "M12r",
        ]
    # the p=3 essential dimensions, in family order
    assert [r[3] for r in expected_table(3)] == [0, 0, 1, 0, 1, 1, 3, 2, 3, 2, 4, 3]
    assert [r[2] for r in expected_table(3)] == [1, 3, 2, 9, 8, 9, 6, 7, 9, 10, 8, 9]


def test_admissible_ranges():
    assert list(admissible_r("M9r", 2)) == [1]
    assert list(admissible_r("M10r", 2)) == []
    assert list(admissible_r("M9r", 5)) == [1, 2, 3, 4]
    assert list(admissible_r("M12r", 5)) == [1, 2, 3]
    assert list(admissible_r("M1", 7)) == []


def test_instantiated_counts():
    assert len(list(instantiated_catalog(2))) == 9
    assert len(list(instantiated_catalog(3))) == 13
    assert len(list(instantiated_catalog(5))) == 21
    assert len(list(instantiated_catalog(5, max_r=1))) == 12


def test_build_list_L_validation():
    with pytest.raises(ValueError):
        build_list_L("M13", 3)
    with pytest.raises(ValueError):
        build_list_L("M9r", 3)  # missing r
    with pytest.raises(ValueError):
        build_list_L("M9r", 3, 3)  # r out of range
    with pytest.raises(ValueError):
        build_list_L("M1", 3, 1)  # spurious r


def test_list_L_modules_are_lattices():
    for entry in instantiated_catalog(3):
        assert not entry.module.torsion
        assert entry.module.free_rank == entry.expected_rank


def test_permutation_module_matrices_are_permutations():
    g = make_cyclic(9)
    m = permutation_module(g, subgroup_class(g, (0, 3, 6)), 3)
    assert m.free_rank == 3
    for x in g.elements():
        mat = m.action(x)
        assert sorted(map(tuple, mat)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_build_cyclic_validation(multiplicative_order):
    assert multiplicative_order(4, 9) == 3
    entry = build_cyclic(3, 2, 4)
    assert entry.expected_ed == 3 and entry.module.group.order == 3
    with pytest.raises(ValueError):
        build_cyclic(3, 2, 3)  # not a unit
    with pytest.raises(ValueError):
        build_cyclic(3, 2, 2)  # order 6 is not a power of 3


@pytest.mark.parametrize("p, n", [(2, 14), (3, 8), (5, 6)])
def test_build_cyclic_order_matches_multiplicative_order(p, n, multiplicative_order):
    # Units of p-power order mod 2^14, 3^8 and 5^6 reach orders 2^12, 3^7
    # and 5^5, past the cap of 2048, so seeded units land on both sides.
    # Every refusal goes through build_cyclic; so does every acceptance of
    # order at most 243 (a cyclic group of order 2048 takes seconds to
    # build), and the rest check the order the builder would use.
    modulus = p ** n
    rng = Random(p * 100 + n)
    accepted = refused = 0
    for _ in range(200):
        a = rng.randrange(1, modulus)
        if a % p == 0:
            continue
        if rng.random() < 0.7:
            a = a - a % p + 1  # 1 mod p, so its order is a power of p
        order = multiplicative_order(a, modulus)
        if is_p_power(order, p) and order <= MAX_GROUP_ORDER:
            assert _p_power_order(a, p, n) == order
            if order <= 243:
                assert build_cyclic(p, n, a).expected_ed == order
            accepted += 1
        else:
            assert _p_power_order(a, p, n) is None
            with pytest.raises(ValueError, match="order"):
                build_cyclic(p, n, a)
            refused += 1
    assert accepted and refused


@pytest.mark.parametrize("key, ed", [("cyclic@p=3,n=330000,a=-2", None),
                                     ("cyclic@p=2,n=524287,a=-1", 2)])
def test_cyclic_keys_at_the_modulus_limit_are_decided_at_once(key, ed):
    # -2 mod 3^330000 has order 3^329999, far past the cap; -1 mod 2^524287
    # has order 2 and builds Z/2^524287 twisted by -1.
    start = time.perf_counter()
    if ed is None:
        with pytest.raises(ValueError, match="order"):
            parse_catalog_key(key)
    else:
        entry = parse_catalog_key(key)
        assert entry.expected_ed == ed
        assert min_permutation_rank(entry.module, entry.p).ed == ed
    assert time.perf_counter() - start < 1


def test_build_norm_one_expected_values():
    c9 = make_cyclic(9)
    classes = {c.index: c for c in subgroup_classes(c9)}
    both = build_norm_one([classes[3], classes[3]], c9, 3)
    assert (both.expected_rank, both.expected_ed) == (5, 1)
    mixed = build_norm_one([classes[3], classes[1]], c9, 3)
    assert (mixed.expected_rank, mixed.expected_ed) == (3, 0)
    with pytest.raises(ValueError):
        build_norm_one([], c9, 3)


def test_twisted_torsion_module_klein(twisted_torsion_module):
    m = twisted_torsion_module(2, 3, [3, 5])
    assert m.group.order == 4
    assert list(m.torsion) == [8]
    with pytest.raises(ValueError):
        twisted_torsion_module(2, 3, [2])  # not a unit
    with pytest.raises(ValueError):
        twisted_torsion_module(3, 2, [2])  # order-6 subgroup, not a 3-group


def test_parse_catalog_key_round_trip():
    for key in ("M7@p=3", "M11r@p=3,r=1", "cyclic@p=3,n=2,a=4",
                "norm_one@p=3,n=9,indices=3+3", "perm@p=2,n=4,indices=4+2+1"):
        entry = parse_catalog_key(key)
        assert entry.p in (2, 3)
    entry = parse_catalog_key("M11r@p=3,r=1")
    assert entry.key == "M11r@p=3,r=1"
    assert (entry.expected_rank, entry.expected_ed) == (8, 4)
    perm = parse_catalog_key("perm@p=2,n=4,indices=4+2+1")
    assert perm.expected_ed == 0 and perm.module.free_rank == 7


def test_parse_catalog_key_errors():
    for bad in ("M7", "M7@q=3", "M9r@p=3", "nope@p=3", "norm_one@p=3,n=9,indices=5"):
        with pytest.raises(ValueError):
            parse_catalog_key(bad)


@pytest.mark.parametrize("key", [
    "M2@p=2,p=3", "M1@p=2,r=1", "cyclic@p=3,n=2,a=4,r=1", "M1@p=2,,", "M1@p=2,", "M1@,p=2",
    "M9r@p=3,r=1,r=2", "M9r@p=3,n=1", "cyclic@p=3,n=2", "cyclic@p=3,n=2,a=4,a=4",
    "norm_one@p=3,n=9", "norm_one@p=3,n=9,indices=3+3,a=1", "perm@p=2,indices=4",
    "perm@p=2,n=4,n=4,indices=4", "M7@p", "M7@=3",
])
def test_catalog_keys_take_exactly_their_family_parameters(capsys, key):
    # A repeated parameter used to keep its last value and an unknown or
    # empty one was ignored, so M2@p=2,p=3 solved M2 at p = 3.
    assert main(["ed", "--catalog", key]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("key, what, value", [
    ("M1@p=x", "parameter p", "x"), ("M1@p=", "parameter p", ""),
    ("M9r@p=3,r=1.5", "parameter r", "1.5"), ("cyclic@p=3,n=two,a=4", "parameter n", "two"),
    ("cyclic@p=3,n=2,a=4x", "parameter a", "4x"),
    ("perm@p=2,n=4,indices=2+x", "each index", "x"),
    ("norm_one@p=3,n=9,indices=3++3", "each index", ""),
])
def test_catalog_key_values_must_be_integers(capsys, key, what, value):
    # The value went straight to int(), so M1@p=x printed "invalid literal
    # for int() with base 10: 'x'", naming neither the key nor the parameter.
    assert main(["ed", "--catalog", key]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: catalog key {key!r}: {what} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("key, index", [
    ("perm@p=2,n=4,indices=-4", -4), ("norm_one@p=2,n=4,indices=-1", -1),
    ("perm@p=2,n=4,indices=0", 0), ("perm@p=2,n=4,indices=4+-2", -2),
])
def test_catalog_key_indices_must_be_positive(capsys, key, index):
    # The indices were summed first, so perm@p=2,n=4,indices=-4 printed
    # "module dimension -4 is outside 0..256", naming neither the key nor
    # the index.
    assert main(["ed", "--catalog", key]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: catalog key {key!r}: each index must be at least 1, "
                            f"got {index}\n")


def test_relation_vectors_use_exact_binomials():
    # (1-h)^2 over F_p has coefficients 1, -2, 1: visible in the M9r
    # relation through the rank drop being independent of r
    for r in (1, 2):
        entry = build_list_L("M9r", 3, r)
        assert entry.module.free_rank == 9
    e1 = build_list_L("M9r", 5, 1).module
    e4 = build_list_L("M9r", 5, 4).module
    assert e1.free_rank == e4.free_rank == 25


def test_entries_at_one_prime_share_the_group_and_bases():
    entries = list(instantiated_catalog(3))
    group = entries[0].module.group
    assert all(e.module.group is group for e in entries)
    assert build_list_L("M4", 3).module is build_list_L("M4", 3).module
    assert build_list_L("M4", 5).module.group is not group


def test_base_sums_are_built_once_per_prime_when_first_needed(monkeypatch):
    from edlattice import catalog

    calls = []
    real = catalog.direct_sum

    def counting(*modules):
        calls.append(len(modules))
        return real(*modules)

    monkeypatch.setattr(catalog, "direct_sum", counting)
    catalog._regular_plus_coset.cache_clear()
    build_list_L("M1", 5)
    assert calls == []
    # Z[G] (+) Z for M6, and one Z[G] (+) Z[G/H] for all M9r-M12r entries.
    list(instantiated_catalog(5))
    assert calls == [2, 2]
    # M6 is a single entry, so only its own sum is built again.
    list(instantiated_catalog(5))
    assert calls == [2, 2, 2]
