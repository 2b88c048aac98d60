"""Fuzz the CLI's JSON inputs in-process: module files (`edlat ed --input`),
presentations (`edlat classify --input`) and expected tables
(`edlat verify --expected`).

Whatever the file holds, `main` must return a documented exit code without
letting an exception escape, and each example must finish within the
deadline.
"""

import copy
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from edlattice.cli import main
from edlattice.group_core import (
    MAX_GROUP_ORDER,
    dihedral8,
    direct_product,
    heisenberg27,
    make_cyclic,
    quaternion8,
)
from edlattice.catalog import expected_table
from edlattice.jsonio import group_to_json, module_to_json, parse_expected_table
from edlattice.random_modules import random_module

SMALL_INTS = st.integers(min_value=-3, max_value=9)
HOSTILE_INTS = st.sampled_from([0, -1, -7, MAX_GROUP_ORDER + 1, 4096, 10 ** 6, 10 ** 30])
ENTRIES = st.one_of(
    SMALL_INTS,
    SMALL_INTS.map(str),
    HOSTILE_INTS,
    st.sampled_from(["", "x", " 2 ", "1.5", "0x10", "1e3", True, None, 1.5, [], {}]),
)
ORDERS = st.one_of(st.integers(min_value=1, max_value=9), HOSTILE_INTS,
                   st.sampled_from(["4", "-2", "two", None, 2.0, [4]]))


def _square(n):
    return st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)


MATRICES = st.one_of(
    st.integers(min_value=0, max_value=3).flatmap(_square),
    st.lists(st.lists(ENTRIES, max_size=3), max_size=3),  # ragged or empty
    ENTRIES,
)

_C2 = make_cyclic(2)
_GROUPS = [(make_cyclic(1), 2), (_C2, 2), (make_cyclic(4), 2), (direct_product(_C2, _C2), 2),
           (dihedral8(), 2), (quaternion8(), 2), (make_cyclic(9), 3), (heisenberg27(), 3)]
VALID_TABLES = [group_to_json(g) for g, _ in _GROUPS]
_rng = Random(0)
VALID_MODULES = [(module_to_json(random_module(_rng, g, p, max_dim=3)), p)
                 for g, p in _GROUPS for _ in range(3)]

CYCLIC = st.fixed_dictionaries({"type": st.just("cyclic"), "order": ORDERS})
TABLES = st.one_of(
    st.sampled_from(VALID_TABLES),
    st.fixed_dictionaries({"type": st.just("table"), "cayley": st.one_of(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(st.lists(st.integers(min_value=-1, max_value=n), min_size=n,
                                        max_size=n), min_size=n, max_size=n)),
        MATRICES)}),
)
GROUPS = st.recursive(
    st.one_of(CYCLIC, TABLES, st.sampled_from([{}, {"type": "beluga"}, {"type": "cyclic"},
                                               {"type": "product", "factors": 3},
                                               [], "cyclic", None, 4])),
    lambda inner: st.fixed_dictionaries({
        "type": st.just("product"),
        "factors": st.lists(inner, max_size=3)}),
    max_leaves=4,
)
ACTION_KEYS = st.one_of(st.integers(min_value=-2, max_value=30).map(str),
                        st.sampled_from(["", "g", "1.0", " 1", "01"]))
FIELDS = {
    "free_rank": st.one_of(st.integers(min_value=0, max_value=3), ENTRIES),
    "torsion": st.one_of(st.lists(st.one_of(st.sampled_from([2, 3, 4, 8, 9, 27, 1, 0, 6]),
                                            ENTRIES), max_size=3), ENTRIES),
}
MODULES = st.fixed_dictionaries(
    {"group": GROUPS,
     "action": st.one_of(st.dictionaries(ACTION_KEYS, MATRICES, max_size=3), MATRICES)},
    optional=FIELDS)
PRIMES = st.sampled_from([2, 2, 3, 3, 5, 4, 1, 0, -3, 1000000000000000003])


@st.composite
def near_valid(draw):
    """A valid module file with up to two fields, entries or keys replaced."""
    data, prime = draw(st.sampled_from(VALID_MODULES))
    data = copy.deepcopy(data)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        field = draw(st.sampled_from(["group", "free_rank", "torsion", "entry", "key", "drop"]))
        if field == "group":
            data["group"] = draw(GROUPS)
        elif field in ("free_rank", "torsion"):
            data[field] = draw(FIELDS[field])
        elif field == "drop":
            data.pop(draw(st.sampled_from(["group", "free_rank", "torsion", "action"])), None)
        elif isinstance(data.get("action"), dict) and data["action"]:
            key = draw(st.sampled_from(sorted(data["action"])))
            if field == "key":
                data["action"][draw(ACTION_KEYS)] = data["action"].pop(key)
            elif data["action"][key] and data["action"][key][0]:
                data["action"][key][0][0] = draw(ENTRIES)
    return data, draw(st.one_of(st.just(prime), PRIMES))


CASES = st.one_of(near_valid(), near_valid(), st.tuples(MODULES, PRIMES),
                  st.tuples(ENTRIES, PRIMES))


@settings(max_examples=300, deadline=timedelta(seconds=2),
          suppress_health_check=[HealthCheck.too_slow])
@given(case=CASES)
def test_ed_input_exits_0_2_or_3(tmp_path_factory, case):
    module, prime = case
    path = tmp_path_factory.getbasetemp() / "fuzz_module.json"
    path.write_text(json.dumps(module))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["ed", "--input", str(path), "--prime", str(prime)])
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ")


def _run(tmp_path_factory, data, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz_input.json"
    path.write_text(json.dumps(data))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main([argv[0], argv[1], str(path)] + argv[2:])
    if code:
        assert err.getvalue().startswith("error: ") or code == 3, err.getvalue()
    return code, err.getvalue()


VALID_PRESENTATIONS = [
    {"group": {"type": "cyclic", "order": 9}, "summands": [[0, 3, 6]], "vector": [1, 1, 1]},
    {"group": {"type": "cyclic", "order": 9}, "summands": [[0, 3, 6], list(range(9))],
     "vector": [2, 2, 2, 5]},
    {"group": {"type": "cyclic", "order": 3}, "summands": [[0]], "vector": [1, 1, 1]},
]
MEMBER_LISTS = st.one_of(st.lists(st.one_of(st.integers(min_value=-1, max_value=10), ENTRIES),
                                  max_size=4), ENTRIES)


@st.composite
def presentations(draw):
    """A valid presentation with up to two fields replaced, or anything at all."""
    if draw(st.booleans()):
        return draw(st.one_of(ENTRIES, st.fixed_dictionaries(
            {}, optional={"group": GROUPS, "summands": st.lists(MEMBER_LISTS, max_size=3),
                          "vector": MEMBER_LISTS})))
    data = copy.deepcopy(draw(st.sampled_from(VALID_PRESENTATIONS)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        field = draw(st.sampled_from(["group", "summands", "summand", "vector", "drop"]))
        if field == "group":
            data["group"] = draw(GROUPS)
        elif field == "summands":
            data["summands"] = draw(st.one_of(st.lists(MEMBER_LISTS, max_size=3), ENTRIES))
        elif field == "summand" and isinstance(data.get("summands"), list) and data["summands"]:
            data["summands"][0] = draw(MEMBER_LISTS)
        elif field == "vector":
            data["vector"] = draw(MEMBER_LISTS)
        else:
            data.pop(draw(st.sampled_from(["group", "summands", "vector"])), None)
    return data


@settings(max_examples=200, deadline=timedelta(seconds=2),
          suppress_health_check=[HealthCheck.too_slow])
@given(data=presentations(), prime=st.sampled_from([3, 3, 5, 2, 4, 1, 0, -3, 10 ** 18 + 3]))
def test_classify_input_exits_0_or_2(tmp_path_factory, data, prime):
    code, err = _run(tmp_path_factory, data, ["classify", "--input", "--prime", str(prime)])
    assert code in (0, 2), err


@pytest.mark.parametrize("order, prime", [(9, 9), (16, 4)])
def test_classify_refuses_a_prime_power_that_is_not_prime(tmp_path_factory, order, prime):
    # C9 is a 9-group and C16 a 4-group as far as orders go, so only a
    # primality check stops these from printing an answer.
    data = {"group": {"type": "cyclic", "order": order}, "summands": [[0]],
            "vector": [1] * order}
    code, err = _run(tmp_path_factory, data, ["classify", "--input", "--prime", str(prime)])
    assert code == 2 and "not prime" in err, err


VALID_ROWS = [{"family": family, "r_values": list(r_values), "rank": rank, "ed": ed}
              for family, r_values, rank, ed in expected_table(2)]
ROW_VALUES = st.one_of(ENTRIES, st.lists(ENTRIES, max_size=2), st.sampled_from(["M1", "M99"]))


@st.composite
def expected_tables(draw):
    """The p = 2 table with up to two rows or fields replaced, or anything at all."""
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(st.one_of(ENTRIES, st.fixed_dictionaries(
            {}, optional={"rows": st.one_of(ENTRIES, st.lists(ROW_VALUES, max_size=2))})))
    rows = copy.deepcopy(VALID_ROWS)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        field = draw(st.sampled_from(["family", "r_values", "rank", "ed", "row", "drop"]))
        if field == "row" or not isinstance(rows[i], dict):
            rows[i] = draw(ROW_VALUES)
        elif field == "drop":
            rows[i].pop(draw(st.sampled_from(["family", "r_values", "rank", "ed"])), None)
        else:
            rows[i][field] = draw(ROW_VALUES)
    return {"rows": rows}


@settings(max_examples=60, deadline=timedelta(seconds=2),
          suppress_health_check=[HealthCheck.too_slow])
@given(data=expected_tables())
def test_verify_expected_exits_0_or_2_unless_the_table_disagrees(tmp_path_factory, data):
    code, err = _run(tmp_path_factory, data, ["verify", "--expected", "--prime", "2"])
    assert code in (0, 2, 3), err
    if code == 3:
        # A mismatch is reported only for a well-formed table.
        parse_expected_table(data)


@pytest.mark.parametrize("command", ["table", "verify", "catalog"])
@pytest.mark.parametrize("prime", [2 ** 61 - 1, 10 ** 29 - 1, 1000003])
def test_catalog_commands_refuse_a_huge_prime_at_once(command, prime):
    # 2^61 - 1 and 1000003 are prime but their squares exceed the group
    # order cap; 10^29 - 1 is composite.  Nothing may be sized by p first.
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main([command, "--prime", str(prime)])
    assert time.perf_counter() - start < 1
    assert code == 2 and err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("key", ["cyclic@p=0,n=1,a=1", "cyclic@p=1000003,n=30000000,a=2",
                                 "cyclic@p=4,n=3,a=3", "cyclic@p=3,n=0,a=1",
                                 "cyclic@p=2,n=524288,a=1", "cyclic@p=3,n=330000,a=-1"])
def test_hostile_cyclic_catalog_keys_exit_2_at_once(key):
    # p must be prime and n >= 1 before p^n is formed, and a modulus longer
    # than 2^19 bits (2^524288 has one bit more) is refused.  A unit that is
    # not 1 mod p is refused before any power of it is taken.
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["ed", "--catalog", key])
    assert time.perf_counter() - start < 1
    assert code == 2 and err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()
