"""Fuzz `edlat ed --input` over the module JSON schema, in-process.

Whatever the file holds, `main` must return 0, 2 or 3 without letting an
exception escape, and each example must finish within the deadline.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from random import Random

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
from edlattice.jsonio import group_to_json, module_to_json
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
