"""JSON transport for groups, modules, presentations, and solver results.

Matrix and vector entries are emitted as decimal strings (and accepted as
either strings or numbers) so callers in 64-bit languages never overflow.
Torsion factors may arrive in any order; modules are canonicalized to
ascending order, permuting the torsion coordinates to match.
"""

from __future__ import annotations

import json
from typing import Any

from .ed_solver import EdResult
from .group_core import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    check_group_order,
    direct_product,
    from_table,
    make_cyclic,
    subgroup_of,
)
from .int_lattice import GaloisModule, check_module_dim

__all__ = [
    "parse_group",
    "group_to_json",
    "parse_module",
    "module_to_json",
    "parse_presentation",
    "result_to_json",
    "parse_expected_table",
    "load_json",
    "dump_json",
]


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _as_int(value: Any) -> int:
    if isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return int(value.strip())
    raise ValueError(f"expected an integer or decimal string, got {value!r}")


def _as_list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _as_object(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _required(data: dict, key: str, what: str) -> Any:
    """data[key]; a missing key is a ValueError naming it and the object."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{what} is missing {key!r}") from None


def _as_matrix(value: Any) -> list[list[int]]:
    return [[_as_int(entry) for entry in _as_list(row, "matrix row")]
            for row in _as_list(value, "matrix")]


def _checked_order(data: Any) -> int:
    """The order a group description declares, read without building it.

    Every group and every factor of a product must have an order in
    1..MAX_GROUP_ORDER, so an oversized group is refused before any Cayley
    table is allocated.
    """
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("group description must be an object with a 'type'")
    kind = data["type"]
    if kind == "cyclic":
        order = _as_int(_required(data, "order", "cyclic group"))
    elif kind == "product":
        order = 1
        for factor in _as_list(_required(data, "factors", "product group"), "factors"):
            order *= _checked_order(factor)
            if order > MAX_GROUP_ORDER:
                break
    elif kind == "table":
        order = len(_as_list(_required(data, "cayley", "table group"), "cayley"))
    else:
        raise ValueError(f"unknown group type {kind!r}")
    return check_group_order(order)


def parse_group(data: Any) -> FiniteGroup:
    _checked_order(data)  # also checks that every key read below is present
    kind = data["type"]
    if kind == "cyclic":
        return make_cyclic(_as_int(data["order"]))
    if kind == "product":
        factors = [parse_group(f) for f in data["factors"]]
        if not factors:
            raise ValueError("product needs at least one factor")
        group = factors[0]
        for factor in factors[1:]:
            group = direct_product(group, factor)
        return group
    return from_table(_as_matrix(data["cayley"]))


def group_to_json(group: FiniteGroup) -> dict:
    return {"type": "table", "cayley": [list(row) for row in group.cayley]}


def parse_module(data: Any, prime: int) -> GaloisModule:
    data = _as_object(data, "module")
    group = parse_group(_required(data, "group", "module"))
    free_rank = _as_int(data.get("free_rank", 0))
    torsion = [_as_int(q) for q in _as_list(data.get("torsion", []), "torsion")]
    check_module_dim(free_rank + len(torsion))
    action = {_as_int(g): _as_matrix(mat)
              for g, mat in _as_object(_required(data, "action", "module"), "action").items()}
    # Canonical coordinate order is ascending torsion; permute if needed.
    order = sorted(range(len(torsion)), key=lambda i: torsion[i])
    if order != list(range(len(torsion))):
        dim = free_rank + len(torsion)
        # Checked before permuting, so no allocation is sized by free_rank.
        for mat in action.values():
            if len(mat) != dim or any(len(row) != dim for row in mat):
                raise ValueError(f"action matrix must be {dim}x{dim}")
        # New coordinate k is old coordinate source[k].
        source = list(range(free_rank)) + [free_rank + i for i in order]
        action = {g: [[mat[i][j] for j in source] for i in source]
                  for g, mat in action.items()}
        torsion = sorted(torsion)
    return GaloisModule(group, prime, free_rank, torsion, action)


def module_to_json(module: GaloisModule) -> dict:
    gens = module.group.generators() or [0]
    return {
        "group": group_to_json(module.group),
        "free_rank": module.free_rank,
        "torsion": list(module.torsion),
        "action": {str(g): [[str(x) for x in row] for row in module.action(g)]
                   for g in gens},
    }


def parse_presentation(data: Any) -> tuple[FiniteGroup, list[tuple[int, ...]], list[int]]:
    """Read a (permutation set, fixed vector) quotient presentation.

    Schema: {"group": <group>, "summands": [[subgroup members], ...],
    "vector": [...]} where the vector has one entry per coset of each
    summand subgroup, in catalog coset order.
    """
    data = _as_object(data, "presentation")
    group = parse_group(_required(data, "group", "presentation"))
    summands = [subgroup_of(group, [_as_int(x) for x in _as_list(members, "summand")])
                for members in _as_list(_required(data, "summands", "presentation"), "summands")]
    vector = [_as_int(x) for x in _as_list(_required(data, "vector", "presentation"), "vector")]
    return group, summands, vector


def result_to_json(result: EdResult, diagnostics: dict | None = None) -> dict:
    summands = []
    # Summands per subgroup index, cheapest first: for the greedy solver,
    # the dimensions of W each index adds to the cheaper ones.
    filtration: dict[int, int] = {}
    if result.certificate is not None:
        for cls, gen in result.certificate.summands:
            summands.append({
                "subgroup": list(cls.representative),
                "generator": [str(x) for x in gen],
            })
            filtration[cls.index] = filtration.get(cls.index, 0) + 1
    payload = {
        "min_rank": result.min_rank,
        "ed": result.ed,
        "certificate": {"summands": summands},
        "diagnostics": {
            "cost_filtration": [[index, filtration[index]] for index in sorted(filtration)],
        },
    }
    if diagnostics:
        payload["diagnostics"].update(diagnostics)
    return payload


def parse_expected_table(data: Any) -> list[tuple[str, tuple[int, ...], int, int]]:
    """Read an expected-values table like the built-in fixture.

    Schema: {"rows": [{"family": "M1", "r_values": [], "rank": 1, "ed": 0}, ...]}
    """
    rows = []
    table = _as_object(data, "expected table")
    for i, row in enumerate(_as_list(_required(table, "rows", "expected table"), "rows")):
        what = f"expected table row {i}"
        row = _as_object(row, what)
        family = _required(row, "family", what)
        if not isinstance(family, str):
            raise ValueError(f"family must be a string, got {type(family).__name__}")
        rows.append((
            family,
            tuple(_as_int(r) for r in _as_list(row.get("r_values", []), "r_values")),
            _as_int(_required(row, "rank", what)),
            _as_int(_required(row, "ed", what)),
        ))
    return rows


def dump_json(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True)
