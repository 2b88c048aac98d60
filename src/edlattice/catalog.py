"""Constructors for the standard test lattices and their expected values.

Twelve families of modules over the cyclic group of order p^2 (quotients of
Z[G] and Z[G] (+) Z[H] by explicit orbit relations), norm-one lattices,
twisted cyclic torsion modules, and plain permutation lattices.  Expected
ranks and essential dimensions are fixtures: the solver must rediscover
them and never reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd

from .group_core import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    SubgroupClass,
    check_group_order,
    coset_action,
    make_cyclic,
    subgroup_classes,
)
from .int_lattice import GaloisModule, direct_sum, quotient_by_orbit_relations


@dataclass(frozen=True)
class CatalogEntry:
    family: str
    p: int
    r: int | None
    module: GaloisModule
    expected_rank: int
    expected_ed: int

    @property
    def key(self) -> str:
        if self.r is None:
            return f"{self.family}@p={self.p}"
        return f"{self.family}@p={self.p},r={self.r}"


FIXED_FAMILIES = ("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8")
PARAM_FAMILIES = ("M9r", "M10r", "M11r", "M12r")


def admissible_r(family: str, p: int) -> range:
    if family == "M9r":
        return range(1, p)
    if family in ("M10r", "M11r", "M12r"):
        return range(1, p - 1)
    return range(0)


def expected_table(p: int) -> list[tuple[str, tuple[int, ...], int, int]]:
    """One row per family: (family, admissible r values, free rank, ed)."""
    return [
        ("M1", (), 1, 0),
        ("M2", (), p, 0),
        ("M3", (), p - 1, 1),
        ("M4", (), p * p, 0),
        ("M5", (), p * p - 1, 1),
        ("M6", (), p * p, 1),
        ("M7", (), p * p - p, p),
        ("M8", (), p * p - p + 1, p - 1),
        ("M9r", tuple(admissible_r("M9r", p)), p * p, p),
        ("M10r", tuple(admissible_r("M10r", p)), p * p + 1, p - 1),
        ("M11r", tuple(admissible_r("M11r", p)), p * p - 1, p + 1),
        ("M12r", tuple(admissible_r("M12r", p)), p * p, p),
    ]


def permutation_module(group: FiniteGroup, subgroup, prime: int) -> GaloisModule:
    """The coset lattice Z[G/H] with basis the cosets in canonical order."""
    act = coset_action(group, subgroup)
    deg = act.degree
    gens = {}
    for g in group.generators() or [0]:
        perm = act.permutations[g]
        mat = [[0] * deg for _ in range(deg)]
        for c in range(deg):
            mat[perm[c]][c] = 1
        gens[g] = mat
    return GaloisModule(group, prime, deg, [], gens)


def trivial_lattice(group: FiniteGroup, prime: int, rank: int = 1) -> GaloisModule:
    gens = {g: [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
            for g in group.generators() or [0]}
    return GaloisModule(group, prime, rank, [], gens)


def _class_of_index(group: FiniteGroup, index: int) -> SubgroupClass:
    for cls in subgroup_classes(group):
        if cls.index == index:
            return cls
    raise ValueError(f"{group.name} has no subgroup of index {index}")


def _one_minus_h_power(p: int, r: int) -> list[int]:
    """Coefficients of (1-h)^r on the basis 1, h, ..., h^(p-1); needs r < p."""
    assert 0 <= r < p
    return [(-1) ** k * comb(r, k) if k <= r else 0 for k in range(p)]


@lru_cache(maxsize=None)
def _cyclic_bases(p: int) -> tuple[FiniteGroup, GaloisModule, GaloisModule]:
    """C_{p^2}, Z[G] and Z[G/H] for the index-p subgroup H, built once per prime.

    Every entry at p shares them, and with them the group's cached subgroup
    classes and coset actions.  Modules are never mutated after
    construction, so sharing is safe.
    """
    g = make_cyclic(p * p)
    return (g, permutation_module(g, (0,), p),
            permutation_module(g, tuple(range(0, p * p, p)), p))


def build_list_L(family: str, p: int, r: int | None = None) -> CatalogEntry:
    """One of the twelve c_{p^2}-module families, with its expected table row.

    G is cyclic of order p^2; H denotes the index-p coset module (the
    generator of G shifts the p cosets cyclically); eps is the sum of the
    p-th powers of the generator, delta the full orbit sum.
    """
    rows = {row[0]: row for row in expected_table(p)}
    if family not in rows:
        raise ValueError(f"unknown family {family!r}")
    if family in FIXED_FAMILIES:
        if r is not None:
            raise ValueError(f"{family} takes no r parameter")
    else:
        if r is None or r not in admissible_r(family, p):
            raise ValueError(f"{family} needs r in {list(admissible_r(family, p))}, got {r}")
    check_group_order(p * p)
    g, zg, zh = _cyclic_bases(p)
    n2 = p * p
    eps = [1 if i % p == 0 else 0 for i in range(n2)]
    eps_shifted = [1 if i % p == 1 else 0 for i in range(n2)]
    eps_one_minus_g = [eps[i] - eps_shifted[i] for i in range(n2)]
    if family == "M1":
        module = trivial_lattice(g, p, 1)
    elif family == "M2":
        module = zh
    elif family == "M3":
        module = quotient_by_orbit_relations(zh, [[1] * p])
    elif family == "M4":
        module = zg
    elif family == "M5":
        module = quotient_by_orbit_relations(zg, [[1] * n2])
    elif family == "M6":
        base = direct_sum(zg, trivial_lattice(g, p, 1))
        module = quotient_by_orbit_relations(base, [[1] * n2 + [-p]])
    elif family == "M7":
        module = quotient_by_orbit_relations(zg, [eps])
    elif family == "M8":
        module = quotient_by_orbit_relations(zg, [eps_one_minus_g])
    else:
        base = direct_sum(zg, zh)
        if family == "M9r":
            rel = [eps + [-c for c in _one_minus_h_power(p, r)]]
        elif family == "M10r":
            rel = [eps_one_minus_g + [-c for c in _one_minus_h_power(p, r + 1)]]
        elif family == "M11r":
            rel = [eps + [-c for c in _one_minus_h_power(p, r)],
                   [0] * n2 + [1] * p]
        else:  # M12r
            rel = [eps_one_minus_g + [-c for c in _one_minus_h_power(p, r + 1)],
                   [0] * n2 + [1] * p]
        module = quotient_by_orbit_relations(base, rel)
    _, _, rank, ed = rows[family]
    # Expected values are fixtures; callers compare them to computed ones.
    return CatalogEntry(family, p, r, module, rank, ed)


def instantiated_catalog(p: int, max_r: int | None = None) -> list[CatalogEntry]:
    """Every family at every admissible r (optionally capped), in table order."""
    entries = [build_list_L(f, p) for f in FIXED_FAMILIES]
    for family in PARAM_FAMILIES:
        for r in admissible_r(family, p):
            if max_r is not None and r > max_r:
                break
            entries.append(build_list_L(family, p, r))
    return entries


def build_norm_one(indices: list[SubgroupClass], g: FiniteGroup, p: int) -> CatalogEntry:
    """Direct sum of coset lattices modulo the all-ones vector.

    This is the character lattice of a norm-one torus of a product of field
    extensions; its essential p-dimension is 1 when every index is divisible
    by p and 0 as soon as one summand has index prime to p.
    """
    if not indices:
        raise ValueError("need at least one subgroup class")
    parts = [permutation_module(g, cls, p) for cls in indices]
    total = parts[0]
    for part in parts[1:]:
        total = direct_sum(total, part)
    module = quotient_by_orbit_relations(total, [[1] * total.free_rank])
    expected_ed = 1 if all(cls.index % p == 0 for cls in indices) else 0
    entry = CatalogEntry("norm_one", p, None, module,
                         total.free_rank - 1, expected_ed)
    return entry


def multiplicative_order(a: int, modulus: int) -> int:
    x = a % modulus
    k = 1
    while x != 1:
        x = (x * a) % modulus
        k += 1
        if k > modulus:
            raise ValueError(f"{a} is not a unit mod {modulus}")
    return k


def build_cyclic(p: int, n: int, automorphism: int) -> CatalogEntry:
    """Z/p^n with a unit acting by multiplication; expected ed is the unit's order.

    The acting group is the cyclic group generated by the unit, which must
    have p-power order at most MAX_GROUP_ORDER (it is then automatically
    faithful).
    """
    modulus = p ** n
    a = automorphism % modulus
    if a % p == 0 or a == 0:
        raise ValueError(f"{automorphism} is not a unit mod {p}^{n}")
    # A unit of p-power order has order dividing p^(n-1), so repeated p-th
    # powers reach 1 in fewer than n steps; stop early past the group cap.
    d, x = 1, a
    while x != 1 and d < modulus and d <= MAX_GROUP_ORDER:
        x = pow(x, p, modulus)
        d *= p
    if x != 1 or d > MAX_GROUP_ORDER:
        raise ValueError(f"unit {a} mod {p}^{n} does not have {p}-power order "
                         f"at most {MAX_GROUP_ORDER}")
    group = make_cyclic(d)
    gens = {1: [[a]]} if d > 1 else {0: [[1]]}
    module = GaloisModule(group, p, 0, [modulus], gens)
    return CatalogEntry("cyclic", p, None, module, 0, d)


def unit_group(modulus: int) -> tuple[FiniteGroup, list[int]]:
    """The multiplicative group mod `modulus` as a table group.

    Returns (group, values) with values[i] the unit represented by element
    index i; index 0 is the unit 1.
    """
    values = [x for x in range(1, modulus) if gcd(x, modulus) == 1]
    index = {v: i for i, v in enumerate(values)}
    table = [[index[(x * y) % modulus] for y in values] for x in values]
    return FiniteGroup(table, name=f"U{modulus}"), values


def twisted_torsion_module(p: int, n: int, units: list[int]) -> GaloisModule:
    """Z/p^n acted on by the (p-power order) unit subgroup generated by `units`."""
    modulus = p ** n
    elems = {1}
    frontier = [1]
    gens = [u % modulus for u in units]
    for u in gens:
        if u % p == 0 or u == 0:
            raise ValueError(f"{u} is not a unit mod {modulus}")
    while frontier:
        x = frontier.pop()
        for u in gens:
            y = (x * u) % modulus
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    values = [1] + sorted(elems - {1})
    size = len(values)
    q = size
    while q % p == 0:
        q //= p
    if q != 1:
        raise ValueError(f"unit subgroup has order {size}, not a power of {p}")
    index = {v: i for i, v in enumerate(values)}
    table = [[index[(x * y) % modulus] for y in values] for x in values]
    group = FiniteGroup(table, name=f"U{modulus}sub{size}")
    action = {index[u]: [[u]] for u in gens} if size > 1 else {0: [[1]]}
    return GaloisModule(group, p, 0, [modulus], action)


def parse_catalog_key(key: str) -> CatalogEntry:
    """Build the entry named by a key like 'M11r@p=3,r=1' or 'cyclic@p=3,n=2,a=4'.

    Supported forms:
      M1..M8 @p=P          the fixed families
      M9r..M12r @p=P,r=R   the parametrized families
      cyclic @p=P,n=N,a=A  Z/P^N twisted by the unit A
      norm_one @p=P,n=N,indices=I1+I2+...   over the cyclic group of order N
      perm @p=P,n=N,indices=I1+I2+...       permutation lattice over C_N
    """
    try:
        family, _, params_text = key.partition("@")
        params = {}
        for piece in params_text.split(","):
            k, _, v = piece.partition("=")
            params[k.strip()] = v.strip()
        p = int(params["p"])
    except (ValueError, KeyError) as exc:
        raise ValueError(f"malformed catalog key {key!r}") from exc
    family = family.strip()
    if family in FIXED_FAMILIES:
        return build_list_L(family, p)
    if family in PARAM_FAMILIES:
        if "r" not in params:
            raise ValueError(f"{family} needs an r parameter")
        return build_list_L(family, p, int(params["r"]))
    if family == "cyclic":
        return build_cyclic(p, int(params["n"]), int(params["a"]))
    if family in ("norm_one", "perm"):
        group = make_cyclic(check_group_order(int(params["n"])))
        indices = [int(x) for x in params["indices"].split("+")]
        classes = [_class_of_index(group, i) for i in indices]
        if family == "norm_one":
            return build_norm_one(classes, group, p)
        parts = [permutation_module(group, cls, p) for cls in classes]
        total = parts[0]
        for part in parts[1:]:
            total = direct_sum(total, part)
        return CatalogEntry("perm", p, None, total, total.free_rank, 0)
    raise ValueError(f"unknown catalog family {family!r}")
