"""Constructors for the standard test lattices and their expected values.

Twelve families of modules over the cyclic group of order p^2 (quotients of
Z[G] and Z[G] (+) Z[H] by explicit orbit relations), norm-one lattices,
twisted cyclic torsion modules, and plain permutation lattices.  Expected
ranks and essential dimensions are fixtures: the solver must rediscover
them and never reads them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .group_core import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    SubgroupClass,
    check_group_order,
    coset_action,
    make_cyclic,
    subgroup_class,
    subgroup_classes,
)
from .int_lattice import (
    GaloisModule,
    check_module_dim,
    direct_sum,
    is_prime,
    quotient_by_orbit_relations,
)


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
    """One row per family: (family, admissible r values, free rank, ed).

    p must be a prime whose square, the order of the acting group, is
    within the group order cap; that is checked before anything is sized by
    p, so a huge p fails at once with ValueError.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    check_group_order(p * p)
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


def permutation_module(group: FiniteGroup, subgroup: SubgroupClass, prime: int) -> GaloisModule:
    """The coset lattice Z[G/H] with basis the cosets in canonical order.

    Generator g sends coset c to coset perm[c], so row perm[c] of its
    matrix has the one entry 1 at column c.  These are the matrices of G's
    action on its cosets, so the module is not checked.
    """
    act = coset_action(group, subgroup)
    gens = {}
    for g in group.generators():
        rows = [[] for _ in range(act.degree)]
        for c, image in enumerate(act.permutations[g]):
            rows[image] = [(c, 1)]
        gens[g] = rows
    return GaloisModule._of_action(group, prime, act.degree, [], gens)


def trivial_lattice(group: FiniteGroup, prime: int, rank: int = 1) -> GaloisModule:
    """Z^rank with every element acting as the identity, so it is not checked."""
    identity = [[(i, 1)] for i in range(rank)]
    return GaloisModule._of_action(group, prime, rank, [],
                                   {g: identity for g in group.generators()})


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
    return (g, permutation_module(g, subgroup_class(g, (0,)), p),
            permutation_module(g, subgroup_class(g, range(0, p * p, p)), p))


@lru_cache(maxsize=None)
def _regular_plus_coset(p: int) -> GaloisModule:
    """Z[G] (+) Z[G/H] over C_{p^2}, the base of M9r-M12r, built once per prime."""
    _, zg, zh = _cyclic_bases(p)
    return direct_sum(zg, zh)


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
        module = quotient_by_orbit_relations(_regular_plus_coset(p), rel)
    _, _, rank, ed = rows[family]
    # Expected values are fixtures; callers compare them to computed ones.
    return CatalogEntry(family, p, r, module, rank, ed)


def instantiated_catalog(p: int, max_r: int | None = None) -> Iterator[CatalogEntry]:
    """Every family at every admissible r (optionally capped), in table order.

    Each entry is built when it is asked for, so a caller that drops an
    entry before taking the next holds one module at a time.
    """
    for family in FIXED_FAMILIES:
        yield build_list_L(family, p)
    for family in PARAM_FAMILIES:
        for r in admissible_r(family, p):
            if max_r is not None and r > max_r:
                break
            yield build_list_L(family, p, r)


def build_norm_one(indices: list[SubgroupClass], g: FiniteGroup, p: int) -> CatalogEntry:
    """Direct sum of coset lattices modulo the all-ones vector.

    This is the character lattice of a norm-one torus of a product of field
    extensions; its essential p-dimension is 1 when every index is divisible
    by p and 0 as soon as one summand has index prime to p.
    """
    if not indices:
        raise ValueError("need at least one subgroup class")
    total = direct_sum(*(permutation_module(g, cls, p) for cls in indices))
    module = quotient_by_orbit_relations(total, [[1] * total.free_rank])
    expected_ed = 1 if all(cls.index % p == 0 for cls in indices) else 0
    entry = CatalogEntry("norm_one", p, None, module,
                         total.free_rank - 1, expected_ed)
    return entry


# The most bits a cyclic modulus p^n may have.  It keeps Z/3^200000
# (316,993 bits) in range.  A unit's order is read off one p-adic valuation
# (see `_p_power_order`): one division of a - 1 or a + 1 by p^(n-k), whose
# quotient is at most p^k, so forming p^n is the largest cost at the limit.
MAX_MODULUS_BITS = 1 << 19


def _p_power_order(a: int, p: int, n: int) -> int | None:
    """Order of the unit a in [0, p^n) if a power of p within MAX_GROUP_ORDER, else None.

    A unit of p-power order is 1 mod p, since its order mod p divides both
    a power of p and p - 1.  For such a unit the order is read off a p-adic
    valuation.  For odd p, or p = 2 and a = 1 mod 4, it is p^(n - v_p(a - 1)),
    and 1 when a = 1.  For p = 2 and a = 3 mod 4, a^2 - 1 = (a - 1)(a + 1) has
    valuation 1 + v_2(a + 1), and the order of a is twice that of a^2, so
    it is 2^max(1, n - v_2(a + 1)).  With p^k the largest power of p within
    MAX_GROUP_ORDER, the order is within the cap iff p^(n-k) divides that
    a - 1 or a + 1; the quotient is then at most p^k, with few factors p.
    """
    if a % p != 1:
        return None
    if a == 1:
        return 1
    t, least = (a + 1, 1) if p == 2 and a % 4 == 3 else (a - 1, 0)
    k = 0
    while p ** (k + 1) <= MAX_GROUP_ORDER:
        k += 1
    shift = max(n - k, 0)
    q, r = divmod(t, p ** shift)
    if r:
        return None
    v = shift  # v_p(t) is at least this; only n - v matters, so stop at n
    while v < n and q % p == 0:
        q //= p
        v += 1
    return p ** max(least, n - v)


def build_cyclic(p: int, n: int, automorphism: int) -> CatalogEntry:
    """Z/p^n with a unit acting by multiplication; expected ed is the unit's order.

    The acting group is the cyclic group generated by the unit, which must
    have p-power order at most MAX_GROUP_ORDER (it is then automatically
    faithful).  p must be prime, n at least 1 and p^n at most
    MAX_MODULUS_BITS bits long, each checked before p^n is formed.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError(f"exponent {n} must be at least 1")
    # p^n >= 2^(n (bits(p) - 1)), so the screen refuses only moduli past the
    # limit, and what it passes has at most twice the limit's bits.
    if (n * (p.bit_length() - 1) >= MAX_MODULUS_BITS
            or (modulus := p ** n).bit_length() > MAX_MODULUS_BITS):
        raise ValueError(f"modulus {p}^{n} is longer than {MAX_MODULUS_BITS} bits")
    a = automorphism % modulus
    if a % p == 0 or a == 0:
        raise ValueError(f"{automorphism} is not a unit mod {p}^{n}")
    d = _p_power_order(a, p, n)
    if d is None:
        raise ValueError(f"unit {automorphism} mod {p}^{n} does not have {p}-power order "
                         f"at most {MAX_GROUP_ORDER}")
    group = make_cyclic(d)
    module = GaloisModule(group, p, 0, [modulus], {g: [[a]] for g in group.generators()})
    return CatalogEntry("cyclic", p, None, module, 0, d)


# The parameters each family's key takes, every one required and once.
_KEY_PARAMETERS = {**dict.fromkeys(FIXED_FAMILIES, ("p",)),
                   **dict.fromkeys(PARAM_FAMILIES, ("p", "r")),
                   "cyclic": ("p", "n", "a"),
                   **dict.fromkeys(("norm_one", "perm"), ("p", "n", "indices"))}


def parse_catalog_key(key: str) -> CatalogEntry:
    """Build the entry named by a key like 'M11r@p=3,r=1' or 'cyclic@p=3,n=2,a=4'.

    Supported forms:
      M1..M8 @p=P          the fixed families
      M9r..M12r @p=P,r=R   the parametrized families
      cyclic @p=P,n=N,a=A  Z/P^N twisted by the unit A
      norm_one @p=P,n=N,indices=I1+I2+...   over the cyclic group of order N
      perm @p=P,n=N,indices=I1+I2+...       permutation lattice over C_N

    Each family takes exactly its own parameters, each once: a missing,
    unknown or repeated one, or an empty piece, raises ValueError, and so
    does a value that is not an integer, or an index below 1, naming the
    key and the parameter.
    """
    family, _, params_text = key.partition("@")
    family = family.strip()
    if family not in _KEY_PARAMETERS:
        raise ValueError(f"unknown catalog family {family!r}")
    # An empty piece has the empty name, which no family takes.
    pieces = [piece.partition("=") for piece in params_text.split(",")]
    params = {k.strip(): v.strip() for k, _, v in pieces}
    if len(params) < len(pieces) or sorted(params) != sorted(_KEY_PARAMETERS[family]):
        raise ValueError(f"malformed catalog key {key!r}: {family} takes the parameters "
                         f"{', '.join(_KEY_PARAMETERS[family])}, each once")

    def integer(what, text):
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"catalog key {key!r}: {what} must be an integer, "
                             f"got {text!r}") from None

    p = integer("parameter p", params["p"])
    if family in FIXED_FAMILIES:
        return build_list_L(family, p)
    if family in PARAM_FAMILIES:
        return build_list_L(family, p, integer("parameter r", params["r"]))
    if family == "cyclic":
        return build_cyclic(p, integer("parameter n", params["n"]),
                            integer("parameter a", params["a"]))
    order = check_group_order(integer("parameter n", params["n"]))
    indices = [integer("each index", x) for x in params["indices"].split("+")]
    if min(indices) < 1:
        raise ValueError(f"catalog key {key!r}: each index must be at least 1, got {min(indices)}")
    # The sum of the coset lattices has one coordinate per coset.
    check_module_dim(sum(indices))
    group = make_cyclic(order)
    classes = [_class_of_index(group, i) for i in indices]
    if family == "norm_one":
        return build_norm_one(classes, group, p)
    total = direct_sum(*(permutation_module(group, cls, p) for cls in classes))
    return CatalogEntry("perm", p, None, total, total.free_rank, 0)
