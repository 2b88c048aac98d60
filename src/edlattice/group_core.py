"""Finite groups stored as explicit Cayley tables.

Elements are the indices 0..order-1 with identity 0.  Groups here are the
acting Galois quotients: small p-groups, abelian (cyclic or products of
cyclics) or not (any full Cayley table; D8, Q8 and the Heisenberg group of
order 27 have constructors below).  The group axioms are checked at
construction in O(n^2 log n), except on a direct product of groups, which
is one by construction.  Every order read from input is held to
MAX_GROUP_ORDER by `check_group_order` before a table is built.

A group is immutable once built, so what depends on it alone is computed
once per instance and kept on it: the element orders (`element_order`),
the generating set (`generators`) and those of the member sets asked for
(`subgroup_generators`), the pc presentation
(`pc_presentation`, which modules check their action against), the
subgroup classes (`subgroup_classes`), each with the generators it was
first reached with, and each coset action (`coset_action`).  Every solve
on the same group object shares them; the caches live and die with the
group, with no module-level state.

A subgroup travels as one validated `SubgroupClass`, from
`subgroup_classes` or, for a member list, `subgroup_class`.  A coset
action keeps the permutation of each group generator only.

Generating sets of subgroups given by their members come from one greedy,
`FiniteGroup.subgroup_generators`, and `is_p_power` is the one test of
whether an order or modulus is a power of p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, log2
from typing import Iterable, NamedTuple, Sequence

# A Cayley table of order n holds n^2 Python ints: about 200 MiB at
# n = 2048 on 64-bit CPython, four times that with each doubling of n.
MAX_GROUP_ORDER = 2048

# `subgroup_classes` enumerates every subgroup, and their number grows far
# faster than the order: C2^7 has 29,212 subgroups (about 4 s to
# enumerate), C2^8 417,199 (151 s) and C2^9 over eight million.  So the
# enumeration refuses a group once it has found this many.
MAX_SUBGROUPS = 65536


def check_group_order(order: int) -> int:
    """The order itself if it lies in 1..MAX_GROUP_ORDER, else ValueError."""
    if not 1 <= order <= MAX_GROUP_ORDER:
        raise ValueError(f"group order {order} is outside 1..{MAX_GROUP_ORDER}")
    return order


def is_p_power(n: int, p: int) -> bool:
    """True iff n = p^k for some k >= 0 (1 counts).

    If n = p^k then k lies within one of (bits(n) - 1) / log2(p), so one
    power of p just below that is formed and raised until it reaches n: a
    few multiplications, and no long division of n.
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if n < 1:
        return False
    power = p ** max(int((n.bit_length() - 1) / log2(p)) - 1, 0)
    while power < n:
        power *= p
    return power == n


class FiniteGroup:
    """A finite group given extensionally by its multiplication table.

    cayley[a][b] is the index of a*b.  Index 0 is the identity.
    Identity, inverses and associativity are verified at every order by
    the constructor, which every table from outside passes through; a
    product of groups (`direct_product`) is a group by construction and is
    not verified again.
    """

    __slots__ = ("order", "cayley", "inverse", "name",
                 "_orders", "_generators", "_subgroup_gens", "_pc", "_classes",
                 "_coset_actions")

    def __init__(self, cayley: Sequence[Sequence[int]], name: str = "") -> None:
        n = len(cayley)
        if n == 0:
            raise ValueError("group must contain an identity element")
        table = [list(row) for row in cayley]
        for i, row in enumerate(table):
            if len(row) != n:
                raise ValueError(f"cayley row {i} has length {len(row)}, expected {n}")
            if min(row) < 0 or max(row) >= n:
                bad = next(x for x in row if not 0 <= x < n)
                raise ValueError(f"cayley entry {bad} out of range")
        elements = list(range(n))
        if table[0] != elements or [row[0] for row in table] != elements:
            raise ValueError("element 0 is not a two-sided identity")
        inverse = [row.index(0) if 0 in row else -1 for row in table]
        for a, b in enumerate(inverse):
            if b < 0 or table[b][a] != 0:
                raise ValueError(f"element {a} has no two-sided inverse")
        self._set(table, inverse, name)
        # Light's test: the elements s with (x s) y = x (s y) for all x, y
        # are closed under products, so checking a generating set suffices.
        # Each generator at least doubles the reached set when the table is
        # a group, so this costs O(n^2 log n).
        for s in self.generators():
            s_row = table[s]
            for x in range(n):
                x_row = table[x]
                if table[x_row[s]] != [x_row[sy] for sy in s_row]:
                    raise ValueError("cayley table is not associative")

    @classmethod
    def _of_group_table(cls, table: list[list[int]], inverse: list[int],
                        name: str) -> FiniteGroup:
        """The group of a table already known to be a group's, unchecked.

        Only tables built from validated groups come here, each caller
        saying why the table is a group's; inverse[a] is a's inverse.
        """
        group = cls.__new__(cls)
        group._set(table, inverse, name)
        return group

    def _set(self, table: list[list[int]], inverse: list[int], name: str) -> None:
        self.order = len(table)
        self.cayley = table
        self.inverse = inverse
        self.name = name or f"G{self.order}"
        self._orders: list[int] | None = None
        self._generators: list[int] | None = None
        self._subgroup_gens: dict[tuple[int, ...], list[int]] = {}
        self._pc: PcPresentation | None = None
        self._classes: list[SubgroupClass] | None = None
        self._coset_actions: dict[tuple[int, ...], CosetAction] = {}

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        return self._element_orders()[a]

    def _element_orders(self) -> list[int]:
        """The order of every element, computed once per group.

        One walk over the powers of each element whose order is still
        unknown: if a has order k, a^j has order k/gcd(j, k).  So a cyclic
        group costs one walk, not one per element.
        """
        if self._orders is None:
            orders = [0] * self.order
            for a in range(self.order):
                if not orders[a]:
                    powers = [a]
                    while powers[-1] != 0:
                        # In a group the walk returns to 0 within n steps.
                        if len(powers) == self.order:
                            raise ValueError("cayley table is not associative")
                        powers.append(self.cayley[powers[-1]][a])
                    k = len(powers)
                    for j, x in enumerate(powers, 1):
                        orders[x] = k // gcd(j, k)
            self._orders = orders
        return self._orders

    def is_abelian(self) -> bool:
        """Whether the generators commute, which they do exactly when the group is abelian."""
        gens = self.generators()
        return all(self.cayley[a][b] == self.cayley[b][a] for a in gens for b in gens)

    def is_p_group(self, p: int) -> bool:
        """True iff the order is a power of p (1 counts: the trivial group)."""
        return is_p_power(self.order, p)

    def closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Sorted subgroup generated by the seed elements."""
        seen = {0}
        frontier = [0]
        gens = list(seed)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.cayley[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return tuple(sorted(seen))

    def subgroup_generators(self, members: Iterable[int]) -> list[int]:
        """A small generating set of the subgroup with these members.

        Greedy and deterministic: members by descending element order, then
        index, each kept unless already reached.  Every member lies in the
        closure of the result, even when the members do not form a subgroup.
        Computed once per member set; each call returns a fresh list.
        """
        key = tuple(sorted(members))
        gens = self._subgroup_gens.get(key)
        if gens is None:
            orders = self._element_orders()
            gens = []
            reached = {0}
            for a in sorted(key, key=lambda x: (-orders[x], x)):
                if a not in reached:
                    gens.append(a)
                    reached = set(self.closure(gens))
            self._subgroup_gens[key] = gens
        return list(gens)

    def generators(self) -> list[int]:
        """`subgroup_generators` of the whole group.

        Computed once per group; each call returns a fresh list.
        """
        if self._generators is None:
            self._generators = self.subgroup_generators(self.elements())
        return list(self._generators)

    def pc_presentation(self) -> PcPresentation:
        """The group's polycyclic presentation (see `PcPresentation`).

        Computed once per group.  Raises ValueError if the group is not
        solvable, since only solvable groups have one; every p-group is.
        """
        if self._pc is None:
            self._pc = _build_pc_presentation(self)
        return self._pc

    def words(self, generators: Sequence[int],
              targets: Sequence[int]) -> list[list[tuple[int, int]]]:
        """A shortest word in the generators for each target, as runs.

        A word is a list of runs (s, e), standing for the product of the
        powers s^e from left to right.  Breadth-first search over the Cayley
        graph, stopped once every target is reached; a target the generators
        do not generate raises ValueError.
        """
        parent: dict[int, tuple[int, int] | None] = {0: None}
        queue = [0]
        missing = set(targets) - {0}
        for x in queue:
            if not missing:
                break
            row = self.cayley[x]
            for s in generators:
                y = row[s]
                if y not in parent:
                    parent[y] = (x, s)
                    queue.append(y)
                    missing.discard(y)
        if missing:
            raise ValueError(f"the elements {list(generators)} do not generate "
                             f"element {min(missing)}")
        out = []
        for t in targets:
            letters = []
            while parent[t] is not None:
                t, s = parent[t]
                letters.append(s)
            runs: list[tuple[int, int]] = []
            for s in reversed(letters):
                if runs and runs[-1][0] == s:
                    runs[-1] = (s, runs[-1][1] + 1)
                else:
                    runs.append((s, 1))
            out.append(runs)
        return out

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


class PcPresentation(NamedTuple):
    """A polycyclic presentation of a solvable group, read off its table.

    The series G = G_0 > G_1 > ... > G_k = 1 has G_{i+1} normal in G_i of
    prime index relative_orders[i] = r_i, and generators[i] = g_i lies in
    G_i but not in G_{i+1}.  Every element x is g_0^e_0 ... g_{k-1}^e_{k-1}
    for exactly one exponents[x] = (e_0, ..., e_{k-1}) with 0 <= e_i < r_i.
    The relations are g_i^r_i = powers[i] and, for i < j,
    g_j g_i = g_i conjugates[i, j], where both right-hand elements lie in
    G_{i+1}, so their exponents are words in g_{i+1}, ..., g_{k-1}.

    These k(k+1)/2 relations define G (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, ch. 8): collecting turns any word
    into the normal form above, so the presented group has at most
    r_0 ... r_{k-1} = |G| elements, and G satisfies the relations and is
    generated by the g_i.  By von Dyck's theorem, elements of any group
    that satisfy them extend to a homomorphism from G.
    """

    generators: tuple[int, ...]
    relative_orders: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]
    powers: tuple[int, ...]
    conjugates: dict[tuple[int, int], int]


@dataclass(frozen=True)
class SubgroupClass:
    """A subgroup up to conjugacy.

    representative: sorted element indices of one member of the class;
    index = [G:H]; generators: elements whose closure is the
    representative.  Consumers take it as valid.
    """

    representative: tuple[int, ...]
    index: int
    generators: tuple[int, ...]


@dataclass(frozen=True)
class CosetAction:
    """Left-multiplication action of a group on the left cosets of a subgroup.

    permutations[g][i] is the position of g * (coset i), for each g in
    `group.generators()` (none for the trivial group); the generators
    determine the action, and nothing reads the permutation of any other
    element.  Coset positions are canonical (cosets sorted by their
    minimal element), so the matrices built on top of this are
    reproducible bit for bit.
    """

    degree: int
    permutations: dict[int, tuple[int, ...]]


def _element_power(group: FiniteGroup, x: int, e: int) -> int:
    y = 0
    for _ in range(e):
        y = group.cayley[y][x]
    return y


def _smallest_prime_factor(n: int) -> int:
    d = 2
    while n % d:
        d += 1
    return d


def _derived_subgroup(group: FiniteGroup, members: tuple[int, ...]) -> tuple[int, ...]:
    """[H, H] for the subgroup H with these members, sorted.

    It is the normal closure in H of the commutators of H's generators:
    the closure of their conjugates under H, which are listed by
    conjugating every element met by each generator of H until no new one
    appears (each g^-1 is a positive power of g, so the generators reach
    every conjugate).
    """
    c, inv = group.cayley, group.inverse
    gens = group.subgroup_generators(members)
    conjugates = {c[c[inv[a]][inv[b]]][c[a][b]] for a in gens for b in gens}
    pending = list(conjugates)
    while pending:
        y = pending.pop()
        for g in gens:
            z = c[c[inv[g]][y]][g]
            if z not in conjugates:
                conjugates.add(z)
                pending.append(z)
    return group.closure(conjugates)


def _build_pc_presentation(group: FiniteGroup) -> PcPresentation:
    # Refine the derived series G = D_0 > D_1 > ... > D_m = 1 from the
    # bottom.  Inside a layer D_j > D_{j+1} every subgroup N between the two
    # is normal in D_j, as D_j / D_{j+1} is abelian.  So for the least y in
    # D_j outside N, of order t modulo N, and a prime r dividing t, the
    # element x = y^(t/r) normalizes N with x^r in N, and the cosets
    # x^e N (e < r) make up the next, r times larger, term of the series.
    series = [tuple(group.elements())]
    while len(series[-1]) > 1:
        derived = _derived_subgroup(group, series[-1])
        if len(derived) == len(series[-1]):
            raise ValueError(f"{group.name} is not solvable, so it has no pc presentation")
        series.append(derived)
    c = group.cayley
    exponents: dict[int, tuple[int, ...]] = {0: ()}  # the current term N
    found: list[tuple[int, int]] = []  # (g, r), bottom of the series first
    for layer in reversed(series[:-1]):
        for y in layer:
            while y not in exponents:
                t, z = 1, y
                while z not in exponents:
                    z = c[z][y]
                    t += 1
                r = _smallest_prime_factor(t)
                x = _element_power(group, y, t // r)
                grown: dict[int, tuple[int, ...]] = {}
                xe = 0
                for e in range(r):
                    row = c[xe]
                    for n, word in exponents.items():
                        grown[row[n]] = (e,) + word
                    xe = c[xe][x]
                exponents = grown
                found.append((x, r))
    gens = tuple(g for g, _ in reversed(found))
    orders = tuple(r for _, r in reversed(found))
    inv = group.inverse
    return PcPresentation(
        generators=gens,
        relative_orders=orders,
        exponents=tuple(exponents[x] for x in group.elements()),
        powers=tuple(_element_power(group, g, r) for g, r in zip(gens, orders)),
        conjugates={(i, j): c[c[inv[gens[i]]][gens[j]]][gens[i]]
                    for i in range(len(gens)) for j in range(i + 1, len(gens))},
    )


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, written additively: i*j = (i+j) mod n.

    Row i of the table is row 0 rotated left by i.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    row = list(range(n))
    return FiniteGroup([row[i:] + row[:i] for i in range(n)], name=f"C{n}")


def direct_product(*factors: FiniteGroup) -> FiniteGroup:
    """Direct product of one or more groups, as one table.

    Element (x_1, ..., x_k) is packed in mixed radix with x_1 most
    significant, ((x_1 |G_2| + x_2) |G_3| + ...) + x_k, and the name joins
    the factors' names with "x".  That is the packing and the name of the
    left fold of two-factor products, (x, y) -> x |b| + y, so
    direct_product(a, b, c) == direct_product(direct_product(a, b), c)
    table for table, without building the inner product.  A product of
    groups is a group, with the identity packed at 0 and inverses taken
    factor by factor, so the table is not checked again.
    """
    if not factors:
        raise ValueError("product needs at least one factor")
    table, inverse = [[0]], [0]
    for factor in factors:
        n = factor.order
        table = [[x + y for x in scaled for y in row]
                 for scaled in ([v * n for v in left] for left in table)
                 for row in factor.cayley]
        inverse = [x * n + y for x in inverse for y in factor.inverse]
    return FiniteGroup._of_group_table(table, inverse, "x".join(f.name for f in factors))


def from_table(cayley: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    return FiniteGroup(cayley, name=name)


def subgroup_of(group: FiniteGroup, elements: Iterable[int]) -> tuple[int, ...]:
    """Validate that the elements form a subgroup; return them sorted.

    The members lie in the subgroup their greedy generators generate
    (`FiniteGroup.subgroup_generators`), so they form one exactly when
    that closure is the members.
    """
    elems = tuple(sorted(set(elements)))
    if not elems or elems[0] != 0:
        raise ValueError("subgroup must contain the identity")
    if elems[-1] >= group.order:
        raise ValueError(f"subgroup member {elems[-1]} is not an element 0..{group.order - 1}")
    closed = group.closure(group.subgroup_generators(elems))
    if closed != elems:
        raise ValueError(f"subgroup not closed: its {len(elems)} members "
                         f"generate {len(closed)} elements")
    return elems


def subgroup_class(group: FiniteGroup, members: Iterable[int]) -> SubgroupClass:
    """The subgroup with these members, as a `SubgroupClass`.

    The one place where a member list becomes a subgroup: the members are
    validated by `subgroup_of`, sorted and de-duplicated, and kept as the
    representative, with generators from `FiniteGroup.subgroup_generators`.
    """
    rep = subgroup_of(group, members)
    return SubgroupClass(rep, group.order // len(rep), tuple(group.subgroup_generators(rep)))


def conjugate_subgroup(group: FiniteGroup, elements: Sequence[int], g: int) -> tuple[int, ...]:
    gi = group.inverse[g]
    return tuple(sorted(group.cayley[group.cayley[g][x]][gi] for x in elements))


def subgroup_classes(group: FiniteGroup) -> list[SubgroupClass]:
    """All subgroups up to conjugacy, sorted by decreasing index.

    Enumeration is breadth-first closure generation: every subgroup arises
    from a smaller one by adjoining a single generator, so growing the set
    of known subgroups until it is closed under one-generator extensions
    finds them all.  A subgroup is extended from the generators it was
    first reached with, which breadth-first are as few as any generating
    set of it has.  Each class is one orbit under conjugation by the
    group's generators, represented by its least sorted member list.
    A group with more than MAX_SUBGROUPS subgroups raises ValueError.
    Computed once per group; each call returns a fresh list.
    """
    if group._classes is None:
        group._classes = _enumerate_subgroup_classes(group)
    return list(group._classes)


def _enumerate_subgroup_classes(group: FiniteGroup) -> list[SubgroupClass]:
    # known maps each subgroup found so far to the generators it was first
    # reached with.  The loop also visits what it appends, in order, so the
    # search is breadth-first.
    # closure(h + {x}) = closure(h + {yz}) for y in h and z any generator
    # x^k (k prime to the order of x) of <x>, so x covers every such yz and
    # is the only one of them tried.  The ascending scan tries the least
    # uncovered element; a yz it skips would only repeat x's extension, so
    # each subgroup is still first reached with the same x.
    known: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}
    queue = [(0,)]
    cayley = group.cayley
    for h in queue:
        covered, gens = set(h), known[h]
        for x in group.elements():
            if x not in covered:
                powers = [x]  # x^1, ..., x^n = 1
                while powers[-1]:
                    powers.append(cayley[powers[-1]][x])
                # covered is a union of right cosets hz, so a covered z adds nothing.
                for k, z in enumerate(powers, 1):
                    if z not in covered and gcd(k, len(powers)) == 1:
                        covered.update(cayley[y][z] for y in h)
                extended = group.closure(gens + (x,))
                if extended not in known:
                    if len(known) == MAX_SUBGROUPS:
                        raise ValueError(f"{group.name} has more than {MAX_SUBGROUPS} subgroups, "
                                         f"the most the subgroup enumeration builds")
                    known[extended] = gens + (x,)
                    queue.append(extended)
    # The conjugates of h are its orbit under conjugation by generators of
    # the group (each g^-1 is a power of g), grown breadth-first.  In an
    # abelian group the orbit is {h}.
    group_gens = group.generators()
    abelian = group.is_abelian()
    classes: list[SubgroupClass] = []
    seen: set[tuple[int, ...]] = set()
    for h in sorted(known):
        if h in seen:
            continue
        orbit = {h}
        if not abelian:
            frontier = [h]
            for k in frontier:
                for g in group_gens:
                    conj = conjugate_subgroup(group, k, g)
                    if conj not in orbit:
                        orbit.add(conj)
                        frontier.append(conj)
        seen |= orbit
        rep = min(orbit)
        classes.append(
            SubgroupClass(
                representative=rep,
                index=group.order // len(rep),
                generators=known[rep],
            )
        )
    classes.sort(key=lambda c: (-c.index, c.representative))
    return classes


def coset_action(group: FiniteGroup, h: SubgroupClass) -> CosetAction:
    """Left-multiplication action on left cosets of h, in canonical coset order.

    Computed once per (group, members of h); the result is shared and must
    not be changed.
    """
    action = group._coset_actions.get(h.representative)
    if action is None:
        action = _build_coset_action(group, h.representative)
        group._coset_actions[h.representative] = action
    return action


def _build_coset_action(group: FiniteGroup, members: tuple[int, ...]) -> CosetAction:
    # Scanning the elements in ascending order meets each coset first at
    # its minimal element, so the positions come out in canonical order.
    coset_of = [-1] * group.order
    firsts: list[int] = []
    for x in group.elements():
        if coset_of[x] < 0:
            row = group.cayley[x]
            for y in members:
                coset_of[row[y]] = len(firsts)
            firsts.append(x)
    perms = {g: tuple(coset_of[group.cayley[g][x]] for x in firsts)
             for g in group.generators()}
    return CosetAction(degree=len(firsts), permutations=perms)


def dihedral8() -> FiniteGroup:
    """D8 = <r, s | r^4, s^2, srs = r^-1>, element r^a s^b at index a + 4b."""
    def index(a, b):
        return a % 4 + 4 * (b % 2)
    table = [[index(a + (c if b == 0 else -c), b + d)
              for d in range(2) for c in range(4)]
             for b in range(2) for a in range(4)]
    return FiniteGroup(table, name="D8")


def quaternion8() -> FiniteGroup:
    """Q8 = {+-1, +-i, +-j, +-k}; unit u in (1, i, j, k) with sign s at index u + 4[s < 0]."""
    # (u, v) -> (sign, w) with u * v = sign * w, for u, v in (1, i, j, k).
    units = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    elements = [(s, u) for s in (1, -1) for u in range(4)]
    table = []
    for s1, u1 in elements:
        row = []
        for s2, u2 in elements:
            s, w = units[(u1, u2)]
            row.append(w + (4 if s * s1 * s2 < 0 else 0))
        table.append(row)
    return FiniteGroup(table, name="Q8")


def heisenberg27() -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over F_3; (a, b, c) at index a + 3b + 9c."""
    elements = [(a, b, c) for c in range(3) for b in range(3) for a in range(3)]
    table = [[(x[0] + y[0]) % 3 + 3 * ((x[1] + y[1]) % 3)
              + 9 * ((x[2] + y[2] + x[0] * y[1]) % 3)
              for y in elements] for x in elements]
    return FiniteGroup(table, name="H27")
