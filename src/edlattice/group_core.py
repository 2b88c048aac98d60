"""Finite groups stored as explicit Cayley tables.

Elements are the indices 0..order-1 with identity 0.  Groups here are the
acting Galois quotients: small p-groups, abelian (cyclic or products of
cyclics) or not (any full Cayley table; D8, Q8 and the Heisenberg group of
order 27 have constructors below).  The group axioms are checked at
construction in O(n^2 log n).  Every order read from input is held to
MAX_GROUP_ORDER by `check_group_order` before a table is built.

A group is immutable once built, so what depends on it alone is computed
once per instance and kept on it: the generating set (`generators`), the
subgroup classes (`subgroup_classes`) and each coset action
(`coset_action`).  Every solve on the same group object shares them; the
caches live and die with the group, with no module-level state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

# A Cayley table of order n holds n^2 Python ints: about 200 MiB at
# n = 2048 on 64-bit CPython, four times that with each doubling of n.
MAX_GROUP_ORDER = 2048


def check_group_order(order: int) -> int:
    """The order itself if it lies in 1..MAX_GROUP_ORDER, else ValueError."""
    if not 1 <= order <= MAX_GROUP_ORDER:
        raise ValueError(f"group order {order} is outside 1..{MAX_GROUP_ORDER}")
    return order


class FiniteGroup:
    """A finite group given extensionally by its multiplication table.

    cayley[a][b] is the index of a*b.  Index 0 is the identity.
    Identity, inverses and associativity are verified at every order.
    """

    __slots__ = ("order", "cayley", "inverse", "name",
                 "_generators", "_classes", "_coset_actions")

    def __init__(self, cayley: Sequence[Sequence[int]], name: str = "") -> None:
        n = len(cayley)
        if n == 0:
            raise ValueError("group must contain an identity element")
        table = [list(row) for row in cayley]
        for i, row in enumerate(table):
            if len(row) != n:
                raise ValueError(f"cayley row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not 0 <= x < n:
                    raise ValueError(f"cayley entry {x} out of range")
        for a in range(n):
            if table[0][a] != a or table[a][0] != a:
                raise ValueError("element 0 is not a two-sided identity")
        inverse = [-1] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == 0:
                    inverse[a] = b
                    break
            if inverse[a] == -1 or table[inverse[a]][a] != 0:
                raise ValueError(f"element {a} has no two-sided inverse")
        self.order = n
        self.cayley = table
        self.inverse = inverse
        self.name = name or f"G{n}"
        self._generators: list[int] | None = None
        self._classes: list[SubgroupClass] | None = None
        self._coset_actions: dict = {}
        # Light's test: the elements s with (x s) y = x (s y) for all x, y
        # are closed under products, so checking a generating set suffices.
        # Each generator picked here at least doubles the reached set when
        # the table is a group, so this costs O(n^2 log n).
        gens: list[int] = []
        reached: tuple[int, ...] = (0,)
        for a in range(n):
            if a not in reached:
                gens.append(a)
                reached = self.closure(gens)
        for s in gens:
            s_row = table[s]
            for x in range(n):
                x_row = table[x]
                if table[x_row[s]] != [x_row[sy] for sy in s_row]:
                    raise ValueError("cayley table is not associative")

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.cayley[x][a]
            k += 1
        return k

    def is_abelian(self) -> bool:
        return all(
            self.cayley[a][b] == self.cayley[b][a]
            for a in range(self.order)
            for b in range(a)
        )

    def prime_power(self) -> Optional[tuple[int, int]]:
        """(p, k) with order = p**k, or None if the order is not a prime power."""
        n = self.order
        if n == 1:
            return None
        p = 2
        while n % p:
            p += 1
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        return (p, k) if n == 1 else None

    def is_p_group(self, p: int) -> bool:
        """True iff the order is a power of p (1 counts: the trivial group)."""
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

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

    def generators(self) -> list[int]:
        """A small generating set, chosen greedily and deterministically.

        Computed once per group; each call returns a fresh list.
        """
        if self._generators is None:
            gens: list[int] = []
            reached = {0}
            for a in sorted(self.elements(), key=lambda x: (-self.element_order(x), x)):
                if a in reached:
                    continue
                gens.append(a)
                reached = set(self.closure(gens))
                if len(reached) == self.order:
                    break
            self._generators = gens
        return list(self._generators)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class SubgroupClass:
    """A subgroup up to conjugacy.

    representative: sorted element indices of one member of the class;
    index = [G:H]; class_size = number of distinct conjugates.
    """

    representative: tuple[int, ...]
    index: int
    class_size: int

    def __contains__(self, element: int) -> bool:
        return element in self.representative


@dataclass(frozen=True)
class CosetAction:
    """Left-multiplication action of a group on the left cosets of a subgroup.

    permutations[g][i] is the position of g * (coset i); coset positions are
    canonical (cosets sorted by their minimal element), so the matrices built
    on top of this are reproducible bit for bit.
    """

    subgroup: SubgroupClass
    cosets: tuple[tuple[int, ...], ...]
    permutations: tuple[tuple[int, ...], ...]

    @property
    def degree(self) -> int:
        return len(self.cosets)


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, written additively: i*j = (i+j) mod n."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"C{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with element (x, y) packed as x * |b| + y."""
    nb = b.order
    table = [
        [a.cayley[x1][x2] * nb + b.cayley[y1][y2] for x2 in range(a.order) for y2 in range(nb)]
        for x1 in range(a.order)
        for y1 in range(nb)
    ]
    return FiniteGroup(table, name=f"{a.name}x{b.name}")


def from_table(cayley: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    return FiniteGroup(cayley, name=name)


def subgroup_of(group: FiniteGroup, elements: Iterable[int]) -> tuple[int, ...]:
    """Validate that the elements form a subgroup; return them sorted."""
    elems = tuple(sorted(set(elements)))
    if not elems or elems[0] != 0:
        raise ValueError("subgroup must contain the identity")
    members = set(elems)
    for x in elems:
        if group.inverse[x] not in members:
            raise ValueError(f"subgroup not closed under inverse at {x}")
        for y in elems:
            if group.cayley[x][y] not in members:
                raise ValueError(f"subgroup not closed at {x}*{y}")
    return elems


def conjugate_subgroup(group: FiniteGroup, elements: Sequence[int], g: int) -> tuple[int, ...]:
    gi = group.inverse[g]
    return tuple(sorted(group.cayley[group.cayley[g][x]][gi] for x in elements))


def subgroup_classes(group: FiniteGroup) -> list[SubgroupClass]:
    """All subgroups up to conjugacy, sorted by decreasing index.

    Enumeration is breadth-first closure generation: every subgroup arises
    from a smaller one by adjoining a single generator, so growing the set
    of known subgroups until it is closed under one-generator extensions
    finds them all.  Conjugacy dedup uses the sorted-element canonical form.
    Computed once per group; each call returns a fresh list.
    """
    if group._classes is None:
        group._classes = _enumerate_subgroup_classes(group)
    return list(group._classes)


def _enumerate_subgroup_classes(group: FiniteGroup) -> list[SubgroupClass]:
    trivial = (0,)
    known = {trivial}
    frontier = [trivial]
    while frontier:
        h = frontier.pop()
        for x in group.elements():
            if x in h:
                continue
            extended = group.closure(h + (x,))
            if extended not in known:
                known.add(extended)
                frontier.append(extended)
    classes: list[SubgroupClass] = []
    seen: set[tuple[int, ...]] = set()
    for h in sorted(known):
        if h in seen:
            continue
        orbit = {conjugate_subgroup(group, h, g) for g in group.elements()}
        seen |= orbit
        rep = min(orbit)
        classes.append(
            SubgroupClass(
                representative=rep,
                index=group.order // len(rep),
                class_size=len(orbit),
            )
        )
    classes.sort(key=lambda c: (-c.index, c.representative))
    return classes


def coset_action(group: FiniteGroup, h: SubgroupClass | Sequence[int]) -> CosetAction:
    """Left-multiplication action on left cosets of h, in canonical coset order.

    Computed once per (group, h); the result is immutable and shared.
    """
    key = h if isinstance(h, SubgroupClass) else tuple(h)
    action = group._coset_actions.get(key)
    if action is None:
        action = _build_coset_action(group, key)
        group._coset_actions[key] = action
    return action


def _build_coset_action(group: FiniteGroup, h: SubgroupClass | tuple[int, ...]) -> CosetAction:
    members = h.representative if isinstance(h, SubgroupClass) else h
    members = subgroup_of(group, members)
    coset_of = [-1] * group.order
    cosets: list[tuple[int, ...]] = []
    for x in group.elements():
        if coset_of[x] >= 0:
            continue
        coset = tuple(sorted(group.cayley[x][m] for m in members))
        for y in coset:
            coset_of[y] = len(cosets)
        cosets.append(coset)
    # Cosets are discovered in order of their minimal element already
    # (elements scanned ascending), so the ordering is canonical.
    perms = tuple(tuple(coset_of[group.cayley[g][c[0]]] for c in cosets)
                  for g in group.elements())
    # Homomorphism law on every (generator, element) pair.  By induction on
    # word length that gives perms[w b] = perms[w] o perms[b] for all w, b,
    # i.e. every pair, at any order.
    for a in group.generators():
        pa = perms[a]
        for b in group.elements():
            pb = perms[b]
            pab = perms[group.cayley[a][b]]
            assert all(pab[i] == pa[pb[i]] for i in range(len(cosets)))
    return CosetAction(
        subgroup=h if isinstance(h, SubgroupClass) else SubgroupClass(members, group.order // len(members), 1),
        cosets=tuple(cosets),
        permutations=perms,
    )


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
