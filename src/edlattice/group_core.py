"""Finite groups stored as explicit Cayley tables.

Elements are the indices 0..order-1 with identity 0.  Groups here are the
acting Galois quotients: small p-groups, abelian (cyclic or products of
cyclics) or not (any full Cayley table).  The group axioms are checked at
construction in O(n^2 log n), which caps the practical order at a few
thousand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class FiniteGroup:
    """A finite group given extensionally by its multiplication table.

    cayley[a][b] is the index of a*b.  Index 0 is the identity.
    Identity, inverses and associativity are verified at every order.
    """

    __slots__ = ("order", "cayley", "inverse", "name")

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
        """A small generating set, chosen greedily and deterministically."""
        gens: list[int] = []
        reached = {0}
        for a in sorted(self.elements(), key=lambda x: (-self.element_order(x), x)):
            if a in reached:
                continue
            gens.append(a)
            reached = set(self.closure(gens))
            if len(reached) == self.order:
                break
        return gens

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
    """
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
    """Left-multiplication action on left cosets of h, in canonical coset order."""
    members = h.representative if isinstance(h, SubgroupClass) else tuple(h)
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
    perms = []
    for g in group.elements():
        perms.append(tuple(coset_of[group.cayley[g][c[0]]] for c in cosets))
    action = CosetAction(
        subgroup=h if isinstance(h, SubgroupClass) else SubgroupClass(members, group.order // len(members), 1),
        cosets=tuple(cosets),
        permutations=tuple(perms),
    )
    if group.order <= 27:
        for a in group.elements():
            pa = action.permutations[a]
            for b in group.elements():
                pb = action.permutations[b]
                pab = action.permutations[group.cayley[a][b]]
                assert all(pab[i] == pa[pb[i]] for i in range(len(cosets)))
    return action
