"""Mod-p module algebra: echelon subspaces, coinvariants, orbit spans.

For a p-group acting on an F_p vector space the group algebra is local, so
"generates the module" can be read off in the coinvariant quotient W; this
module supplies W, the canonical projection onto it, and the fixed-image
subspaces the solver consumes.
"""

from __future__ import annotations

from operator import mul

from .group_core import FiniteGroup, SubgroupClass
from .int_lattice import GaloisModule, fixed_submodule


def _echelon_insert(basis, pivots, row, p):
    """Reduce a row (entries in [0, p)) against a semi-echelon basis.

    Every basis row is zero at the pivots of the rows before it, so one
    pass in insertion order clears all pivots.  A nonzero residue is scaled
    to a leading 1 and appended; returns it, or None if the row was in the
    span.
    """
    for brow, bpiv in zip(basis, pivots):
        c = row[bpiv]
        if c:
            row = [(a - c * b) % p for a, b in zip(row, brow)]
    lead = next((j for j, x in enumerate(row) if x), None)
    if lead is None:
        return None
    inv = pow(row[lead], -1, p)
    row = [x * inv % p for x in row]
    basis.append(row)
    pivots.append(lead)
    return row


def rref(vectors, dim, p):
    """Canonical reduced row echelon basis over F_p.

    Returns (rows, pivots): pivot entries are 1, pivot columns are cleared
    everywhere else, pivot columns strictly increase.  Canonical: two spans
    are equal iff their rref output is identical.
    """
    basis = []
    pivots = []
    for v in vectors:
        _echelon_insert(basis, pivots, [x % p for x in v], p)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    basis = [basis[i] for i in order]
    pivots = [pivots[i] for i in order]
    # Back-substitute bottom-up; at step i the row is already clean at every
    # later pivot, so earlier rows never get dirtied again.
    for i in range(len(basis) - 1, -1, -1):
        for k in range(i):
            c = basis[k][pivots[i]]
            if c:
                basis[k] = [(basis[k][j] - c * basis[i][j]) % p for j in range(dim)]
    return basis, pivots


class Subspace:
    """A subspace of F_p^n held in canonical reduced echelon form."""

    __slots__ = ("ambient_dim", "p", "basis", "pivots")

    def __init__(self, ambient_dim, p, vectors=()):
        self.ambient_dim = ambient_dim
        self.p = p
        basis, pivots = rref(list(vectors), ambient_dim, p)
        self.basis = tuple(tuple(row) for row in basis)
        self.pivots = tuple(pivots)

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, v):
        """Residue of v modulo this subspace (zero iff v is a member)."""
        v = [x % self.p for x in v]
        for row, piv in zip(self.basis, self.pivots):
            c = v[piv]
            if c:
                v = [(v[j] - c * row[j]) % self.p for j in range(self.ambient_dim)]
        return v

    def contains(self, v):
        return not any(self.reduce(v))

    def add(self, other: "Subspace") -> "Subspace":
        assert self.ambient_dim == other.ambient_dim and self.p == other.p
        return Subspace(self.ambient_dim, self.p, list(self.basis) + list(other.basis))

    def with_vector(self, v) -> "Subspace":
        return Subspace(self.ambient_dim, self.p, list(self.basis) + [list(v)])

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.p == other.p
                and self.ambient_dim == other.ambient_dim and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.p, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}/{self.ambient_dim}, p={self.p})"


class FpGaloisModule:
    """F_p^dim with a group acting through invertible matrices mod p.

    action[g] is an integer matrix for every element g, and g -> action[g]
    must be a homomorphism (reduce_mod_p passes the matrices of a
    GaloisModule, whose constructor checks that law).  Only the generators'
    matrices are reduced and checked invertible mod p here: every element is
    a product of generators, and products of units are units.  Any other
    element's matrix is reduced on first use.
    """

    __slots__ = ("group", "p", "dim", "_source", "_reduced")

    def __init__(self, group: FiniteGroup, p, dim, action):
        self.group = group
        self.p = p
        self.dim = dim
        self._source = action
        self._reduced = {}
        for g in group.generators() or [0]:
            if Subspace(dim, p, self.action(g)).dim != dim:
                raise ValueError(f"action of element {g} is singular mod {p}")

    def action(self, g):
        """The matrix of g reduced mod p."""
        mat = self._reduced.get(g)
        if mat is None:
            source = self._source[g]
            if len(source) != self.dim or any(len(row) != self.dim for row in source):
                raise ValueError("action matrix has wrong shape")
            mat = [[x % self.p for x in row] for row in source]
            self._reduced[g] = mat
        return mat

    def act(self, g, v):
        mat = self.action(g)
        return [sum(map(mul, row, v)) % self.p for row in mat]


def reduce_mod_p(m: GaloisModule) -> FpGaloisModule:
    """The closed fiber M/pM; its dimension is free rank plus torsion length."""
    p = m.prime
    return FpGaloisModule(m.group, p, m.dim, [m.action(g) for g in m.group.elements()])


def coinvariants(m: FpGaloisModule):
    """The quotient W of M/pM by the span of all x - g.x, with its projection.

    Returns (w_dim, projection) where projection is a w_dim x dim matrix over
    F_p whose kernel is exactly the span of the x - g.x; the acting group
    must be a p-group (that is what makes W control generation, by
    Nakayama over the local group algebra).
    """
    if not m.group.is_p_group(m.p):
        raise ValueError(f"coinvariants needs a {m.p}-group, got order {m.group.order}")
    dim, p = m.dim, m.p
    deltas = []
    # Generators suffice: if every generator acts trivially on the quotient
    # by these columns, the whole group does.
    for g in m.group.generators() or [0]:
        mat = m.action(g)
        for j in range(dim):
            col = [(mat[i][j] - (1 if i == j else 0)) % p for i in range(dim)]
            if any(col):
                deltas.append(col)
    radical = Subspace(dim, p, deltas)
    kept = [j for j in range(dim) if j not in radical.pivots]
    projection = []
    for a, _ in enumerate(kept):
        projection.append([0] * dim)
    for i in range(dim):
        col = radical.reduce([1 if j == i else 0 for j in range(dim)])
        for a, j in enumerate(kept):
            projection[a][i] = col[j]
    return len(kept), projection


def project(projection, v, p):
    return [sum(row[j] * v[j] for j in range(len(v))) % p for row in projection]


def fixed_image_subspace(m: GaloisModule, h: SubgroupClass | tuple[int, ...]) -> Subspace:
    """Image of the integral fixed submodule M^h in the coinvariants W of M/pM.

    Integral fixed points matter here: a class can be fixed mod p without
    lifting, and only lifting fixed vectors give equivariant maps out of a
    coset module.  The result depends only on the conjugacy class of h
    (conjugating moves the image by a group element, which acts trivially
    on W).
    """
    mbar = reduce_mod_p(m)
    w_dim, projection = coinvariants(mbar)
    vectors = [project(projection, [x % m.prime for x in b], m.prime)
               for b in fixed_submodule(m, h)]
    return Subspace(w_dim, m.prime, vectors)


def orbit_span(m: FpGaloisModule, v) -> Subspace:
    """F_p-span of the orbit {g.v : g in the group}.

    That span is the least G-stable subspace containing v, so it is reached
    by spinning: apply each generator to every vector that enlarged the
    running echelon basis, until no image does.  Generator images suffice
    because every g^-1 is a positive power of g in a finite group.
    """
    if len(v) != m.dim:
        raise ValueError("vector length does not match the module dimension")
    p = m.p
    rows: list[list[int]] = []
    pivots: list[int] = []
    pending = [[x % p for x in v]]
    gens = m.group.generators()
    while pending:
        row = _echelon_insert(rows, pivots, pending.pop(), p)
        if row is not None:
            pending.extend(m.act(g, row) for g in gens)
    return Subspace(m.dim, p, rows)
