"""Mod-p module algebra: echelon subspaces, coinvariants, spans under G.

For a p-group acting on an F_p vector space the group algebra is local, so
"generates the module" can be read off in the coinvariant quotient W; this
module supplies W and the canonical projection onto it, through which the
solver projects the integral fixed vectors it walks.  `spin` gives the
G-stable span of a family of vectors: certificate verification spins all
generators of a cover and asks for the whole of M/pM, and the brute-force
oracle spins one point at a time (`orbit_span`).  `fixed_image_subspace`
(the image of M^H in W as one subspace) serves the self-checks.
"""

from __future__ import annotations

from operator import mul

from .group_core import SubgroupClass
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

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.p == other.p
                and self.ambient_dim == other.ambient_dim and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.p, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}/{self.ambient_dim}, p={self.p})"


class FpGaloisModule:
    """M/pM for one GaloisModule M: F_p^dim with the action reduced mod p.

    A view, not a copy: the matrix of an element is reduced the first time
    it is asked for, from the integral matrix that the GaloisModule builds
    on demand.  Nothing is checked here.  Each torsion modulus is a power
    of p, so every coordinate of M contributes one F_p coordinate.  The
    GaloisModule constructor checked that the generators' matrices extend
    to an action of the group and compared action(g) action(g^-1) with I
    for every generator, so every reduced matrix is invertible.
    """

    __slots__ = ("module", "group", "p", "dim", "_reduced")

    def __init__(self, module: GaloisModule):
        self.module = module
        self.group = module.group
        self.p = module.prime
        self.dim = module.dim
        self._reduced = {}

    def action(self, g):
        """The matrix of g reduced mod p."""
        mat = self._reduced.get(g)
        if mat is None:
            p = self.p
            mat = [[x % p for x in row] for row in self.module.action(g)]
            self._reduced[g] = mat
        return mat

    def act(self, g, v):
        mat = self.action(g)
        return [sum(map(mul, row, v)) % self.p for row in mat]


def reduce_mod_p(m: GaloisModule) -> FpGaloisModule:
    """The closed fiber M/pM; its dimension is free rank plus torsion length."""
    return FpGaloisModule(m)


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
    return [sum(map(mul, row, v)) % p for row in projection]


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


def spin(m: FpGaloisModule, vectors) -> list[list[int]]:
    """Semi-echelon basis of the least G-stable subspace containing the vectors.

    Apply each generator to every vector that enlarged the running echelon
    basis, until no image does or the basis fills the space.  Generator
    images suffice because every g^-1 is a positive power of g in a finite
    group.
    """
    p = m.p
    rows: list[list[int]] = []
    pivots: list[int] = []
    pending = [[x % p for x in v] for v in vectors]
    gens = m.group.generators()
    while pending and len(rows) < m.dim:
        row = _echelon_insert(rows, pivots, pending.pop(), p)
        if row is not None:
            pending.extend(m.act(g, row) for g in gens)
    return rows


def orbit_span(m: FpGaloisModule, v) -> Subspace:
    """F_p-span of the orbit {g.v : g in the group}: the spin of v."""
    if len(v) != m.dim:
        raise ValueError("vector length does not match the module dimension")
    return Subspace(m.dim, m.p, spin(m, [v]))
