"""Mod-p module algebra: echelon subspaces, coinvariants, spans under G.

For a p-group acting on an F_p vector space the group algebra is local, so
"generates the module" can be read off in the coinvariant quotient W; this
module supplies W and the canonical projection onto it, through which the
solver projects the integral fixed vectors it walks.  `spin` gives the
G-stable span of a family of vectors: certificate verification spins all
generators of a cover and asks for the whole of M/pM.  The brute-force
oracle spins one point at a time by an orbit walk (`orbit_span`), which
applies the generators to orbit points rather than to reduced rows, so
every vector it meets is a point g.v with the orbit span of v, and the
oracle need not spin those points again.  Both spins skip a generator
image equal to the vector it came from.  `fixed_image_subspace`
(the image of M^H in W as one subspace) serves the self-checks.
"""

from __future__ import annotations

from operator import mul

from .group_core import SubgroupClass
from .int_lattice import GaloisModule, fixed_submodule, sparse_mat_vec


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


def _reduced_echelon(basis, pivots, dim, p):
    """Sort monic rows with distinct leads by pivot and back-substitute.

    Each row's lead is its pivot, so a semi-echelon basis from
    `_echelon_insert` qualifies as it is; the result is the canonical
    reduced form of its span.
    """
    order = sorted(range(len(basis)), key=pivots.__getitem__)
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
    return _reduced_echelon(basis, pivots, dim, p)


class Subspace:
    """A subspace of F_p^n held in canonical reduced echelon form."""

    __slots__ = ("ambient_dim", "p", "basis", "pivots", "_hash")

    def __init__(self, ambient_dim, p, vectors=()):
        self._set(ambient_dim, p, *rref(list(vectors), ambient_dim, p))

    def _set(self, ambient_dim, p, basis, pivots):
        self.ambient_dim = ambient_dim
        self.p = p
        self.basis = tuple(tuple(row) for row in basis)
        self.pivots = tuple(pivots)
        self._hash = hash((ambient_dim, p, self.basis))

    @classmethod
    def _from_echelon(cls, ambient_dim, p, basis, pivots):
        """The span of a semi-echelon basis, without inserting its rows again."""
        space = cls.__new__(cls)
        space._set(ambient_dim, p, *_reduced_echelon(basis, pivots, ambient_dim, p))
        return space

    @property
    def dim(self):
        return len(self.basis)

    def add(self, other: "Subspace") -> "Subspace":
        assert self.ambient_dim == other.ambient_dim and self.p == other.p
        # A reduced basis is semi-echelon, so only other's rows need inserting.
        basis, pivots = list(self.basis), list(self.pivots)
        for row in other.basis:
            _echelon_insert(basis, pivots, row, self.p)
        if len(basis) == self.dim:
            return self
        return Subspace._from_echelon(self.ambient_dim, self.p, basis, pivots)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.p == other.p
                and self.ambient_dim == other.ambient_dim and self.basis == other.basis)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Subspace(dim={self.dim}/{self.ambient_dim}, p={self.p})"


class FpGaloisModule:
    """M/pM for one GaloisModule M: F_p^dim with the action reduced mod p.

    A view that keeps no matrices: `act` reduces the product with the
    module's stored rows mod p, exact since every torsion modulus is a
    power of p.  Nothing is checked here: the GaloisModule constructor
    checked that the generators' matrices satisfy the relations of the
    group's pc presentation, which make every matrix a unit with an
    integral inverse, the matrix of g^-1, so every reduced matrix is
    invertible.
    """

    __slots__ = ("module", "group", "p", "dim")

    def __init__(self, module: GaloisModule):
        self.module = module
        self.group = module.group
        self.p = module.prime
        self.dim = module.dim

    def act(self, g, v):
        p = self.p
        return [y % p for y in sparse_mat_vec(self.module.sparse_action(g), v)]


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
    for g in m.group.generators():
        # Column j of A - I, read off the stored rows of A.
        cols = [[0] * dim for _ in range(dim)]
        for i, row in enumerate(m.module.sparse_action(g)):
            for j, x in row:
                cols[j][i] = x % p
        for j, delta in enumerate(cols):
            delta[j] = (delta[j] - 1) % p
            if any(delta):
                deltas.append(delta)
    radical = Subspace(dim, p, deltas)
    pivots = set(radical.pivots)
    kept = [j for j in range(dim) if j not in pivots]
    # Column i of the projection is e_i reduced modulo the radical, read at
    # the kept columns.  The basis is in reduced echelon form, so that
    # residue is e_i itself for a kept i, and e_i minus the row with pivot i
    # for a pivot i.
    projection = []
    for j in kept:
        row_a = [0] * dim
        row_a[j] = 1
        for row, piv in zip(radical.basis, radical.pivots):
            row_a[piv] = -row[j] % p
        projection.append(row_a)
    return len(kept), projection


def project(projection, v, p):
    return [sum(map(mul, row, v)) % p for row in projection]


def fixed_image_subspace(m: GaloisModule, h: SubgroupClass) -> Subspace:
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


def _spin(m: FpGaloisModule, vectors, walk=False):
    """The spin's semi-echelon rows and pivots, and with `walk` every vector it pushed.

    Each vector that grows the basis has its generator images pushed:
    images of the reduced row it became, or with `walk` of the vector
    itself as it was pushed, unreduced.  An image equal to the vector it
    came from is in the span already and is not pushed.  Only the walk
    reads the pushed vectors, so without `walk` the list stays empty.
    """
    p = m.p
    rows: list[list[int]] = []
    pivots: list[int] = []
    pending = [[x % p for x in v] for v in vectors]
    met = list(pending) if walk else []
    gens = m.group.generators()
    while pending and len(rows) < m.dim:
        vec = pending.pop()
        row = _echelon_insert(rows, pivots, vec, p)
        if row is None:
            continue
        source = vec if walk else row
        for g in gens:
            image = m.act(g, source)
            if image != source:
                pending.append(image)
                if walk:
                    met.append(image)
    return rows, pivots, met


def spin(m: FpGaloisModule, vectors) -> list[list[int]]:
    """Semi-echelon basis of the least G-stable subspace containing the vectors.

    Apply each generator to every reduced row that enlarged the running
    echelon basis, until no image does or the basis fills the space.
    Generator images suffice because every g^-1 is a positive power of g
    in a finite group.  Expanding the reduced rows rather than the vectors
    they came from costs fewer row operations on a spin of many vectors.
    """
    return _spin(m, vectors)[0]


def _orbit_walk(m: FpGaloisModule, v) -> tuple[Subspace, list[list[int]]]:
    """`orbit_span(m, v)` and the points of v's orbit the walk met, v first.

    The walk expands each vector that grew the basis as it was pushed, so
    every vector it pushes is a point g.v of the orbit, whose orbit span is
    that of v.  The span of the vectors that grew the basis is that of the
    rows, and it holds each one's generator images, so it is G-stable.
    """
    rows, pivots, met = _spin(m, [v], walk=True)
    return Subspace._from_echelon(m.dim, m.p, rows, pivots), met


def orbit_span(m: FpGaloisModule, v) -> Subspace:
    """F_p-span of the orbit {g.v : g in the group}, by an orbit walk from v."""
    if len(v) != m.dim:
        raise ValueError("vector length does not match the module dimension")
    return _orbit_walk(m, v)[0]
