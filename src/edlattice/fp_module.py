"""Mod-p module algebra: echelon subspaces, coinvariants, spans under G.

For a p-group acting on an F_p vector space the group algebra is local, so
"generates the module" can be read off in the coinvariant quotient W; this
module supplies W and the canonical projection onto it, through which the
solver projects the integral fixed vectors it walks.  One walk spans under
G, `spin`: it takes packed vectors, applies the generators to each vector
that grows its echelon basis, skips an image equal to its source, stops
once the basis fills the space, and returns the basis with every vector it
met.  Certificate verification spins all generators of a cover and asks
for the whole of M/pM; the brute-force oracle spins one point at a time
(`orbit_span`, the one-point view of the walk), so every vector it meets is
a point g.v with the orbit span of v, and need not spin those points again.
`fixed_image_subspace` (the image of M^H in W) serves the self-checks.

Packed vectors.  A vector of F_p^n is one Python int: field i, the bits
[wi, wi + w), holds entry i, a value in [0, p).  `layout(n, p)` holds the
constants of one (n, p), built once; the field width w is 64 bits for every
p-group of admitted order and every dimension in use.  Its `pack` is the
one way in for an integral vector (through array('Q') and int.from_bytes,
both in C), `unpack` reads the entries back, and `reduce` takes every
field to its residue mod p at once.  So a row operation is a few big-int
operations in C, not a Python step per entry.

Why `reduce` is exact.  Let B = n(p-1)^2 + p.  Every caller keeps each field
below B: a row operation adds at most (p-1)^2 to a reduced field, and a
combination of at most n reduced vectors with coefficients below p sums at
most n products of at most (p-1)^2.  Let s be the least exponent with
B p <= 2^s, M = ceil(2^s / p) and d = M p - 2^s, so 0 <= d < p.  For a field
value v = q p + r below B, v M / 2^s = q + r/p + v d / (p 2^s), and
v d < B p <= 2^s, so the fractional part stays below 1 and
floor(v M / 2^s) = q: one multiplication and one shift divide every field
by p (Granlund and Montgomery, PLDI 1994).  The width w is the least
multiple of 64 with (B - 1) M < 2^w, so every product v M fits its own
field and none carries into the next.  The shift moves the low s bits of
field i + 1 into the top of field i, and QMASK, the low w - s bits of every
field, drops them; q is below 2^(w - s) because v M < 2^w.  Then v - p q
leaves r in every field with no borrow.  For p < 64 and B < 2^28, s <= 34
and v M < 2^61.  The largest cases in use keep w = 64: catalog dimension
1892 at p = 43 has B about 3.3e6, and an input module (dimension at most
256) at p = 2039, the largest prime order of an admitted group, has B
about 2^30, so v M < 2^61.  Only the trivial group, a p-group for every p,
reaches a prime that needs wider fields.

Why insertion clears the lowest pivot field.  An `Echelon` keeps its rows
by pivot, with a mask of the pivot fields.  Each row is monic (1 at its
pivot) and zero before it, so on the pivot columns, taken in order, the
rows form a unitriangular matrix, and v plus their span holds exactly one
vector that is zero at every pivot.  Insertion reaches it by clearing the
lowest nonzero pivot field of v with that pivot's row: the row is zero
below its pivot, so the lowest nonzero pivot field rises at every step.
A scan over the rows in insertion order ends at the same vector, so the
residue, its lead (its lowest nonzero field) and its monic scaling do not
depend on the way it is found.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import compress, product
from operator import mul

from .group_core import SubgroupClass
from .int_lattice import GaloisModule, fixed_submodule, is_prime

# array('Q') holds native words; the packed form is little-endian.
_SWAP = sys.byteorder == "big"


class Layout:
    """The packing of F_p^dim into one int, and its reduction mod p.

    A field is 64 bits wide unless the products of the reduction need
    more, which happens only for a prime far past any p-group of admitted
    order (the trivial group is a p-group for every p); such a layout packs
    and unpacks entry by entry.
    """

    __slots__ = ("dim", "p", "width", "fmask", "shift", "magic", "qmask", "nbytes")

    def __init__(self, dim: int, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        bound = dim * (p - 1) ** 2 + p
        shift = (bound * p - 1).bit_length()
        magic = -(-(1 << shift) // p)
        width = 64 * -(-((bound - 1) * magic).bit_length() // 64)
        self.dim = dim
        self.p = p
        self.width = width
        self.fmask = (1 << width) - 1
        self.shift = shift
        self.magic = magic
        self.nbytes = width // 8 * dim
        self.qmask = int.from_bytes(((1 << (width - shift)) - 1).to_bytes(width // 8, "little")
                                    * dim, "little")

    def residues(self, v) -> list[int]:
        """The entries of an integral vector mod p, after checking its length."""
        if len(v) != self.dim:
            raise ValueError(f"vector of length {len(v)} does not match dimension {self.dim}")
        p = self.p
        return [x % p for x in v]

    def pack(self, v) -> int:
        residues = self.residues(v)
        if self.width > 64:
            size = self.width // 8
            return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in residues), "little")
        words = array("Q", residues)
        if _SWAP:
            words.byteswap()
        return int.from_bytes(words, "little")

    def unpack(self, v: int) -> list[int]:
        data = v.to_bytes(self.nbytes, "little")
        if self.width > 64:
            size = self.width // 8
            return [int.from_bytes(data[i:i + size], "little") for i in range(0, self.nbytes, size)]
        words = array("Q", data)
        if _SWAP:
            words.byteswap()
        return words.tolist()

    def reduce(self, v: int) -> int:
        return v - self.p * (((v * self.magic) >> self.shift) & self.qmask)

    def unit(self, j: int) -> int:
        """The packed unit vector e_j."""
        return 1 << (j * self.width)

    def lead(self, v: int) -> int:
        """The lowest nonzero field of a nonzero packed vector."""
        return ((v & -v).bit_length() - 1) // self.width

    def entry(self, v: int, j: int) -> int:
        return (v >> (j * self.width)) & self.fmask

    def monic(self, v: int) -> tuple[int, int]:
        """(lead, the multiple of a nonzero packed vector that is 1 there)."""
        lead = self.lead(v)
        c = self.entry(v, lead)
        return lead, v if c == 1 else self.reduce(v * pow(c, -1, self.p))


@lru_cache(maxsize=None)
def layout(dim: int, p: int) -> Layout:
    """The layout of F_p^dim, built once per (dim, p); nothing mutates a layout."""
    return Layout(dim, p)


class Echelon:
    """Monic packed rows by pivot, each zero before its pivot and at the
    pivots of the rows inserted before it; `mask` covers the pivot fields."""

    __slots__ = ("layout", "rows", "mask")

    def __init__(self, lay: Layout, rows=None, mask=0):
        self.layout = lay
        self.rows = {} if rows is None else rows
        self.mask = mask

    def insert(self, v: int):
        """Add a reduced packed vector; return its monic residue, or None if in the span."""
        lay = self.layout
        v = _clear(v, self.rows, self.mask, lay)
        if not v:
            return None
        lead, v = lay.monic(v)
        self.rows[lead] = v
        self.mask |= lay.fmask << lead * lay.width
        return v

    def reduced(self):
        """The canonical reduced echelon basis of the span: (rows, pivots) by pivot.

        Bottom-up, each row is cleared at the later pivots by rows that are
        already reduced, so earlier rows never get dirtied again.
        """
        pivots = sorted(self.rows)
        lay = self.layout
        done = {}
        mask = 0
        for piv in reversed(pivots):
            done[piv] = _clear(self.rows[piv], done, mask, lay)
            mask |= lay.fmask << piv * lay.width
        return [done[piv] for piv in pivots], pivots


def _clear(v, rows, mask, lay):
    """v reduced by the monic rows (by pivot) at every pivot field in mask."""
    p, width, fmask = lay.p, lay.width, lay.fmask
    magic, shift, qmask = lay.magic, lay.shift, lay.qmask
    x = v & mask
    while x:
        col = ((x & -x).bit_length() - 1) // width
        v += (p - ((x >> (col * width)) & fmask)) * rows[col]
        v -= p * (((v * magic) >> shift) & qmask)
        x = v & mask
    return v


def rref(vectors, dim, p):
    """Canonical reduced row echelon basis over F_p of integral vectors.

    Returns (rows, pivots), the rows packed: pivot entries are 1, pivot
    columns are cleared everywhere else, pivot columns strictly increase.
    Canonical: two spans are equal iff their rref output is identical.
    """
    lay = layout(dim, p)
    echelon = Echelon(lay)
    for v in vectors:
        echelon.insert(lay.pack(v))
    return echelon.reduced()


class Subspace:
    """A subspace of F_p^n held as its canonical reduced echelon basis, packed."""

    __slots__ = ("layout", "basis", "pivots", "mask", "_hash")

    def __init__(self, ambient_dim, p, vectors=()):
        """The span of packed vectors."""
        echelon = Echelon(layout(ambient_dim, p))
        for v in vectors:
            echelon.insert(v)
        self._set(echelon)

    def _set(self, echelon):
        self.layout = echelon.layout
        basis, pivots = echelon.reduced()
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)
        self.mask = echelon.mask
        self._hash = hash((self.layout.dim, self.layout.p, self.basis))

    @classmethod
    def _from_echelon(cls, echelon):
        """The span of an echelon basis, without inserting its rows again."""
        space = cls.__new__(cls)
        space._set(echelon)
        return space

    @property
    def ambient_dim(self):
        return self.layout.dim

    @property
    def p(self):
        return self.layout.p

    @property
    def dim(self):
        return len(self.basis)

    def add(self, other: "Subspace") -> "Subspace":
        assert self.layout is other.layout
        # A reduced basis is an echelon basis, so only other's rows need inserting.
        echelon = Echelon(self.layout, dict(zip(self.pivots, self.basis)), self.mask)
        for row in other.basis:
            echelon.insert(row)
        if len(echelon.rows) == self.dim:
            return self
        return Subspace._from_echelon(echelon)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.layout is other.layout
                and self.basis == other.basis)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Subspace(dim={self.dim}/{self.ambient_dim}, p={self.p})"


class FpGaloisModule:
    """M/pM for one GaloisModule M: F_p^dim with the action reduced mod p.

    `act` combines the packed columns mod p of the element's matrix, read
    once per element from the module's stored rows; the reduction is exact
    since every torsion modulus is a power of p.  Nothing is checked here:
    the GaloisModule constructor checked that the generators' matrices
    satisfy the relations of the group's pc presentation, which make every
    matrix a unit with an integral inverse, the matrix of g^-1, so every
    reduced matrix is invertible.
    """

    __slots__ = ("module", "group", "p", "dim", "layout", "_columns")

    def __init__(self, module: GaloisModule):
        self.module = module
        self.group = module.group
        self.p = module.prime
        self.dim = module.dim
        self.layout = layout(module.dim, module.prime)
        self._columns = {}

    def columns(self, g) -> list[int]:
        """Column j of g's matrix mod p, packed, for each j."""
        cols = self._columns.get(g)
        if cols is None:
            p, width = self.p, self.layout.width
            cols = [0] * self.dim
            at = 0
            for row in self.module.sparse_action(g):
                for j, x in row:
                    cols[j] |= x % p << at
                at += width
            self._columns[g] = cols
        return cols

    def act(self, g, v: int) -> int:
        lay = self.layout
        values = lay.unpack(v)
        return combine(lay, self._columns.get(g) or self.columns(g), values)


def combine(lay, vectors, coeffs) -> int:
    """sum of coeffs[j] * vectors[j] over the nonzero coeffs, reduced once.

    Exact for at most lay.dim reduced packed vectors with coefficients
    below p: the sum then keeps every field below the bound B of `layout`.
    """
    return lay.reduce(sum(map(mul, compress(coeffs, coeffs), compress(vectors, coeffs))))


def projective_points(vectors, lay):
    """One point per line of the span of independent packed vectors.

    Yields (lead, tail, point) with point = vectors[lead] + sum of
    tail[j] * vectors[lead + 1 + j]: the coefficient tuple is 1 at lead,
    0 before it and any tail after it, so it represents its line of
    coefficient tuples exactly once, and the vectors are independent, so
    the points represent the lines of their span exactly once.  A point
    need not lead with 1 (`Layout.monic` gives that representative).
    Points come in the lexicographic order of their coefficient tuples,
    so later leads first.  A point sums at most lay.dim vectors with
    coefficients below p.
    """
    k = len(vectors)
    for lead in range(k - 1, -1, -1):
        base, rows = vectors[lead], vectors[lead + 1:]
        for tail in product(range(lay.p), repeat=k - 1 - lead):
            yield lead, tail, lay.reduce(base + sum(map(mul, tail, rows)))


def reduce_mod_p(m: GaloisModule) -> FpGaloisModule:
    """The closed fiber M/pM; its dimension is free rank plus torsion length."""
    return FpGaloisModule(m)


def coinvariants(m: FpGaloisModule):
    """The quotient W of M/pM by the span of all x - g.x, with its projection.

    Returns (w_dim, projection) where projection lists, for each coordinate
    i of M/pM, the image of e_i in W packed; its kernel is exactly the span
    of the x - g.x.  The acting group must be a p-group (that is what makes
    W control generation, by Nakayama over the local group algebra).
    """
    if not m.group.is_p_group(m.p):
        raise ValueError(f"coinvariants needs a {m.p}-group, got order {m.group.order}")
    dim, p, lay = m.dim, m.p, m.layout
    radical = Echelon(lay)
    # Generators suffice: if every generator acts trivially on the quotient
    # by these columns, the whole group does.
    for g in m.group.generators():
        for j, col in enumerate(m.columns(g)):
            # Column j of A - I.
            delta = lay.reduce(col + (p - 1) * lay.unit(j))
            if delta:
                radical.insert(delta)
    rows, pivots = radical.reduced()
    on_pivot = set(pivots)
    kept = [j for j in range(dim) if j not in on_pivot]
    # e_i reduced modulo the radical, read at the kept columns.  The basis
    # is in reduced echelon form, so that residue is e_i itself for a kept
    # i, and e_i minus the row with pivot i for a pivot i.
    w = layout(len(kept), p)
    projection = [0] * dim
    for k, j in enumerate(kept):
        projection[j] = w.unit(k)
    for piv, row in zip(pivots, rows):
        entries = lay.unpack(row)
        projection[piv] = w.pack([-entries[j] for j in kept])
    return len(kept), projection


def project(projection, v, p) -> int:
    """The image in W, packed, of an integral vector of M.

    The image sums up to dim M vectors of W, more than the dim W terms
    that W's own layout bounds, so the sum is reduced with M's layout.
    Both layouts have 64-bit fields for every group of admitted order, so
    they agree on the packing of W.
    """
    lay = layout(len(projection), p)
    return combine(lay, projection, lay.residues(v))


def fixed_image_subspace(m: GaloisModule, h: SubgroupClass) -> Subspace:
    """Image of the integral fixed submodule M^h in the coinvariants W of M/pM.

    Integral fixed points matter here: a class can be fixed mod p without
    lifting, and only lifting fixed vectors give equivariant maps out of a
    coset module.  The result depends only on the conjugacy class of h
    (conjugating moves the image by a group element, which acts trivially
    on W).
    """
    w_dim, projection = coinvariants(reduce_mod_p(m))
    return Subspace(w_dim, m.prime, [project(projection, b, m.prime)
                                     for b in fixed_submodule(m, h)])


def spin(m: FpGaloisModule, vectors) -> tuple[Echelon, list[int]]:
    """The walk's echelon basis of the G-span of reduced packed vectors, and every vector it met.

    Each vector that grows the basis has its generator images that differ
    from it pushed, unless the basis fills the space, so the basis spans
    the generator images of the vectors that grew it: a G-stable span,
    since every g^-1 is a positive power of g in a finite group.  The
    vectors met are the inputs, then the images pushed, in that order.
    """
    echelon = Echelon(m.layout)
    rows = echelon.rows
    pending = list(vectors)
    met = list(pending)
    gens = m.group.generators()
    while pending and len(rows) < m.dim:
        vec = pending.pop()
        if echelon.insert(vec) is None or len(rows) == m.dim:
            continue
        for g in gens:
            image = m.act(g, vec)
            if image != vec:
                pending.append(image)
                met.append(image)
    return echelon, met


def orbit_span(m: FpGaloisModule, v: int) -> tuple[Subspace, list[int]]:
    """The F_p-span of the orbit of a reduced packed v, and the orbit points the walk met, v first.

    `spin` of v alone: the walk pushes only generator images of the
    vectors it pushed, so every one is a point g.v of the orbit {g.v : g
    in G}, whose orbit span is that of v.
    """
    echelon, met = spin(m, [v])
    return Subspace._from_echelon(echelon), met
