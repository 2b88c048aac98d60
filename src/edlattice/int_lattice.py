"""Exact integer linear algebra and finitely generated modules with a group action.

Everything runs on plain Python ints (arbitrary precision); matrices are
lists of rows.  Sizes stay around 30x30, so correctness beats speed
throughout: normal forms are classical elementary-operation reductions with
the unimodular transforms tracked explicitly.
"""

from __future__ import annotations

from operator import mul

from .group_core import FiniteGroup, SubgroupClass, subgroup_of

IntMatrix = list[list[int]]


class MixedTorsionError(ValueError):
    """A quotient acquired torsion at a prime other than the working prime."""


# Miller-Rabin with the first thirteen prime bases is exact for every
# n < 3317044064679887385961981 (Sorenson & Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    A witness proves n composite at any size, but passing every base
    proves n prime only below 3.3 * 10^24; a larger n that passes raises
    ValueError rather than be reported prime unproven.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot prove {n} prime: Miller-Rabin is exact only below {_MR_BOUND}")
    return True


def is_p_power(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(rows, cols):
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    oi[j] += x * bk[j]
    return out


def mat_vec(a: IntMatrix, v: list[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in a]


def transpose(a: IntMatrix) -> IntMatrix:
    return [list(col) for col in zip(*a)] if a else []


def determinant(a: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular and u @ m == h; pivots are positive and
    entries above each pivot are reduced into [0, pivot), so h is canonical
    for the row span of m.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [row[:] for row in m]
    u = identity_matrix(rows)
    row = 0
    for col in range(cols):
        if row == rows:
            break
        while True:
            nz = [i for i in range(row, rows) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            if i0 != row:
                h[row], h[i0] = h[i0], h[row]
                u[row], u[i0] = u[i0], u[row]
            done = True
            for i in range(row + 1, rows):
                if h[i][col]:
                    q = h[i][col] // h[row][col]
                    for j in range(cols):
                        h[i][j] -= q * h[row][j]
                    for j in range(rows):
                        u[i][j] -= q * u[row][j]
                    if h[i][col]:
                        done = False
            if done:
                break
        if h[row][col]:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            piv = h[row][col]
            for i in range(row):
                q = h[i][col] // piv
                if q:
                    for j in range(cols):
                        h[i][j] -= q * h[row][j]
                    for j in range(rows):
                        u[i][j] -= q * u[row][j]
            row += 1
    return h, u


def hnf_basis(vectors: list[list[int]]) -> list[list[int]]:
    """Canonical basis (nonzero HNF rows) of the subgroup generated by the vectors."""
    if not vectors:
        return []
    h, _ = hermite_normal_form(vectors)
    return [row for row in h if any(row)]


def smith_normal_form(m: IntMatrix) -> tuple[list[int], IntMatrix, IntMatrix]:
    """Smith normal form with transforms.

    Returns (d, u, v) where u @ m @ v is diagonal with the invariant factors
    d (positive, each dividing the next) in its leading diagonal entries and
    zeros elsewhere; u and v are unimodular.  d lists only the nonzero
    invariant factors, so len(d) is the rank.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [row[:] for row in m]
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    t = 0
    while t < min(rows, cols):
        # Move the smallest nonzero entry of the trailing block to (t, t);
        # small pivots keep intermediate entries from blowing up.
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
        while True:
            # Clear column t with row operations.
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        for j in range(cols):
                            a[i][j] -= q * a[t][j]
                        for j in range(rows):
                            u[i][j] -= q * u[t][j]
                    if a[i][t]:  # remainder is smaller; promote it
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        break
            else:
                # Column clear; clear row t with column operations.
                for j in range(t + 1, cols):
                    if a[t][j]:
                        q = a[t][j] // a[t][t]
                        if q:
                            for row in a:
                                row[j] -= q * row[t]
                            for row in v:
                                row[j] -= q * row[t]
                        if a[t][j]:
                            for row in a:
                                row[t], row[j] = row[j], row[t]
                            for row in v:
                                row[t], row[j] = row[j], row[t]
                            break
                else:
                    break
                continue
        # Divisibility: a[t][t] must divide the trailing block.
        pivot = a[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(cols):
                a[t][j] += a[offender][j]
            for j in range(rows):
                u[t][j] += u[offender][j]
            continue
        if pivot < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    d = [a[i][i] for i in range(t)]
    return d, u, v


def inverse_unimodular(u: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix (via HNF: w @ u = I)."""
    h, w = hermite_normal_form(u)
    if h != identity_matrix(len(u)):
        raise ValueError("matrix is not unimodular")
    return w


def kernel_basis(m: IntMatrix, cols: int | None = None) -> list[list[int]]:
    """Canonical basis of the integer kernel {x : m @ x = 0}.

    Row-reduce the transpose: with u @ transpose(m) = h, the rows of u
    whose h-row vanishes are a basis of the kernel (u is unimodular and
    nonzero HNF rows are independent), and that kernel is saturated.
    """
    if cols is None:
        cols = len(m[0]) if m else 0
    if not m or cols == 0:
        return [row[:] for row in identity_matrix(cols)]
    h, u = hermite_normal_form(transpose(m))
    vectors = [u[i] for i in range(len(h)) if not any(h[i])]
    return hnf_basis(vectors)


class GaloisModule:
    """Z^n (+) Z/q_1 (+) ... (+) Z/q_t with a linear action of a finite group.

    The q_j are ascending powers of the working prime and coordinates are
    ordered free block first, torsion block second.  Vectors are columns and
    g sends x to action(g) @ x with torsion rows read modulo q_j.  Every
    action matrix has block shape [[A, 0], [C, D]]: A unimodular on the free
    part, D invertible mod p on the torsion part, and no torsion-to-free
    component (there is no nonzero map from a finite group into Z).

    Matrices are supplied for a generating set only; the rest are filled in
    by a search over the Cayley graph, and that search is the homomorphism
    check.  Each (generator g, element x) edge is walked once: a tree edge
    defines action(g x) = action(g) action(x) and so holds by construction;
    a non-tree edge reaches an element whose matrix is already known and
    the product is compared with it.  Together they verify the law on every
    (generator, element) pair, which covers all pairs by induction on word
    length.

    The same walk proves invertibility.  For each generator g, the edge g
    leaving g^-1 ends at the identity, whose matrix I is set before the walk
    starts, so it is never a tree edge and action(g) action(g^-1) = I is
    compared with both factors integral.  Hence A is unimodular and D is
    invertible mod p, so no determinant is needed.
    """

    __slots__ = ("group", "prime", "free_rank", "torsion", "_mats")

    def __init__(self, group: FiniteGroup, prime: int, free_rank: int,
                 torsion: list[int], generator_action: dict[int, IntMatrix]):
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        torsion = list(torsion)
        for q in torsion:
            if q < 2 or not is_p_power(q, prime):
                raise ValueError(f"torsion modulus {q} is not a power of {prime}")
        if any(torsion[i] > torsion[i + 1] for i in range(len(torsion) - 1)):
            raise ValueError("torsion moduli must be ascending")
        self.group = group
        self.prime = prime
        self.free_rank = free_rank
        self.torsion = torsion
        n, t = free_rank, len(torsion)
        dim = n + t
        # At least one matrix, so every dimension is checked against one.
        if not generator_action:
            raise ValueError("action must give at least one matrix")
        gens = sorted(generator_action)
        if not all(0 <= g < group.order for g in gens):
            raise ValueError(f"action keys must be group elements 0..{group.order - 1}")
        if group.closure(gens) != tuple(range(group.order)):
            raise ValueError("action keys do not generate the group")
        canon_gens = {}
        for g, mat in generator_action.items():
            canon_gens[g] = self._validate(mat)
        mats: list[IntMatrix | None] = [None] * group.order
        mats[0] = identity_matrix(dim)
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g, gmat in canon_gens.items():
                y = group.cayley[g][x]
                product = self._canon_rows(mat_mul(gmat, mats[x]))
                if mats[y] is None:
                    mats[y] = product
                    frontier.append(y)
                elif product != mats[y]:
                    raise ValueError("action is not a group homomorphism")
        self._mats = mats

    def _validate(self, mat: IntMatrix) -> IntMatrix:
        n, t = self.free_rank, len(self.torsion)
        dim = n + t
        if len(mat) != dim or any(len(row) != dim for row in mat):
            raise ValueError(f"action matrix must be {dim}x{dim}")
        for i in range(n):
            for j in range(n, dim):
                if mat[i][j] != 0:
                    raise ValueError("torsion-to-free block must be zero")
        # Well-definedness on the torsion quotient: the image of the order-q_j
        # generator must be killed by q_j.
        for i in range(t):
            for j in range(t):
                qi, qj = self.torsion[i], self.torsion[j]
                if qi > qj and mat[n + i][n + j] % (qi // qj):
                    raise ValueError("torsion block does not respect the moduli")
        return self._canon_rows([row[:] for row in mat])

    def _canon_rows(self, mat: IntMatrix) -> IntMatrix:
        """Reduce the torsion rows of mat in place; returns mat."""
        n = self.free_rank
        for i, q in enumerate(self.torsion):
            mat[n + i] = [x % q for x in mat[n + i]]
        return mat

    @property
    def dim(self) -> int:
        return self.free_rank + len(self.torsion)

    def action(self, g: int) -> IntMatrix:
        return self._mats[g]

    def canon_vector(self, v: list[int]) -> list[int]:
        n = self.free_rank
        out = list(v)
        for i, q in enumerate(self.torsion):
            out[n + i] %= q
        return out

    def act(self, g: int, v: list[int]) -> list[int]:
        return self.canon_vector(mat_vec(self._mats[g], v))

    def relation_vectors(self) -> list[list[int]]:
        """Generators of the lattice of vectors representing zero (q_j e_{n+j})."""
        n, dim = self.free_rank, self.dim
        out = []
        for i, q in enumerate(self.torsion):
            vec = [0] * dim
            vec[n + i] = q
            out.append(vec)
        return out

    def __repr__(self) -> str:
        return (f"GaloisModule({self.group.name}, p={self.prime}, "
                f"free_rank={self.free_rank}, torsion={self.torsion})")


def subgroup_generators(group: FiniteGroup, members: tuple[int, ...]) -> list[int]:
    """Small generating set of a subgroup given by its sorted element list.

    Every member lies in the closure of the result, even when the members
    do not form a subgroup.
    """
    gens: list[int] = []
    reached = {0}
    for a in sorted(members, key=lambda x: (-group.element_order(x), x)):
        if a not in reached:
            gens.append(a)
            reached = set(group.closure(gens))
    return gens


def fixed_submodule(m: GaloisModule, h: SubgroupClass | tuple[int, ...]) -> list[list[int]]:
    """M^H = {x in M : g.x = x for all g in H}, as a canonical HNF basis.

    The basis spans the lattice of integer representatives of M^H, so it
    contains the torsion relation vectors q_j e_{n+j}.  It suffices to fix a
    generating set of H: free rows must satisfy (A - I) x = 0 exactly, and
    torsion rows are congruences solved by adjoining one slack column per
    torsion row and subgroup generator.  M^H is stable under G only when H
    is normal; for a class, the representative's fixed module is returned,
    and a conjugate gHg^-1 has the fixed module g.M^H.
    """
    members = h.representative if isinstance(h, SubgroupClass) else tuple(h)
    members = subgroup_of(m.group, members)
    gens = subgroup_generators(m.group, members)
    n, t = m.free_rank, len(m.torsion)
    dim = n + t
    if dim == 0:
        return []
    if not gens:
        return identity_matrix(dim)
    rows: list[list[int]] = []
    k = len(gens)
    width = dim + k * t
    for idx, g in enumerate(gens):
        mat = m.action(g)
        for i in range(n):
            row = [0] * width
            for j in range(dim):
                row[j] = mat[i][j] - (1 if i == j else 0)
            rows.append(row)
        for i in range(t):
            row = [0] * width
            for j in range(dim):
                row[j] = mat[n + i][j] - (1 if n + i == j else 0)
            row[dim + idx * t + i] = m.torsion[i]
            rows.append(row)
    kernel = kernel_basis(rows, width)
    return hnf_basis([vec[:dim] for vec in kernel] + m.relation_vectors())


def direct_sum(a: GaloisModule, b: GaloisModule) -> GaloisModule:
    """Block sum of two modules over the same group and prime."""
    if a.group.cayley != b.group.cayley:
        raise ValueError("direct sum needs a common acting group")
    if a.prime != b.prime:
        raise ValueError("direct sum needs a common working prime")
    na, nb = a.free_rank, b.free_rank
    ta, tb = len(a.torsion), len(b.torsion)
    # Coordinates in build order: free(a), free(b), torsion(a), torsion(b);
    # then the torsion block is stably sorted into ascending moduli.
    unsorted_torsion = list(a.torsion) + list(b.torsion)
    order = sorted(range(ta + tb), key=lambda i: (unsorted_torsion[i], i))
    torsion = [unsorted_torsion[i] for i in order]
    n = na + nb
    place = [0] * (n + ta + tb)
    for j in range(n):
        place[j] = j
    for new_pos, old_pos in enumerate(order):
        place[n + old_pos] = n + new_pos
    gens = {}
    for g in a.group.generators() or [0]:
        big = zero_matrix(n + ta + tb, n + ta + tb)
        _copy_block(big, a.action(g), na, ta, place, offset_free=0, offset_tor=0, n=n)
        _copy_block(big, b.action(g), nb, tb, place, offset_free=na, offset_tor=ta, n=n)
        gens[g] = big
    return GaloisModule(a.group, a.prime, n, torsion, gens)


def _copy_block(big, mat, nf, nt, place, offset_free, offset_tor, n):
    for i in range(nf + nt):
        di = place[offset_free + i] if i < nf else place[n + offset_tor + (i - nf)]
        for j in range(nf + nt):
            dj = place[offset_free + j] if j < nf else place[n + offset_tor + (j - nf)]
            big[di][dj] = mat[i][j]


def quotient_by_orbit_relations(perm: GaloisModule, relations: list[list[int]]) -> GaloisModule:
    """Quotient of a free module by the action-closed span of relation vectors.

    The SNF transform of the relation matrix supplies a canonical basis of
    the quotient: coordinates with invariant factor 1 disappear, factors > 1
    become torsion coordinates, the rest stay free.  Torsion prime to the
    working prime raises MixedTorsionError.
    """
    if perm.torsion:
        raise ValueError("quotient base must be a free module")
    dim = perm.free_rank
    cols: list[list[int]] = []
    for v in relations:
        if len(v) != dim:
            raise ValueError("relation vector has wrong length")
        for g in perm.group.elements():
            cols.append(mat_vec(perm.action(g), v))
    if not cols:
        d: list[int] = []
        u = identity_matrix(dim)
    else:
        cols_matrix = [[col[i] for col in cols] for i in range(dim)]
        d, u, _ = smith_normal_form(cols_matrix)
    rank = len(d)
    keep_free = list(range(rank, dim))
    keep_tor = [i for i in range(rank) if d[i] > 1]
    torsion = [d[i] for i in keep_tor]
    for q in torsion:
        if not is_p_power(q, perm.prime):
            raise MixedTorsionError(f"quotient has Z/{q} torsion, not a power of {perm.prime}")
    keep = keep_free + keep_tor
    uinv = inverse_unimodular(u)
    gens = {}
    for g in perm.group.generators() or [0]:
        conj = mat_mul(mat_mul(u, perm.action(g)), uinv)
        small = [[conj[i][j] for j in keep] for i in keep]
        # A torsion generator's image has no free component in the quotient;
        # this is automatic because the relation lattice is action-stable.
        for a in range(len(keep_free)):
            for b in range(len(keep_free), len(keep)):
                assert small[a][b] == 0
        gens[g] = small
    if not gens:
        gens = {0: identity_matrix(len(keep))}
    return GaloisModule(perm.group, perm.prime, len(keep_free), torsion, gens)


def hom_module(l: GaloisModule, m: GaloisModule) -> list[IntMatrix]:
    """Z-basis of the equivariant maps l -> m between lattices.

    A map is a free-rank(m) x free-rank(l) matrix F with F A_l(g) = A_m(g) F
    for every generator g; the solution space is the integer kernel of the
    stacked linearized system, canonicalized by HNF.
    """
    if l.torsion or m.torsion:
        raise ValueError("hom_module expects torsion-free modules")
    if l.group.cayley != m.group.cayley:
        raise ValueError("hom_module needs a common acting group")
    nl, nm = l.free_rank, m.free_rank
    if nl == 0 or nm == 0:
        return []
    unknowns = nm * nl  # F[i][j] at index i * nl + j
    rows = []
    for g in l.group.generators() or [0]:
        al, am = l.action(g), m.action(g)
        for i in range(nm):
            for j in range(nl):
                row = [0] * unknowns
                for k in range(nl):
                    row[i * nl + k] += al[k][j]
                for k in range(nm):
                    row[k * nl + j] -= am[i][k]
                rows.append(row)
    if not rows:
        basis = identity_matrix(unknowns)
    else:
        basis = kernel_basis(rows, unknowns)
    return [[vec[i * nl:(i + 1) * nl] for i in range(nm)] for vec in basis]
