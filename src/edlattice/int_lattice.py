"""Exact integer linear algebra and finitely generated modules with a group action.

Everything runs on plain Python ints (arbitrary precision).  The normal
forms and kernels take and return dense rows; a `GaloisModule` stores its
action matrices sparse, each row the list of its nonzero entries as
(column, value) pairs, and every integer matrix product is one
`sparse_product` of matrices in that stored form.  Correctness beats speed
throughout: the Hermite normal form is Euclid per column, and the Smith
normal form is a classical elementary-operation reduction.  A quotient by
relations lists their orbit under the group, takes one HNF of it for
the relation lattice, and reads the quotient basis off the Smith form
of that lattice's at most dim basis vectors.  The Smith normal form serves
quotients only: it tracks its row transform u and u^-1, the latter by its
columns, so that each elementary operation is one row update on the
matrix, on u and on u^-1's transpose, and no column transform.  The
quotient's action is u action(g) u^-1 on the kept coordinates, two
sparse products, since both transforms are mostly zeros.  The Hermite
form keeps no transform; it holds the relation lattice, and the oracle's
fixed lattice M^H is one HNF of a matrix augmented by an identity
block.  The solver's questions are local at p, so
`local_fixed_bases` (M^H) and `hom_module` (Hom) read their kernels up to
index prime to p off one fraction-free elimination whose pivots are all
prime to p, hence units of Z_(p); that elimination extends a stored
state row by row, so one walk over the fixed-point systems, which share
generator states, eliminates each prefix once.  A fixed-point system
stacks one block per generator of H's `SubgroupClass`.  A `GaloisModule`
is stored by the matrices of a generating set, and the relations of the
group's pc presentation are the whole check that they extend to an
action: they already make every matrix invertible.  The public
constructor runs it; sums, quotients and changes of basis of checked
modules are actions by construction and skip it.  The matrix of any
other element is built from its normal form, through one power cache per
pc generator, when first asked for.  Input modules are held to
MAX_MODULE_DIM coordinates by `check_module_dim`.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Iterator

from .group_core import FiniteGroup, SubgroupClass, is_p_power

IntMatrix = list[list[int]]
# The stored form of an action matrix: for each row, its nonzero entries as
# (column, value) pairs with ascending columns.
SparseMatrix = list[list[tuple[int, int]]]


# Input modules may have at most this many coordinates.  On a 2-vCPU
# machine the regular module of C_256 (dimension 256) solved and verified
# in 0.5 s with an 18 MiB peak RSS, and that of C_512 in 2.4 s with 31 MiB;
# the catalog modules, which are not capped, have dimension at most
# p^2 + p (306 at p = 17).  Raising the cap changes which inputs the CLI
# accepts, so the timings alone do not move it.
MAX_MODULE_DIM = 256


def check_module_dim(dim: int) -> int:
    """The dimension itself if it lies in 0..MAX_MODULE_DIM, else ValueError."""
    if not 0 <= dim <= MAX_MODULE_DIM:
        raise ValueError(f"module dimension {dim} is outside 0..{MAX_MODULE_DIM}")
    return dim


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


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def sparse_product(a: SparseMatrix, b: SparseMatrix, moduli: list[int]) -> SparseMatrix:
    """a @ b for matrices in stored form, row i reduced modulo moduli[i] when that is nonzero.

    Each row of a scatters the rows of b it names into one dense
    accumulator, whose nonzeros are kept, in ascending columns.  The
    accumulator has len(b) entries, so every column of b must be below
    len(b): b is square or taller than wide.  It is allocated once per call
    and only the columns a row wrote are read back: a column is listed when
    a term lands on it while it holds 0, and is reset to 0 when read, in
    ascending order.  A column that cancels to 0 and is written again is
    listed twice; its second reading finds the 0 left by the first and is
    skipped.  So a row costs its terms, not the width, which matters on the
    large permutation-like catalog matrices and on the sparse Smith
    transforms of a quotient.
    """
    acc = [0] * len(b)
    out = []
    for row, q in zip(a, moduli):
        written = []
        for k, x in row:
            for j, y in b[k]:
                z = acc[j]
                if not z:
                    written.append(j)
                acc[j] = z + x * y
        written.sort()
        entries = []
        for j in written:
            z = acc[j]
            if z:
                acc[j] = 0
                if q:
                    z %= q
                    if not z:
                        continue
                entries.append((j, z))
        out.append(entries)
    return out


def sparse_mat_vec(a: SparseMatrix, v: list[int]) -> list[int]:
    """a @ v for a stored-form matrix a and a dense vector v."""
    out = []
    for row in a:
        total = 0
        for j, x in row:
            total += x * v[j]
        out.append(total)
    return out


def hermite_normal_form(m: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form h of m, by Euclid per column.

    For each column, the current row and each lower row in turn trade
    floor-division remainders (the current row minus q times the lower
    row, then a swap) until the lower entry is 0.  A nonzero entry left in
    the current row is the column's pivot: the row is made positive there,
    the entries above it are reduced into [0, pivot), and the next row
    becomes current.  So h is the unique HNF of the row span of m, its zero
    rows last.  It has two callers: `kernel_basis`, which augments m with
    an identity block instead of keeping a transform, and
    `quotient_by_orbit_relations`, whose relation lattice is one HNF of
    the relations' orbit.
    """
    h = [row[:] for row in m]
    rows = len(h)
    row = 0
    for col in range(len(h[0]) if rows else 0):
        if row == rows:
            break
        top = h[row]
        for i in range(row + 1, rows):
            low = h[i]
            while low[col]:
                q = top[col] // low[col]
                top, low = low, [x - q * y for x, y in zip(top, low)]
            h[i] = low
        if top[col]:
            if top[col] < 0:
                top = [-x for x in top]
            h[row] = top
            piv = top[col]
            for i in range(row):
                q = h[i][col] // piv
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], top)]
            row += 1
    return h


def smith_normal_form(m: IntMatrix) -> tuple[list[int], IntMatrix, IntMatrix]:
    """Smith normal form with the row transform and its inverse.

    Returns (d, u, u_inv): u is unimodular, u_inv is its inverse, and
    u @ m @ v is diagonal for some unimodular v, with the invariant factors
    d (positive, each dividing the next) in its leading diagonal entries
    and zeros elsewhere.  d lists only the nonzero invariant factors, so
    len(d) is the rank.  v is not built, since a quotient reads only u and
    u^-1, but the result can be checked without it: u @ m = diag(d) v^-1,
    so with r = len(d) the rows r and later of u @ m are zero and row
    i < r is d_i times row i of v^-1, and those r integer rows extend to a
    unimodular matrix, so their invariant factors are all 1.

    u^-1 starts as I and takes the inverse of each elementary row
    operation on u as a column operation (Cohen, GTM 138, section 2.4):
    if u becomes E u, then u^-1 becomes u^-1 E^-1.  A row swap is a
    column swap, row i += q row k is column k -= q column i, and a negated
    row is a negated column.  u^-1 is kept by its columns, so each of these
    is one row update on that transpose, and it is transposed once at the
    end.  A row addition or swap updates the matrix, u and the columns of
    u^-1 together in one helper; column operations touch the matrix alone.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [row[:] for row in m]
    u = identity_matrix(rows)
    w = identity_matrix(rows)  # the columns of u^-1

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]
        w[i], w[k] = w[k], w[i]

    def add_row(i, k, q):
        # Row i += q row k, and column k -= q column i of u^-1.
        ai, ak, ui, uk, wi, wk = a[i], a[k], u[i], u[k], w[i], w[k]
        for j in range(cols):
            ai[j] += q * ak[j]
        for j in range(rows):
            ui[j] += q * uk[j]
            wk[j] -= q * wi[j]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]

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
            swap_rows(t, i0)
        if j0 != t:
            swap_cols(t, j0)
        while True:
            # Clear column t with row operations.
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, -q)
                    if a[i][t]:  # remainder is smaller; promote it
                        swap_rows(t, i)
                        break
            else:
                # Column clear; clear row t with column operations.
                for j in range(t + 1, cols):
                    if a[t][j]:
                        q = a[t][j] // a[t][t]
                        if q:
                            for row in a:
                                row[j] -= q * row[t]
                        if a[t][j]:
                            swap_cols(t, j)
                            break
                else:
                    break
                continue
        # Divisibility: a[t][t] must divide the trailing block.
        pivot = a[t][t]
        offender = next((i for i in range(t + 1, rows) for x in a[i][t + 1:] if x % pivot),
                        None)
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if pivot < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
            w[t] = [-x for x in w[t]]
        t += 1
    d = [a[i][i] for i in range(t)]
    return d, u, [list(row) for row in zip(*w)]


def kernel_basis(m: IntMatrix) -> list[list[int]]:
    """Canonical (HNF) basis of the integer kernel {x : m @ x = 0}.

    The rows of [m^T | I] span the lattice {(m @ x, x)}, whose vectors with
    a zero left block are exactly (0, x) for x in the kernel.  In its HNF
    those rows come last, have echelon form of their own and are reduced
    only by each other, so their right blocks are the HNF of the kernel
    (Cohen, GTM 138, section 2.4.3).  It serves `fixed_submodule`, the
    oracle's reference, independent of the solver's p-local elimination.
    m must have at least one row, which fixes the number of unknowns.
    """
    cols = len(m[0])
    k = len(m)
    h = hermite_normal_form([[row[i] for row in m] + e
                             for i, e in enumerate(identity_matrix(cols))])
    return [row[k:] for row in h if not any(row[:k])]


def _validate(mat: IntMatrix, free_rank: int, torsion: list[int]) -> SparseMatrix:
    """The stored form of a supplied dense matrix, after checking its shape:
    its nonzero entries, torsion rows reduced modulo their q_j."""
    n, t = free_rank, len(torsion)
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
            qi, qj = torsion[i], torsion[j]
            if qi > qj and mat[n + i][n + j] % (qi // qj):
                raise ValueError("torsion block does not respect the moduli")
    return ([[(j, x) for j, x in enumerate(row) if x] for row in mat[:n]]
            + [[(j, x % q) for j, x in enumerate(row) if x % q]
               for row, q in zip(mat[n:], torsion)])


class GaloisModule:
    """Z^n (+) Z/q_1 (+) ... (+) Z/q_t with a linear action of a finite group.

    The q_j are powers of the working prime, sorted ascending by the
    constructor (stably, moving the torsion rows and columns along), and
    coordinates are ordered free block first, torsion block second.
    Vectors are columns and g sends x to action(g) @ x with torsion rows
    read modulo q_j.  Every action matrix has block shape [[A, 0], [C, D]]:
    A unimodular on the free part, D invertible mod p on the torsion part,
    and no torsion-to-free component (there is no nonzero map from a finite
    group into Z).

    A module is stored by the matrices of a generating set.  The
    homomorphism check runs on the group's pc presentation
    (`FiniteGroup.pc_presentation`; the group must be solvable, as every
    p-group is).  Each pc generator g_i is reached as a word in the
    supplied generators by a search over the Cayley table (`words`, which
    raises ValueError when they do not generate G), and its matrix
    X_i is that word's product, with runs of one generator taken by
    square-and-multiply.  The X_i must satisfy the k(k+1)/2 relations
    g_i^r_i = w_ii and g_j g_i = g_i w_ij, where the matrix of a word is
    the product of its normal form in the X_i, and every supplied
    generator must have the matrix of its normal form.  That is the whole
    check, and the public constructor runs it on every module it is given.
    The last power relation reads X_(k-1)^r = I, and each earlier
    one sets X_i^r_i equal to a product of later X_j, so by induction from
    the last every X_i is a unit of End(M): A unimodular and D invertible
    mod p, with no determinant.  Von Dyck's theorem then gives a
    homomorphism G -> Aut(M) whose value at g is g's normal form.  So the
    supplied matrices are accepted exactly when they extend to an action
    of G, and each is invertible, its inverse the normal form of g^-1.
    The check costs O(k^2) products plus O(k log p) for the powers, with
    k = log_p |G| for a p-group, in place of |G| products per generator.

    A module built from checked modules (`direct_sum`,
    `quotient_by_orbit_relations`, a change of basis) or read off a coset
    action needs no check: its matrices extend to an action by
    construction, so checking them again would only repeat the proof.
    Those constructions enter through `_of_action`, which builds the same
    stored form as the public constructor without the check.

    Every matrix is stored once, sparse (`SparseMatrix`): the pc
    generators, with one power cache each, and the normal forms.  Each
    power cache keeps only its X_i once the module is built.  A supplied
    matrix is kept only through the check, which proves it equal to the
    normal form kept in its place; a module built without the check keeps
    its generators' matrices as their normal forms.  No zero is stored
    and torsion rows are reduced modulo q_j, so a stored matrix is
    canonical and the check compares stored matrices as they are.
    `sparse_action(g)` builds g's matrix from its normal form when it is
    first asked for and keeps it, so a solve builds only the elements it
    reads: generators, subgroup generators and the elements they lead to.
    `action(g)` is the dense matrix, built afresh on each call.
    """

    __slots__ = ("group", "prime", "free_rank", "torsion",
                 "_powers", "_actions", "__weakref__")

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
        gens = sorted(generator_action)
        if not all(0 <= g < group.order for g in gens):
            raise ValueError(f"action keys must be group elements 0..{group.order - 1}")
        supplied = {g: _validate(generator_action[g], free_rank, torsion) for g in gens}
        # New coordinate k is old coordinate source[k].
        dim = free_rank + len(torsion)
        source = list(range(free_rank)) + sorted(range(free_rank, dim),
                                                 key=lambda i: torsion[i - free_rank])
        if source != list(range(dim)):
            position = {old: k for k, old in enumerate(source)}
            supplied = {g: [sorted((position[j], x) for j, x in mat[i]) for i in source]
                        for g, mat in supplied.items()}
            torsion = sorted(torsion)
        self._build(group, prime, free_rank, torsion, supplied)
        if not self._is_action(supplied):
            raise ValueError("action is not a group homomorphism")
        self._keep_generators()

    @classmethod
    def _of_action(cls, group: FiniteGroup, prime: int, free_rank: int, torsion: list[int],
                   stored: dict[int, SparseMatrix]) -> GaloisModule:
        """The module of matrices already known to extend to an action, unchecked.

        stored maps each element of a generating set to its matrix in stored
        form, torsion ascending and each torsion row reduced modulo its q_j:
        what the public constructor holds after its checks.  Only modules
        derived from checked ones come here, each caller saying why its
        matrices extend to an action.  They are kept as the generators'
        normal forms, which the check would have proved them equal to.
        """
        module = cls.__new__(cls)
        module._build(group, prime, free_rank, torsion, stored)
        module._keep_generators()
        module._actions.update(stored)
        return module

    def _build(self, group: FiniteGroup, prime: int, free_rank: int, torsion: list[int],
               stored: dict[int, SparseMatrix]) -> None:
        """Set the fields and each pc generator's X_i from stored matrices of a generating set.

        The powers of a stored matrix are cached while the words are built,
        and a pc generator that is a stored generator shares its cache, so
        the check reuses them.
        """
        self.group = group
        self.prime = prime
        self.free_rank = free_rank
        self.torsion = torsion
        gen_powers = {g: {1: mat} for g, mat in stored.items()}
        self._powers = [gen_powers[runs[0][0]] if len(runs) == 1 and runs[0][1] == 1
                        else {1: self._word(runs, gen_powers)}
                        for runs in group.words(sorted(stored),
                                                group.pc_presentation().generators)]
        self._actions: dict[int, SparseMatrix] = {}

    def _keep_generators(self) -> None:
        """Keep only each X_i: powers a later element needs are built again,
        which holds less than every power the words and the check needed."""
        self._powers = [{1: cache[1]} for cache in self._powers]

    def _is_action(self, supplied: dict[int, SparseMatrix]) -> bool:
        """Whether the supplied matrices extend to an action (class docstring).

        _actions only ever holds normal-form products here, so every
        comparison is against a normal form and none against a supplied
        matrix.
        """
        pc = self.group.pc_presentation()
        x = [cache[1] for cache in self._powers]
        if any(self._power(cache, r) != self.sparse_action(w)
               for cache, r, w in zip(self._powers, pc.relative_orders, pc.powers)):
            return False
        if any(self._product(x[j], x[i]) != self._product(x[i], self.sparse_action(w))
               for (i, j), w in pc.conjugates.items()):
            return False
        return all(self.sparse_action(g) == mat for g, mat in supplied.items())

    def _identity(self) -> SparseMatrix:
        return [[(i, 1)] for i in range(self.dim)]

    def _product(self, a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
        """a @ b in stored form, torsion rows reduced modulo q_j: one
        `sparse_product`, with b's torsion rows centred first.

        Torsion rows of b are read with entries in (-q_k/2, q_k/2].  That
        moves a term x*y of torsion row i by x*q_k, which q_i divides
        (x is a well-defined map Z/q_k -> Z/q_i), and it keeps the sums
        short when an entry is near q_k, as -1 mod a long q_k is."""
        n = self.free_rank
        if self.torsion:
            b = b[:n] + [[(j, y - q if 2 * y > q else y) for j, y in row]
                         for row, q in zip(b[n:], self.torsion)]
        return sparse_product(a, b, [0] * n + self.torsion)

    def _power(self, powers: dict[int, SparseMatrix], e: int) -> SparseMatrix:
        """X^e for X = powers[1] and e >= 1, by square-and-multiply.

        powers caches X^e by exponent, and the squares X^(2^j) with it.
        """
        result = powers.get(e)
        if result is None:
            rest, square = e, 1
            while rest:
                if square not in powers:
                    half = powers[square // 2]
                    powers[square] = self._product(half, half)
                if rest & 1:
                    factor = powers[square]
                    result = factor if result is None else self._product(result, factor)
                rest >>= 1
                square *= 2
            powers[e] = result
        return result

    def _word(self, runs: list[tuple[int, int]], powers) -> SparseMatrix:
        """The product of the powers X_s^e over the runs (s, e), left to right.

        powers[s] is the power cache of X_s (see `_power`).
        """
        result = None
        for s, e in runs:
            power = self._power(powers[s], e)
            result = power if result is None else self._product(result, power)
        return result if result is not None else self._identity()

    @property
    def dim(self) -> int:
        return self.free_rank + len(self.torsion)

    def sparse_action(self, g: int) -> SparseMatrix:
        """The stored matrix of g: the product X_0^e_0 ... X_(k-1)^e_(k-1)
        for g's exponents in the pc generators, built once from their power
        caches and kept."""
        mat = self._actions.get(g)
        if mat is None:
            exponents = self.group.pc_presentation().exponents[g]
            mat = self._word([(i, e) for i, e in enumerate(exponents) if e], self._powers)
            self._actions[g] = mat
        return mat

    def action(self, g: int) -> IntMatrix:
        """The matrix of g as dense rows, built from the stored form on each call."""
        dense = [[0] * self.dim for _ in range(self.dim)]
        for out, row in zip(dense, self.sparse_action(g)):
            for j, x in row:
                out[j] = x
        return dense

    def canon_vector(self, v: list[int]) -> list[int]:
        n = self.free_rank
        out = list(v)
        for i, q in enumerate(self.torsion):
            out[n + i] %= q
        return out

    def act(self, g: int, v: list[int]) -> list[int]:
        return self.canon_vector(sparse_mat_vec(self.sparse_action(g), v))

    def __repr__(self) -> str:
        return (f"GaloisModule({self.group.name}, p={self.prime}, "
                f"free_rank={self.free_rank}, torsion={self.torsion})")


def _fixed_block(m: GaloisModule, g: int, k: int, width: int) -> IntMatrix:
    """The rows A_g - I of generator number k, `width` columns wide.

    Free rows must satisfy (A_g - I) x = 0 exactly; a torsion row i is a
    congruence modulo q_i, solved by its own slack column at
    dim + k t + (i - n), where t is the torsion length.  So generator k's
    slack lies after the x columns and after every earlier generator's.
    """
    n, t, dim = m.free_rank, len(m.torsion), m.dim
    rows = []
    for i, action_row in enumerate(m.sparse_action(g)):
        row = [0] * width
        for j, x in action_row:
            row[j] = x
        row[i] -= 1
        if i >= n:
            row[dim + k * t + i - n] = m.torsion[i - n]
        rows.append(row)
    return rows


def _fixed_system(m: GaloisModule, h: SubgroupClass) -> tuple[IntMatrix, int]:
    """The integer system whose kernel projects onto M^H: (rows, width).

    It suffices to fix a generating set of H, so the system stacks one
    `_fixed_block` per generator, in order: the x columns come first, then
    the slack columns.  The kernel's projection to the x columns already
    contains the relation vectors q_j e_{n+j}: every action matrix maps the
    relation lattice into itself, so (A - I) q_j e_{n+j} is a relation
    vector and is solved by slack values alone.  The trivial subgroup gives
    no rows.
    """
    width = m.dim + len(h.generators) * len(m.torsion)
    rows: list[list[int]] = []
    for k, g in enumerate(h.generators):
        rows += _fixed_block(m, g, k, width)
    return rows, width


def fixed_submodule(m: GaloisModule, h: SubgroupClass) -> list[list[int]]:
    """M^H = {x in M : g.x = x for all g in H}, as a canonical HNF basis.

    The basis spans the lattice of integer representatives of M^H: the
    projection to the x columns of the kernel of `_fixed_system`, found
    with one HNF.  M^H is stable under G only when H is normal; for a
    class, the representative's fixed module is returned, and a conjugate
    gHg^-1 has the fixed module g.M^H.
    """
    rows, _ = _fixed_system(m, h)
    if not rows:
        return identity_matrix(m.dim)
    # The x columns come first, so the rows of the kernel's HNF with an x
    # pivot have x parts that are the HNF of its projection.
    return [v[:m.dim] for v in kernel_basis(rows) if any(v[:m.dim])]


def _local_kernel(rows: IntMatrix, width: int, p: int) -> list[list[int]]:
    """Integer kernel vectors of the rows that span the kernel K over Z_(p).

    Fraction-free Gauss-Jordan elimination (`_local_eliminate`) brings the
    rows to reduced echelon form over Q, each row an integer row with its
    content removed, and pivots each on its first entry prime to p.  One
    vector comes per non-pivot column (`_local_kernel_vectors`).

    Why their span has index prime to p in K: every pivot is a unit of
    Z_(p), and stays one, because clearing a column multiplies an earlier
    row by a divisor of the new pivot and then divides it by its content,
    which divides its own pivot.  So over Z_(p) each pivot entry of a
    kernel vector is fixed by its free entries, which may be anything, and
    the vectors, each a unit of Z_(p) times the one that is 1 at its f, are
    a Z_(p)-basis of K (x) Z_(p).  They are integral and lie in K.
    """
    echelon: IntMatrix = []
    pivots: list[int] = []
    _local_eliminate(echelon, pivots, rows, p)
    return _local_kernel_vectors(echelon, pivots, width, width)


def _local_eliminate(echelon: IntMatrix, pivots: list[int], rows: IntMatrix, p: int) -> None:
    """Append the rows to a reduced echelon state (echelon, pivots) in place.

    A new row is reduced by the echelon rows, and its content removed; a
    nonzero remainder pivots on its first entry prime to p, made positive
    (one exists because the row's content is 1), and that column is
    cleared in the earlier rows.  The rows of the state are replaced, never
    changed, so a copy of the two lists leaves the state it was taken from
    intact.  The state after a list of rows depends only on the rows, in
    order, so eliminating a prefix once and appending the rest gives what
    one elimination of the whole list gives.
    """
    def cancel(row, prow, c):
        # A positive multiple of row minus a multiple of prow (prow[c] > 0),
        # zero in column c.
        a, x = prow[c], row[c]
        g = gcd(a, x)
        a, x = a // g, x // g
        return [a * u - x * v for u, v in zip(row, prow)]

    for row in rows:
        for prow, c in zip(echelon, pivots):
            if row[c]:
                row = cancel(row, prow, c)
        g = gcd(*row)
        if not g:
            continue
        row = [x // g for x in row]
        lead = next(j for j, x in enumerate(row) if x % p)
        if row[lead] < 0:
            row = [-x for x in row]
        # Clear the new pivot column in the earlier rows; the new row is
        # zero at their pivots.
        for i, prow in enumerate(echelon):
            if prow[lead]:
                prow = cancel(prow, row, lead)
                g = gcd(*prow)
                echelon[i] = [u // g for u in prow]
        echelon.append(row)
        pivots.append(lead)


def _local_kernel_vectors(echelon: IntMatrix, pivots: list[int], width: int,
                          dim: int) -> list[list[int]]:
    """The kernel vectors of a `_local_eliminate` state, cut to their first dim entries.

    One vector per non-pivot column f < width, in column order: the
    rational kernel vector that is 1 at f and 0 at every other non-pivot
    column, scaled by the lcm of the pivots it divides by and made
    primitive over all width columns, then cut to its first dim entries.
    A vector whose cut is zero is left out; one can be zero only when
    f >= dim and no row with a pivot below dim has an entry at f, so such
    columns are skipped before their vector is built.
    """
    low = [prow for prow, c in zip(echelon, pivots) if c < dim]
    kernel = []
    pivot_set = set(pivots)
    for f in range(width):
        if f in pivot_set or (f >= dim and not any(prow[f] for prow in low)):
            continue
        # Row i reads a_i y_(c_i) + x_i y_f = 0 on this vector.
        terms = [(c, prow[c], prow[f]) for prow, c in zip(echelon, pivots) if prow[f]]
        scale = lcm(1, *(a for _, a, _ in terms))
        entries = [(c, -x * (scale // a)) for c, a, x in terms]
        g = gcd(scale, *(y for _, y in entries))
        vec = [0] * dim
        if f < dim:
            vec[f] = scale // g
        for c, y in entries:
            if c < dim:
                vec[c] = y // g
        kernel.append(vec)
    return kernel


def local_fixed_bases(m: GaloisModule, classes: Iterable[SubgroupClass]
                      ) -> Iterator[tuple[SubgroupClass, list[list[int]]]]:
    """Yield (H, integral H-fixed vectors spanning image(M^H -> M/pM)) per class.

    The classes are taken in the order given, and each is computed only
    when the caller asks for it.  The vectors span a sublattice of M^H of
    index prime to p, that is, all of M^H (x) Z_(p), which is all a cover
    with cokernel of order prime to p sees.  They are the kernel vectors of
    `_fixed_system` from `_local_kernel`, projected to the x columns, with
    zero projections dropped; no HNF is taken.  Their span has index prime
    to p in the kernel, whose projection is M^H, so the projected span has
    index prime to p in M^H and the same image in M/pM.

    The walk keeps the elimination states of M by generator prefix.  The
    system of (g_1, ..., g_k) is the system of any prefix (g_1, ..., g_j)
    with the blocks of g_(j+1), ..., g_k appended, the earlier rows given
    the later generators' slack columns as zeros.  Those zeros come after
    every earlier column, so they never become pivots, and the rows are
    appended in the order and pivoted under the rule of one elimination of
    the whole system.  So the state of the longest stored prefix is copied
    and extended by the remaining blocks, one stored state per block, and
    each basis is bit for bit that of a fresh elimination.  A class's
    generators extend those of the smaller subgroup it was reached from,
    so over the subgroup classes each prefix is eliminated once per walk.
    """
    states: dict[tuple[int, ...], tuple[IntMatrix, list[int]]] = {}
    t, dim = len(m.torsion), m.dim
    for h in classes:
        gens = h.generators
        j = len(gens)
        while j and gens[:j] not in states:
            j -= 1
        echelon, pivots = states.get(gens[:j], ([], []))
        for k in range(j, len(gens)):
            echelon = [row + [0] * t for row in echelon] if t else list(echelon)
            pivots = list(pivots)
            _local_eliminate(echelon, pivots, _fixed_block(m, gens[k], k, dim + (k + 1) * t),
                             m.prime)
            states[gens[:k + 1]] = (echelon, pivots)
        yield h, _local_kernel_vectors(echelon, pivots, dim + len(gens) * t, dim)


def direct_sum(*modules: GaloisModule) -> GaloisModule:
    """Block sum of one or more modules over the same group and prime.

    A coordinate of the sum is a pair (module k, coordinate i of it): all
    free ones in argument order, then all torsion ones, sorted stably into
    ascending moduli.  So the sum equals the pairwise fold
    direct_sum(direct_sum(a, b), c), built in one go.  The blocks of a
    generator's matrix are the summands' matrices, which satisfy the pc
    relations blockwise, so the sum is an action and is not checked again.
    """
    if not modules:
        raise ValueError("direct sum needs at least one module")
    first = modules[0]
    for other in modules[1:]:
        if other.group.cayley != first.group.cayley:
            raise ValueError("direct sum needs a common acting group")
        if other.prime != first.prime:
            raise ValueError("direct sum needs a common working prime")
    free, tors = [], []
    for k, m in enumerate(modules):
        free += [(k, i) for i in range(m.free_rank)]
        tors += [(q, k, m.free_rank + i) for i, q in enumerate(m.torsion)]
    tors.sort(key=lambda c: c[0])
    coords = free + [(k, i) for _, k, i in tors]
    position = {c: a for a, c in enumerate(coords)}
    # Each summand's torsion is ascending, so its coordinates keep their
    # order in the sum and a row's columns stay ascending.
    gens = {}
    for g in first.group.generators():
        blocks = [m.sparse_action(g) for m in modules]
        gens[g] = [[(position[k, j], x) for j, x in blocks[k][i]] for k, i in coords]
    return GaloisModule._of_action(first.group, first.prime, len(free),
                                   [q for q, _, _ in tors], gens)


def quotient_by_orbit_relations(perm: GaloisModule, relations: list[list[int]]) -> GaloisModule:
    """Quotient of a free module by the action-closed span of relation vectors.

    That span L is the span of the relations' orbit under G, listed by
    applying the generators' matrices to every vector met until no new
    image appears; each g^-1 is a positive power of g, so what the
    generators reach is the whole orbit, at most |G| images per relation.
    L is then one HNF of the orbit, zero rows dropped.  The HNF is unique
    for its lattice, so L depends only on the span, not on how the
    relations are listed, and so does the quotient.

    The SNF transform u of L's basis (dim x rank(L) <= dim x dim) supplies
    a canonical basis of the quotient: coordinates with invariant factor 1
    disappear, factors > 1 become torsion coordinates, the rest stay free.
    Each generator acts on it by u action(g) u^-1, with u^-1 read off the
    Smith form, which builds it alongside u; the Smith form's column
    transform is never needed, so it is not built.  Only the kept rows of
    u and the kept columns of u^-1 are read, and the transforms are mostly
    zeros, so the action is two `sparse_product`s: the kept rows of u times
    action(g), then that times the kept columns of u^-1 as sparse rows,
    torsion rows reduced modulo their invariant factor.  Torsion prime to the
    working prime raises MixedTorsionError.  L is G-stable, so G acts on
    Z^n/L by the induced maps, and the quotient is not checked again; its
    torsion, the invariant factors above 1, is already ascending.
    """
    if perm.torsion:
        raise ValueError("quotient base must be a free module")
    dim = perm.free_rank
    steps = {g: perm.sparse_action(g) for g in perm.group.generators()}
    if any(len(v) != dim for v in relations):
        raise ValueError("relation vector has wrong length")
    orbit = {tuple(v): None for v in relations}  # insertion-ordered set
    pending = list(orbit)
    while pending:
        v = pending.pop()
        for mat in steps.values():
            image = tuple(sparse_mat_vec(mat, v))
            if image not in orbit:
                orbit[image] = None
                pending.append(image)
    basis = [row for row in hermite_normal_form([list(v) for v in orbit]) if any(row)]
    d, u, u_inv = smith_normal_form([[row[i] for row in basis] for i in range(dim)])
    rank = len(d)
    keep_free = list(range(rank, dim))
    keep_tor = [i for i in range(rank) if d[i] > 1]
    torsion = [d[i] for i in keep_tor]
    for q in torsion:
        if not is_p_power(q, perm.prime):
            raise MixedTorsionError(f"quotient has Z/{q} torsion, not a power of {perm.prime}")
    keep = keep_free + keep_tor
    u_keep = [[(j, x) for j, x in enumerate(u[i]) if x] for i in keep]
    uinv_keep = [[(c, row[j]) for c, j in enumerate(keep) if row[j]] for row in u_inv]
    moduli = [0] * len(keep_free) + torsion
    gens = {g: sparse_product(sparse_product(u_keep, rows, moduli), uinv_keep, moduli)
            for g, rows in steps.items()}
    return GaloisModule._of_action(perm.group, perm.prime, len(keep_free), torsion, gens)


def hom_module(l: GaloisModule, m: GaloisModule) -> list[IntMatrix]:
    """Equivariant maps l -> m spanning Hom up to an index prime to p.

    A map is a free-rank(m) x free-rank(l) matrix F with F A_l(g) = A_m(g) F
    for every generator g.  The maps are the `_local_kernel` vectors of
    that stacked system at the working prime: rank Hom of them, integral
    and equivariant, so they reduce mod p onto the image of Hom in
    Hom(l/pl, m/pm), all that a question local at p reads.
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
    for g in l.group.generators():
        al, am = l.action(g), m.action(g)
        for i in range(nm):
            for j in range(nl):
                row = [0] * unknowns
                for k in range(nl):
                    row[i * nl + k] += al[k][j]
                for k in range(nm):
                    row[k * nl + j] -= am[i][k]
                rows.append(row)
    return [[vec[i * nl:(i + 1) * nl] for i in range(nm)]
            for vec in _local_kernel(rows, unknowns, l.prime)]
