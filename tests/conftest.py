import itertools
import sys
from math import gcd
from types import SimpleNamespace

import pytest

from edlattice.catalog import permutation_module
from edlattice.group_core import (
    FiniteGroup,
    dihedral8,
    direct_product,
    from_table,
    heisenberg27,
    is_p_power,
    make_cyclic,
    quaternion8,
)
from edlattice.int_lattice import GaloisModule, direct_sum, identity_matrix, mat_mul


@pytest.fixture(scope="session")
def d8() -> FiniteGroup:
    """D8 = <r, s | r^4, s^2, srs = r^-1>, element r^a s^b at index a + 4b."""
    return dihedral8()


@pytest.fixture(scope="session")
def small_p_groups() -> list[tuple[FiniteGroup, int]]:
    """(group, p) pairs for random cross-checks: C4, C8, C2^2, D8, Q8, C9, H27."""
    c2 = make_cyclic(2)
    return [(make_cyclic(4), 2), (make_cyclic(8), 2), (direct_product(c2, c2), 2),
            (dihedral8(), 2), (quaternion8(), 2), (make_cyclic(9), 3), (heisenberg27(), 3)]


def _permutation_group(n, even_only, name):
    """S_n or A_n as a table; elements are the permutations in lexicographic order."""
    def sign(perm):
        return (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    perms = [q for q in itertools.permutations(range(n)) if not even_only or sign(q) == 1]
    index = {q: i for i, q in enumerate(perms)}
    # (a * b)(x) = a(b(x))
    table = [[index[tuple(a[b[x]] for x in range(n))] for b in perms] for a in perms]
    return from_table(table, name=name)


@pytest.fixture(scope="session")
def s3() -> FiniteGroup:
    """S3: solvable and not nilpotent; element 0 is the identity."""
    return _permutation_group(3, False, "S3")


@pytest.fixture(scope="session")
def a4() -> FiniteGroup:
    """A4: solvable, and its minimal normal subgroup is not cyclic."""
    return _permutation_group(4, True, "A4")


@pytest.fixture(scope="session")
def s4() -> FiniteGroup:
    """S4: solvable, with a derived series of length 3."""
    return _permutation_group(4, False, "S4")


@pytest.fixture(scope="session")
def a5() -> FiniteGroup:
    """A5: simple and not solvable."""
    return _permutation_group(5, True, "A5")


def _bareiss_determinant(a: list[list[int]]) -> int:
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


@pytest.fixture(scope="session")
def determinant():
    """The exact determinant of a square integer matrix, for unimodularity
    and index checks; the library itself never needs one."""
    return _bareiss_determinant


def _check_smith_form(m: list[list[int]], d: list[int], u, u_inv) -> None:
    """Assert that u @ m @ v = diag(d) for some unimodular v, without v.

    u @ m = diag(d) v^-1 on its first r = len(d) rows and is zero below
    them, so row i < r of u @ m is d_i times an integer row, and those r
    rows extend to a unimodular matrix: their r x r minors have gcd 1.
    Conversely those conditions give such a v.
    """
    r = len(d)
    assert all(x > 0 for x in d) and all(b % a == 0 for a, b in zip(d, d[1:])), d
    assert mat_mul(u, u_inv) == identity_matrix(len(m))
    um = mat_mul(u, m)
    assert not any(map(any, um[r:]))
    assert all(x % di == 0 for row, di in zip(um, d) for x in row)
    q = [[x // di for x in row] for row, di in zip(um, d)]
    cols = len(m[0]) if m else 0
    minors = [_bareiss_determinant([[row[j] for j in chosen] for row in q])
              for chosen in itertools.combinations(range(cols), r)]
    assert gcd(*minors) == 1


@pytest.fixture(scope="session")
def check_smith_form():
    """The Smith form check that needs no column transform."""
    return _check_smith_form


def _multiplicative_order(a: int, modulus: int) -> int:
    """The order of the unit a mod `modulus`, by walking its powers."""
    x = a % modulus
    k = 1
    while x != 1:
        x = (x * a) % modulus
        k += 1
        if k > modulus:
            raise ValueError(f"{a} is not a unit mod {modulus}")
    return k


@pytest.fixture(scope="session")
def multiplicative_order():
    """A unit's order by brute force: the reference for `catalog._p_power_order`."""
    return _multiplicative_order


def _twisted_torsion_module(p: int, n: int, units: list[int]) -> GaloisModule:
    """Z/p^n acted on by the (p-power order) unit subgroup generated by `units`."""
    modulus = p ** n
    elems = {1}
    frontier = [1]
    gens = [u % modulus for u in units]
    for u in gens:
        if u % p == 0 or u == 0:
            raise ValueError(f"{u} is not a unit mod {modulus}")
    while frontier:
        x = frontier.pop()
        for u in gens:
            y = (x * u) % modulus
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    values = [1] + sorted(elems - {1})
    size = len(values)
    if not is_p_power(size, p):
        raise ValueError(f"unit subgroup has order {size}, not a power of {p}")
    index = {v: i for i, v in enumerate(values)}
    table = [[index[(x * y) % modulus] for y in values] for x in values]
    group = FiniteGroup(table, name=f"U{modulus}sub{size}")
    action = {index[u]: [[u]] for u in gens} if size > 1 else {0: [[1]]}
    return GaloisModule(group, p, 0, [modulus], action)


@pytest.fixture(scope="session")
def twisted_torsion_module():
    """Z/p^n twisted by a unit subgroup, for sweeps over every such action."""
    return _twisted_torsion_module


def _reference_coset_action(group, members):
    """Cosets and permutations from scratch, with the law checked on all pairs."""
    cosets = sorted({tuple(sorted(group.mul(x, h) for h in members))
                     for x in group.elements()})
    position = {c: i for i, c in enumerate(cosets)}
    perms = [tuple(position[tuple(sorted(group.mul(g, y) for y in c))] for c in cosets)
             for g in group.elements()]
    for a in group.elements():
        for b in group.elements():
            pab, pa, pb = perms[group.mul(a, b)], perms[a], perms[b]
            assert all(pab[i] == pa[pb[i]] for i in range(len(cosets)))
    return tuple(cosets), tuple(perms)


@pytest.fixture(scope="session")
def reference_coset_action():
    """(cosets, permutation of every element): the reference for `coset_action`."""
    return _reference_coset_action


def _cover_module(m: GaloisModule, cert) -> GaloisModule:
    """The permutation lattice of a certificate, as a module over m's group."""
    if not cert.summands:
        return GaloisModule(m.group, m.prime, 0, [], {g: [] for g in m.group.generators()} or {0: []})
    return direct_sum(*(permutation_module(m.group, cls, m.prime) for cls, _ in cert.summands))


@pytest.fixture(scope="session")
def cover_module():
    """The permutation lattice that a certificate claims covers m."""
    return _cover_module


def _echelon_insert(basis, pivots, row, p):
    """Reduce a list row (entries in [0, p)) against a semi-echelon basis.

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
    """Sort monic list rows with distinct leads by pivot and back-substitute."""
    order = sorted(range(len(basis)), key=pivots.__getitem__)
    basis = [basis[i] for i in order]
    pivots = [pivots[i] for i in order]
    for i in range(len(basis) - 1, -1, -1):
        for k in range(i):
            c = basis[k][pivots[i]]
            if c:
                basis[k] = [(basis[k][j] - c * basis[i][j]) % p for j in range(dim)]
    return basis, pivots


def _list_rref(vectors, dim, p):
    basis, pivots = [], []
    for v in vectors:
        _echelon_insert(basis, pivots, [x % p for x in v], p)
    return _reduced_echelon(basis, pivots, dim, p)


@pytest.fixture(scope="session")
def list_rows():
    """Elimination on list rows, one Python step per entry: the reference
    for the packed rows of `fp_module`."""
    return SimpleNamespace(insert=_echelon_insert, reduced=_reduced_echelon, rref=_list_rref)


def pytest_terminal_summary(terminalreporter):
    # The acceptance tests append one line per criterion; surface them in
    # the run summary so a plain `pytest -v` shows the full scoreboard.
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "REPORT", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
