import itertools
import sys

import pytest

from edlattice.group_core import (
    FiniteGroup,
    dihedral8,
    direct_product,
    from_table,
    heisenberg27,
    make_cyclic,
    quaternion8,
)


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
