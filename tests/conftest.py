import sys

import pytest

from edlattice.group_core import FiniteGroup, from_table


@pytest.fixture(scope="session")
def d8() -> FiniteGroup:
    """D8 = <r, s | r^4, s^2, srs = r^-1>, element r^a s^b at index a + 4b."""
    def index(a, b):
        return a % 4 + 4 * (b % 2)
    table = [[index(a + (c if b == 0 else -c), b + d)
              for d in range(2) for c in range(4)]
             for b in range(2) for a in range(4)]
    return from_table(table, name="D8")


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
