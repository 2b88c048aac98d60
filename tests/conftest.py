import sys

import pytest

from edlattice.group_core import FiniteGroup, dihedral8


@pytest.fixture(scope="session")
def d8() -> FiniteGroup:
    """D8 = <r, s | r^4, s^2, srs = r^-1>, element r^a s^b at index a + 4b."""
    return dihedral8()


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
