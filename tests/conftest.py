import pytest

from qbloch.acceptance import _sequence_1000, _solved_battery, four_one_qterm


@pytest.fixture(scope="session")
def battery_solved():
    """All 60 battery terms with their solved point lists (computed once per
    run; the acceptance module shares the same cache)."""
    return _solved_battery()


@pytest.fixture(scope="session")
def seq1000():
    """The length-1000 numeric coefficient sequence of the built-in special
    term (the slowest shared artifact: 0.1-0.3 s on a shared 2-vCPU VM)."""
    return _sequence_1000()[0]


@pytest.fixture(scope="session")
def t41():
    return four_one_qterm()
