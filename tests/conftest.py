import pathlib

import pytest

from granlower.core import PeriodicRep, shift_runs

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def scaled(rep: PeriodicRep, alpha: int) -> PeriodicRep:
    """The same granularity re-described with pair ``(alpha*period, alpha*step)``."""
    runs = {
        a + r * rep.step: shift_runs(g, r * rep.period)
        for a, g in rep._runs.items()
        for r in range(alpha)
    }
    return PeriodicRep._from_runs(rep.period * alpha, rep.step * alpha, runs, rep.bounds)


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def week_rep() -> PeriodicRep:
    return PeriodicRep(7, 1, {1: tuple(range(1, 8))})


@pytest.fixture
def day_rep() -> PeriodicRep:
    return PeriodicRep(1, 1, {1: (1,)})


@pytest.fixture
def week_parts_rep() -> PeriodicRep:
    # working days and weekends of each week, explicit window at labels 3..4
    return PeriodicRep(7, 2, {3: tuple(range(8, 13)), 4: (13, 14)})
