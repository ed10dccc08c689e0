"""Acceptance suite: runs every criterion at its stated settings and prints
one pass/fail line per criterion.

The real-data protocol criterion is skipped (with a warning) when the a9a
dataset has not been fetched into the data directory.
"""
import numpy as np
import pytest

from localsgd import verify


@pytest.mark.parametrize("criterion", verify.CRITERIA,
                         ids=[fn.__name__.removeprefix("criterion_")
                              for fn in verify.CRITERIA])
def test_criterion(criterion):
    result = criterion("full")
    print(result.line())
    if result.status == verify.SKIP:
        pytest.skip(result.details)
    assert result.status == verify.PASS, result.details


@pytest.mark.parametrize("trend, reached", [(1.0, True), (0.99, False), (1.01, True)],
                         ids=["flat", "falling", "rising"])
def test_plateau_reached_only_once_the_window_stops_falling(trend, reached):
    noise = 1.0 + 0.2 * np.random.Generator(np.random.Philox(key=7)).uniform(-1, 1, 70)
    assert verify._plateau_reached(100.0 * trend ** np.arange(70) * noise) is reached
