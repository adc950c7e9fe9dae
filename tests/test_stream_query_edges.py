"""Edge cases of the windowed stream queries (empty / short / gappy views)."""

from __future__ import annotations

import pytest

from repro.db.prob_view import ProbTuple, ProbabilisticView
from repro.db.stream_queries import (
    exceedance_probability,
    expected_time_above,
    sustained_exceedance_probability,
    windowed_expected_value,
)
from repro.exceptions import InvalidParameterError
from view_helpers import view_from_rows

WINDOWED = [
    lambda view, window: windowed_expected_value(view, window),
    lambda view, window: sustained_exceedance_probability(view, 10.0, window),
    lambda view, window: expected_time_above(view, 10.0, window),
]
IDS = ["windowed_expected_value", "sustained_exceedance", "expected_time_above"]


def _view(times) -> ProbabilisticView:
    tuples = [
        ProbTuple(t=t, low=0.0, high=10.0, probability=0.4)
        for t in times
    ] + [
        ProbTuple(t=t, low=10.0, high=20.0, probability=0.6)
        for t in times
    ]
    return view_from_rows("v", tuples)


@pytest.mark.parametrize("query", WINDOWED, ids=IDS)
def test_empty_view_returns_empty(query):
    assert query(_view([]), 3) == {}


def test_exceedance_on_empty_view():
    assert exceedance_probability(_view([]), 10.0) == {}


@pytest.mark.parametrize("query", WINDOWED, ids=IDS)
def test_window_longer_than_series_raises(query):
    with pytest.raises(InvalidParameterError):
        query(_view([1, 2, 3]), 4)


@pytest.mark.parametrize("query", WINDOWED, ids=IDS)
def test_non_positive_window_raises(query):
    with pytest.raises(InvalidParameterError):
        query(_view([1, 2, 3]), 0)


@pytest.mark.parametrize("query", WINDOWED, ids=IDS)
def test_non_contiguous_times_raise(query):
    with pytest.raises(InvalidParameterError) as info:
        query(_view([1, 3, 5, 7]), 2)
    assert "non-contiguous" in str(info.value)


@pytest.mark.parametrize("query", WINDOWED, ids=IDS)
def test_window_equal_to_series_length(query):
    out = query(_view([4, 5, 6]), 3)
    assert list(out) == [6]  # Exactly one full window, keyed by its end.


def test_exceedance_allows_gaps():
    # The per-time query has no window semantics, so gaps stay legal.
    out = exceedance_probability(_view([1, 5, 9]), 10.0)
    assert set(out) == {1, 5, 9}
