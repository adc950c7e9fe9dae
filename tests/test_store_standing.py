"""Standing queries: incremental results must equal full recomputation.

The acceptance invariant of the store subsystem: for every standing
SELECT item and any micro-batch schedule, the accumulated standing result is *equal* (dict
/ list equality, not approx) to running the one-shot query from
:mod:`repro.db.queries` / :mod:`repro.db.stream_queries` over the fully
materialised view.
"""

from __future__ import annotations

import pytest

from repro.data.synthetic import campus_temperature
from repro.db.queries import threshold_query
from repro.db.stream_queries import (
    exceedance_probability,
    expected_time_above,
    sustained_exceedance_probability,
    windowed_expected_value,
)
from repro.exceptions import InvalidParameterError, QueryError
from repro.store import Catalog, StandingQuery
from repro.view.omega import OmegaGrid
from view_helpers import view_from_rows

H = 25
GRID = OmegaGrid(delta=0.4, n=6)
THRESHOLD = 20.0

#: Ragged micro-batch schedules, including single values and warm-up-only.
SCHEDULES = [
    (40, 40, 40, 40, 40),
    (200,),
    (5, 1, 1, 1, 80, 2, 110),
    (24, 1, 175),
]


def _catalog(tmp_path, series_id="s"):
    catalog = Catalog(tmp_path / "cat")
    catalog.create_series(
        series_id, metric="variable_threshold", H=H, grid=GRID
    )
    return catalog


def _queries():
    return {
        "threshold": StandingQuery("threshold", (0.25,)),
        "exceedance": StandingQuery.exceedance(THRESHOLD),
        "windowed_expected_value": StandingQuery("windowed_expected_value", (7,)),
        "expected_time_above": StandingQuery("time_above", (THRESHOLD, 4)),
        "sustained_exceedance": StandingQuery.sustained_exceedance(THRESHOLD, 3),
    }


def _recompute(kind, view):
    if kind == "threshold":
        return threshold_query(view, 0.25)
    if kind == "exceedance":
        return exceedance_probability(view, THRESHOLD)
    if kind == "windowed_expected_value":
        return windowed_expected_value(view, 7)
    if kind == "expected_time_above":
        return expected_time_above(view, THRESHOLD, 4)
    return sustained_exceedance_probability(view, THRESHOLD, 3)


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: "x".join(map(str, s)))
def test_incremental_equals_full_recompute(tmp_path, schedule):
    values = campus_temperature(sum(schedule), rng=11).values
    catalog = _catalog(tmp_path)
    handles = {
        kind: catalog.register_query("s", query)
        for kind, query in _queries().items()
    }
    cursor = 0
    for batch in schedule:
        catalog.append("s", values[cursor : cursor + batch])
        cursor += batch
    view = catalog.view("s")
    for kind, handle in handles.items():
        assert handle.result() == _recompute(kind, view), kind


def test_deltas_partition_the_result(tmp_path):
    values = campus_temperature(150, rng=4).values
    catalog = _catalog(tmp_path)
    handle = catalog.register_query("s", StandingQuery.exceedance(THRESHOLD))
    merged: dict[int, float] = {}
    cursor = 0
    for batch in (60, 30, 60):
        result = catalog.append("s", values[cursor : cursor + batch])
        cursor += batch
        (query_handle, delta), = result.deltas
        assert query_handle is handle
        assert not set(delta) & set(merged)  # Each time reported once.
        merged.update(delta)
    assert merged == handle.result()
    assert handle.last_delta == delta


def test_registration_replays_stored_history(tmp_path):
    values = campus_temperature(170, rng=8).values
    catalog = _catalog(tmp_path)
    catalog.append("s", values[:100])
    late = catalog.register_query(
        "s", StandingQuery("windowed_expected_value", (6,))
    )
    catalog.append("s", values[100:])
    assert late.result() == windowed_expected_value(catalog.view("s"), 6)


def test_registration_survives_on_fresh_handle_after_reopen(tmp_path):
    values = campus_temperature(120, rng=9).values
    root = tmp_path / "cat"
    catalog = Catalog(root)
    catalog.create_series("s", metric="variable_threshold", H=H, grid=GRID)
    catalog.append("s", values[:80])
    # Standing registrations are session-scoped: a reopened catalog starts
    # empty, and re-registering replays the stored segments.
    reopened = Catalog(root)
    assert reopened.series("s").queries() == []
    handle = reopened.register_query("s", StandingQuery.exceedance(THRESHOLD))
    reopened.append("s", values[80:])
    assert handle.result() == exceedance_probability(
        reopened.view("s"), THRESHOLD
    )


def test_windowed_results_empty_until_window_fills(tmp_path):
    values = campus_temperature(H + 4, rng=2).values
    catalog = _catalog(tmp_path)
    handle = catalog.register_query(
        "s", StandingQuery("windowed_expected_value", (10,))
    )
    catalog.append("s", values)  # Only 4 warm times < window of 10.
    assert handle.result() == {}
    catalog.append("s", campus_temperature(20, rng=3).values)
    assert len(handle.result()) > 0


def test_windowed_queries_reject_non_contiguous_static_views(tmp_path):
    """Parity with the one-shot queries: gapped times must not silently
    window by array position."""
    gapped = view_from_rows("gapped", [(t, 0.0, 10.0, 1.0) for t in (2, 4, 6)])
    catalog = Catalog(tmp_path / "cat")
    catalog.save_view("gapped", gapped)
    for query in (
        StandingQuery("windowed_expected_value", (2,)),
        StandingQuery("time_above", (5.0, 2)),
        StandingQuery.sustained_exceedance(5.0, 2),
    ):
        with pytest.raises(InvalidParameterError, match="consecutive"):
            catalog.register_query("gapped", query)
    # Per-time kinds have no window semantics and stay legal, like their
    # one-shot counterparts.
    handle = catalog.register_query("gapped", StandingQuery.exceedance(5.0))
    assert set(handle.result()) == {2, 4, 6}


def test_query_spec_validation():
    # Out-of-domain values fail at construction, through the spec's bind.
    with pytest.raises(InvalidParameterError, match="tau"):
        StandingQuery("threshold", (1.5,))
    with pytest.raises(InvalidParameterError, match="window"):
        StandingQuery("windowed_expected_value", (0,))
    with pytest.raises(InvalidParameterError, match="window"):
        StandingQuery.sustained_exceedance(1.0, -2)
    with pytest.raises(InvalidParameterError, match="window"):
        StandingQuery("time_above", (1.0, 2.5))
    with pytest.raises(InvalidParameterError, match="inverted"):
        StandingQuery("probability_of", (22.0, 20.0))
    # Unknown names: anything AGGREGATES does not hold, SIMULATE included.
    with pytest.raises(QueryError, match="unknown aggregate"):
        StandingQuery("bogus")
    with pytest.raises(QueryError, match="unknown aggregate"):
        StandingQuery("simulate", (3, 1))
    # Missing arguments fail fast, not deep inside the first update().
    with pytest.raises(InvalidParameterError, match="takes"):
        StandingQuery("sustained_exceedance")
    with pytest.raises(InvalidParameterError, match="takes"):
        StandingQuery("threshold")
    with pytest.raises(InvalidParameterError, match="takes"):
        StandingQuery("time_above", (1.0,))
    query = StandingQuery("time_above", (21, 5))
    assert query.arguments == (21.0, 5.0)
    assert query.label() == "time_above(21, 5)"
    assert StandingQuery.exceedance(2) == StandingQuery("exceedance", (2.0,))


def test_threshold_tuples_accumulate_in_order(tmp_path):
    values = campus_temperature(140, rng=6).values
    catalog = _catalog(tmp_path)
    handle = catalog.register_query("s", StandingQuery("threshold", (0.2,)))
    for start in range(0, 140, 35):
        catalog.append("s", values[start : start + 35])
    hits = handle.result()
    times = [tup.t for tup in hits]
    assert times == sorted(times)
    assert hits == threshold_query(catalog.view("s"), 0.2)
