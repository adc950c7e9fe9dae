"""Online/offline parity: the invariant incremental maintenance rests on.

``OnlinePipeline.feed_batch([value])`` over a stream must produce the
same view — tuple for tuple, bit for bit — as
``create_probabilistic_view()`` and as ``CREATE VIEW`` over the stored
series, and ``feed_batch()`` of larger batches must reproduce the
one-value loop exactly.  All four routes run one inference
path (``infer_batch``) and one row path (``build_matrix``), so equality
rests on a row coming out the same alone as inside a stack.  Without
this, the catalog's segments would drift from what a full offline
rebuild would produce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.connection import connect
from repro.data.synthetic import campus_temperature
from repro.db.table import Table
from repro.exceptions import DataError, InvalidParameterError
from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.metrics.cgarch import CGARCHMetric
from repro.metrics.ewma import EWMAMetric
from repro.metrics.kalman_garch import KalmanGARCHMetric
from repro.metrics.uniform_threshold import UniformThresholdingMetric
from repro.metrics.variable_threshold import VariableThresholdingMetric
from repro.pipeline import OnlinePipeline, create_probabilistic_view
from repro.store.catalog import Catalog
from repro.timeseries.series import TimeSeries
from repro.view.omega import OmegaGrid

H = 30
GRID = OmegaGrid(delta=0.5, n=6)

#: id -> (metric factory, the same metric as a SQL ``METRIC`` clause).
ROUTE_METRICS = {
    "variable_threshold": (VariableThresholdingMetric, "variable_threshold (p=1)"),
    "variable_threshold_q1": (
        lambda: VariableThresholdingMetric(p=1, q=1),
        "variable_threshold (p=1, q=1)",
    ),
    "uniform_threshold": (
        lambda: UniformThresholdingMetric(threshold=1.5),
        "uniform_threshold (threshold=1.5)",
    ),
    "ewma": (EWMAMetric, "ewma"),
    "arma_garch": (ARMAGARCHMetric, "arma_garch"),
    "kalman_garch": (
        lambda: KalmanGARCHMetric(em_max_iter=10),
        "kalman_garch (em_max_iter=10)",
    ),
}


def _assert_views_match(actual, expected):
    assert len(actual) == len(expected)
    a, b = actual.columns, expected.columns
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.low, b.low)
    assert np.array_equal(a.high, b.high)
    assert np.array_equal(a.probability, b.probability)
    assert [a.labels[c] for c in a.label_code] == \
        [b.labels[c] for c in b.label_code]


def _feed_loop_view(metric, values, window=H):
    pipeline = OnlinePipeline(metric, H=window, grid=GRID)
    for value in values:
        pipeline.feed_batch([value])
    return pipeline.to_view("online")


def _campus() -> TimeSeries:
    return campus_temperature(180, rng=13)


def _spiked_campus() -> TimeSeries:
    """One +15 spike at t = 120: the value C-GARCH exists to clean."""
    series = campus_temperature(200, rng=3)
    values = series.values.copy()
    values[120] += 15.0
    return series.with_values(values)


FEED_CASES = [
    *(
        pytest.param(factory, _campus, H, id=metric_id)
        for metric_id, (factory, _) in ROUTE_METRICS.items()
    ),
    pytest.param(CGARCHMetric, _spiked_campus, 60, id="cgarch"),
]


@pytest.mark.parametrize(("metric_cls", "make_series", "window"), FEED_CASES)
def test_feed_matches_offline_view(metric_cls, make_series, window):
    series = make_series()
    offline = create_probabilistic_view(
        series, metric_cls(), H=window, grid=GRID, view_name="offline"
    )
    online = _feed_loop_view(metric_cls(), series.values, window)
    _assert_views_match(online, offline)


def test_catalog_cgarch_appends_match_offline_run(tmp_path):
    """The catalog route cleans: uneven appends read back == offline run."""
    series = _spiked_campus()
    catalog = Catalog(tmp_path)
    handle = catalog.create_series("spiked", metric="cgarch", H=60, grid=GRID)
    cursor = 0
    for size in (1, 59, 2, 57, 4, 40, 37):
        handle.append(series.values[cursor : cursor + size])
        cursor += size
    assert cursor == len(series)
    offline = create_probabilistic_view(
        series, CGARCHMetric(), H=60, grid=GRID, view_name="offline"
    )
    _assert_views_match(Catalog(tmp_path).view("spiked"), offline)


@pytest.mark.parametrize("metric_id", sorted(ROUTE_METRICS))
def test_create_view_matches_feed_loop(metric_id):
    factory, clause = ROUTE_METRICS[metric_id]
    series = _campus()
    with connect() as conn:
        conn.database.register_table(Table(
            "raw_values", ["t", "r"],
            data={"t": series.timestamps, "r": series.values},
        ))
        created = conn.execute(
            f"CREATE VIEW v AS DENSITY r OVER t OMEGA delta=0.5, n=6 "
            f"METRIC {clause} WINDOW {H} FROM raw_values"
        ).view
    _assert_views_match(_feed_loop_view(factory(), series.values), created)


@pytest.mark.parametrize("metric_id", sorted(ROUTE_METRICS))
def test_feed_batch_matches_feed_loop(metric_id):
    factory, _ = ROUTE_METRICS[metric_id]
    values = campus_temperature(160, rng=14).values
    looped = _feed_loop_view(factory(), values)

    batched = OnlinePipeline(factory(), H=H, grid=GRID)
    cursor = 0
    emitted = 0
    for batch in (3, 1, 40, 25, 2, 89):
        matrix = batched.feed_batch(values[cursor : cursor + batch])
        cursor += batch
        emitted += len(matrix)
    assert cursor == values.size
    assert batched.t == values.size
    assert emitted == 160 - H
    _assert_views_match(batched.to_view("batched"), looped)


def test_one_value_batches_are_rows_of_the_whole_batch():
    """feed_batch([value]) emits, row by row, the whole batch's matrix
    and forecasts."""
    values = campus_temperature(40, rng=5).values
    stepped = OnlinePipeline(EWMAMetric(), H=H, grid=GRID)
    rows = [stepped.feed_batch([value]) for value in values]
    batched = OnlinePipeline(EWMAMetric(), H=H, grid=GRID)
    matrix = batched.feed_batch(values)
    assert all(len(row) == 0 for row in rows[:H])
    for index, row in enumerate(rows[H:]):
        for name in ("t", "mean", "volatility", "probabilities"):
            assert np.array_equal(
                getattr(row, name), getattr(matrix, name)[index : index + 1]
            )
    streamed, whole = stepped.forecasts(), batched.forecasts()
    for name in ("times", "means", "volatilities", "lowers", "uppers"):
        assert np.array_equal(getattr(streamed, name), getattr(whole, name))


def test_feed_batch_returns_only_new_rows():
    values = campus_temperature(100, rng=1).values
    pipeline = OnlinePipeline(VariableThresholdingMetric(), H=H, grid=GRID)
    warm = pipeline.feed_batch(values[: H - 1])
    assert len(warm) == 0
    first = pipeline.feed_batch(values[H - 1 : H + 9])
    assert first.t.tolist() == list(range(H, H + 9))
    empty = pipeline.feed_batch(np.empty(0))
    assert len(empty) == 0
    assert pipeline.t == H + 9


def test_feed_batch_rejects_matrices():
    pipeline = OnlinePipeline(VariableThresholdingMetric(), H=H, grid=GRID)
    with pytest.raises(InvalidParameterError):
        pipeline.feed_batch(np.zeros((4, 4)))


def test_state_capture_and_resume():
    values = campus_temperature(150, rng=21).values
    continuous = OnlinePipeline(VariableThresholdingMetric(), H=H, grid=GRID)
    continuous.feed_batch(values)

    first = OnlinePipeline(VariableThresholdingMetric(), H=H, grid=GRID)
    first.feed_batch(values[:90])
    window, next_t = first.window_values, first.t
    assert window.size == H and next_t == 90

    resumed = OnlinePipeline(VariableThresholdingMetric(), H=H, grid=GRID)
    resumed.load_state(window, next_t)
    matrix = resumed.feed_batch(values[90:])
    assert matrix.t.tolist() == list(range(90, 150))
    reference = continuous.to_view("ref").columns
    suffix = reference.probability[reference.t >= 90]
    assert np.array_equal(matrix.probabilities.ravel(), suffix)


@pytest.mark.parametrize(
    "metric_cls",
    [
        pytest.param(
            ARMAGARCHMetric,
            id="arma_garch",
            marks=pytest.mark.xfail(
                strict=True,
                reason=(
                    "the warm-start optimum lives on the metric object and "
                    "is not part of load_state / series.json: the first fit "
                    "after a resume starts cold and lands on a nearby but "
                    "different optimum (ROADMAP, oracle item)"
                ),
            ),
        ),
        pytest.param(
            CGARCHMetric,
            id="cgarch",
            marks=pytest.mark.xfail(
                strict=True,
                reason=(
                    "the cleaning state (cleaned window, out-of-bound run, "
                    "sv_max, pending forecast) and the wrapped ARMA-GARCH's "
                    "warm-start optimum live on the metric object and are "
                    "not part of load_state / series.json: a resume "
                    "restarts the cleaning from the raw window and the "
                    "first fit starts cold (ROADMAP item 4(3))"
                ),
            ),
        ),
        pytest.param(
            lambda: KalmanGARCHMetric(em_max_iter=10), id="kalman_garch"
        ),
    ],
)
def test_resume_matches_uninterrupted(metric_cls):
    """Capture, restore, continue: the rows an uninterrupted writer emits."""
    values = campus_temperature(110, rng=23).values
    continuous = OnlinePipeline(metric_cls(), H=H, grid=GRID)
    expected = continuous.feed_batch(values)

    first = OnlinePipeline(metric_cls(), H=H, grid=GRID)
    first.feed_batch(values[:70])
    resumed = OnlinePipeline(metric_cls(), H=H, grid=GRID)
    resumed.load_state(first.window_values, first.t)
    matrix = resumed.feed_batch(values[70:])

    assert matrix.t.tolist() == list(range(70, 110))
    assert np.array_equal(matrix.mean, expected.mean[-40:])
    assert np.array_equal(matrix.volatility, expected.volatility[-40:])


def test_load_state_validation():
    pipeline = OnlinePipeline(VariableThresholdingMetric(), H=H, grid=GRID)
    with pytest.raises(InvalidParameterError):
        pipeline.load_state(np.zeros(H + 1), H + 1)  # Oversized window.
    with pytest.raises(InvalidParameterError):
        pipeline.load_state(np.zeros(10), 5)  # t behind the window.
    with pytest.raises(InvalidParameterError):
        # Undersized window for a warm pipeline: accepting it would
        # silently re-enter warm-up and emit a gapped time range.
        pipeline.load_state(np.zeros(10), 100)
    with pytest.raises(InvalidParameterError):
        pipeline.load_state(np.zeros(H), -1)
    with pytest.raises(DataError, match="non-finite"):
        pipeline.load_state(np.append(np.zeros(9), np.nan), 10)
    # Mid-warm-up state (fewer than H values, next_t == size) is legal.
    pipeline.load_state(np.zeros(10), 10)
    assert pipeline.t == 10


def test_load_state_discards_retained_history():
    values = campus_temperature(90, rng=7).values
    pipeline = OnlinePipeline(VariableThresholdingMetric(), H=H, grid=GRID)
    pipeline.feed_batch(values)
    pipeline.load_state(values[-H:], 90)
    pipeline.feed_batch(values[:20])
    view = pipeline.to_view("resumed")
    # Only post-restore rows: no stale t from before the rewind.
    assert view.times == list(range(90, 110))


def test_retain_history_flag():
    values = campus_temperature(80, rng=2).values
    pipeline = OnlinePipeline(
        VariableThresholdingMetric(), H=H, grid=GRID, retain_history=False
    )
    matrix = pipeline.feed_batch(values)
    assert len(matrix) == 80 - H
    with pytest.raises(InvalidParameterError):
        pipeline.to_view()
    with pytest.raises(InvalidParameterError):
        pipeline.forecasts()
    row = pipeline.feed_batch([21.0])  # One value still emits a row.
    assert len(row) == 1
