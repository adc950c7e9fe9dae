"""Columnar/legacy parity for the forecast -> view -> query data path.

The columnar engine (``infer_batch`` + ``build_matrix`` + array-backed
``ProbabilisticView`` + vectorised queries) must replicate the seed
row-at-a-time semantics tuple for tuple.  The reference implementations
below are owned by these tests: one model fit or recursion per window, one
CDF evaluation per row over that row's own columns (eq. 9), one
``ProbTuple`` per range, Python loops per query — and every batch result is
checked against them across Gaussian, uniform, and mixed density series,
however the series was built, with and without the sigma-cache.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.synthetic import campus_temperature
from repro.db.engine import ViewResult
from repro.db.prob_view import ProbTuple, ProbabilisticView
from repro.db.queries import (
    expected_value_query,
    most_probable_range_query,
    range_probability_query,
    threshold_query,
)
from repro.db.stream_queries import (
    exceedance_probability,
    sustained_exceedance_probability,
)
from repro.distributions import gaussian_cdf, uniform_cdf
from repro.metrics.base import (
    GAUSSIAN,
    UNIFORM,
    DensityForecast,
    DensitySeries,
    variance_floor,
)
from repro.metrics.ewma import EWMAMetric
from repro.metrics.uniform_threshold import UniformThresholdingMetric
from repro.metrics.variable_threshold import VariableThresholdingMetric
from repro.obs.trace import QueryTrace
from repro.service import MatrixCache
from repro.service.kernels import compute_chunk
from repro.service.planner import TaskEnvelope
from repro.store import (
    Catalog,
    load_density_series_npz,
    save_density_series_npz,
)
from repro.timeseries.arma import ARMAModel
from repro.timeseries.series import TimeSeries
from repro.timeseries.stats import sample_variance
from repro.view.builder import ViewBuilder
from repro.view.omega import OmegaGrid
from view_helpers import view_from_rows

ATOL = 1e-12


def _gaussian_series(count: int = 60) -> DensitySeries:
    rng = np.random.default_rng(7)
    means = 20.0 + np.cumsum(rng.normal(0.0, 0.3, size=count))
    sigmas = rng.uniform(0.4, 2.5, size=count)
    return DensitySeries.from_columns(
        np.arange(count), means, sigmas, means - 3 * sigmas, means + 3 * sigmas,
        variance=sigmas**2,
    )


def _uniform_series(count: int = 60) -> DensitySeries:
    rng = np.random.default_rng(8)
    means = 5.0 + np.cumsum(rng.normal(0.0, 0.2, size=count))
    half_widths = rng.uniform(0.5, 2.0, size=count)
    lower, upper = means - half_widths, means + half_widths
    variance = (upper - lower) ** 2 / 12.0
    return DensitySeries.from_columns(
        np.arange(count), means, np.sqrt(variance), lower, upper,
        family="uniform", variance=variance,
    )


def _mixed_series(count: int = 60) -> DensitySeries:
    """Even rows from the Gaussian series, odd rows from the uniform one."""
    gaussian = _gaussian_series(count)
    uniform = _uniform_series(count)
    family = np.arange(count) % 2
    odd = family == UNIFORM

    def pick(name):
        return np.where(odd, getattr(uniform, name), getattr(gaussian, name))

    return DensitySeries.from_columns(
        np.arange(count), pick("means"), pick("volatilities"), pick("lowers"),
        pick("uppers"), family=family, variance=pick("variances"),
    )


_SERIES = {
    "gaussian": _gaussian_series,
    "uniform": _uniform_series,
    "mixed": _mixed_series,
}


def _row_cdf(forecast, x):
    """Test-owned per-row CDF: the row's own family over its own columns."""
    if forecast.family_code == GAUSSIAN:
        return gaussian_cdf(x, forecast.mean, np.sqrt(forecast.variance))
    return uniform_cdf(x, forecast.lower, forecast.upper)


def _eq9_rows(forecasts, builder, grid) -> np.ndarray:
    """Test-owned eq. (9): each row's ``diff(P_t(edges))`` from its own
    columns, or the cache's row for a cached Gaussian."""
    rows = []
    for forecast in forecasts:
        if builder.cache is not None and forecast.family_code == GAUSSIAN:
            rows.append(builder.cache.probability_row(forecast.volatility))
        else:
            rows.append(np.diff(_row_cdf(forecast, grid.edges_around(forecast.mean))))
    return np.array(rows).reshape(len(rows), grid.n)


def _seed_view(name, forecasts, builder, grid) -> ProbabilisticView:
    """The seed row path: per-row range expansion into ProbTuples."""
    tuples = []
    for forecast, row in zip(forecasts, _eq9_rows(forecasts, builder, grid)):
        for omega, probability in zip(grid.ranges_around(forecast.mean), row):
            tuples.append(ProbTuple(
                t=forecast.t, low=omega.low, high=omega.high,
                probability=float(np.clip(probability, 0.0, 1.0)),
                label=omega.label,
            ))
    return view_from_rows(name, tuples)


def _from_records(forecasts, _tmp_path=None) -> DensitySeries:
    """The same rows rebuilt through ``from_columns`` from their records."""
    return DensitySeries.from_columns(
        [f.t for f in forecasts],
        [f.mean for f in forecasts],
        [f.volatility for f in forecasts],
        [f.lower for f in forecasts],
        [f.upper for f in forecasts],
        family=[f.family_code for f in forecasts],
        variance=[f.variance for f in forecasts],
    )


def _npz_loaded(forecasts, tmp_path) -> DensitySeries:
    path = tmp_path / "series.npz"
    save_density_series_npz(forecasts, path)
    return load_density_series_npz(path)


_ROUTES = {
    "columns": lambda series, _tmp_path: series,
    "records": _from_records,
    "npz": _npz_loaded,
}


@pytest.mark.parametrize("kind", sorted(_SERIES))
@pytest.mark.parametrize("route", sorted(_ROUTES))
@pytest.mark.parametrize("cached", [False, True])
def test_build_matrix_and_pit_bit_equal_eq9(kind, route, cached, tmp_path):
    """Every build route of every family gives eq. (9) rows and PIT values
    bit-equal to per-row evaluation of each row's own density."""
    series = _SERIES[kind]()
    rows = list(series)
    forecasts = _ROUTES[route](series, tmp_path)
    grid = OmegaGrid(delta=0.25, n=8)
    builder = ViewBuilder(grid)
    if cached:
        builder = builder.with_cache_for(forecasts, distance_constraint=0.05)
    assert np.array_equal(
        builder.build_matrix(forecasts).probabilities,
        _eq9_rows(rows, builder, grid),
    )
    rng = np.random.default_rng(9)
    realised = TimeSeries(
        np.array([f.mean for f in rows]) + rng.normal(0.0, 1.5, len(rows))
    )
    assert np.array_equal(
        forecasts.pit(realised),
        np.array([_row_cdf(f, realised[f.t]) for f in rows]),
    )


def _assert_views_identical(actual: ProbabilisticView,
                            expected: ProbabilisticView) -> None:
    assert len(actual) == len(expected)
    assert actual.times == expected.times
    for a, b in zip(actual, expected):
        assert a.t == b.t
        assert a.low == b.low
        assert a.high == b.high
        assert a.label == b.label
        assert a.probability == pytest.approx(b.probability, abs=ATOL)


@pytest.mark.parametrize("kind", sorted(_SERIES))
@pytest.mark.parametrize("delta,n", [(0.5, 4), (0.25, 10)])
@pytest.mark.parametrize("cached", [False, True])
def test_build_matrix_matches_seed_row_path(kind, delta, n, cached):
    forecasts = _SERIES[kind]()
    grid = OmegaGrid(delta=delta, n=n)
    builder = ViewBuilder(grid)
    if cached:
        builder = builder.with_cache_for(forecasts, distance_constraint=0.05)
    expected = _seed_view("seed", forecasts, builder, grid)

    matrix_view = ProbabilisticView.from_matrix(
        "columnar", builder.build_matrix(forecasts), grid
    )
    _assert_views_identical(matrix_view, expected)


@pytest.mark.parametrize("kind", sorted(_SERIES))
def test_query_results_match_seed_loops(kind):
    forecasts = _SERIES[kind]()
    grid = OmegaGrid(delta=0.5, n=6)
    builder = ViewBuilder(grid)
    view = ProbabilisticView.from_matrix(
        "v", builder.build_matrix(forecasts), grid
    )

    # Seed threshold query: plain scan in tuple order.
    tau = 0.2
    expected_hits = [tup for tup in view if tup.probability >= tau]
    assert threshold_query(view, tau) == expected_hits

    # Seed modal query: max() per time, first-wins on ties.
    modal = most_probable_range_query(view)
    for t in view.times:
        assert modal[t] == max(view.tuples_at(t),
                               key=lambda tup: tup.probability)

    # Seed range-probability query: proportional overlap per tuple.
    low, high = 18.0, 21.0
    out = range_probability_query(view, low, high)
    for t in view.times:
        mass = 0.0
        for tup in view.tuples_at(t):
            overlap = min(high, tup.high) - max(low, tup.low)
            if overlap > 0:
                mass += tup.probability * (overlap / (tup.high - tup.low))
        # Same floats summed in the same order: bit-equal, not approx.
        assert out[t] == min(mass, 1.0)

    # Seed expected-value query: midpoint-weighted mean.
    expectations = expected_value_query(view)
    for t in view.times:
        tuples = view.tuples_at(t)
        mass = sum(tup.probability for tup in tuples)
        if mass <= 0:
            expected = 0.5 * (min(tup.low for tup in tuples)
                              + max(tup.high for tup in tuples))
        else:
            expected = sum(
                tup.probability * 0.5 * (tup.low + tup.high) for tup in tuples
            ) / mass
        assert expectations[t] == pytest.approx(expected, abs=ATOL)

    # Seed exceedance: full mass above, proportional straddle.
    threshold = 20.0
    exceed = exceedance_probability(view, threshold)
    for t in view.times:
        mass = 0.0
        for tup in view.tuples_at(t):
            if tup.low >= threshold:
                mass += tup.probability
            elif tup.high > threshold:
                mass += tup.probability * (
                    (tup.high - threshold) / (tup.high - tup.low)
                )
        assert exceed[t] == pytest.approx(min(mass, 1.0), abs=ATOL)

    # Sustained exceedance: product over each window.
    window = 3
    sustained = sustained_exceedance_probability(view, threshold, window)
    times = view.times
    for index in range(window - 1, len(times)):
        product = 1.0
        for t in times[index - window + 1: index + 1]:
            product *= exceed[t]
        assert sustained[times[index]] == pytest.approx(product, abs=ATOL)


def _ewma_reference(metric, window, t):
    """The seed EWMA: one python recursion over one window."""
    floor = variance_floor(window)
    level = window[0]
    variance = max(float(np.var(window)), floor)
    d, lam = metric.mean_decay, metric.variance_decay
    for value in window[1:]:
        error = value - level
        variance = lam * variance + (1.0 - lam) * error * error
        level = d * level + (1.0 - d) * value
    return _gaussian_reference(t, float(level), max(variance, floor), metric.kappa)


def _variable_threshold_reference(metric, window, t):
    """The seed variable thresholding: one ARMA fit plus the window variance."""
    mean = ARMAModel(metric.p, metric.q).fit(window).predict_next()
    variance = max(sample_variance(window), variance_floor(window))
    return _gaussian_reference(t, mean, variance, metric.kappa)


def _uniform_threshold_reference(metric, window, t):
    """The seed uniform thresholding: one ARMA fit, a centred uniform."""
    mean = ARMAModel(metric.p, metric.q).fit(window).predict_next()
    low, high = mean - metric.threshold, mean + metric.threshold
    variance = (high - low) ** 2 / 12.0
    return DensityForecast(
        t=t, mean=mean, volatility=math.sqrt(variance), lower=low, upper=high,
        family_code=UNIFORM, variance=variance,
    )


def _gaussian_reference(t, mean, variance, kappa):
    sigma = math.sqrt(variance)
    return DensityForecast(
        t=t, mean=mean, volatility=sigma, lower=mean - kappa * sigma,
        upper=mean + kappa * sigma, family_code=GAUSSIAN, variance=variance,
    )


@pytest.mark.parametrize(("metric", "reference"), [
    (VariableThresholdingMetric(), _variable_threshold_reference),
    (UniformThresholdingMetric(threshold=0.4), _uniform_threshold_reference),
    (EWMAMetric(), _ewma_reference),
], ids=["variable_threshold", "uniform_threshold", "ewma"])
def test_vectorised_infer_batch_matches_loop(metric, reference):
    series = campus_temperature(400, rng=3)
    batch = metric.run(series, 40, step=2)
    loop = _from_records([
        reference(metric, window, t)
        for t, window in series.iter_windows(40, step=2)
    ])
    assert list(batch.times) == list(loop.times)
    np.testing.assert_allclose(batch.means, loop.means, atol=1e-9)
    np.testing.assert_allclose(batch.volatilities, loop.volatilities, atol=1e-9)
    np.testing.assert_allclose(batch.lowers, loop.lowers, atol=1e-9)
    np.testing.assert_allclose(batch.uppers, loop.uppers, atol=1e-9)
    assert np.array_equal(batch.family_codes, loop.family_codes)

    # Vectorised PIT equals per-row CDF evaluation.
    legacy_pit = np.array([_row_cdf(f, series[f.t]) for f in batch])
    np.testing.assert_allclose(batch.pit(series), legacy_pit, atol=1e-15)


def test_probability_at_boundary_no_double_count():
    """A value exactly on a shared grid edge counts toward one range only;
    the uppermost edge of a time's range set stays covered."""
    tuples = [
        ProbTuple(t=0, low=0.0, high=1.0, probability=0.5),
        ProbTuple(t=0, low=1.0, high=2.0, probability=0.3),
        ProbTuple(t=0, low=2.0, high=3.0, probability=0.2),
    ]
    view = view_from_rows("edges", tuples)
    assert view.probability_at(0, 1.0) == pytest.approx(0.3)  # not 0.8
    assert view.probability_at(0, 0.0) == pytest.approx(0.5)
    assert view.probability_at(0, 3.0) == pytest.approx(0.2)  # closed top
    assert view.probability_at(0, 3.5) == 0.0


# ----------------------------------------------------------------------
# Per-time grouping: the O(n) run scan against np.unique.
# ----------------------------------------------------------------------
_TIME = st.one_of(
    st.integers(-50, 50), st.integers(-(1 << 63), (1 << 63) - 1)
)


@st.composite
def view_times(draw):
    """Times in runs: sorted, as drawn (unsorted, repeats apart) or shuffled."""
    runs = draw(st.lists(st.tuples(_TIME, st.integers(1, 40)), max_size=8))
    t = np.array(
        [value for value, length in runs for _ in range(length)],
        dtype=np.int64,
    )
    layout = draw(st.sampled_from(("sorted", "drawn", "shuffled")))
    if layout == "sorted":
        return np.sort(t)
    if layout == "shuffled":
        return t[np.array(draw(st.permutations(range(t.size))), dtype=np.int64)]
    return t


def _reference_grouping(t: np.ndarray):
    """The grouping older builds computed: stable argsort, then np.unique."""
    order = np.argsort(t, kind="stable")
    times, starts, counts = np.unique(
        t[order], return_index=True, return_counts=True
    )
    return order, times, starts, counts


@settings(max_examples=200, deadline=None)
@given(t=view_times())
@example(t=np.empty(0, dtype=np.int64))
@example(t=np.array([7], dtype=np.int64))
@example(t=np.repeat(np.array([-3, 4], dtype=np.int64), 2000))
# Descending across the int64 range: np.diff wraps to +1 here, which
# once passed this pair off as sorted.
@example(t=np.array([(1 << 63) - 1, -(1 << 63)], dtype=np.int64))
def test_grouping_matches_argsort_and_unique(t):
    rng = np.random.default_rng(t.size)
    probability = rng.uniform(0.0, 1.0, t.size) / max(t.size, 1)
    view = ProbabilisticView.from_columns(
        "grouped", t, np.zeros(t.size), np.ones(t.size), probability
    )
    columns = view.columns
    order, times, starts, counts = _reference_grouping(t)
    for name, expected in (
        ("order", order), ("times", times), ("starts", starts),
        ("counts", counts),
    ):
        actual = getattr(columns, name)
        assert actual.dtype == np.int64 == expected.dtype, name
        assert np.array_equal(actual, expected), name
    for index, time in enumerate(times.tolist()):
        start = int(starts[index])
        group = probability[order][start:start + int(counts[index])]
        assert view.total_mass_at(time) == float(np.sum(group))


# ----------------------------------------------------------------------
# One row form: every way a view hands out rows gives the same rows.
# ----------------------------------------------------------------------
def _reference_rows(view: ProbabilisticView) -> list[ProbTuple]:
    """Test-owned per-row reference: one scalar read per column per row."""
    columns = view.columns
    return [
        ProbTuple(
            t=int(columns.t[index]),
            low=float(columns.low[index]),
            high=float(columns.high[index]),
            probability=float(columns.probability[index]),
            label=columns.labels[int(columns.label_code[index])],
        )
        for index in range(len(view))
    ]


def _store_loaded_view(root, _tmp_path=None) -> ProbabilisticView:
    return Catalog(root, create=False).snapshot("sensor-0").load_view()


def _records_view(root, _tmp_path=None) -> ProbabilisticView:
    """The store-loaded view rebuilt through ``from_columns`` from its
    own records."""
    return view_from_rows("records", _store_loaded_view(root))


def _revised_view(_root, tmp_path) -> ProbabilisticView:
    """A revised series: the revision's rows load after the base rows they
    shadow, so the view's times are out of order."""
    catalog = Catalog(tmp_path / "revised")
    catalog.save_view("s", view_from_rows("s", [
        (t, 20.0 + lam, 21.0 + lam, 0.25, f"base{lam}")
        for t in range(10) for lam in range(4)
    ]))
    catalog.revise("s", view_from_rows("s", [
        (t, 30.0 + lam, 31.0 + lam, 0.45, f"rev{lam}")
        for t in range(3, 6) for lam in range(2)
    ]))
    view = catalog.snapshot("s").load_view()
    assert np.any(np.diff(view.columns.t) < 0)
    return view


def _empty_view(_root, _tmp_path) -> ProbabilisticView:
    return view_from_rows("empty", [])


def _threshold_entry(view: ProbabilisticView, tau: float):
    """``SELECT threshold(tau)``'s per-series entry over ``view``."""
    envelope = TaskEnvelope(
        series_id="s",
        directory="",
        segments=(),
        cache_key=("s", "", (), (), ()),
        aggregate="threshold",
        arguments=(tau,),
        time_lo=None,
        time_hi=None,
    )
    (entry,) = compute_chunk([envelope], _OneView(view))
    return entry


class _OneView:
    """A stand-in matrix cache holding one already-built view."""

    def __init__(self, view):
        self._view = view

    def get(self, key, load):
        return self._view


@pytest.mark.parametrize(
    "make", [_store_loaded_view, _records_view, _revised_view, _empty_view],
    ids=["sorted", "records", "unsorted", "empty"],
)
def test_every_row_route_returns_the_reference_rows(catalog_root, tmp_path, make):
    view = make(catalog_root, tmp_path)
    expected = _reference_rows(view)
    assert [view[index] for index in range(len(view))] == expected
    assert [view[index - len(view)] for index in range(len(view))] == expected
    with pytest.raises(IndexError):
        view[len(view)]
    assert list(view) == expected
    assert view[:] == expected
    assert view[2:9] == expected[2:9]
    assert view[::-3] == expected[::-3]
    rows = np.array([5, 0, 5, len(view) - 1])[: len(view)]
    assert view.take(rows) == [expected[row] for row in rows.tolist()]
    for time in view.times:
        assert view.tuples_at(time) == [
            item for item in expected if item.t == time
        ]

    tau = 0.3
    hits = [item for item in expected if item.probability >= tau]
    assert threshold_query(view, tau) == hits
    assert most_probable_range_query(view) == {
        time: max(
            (item for item in expected if item.t == time),
            key=lambda item: item.probability,
        )
        for time in view.times
    }
    entry = _threshold_entry(view, tau)
    assert entry.result == hits
    plain = [[i.t, i.low, i.high, i.probability, i.label] for i in hits]
    assert entry.rows() == plain
    payload = ViewResult(view, QueryTrace()).to_dict()
    assert payload["tuples"] == [
        [i.t, i.low, i.high, i.probability, i.label] for i in expected
    ]
    assert all(type(row[0]) is int for row in payload["tuples"])


def test_concurrent_materialisation_of_one_cached_view(
    catalog_root, concurrent_callers
):
    cache = MatrixCache()
    key = ("root", "sensor-0", (), (), ())
    cache.get(key, lambda: _store_loaded_view(catalog_root))
    expected = _reference_rows(cache.get(key, pytest.fail))

    def materialise(index):
        view = cache.get(key, pytest.fail)
        routes = (
            lambda: list(view),
            lambda: view.take(np.arange(len(view))),
            lambda: view[:],
            lambda: [item for t in view.times for item in view.tuples_at(t)],
        )
        return routes[index]()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outcomes = concurrent_callers(materialise, callers=4)
    finally:
        sys.setswitchinterval(interval)
    for outcome in outcomes:
        assert isinstance(outcome, list), outcome
        assert sorted(outcome, key=_tuple_key) == sorted(
            expected, key=_tuple_key
        )
    assert list(cache.get(key, pytest.fail)) == expected


def _tuple_key(item: ProbTuple) -> tuple:
    return (item.t, item.low, item.high)
