"""Tests for the dynamic density metrics (UT, VT, ARMA-GARCH, Kalman-GARCH)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import campus_temperature
from repro.evaluation.calibration import coverage_curve
from repro.exceptions import DataError, InvalidParameterError
from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.metrics.base import GAUSSIAN, UNIFORM, DensityForecast, DensitySeries
from repro.metrics.kalman_garch import KalmanGARCHMetric
from repro.metrics.registry import available_metrics, create_metric, register_metric
from repro.metrics.uniform_threshold import UniformThresholdingMetric
from repro.metrics.variable_threshold import VariableThresholdingMetric
from repro.timeseries.series import TimeSeries


#: Constructor arguments without a default, by registered name.
_REQUIRED_PARAMS = {
    "uniform_threshold": {"threshold": 0.3},
    "ut": {"threshold": 0.3},
}


class TestDensityForecast:
    def test_contains(self):
        forecast = DensityForecast(
            t=0, mean=1.0, volatility=1.0, lower=0.0, upper=2.0,
            family_code=GAUSSIAN, variance=1.0,
        )
        assert forecast.contains(1.5)
        assert not forecast.contains(2.5)


class TestDensitySeries:
    def test_ordering_enforced(self):
        def make(t):
            return DensitySeries.from_columns(
                t, [0.0, 0.0], [1.0, 1.0], [-3.0, -3.0], [3.0, 3.0]
            )

        with pytest.raises(DataError):
            make([5, 5])
        with pytest.raises(DataError):
            make([5, 3])

    def test_from_columns_is_the_constructor(self, gaussian_forecasts):
        with pytest.raises(TypeError):
            DensitySeries(list(gaussian_forecasts))

    def test_rows_are_records_of_the_columns(self, gaussian_forecasts):
        rows = list(gaussian_forecasts)
        assert [f.t for f in rows] == gaussian_forecasts.times.tolist()
        assert [f.mean for f in rows] == gaussian_forecasts.means.tolist()
        assert [f.variance for f in rows] == gaussian_forecasts.variances.tolist()
        assert {f.family_code for f in rows} == {GAUSSIAN}
        assert gaussian_forecasts[-1] == rows[-1]
        assert gaussian_forecasts[1:3] == rows[1:3]

    def test_empty_columns_are_an_empty_series(self):
        empty = DensitySeries.from_columns([], [], [], [], [])
        assert len(empty) == 0 and list(empty) == []
        assert empty.pit(TimeSeries(np.arange(5.0))).shape == (0,)
        with pytest.raises(DataError, match="empty"):
            empty.coverage(TimeSeries(np.arange(5.0)))

    def test_cdf_evaluates_each_row_in_its_own_family(self):
        """Row 0 is ``N(0, 4)``, row 1 is ``U(-2, 2)``: the same point
        lands at each family's own CDF value."""
        mixed = DensitySeries.from_columns(
            [0, 1], [0.0, 0.0], [2.0, 2.0 / np.sqrt(3.0)], [-6.0, -2.0],
            [6.0, 2.0], family=[GAUSSIAN, UNIFORM], variance=[4.0, 4.0 / 3.0],
        )
        np.testing.assert_array_equal(mixed.cdf(np.array([0.0, 0.0])), [0.5, 0.5])
        gaussian_at_one, uniform_at_one = mixed.cdf(np.array([1.0, 1.0]))
        assert uniform_at_one == 0.75
        assert gaussian_at_one == pytest.approx(0.6914625, abs=1e-7)

    def test_vector_views(self, gaussian_forecasts):
        assert gaussian_forecasts.means.shape == (5,)
        assert gaussian_forecasts.volatilities.shape == (5,)
        assert list(gaussian_forecasts.times) == [60, 61, 62, 63, 64]
        # A time-range selection (a WHERE t BETWEEN 61 AND 63) is a slice
        # of the sorted time column.
        lo, hi = np.searchsorted(gaussian_forecasts.times, [61, 63])
        window = DensitySeries.from_columns(*(
            column[lo : hi + 1]
            for column in (
                gaussian_forecasts.times, gaussian_forecasts.means,
                gaussian_forecasts.volatilities, gaussian_forecasts.lowers,
                gaussian_forecasts.uppers,
            )
        ))
        assert list(window.times) == [61, 62, 63]
        np.testing.assert_array_equal(
            window.means, gaussian_forecasts.means[lo : hi + 1]
        )

    def test_pit_values_in_unit_interval(self, campus_series):
        metric = VariableThresholdingMetric()
        forecasts = metric.run(campus_series, 40, step=25)
        z = forecasts.pit(campus_series)
        assert np.all((z >= 0.0) & (z <= 1.0))

    def test_pit_needs_realised_values(self):
        forecast = DensitySeries.from_columns([100], [0.0], [1.0], [-3.0], [3.0])
        short = TimeSeries(np.zeros(10) + np.arange(10))
        with pytest.raises(DataError):
            forecast.pit(short)

    @pytest.mark.parametrize("times", [[-1, 2], [5, 20]], ids=["negative", "past_end"])
    @pytest.mark.parametrize(
        "consumer",
        [
            lambda forecasts, series: forecasts.pit(series),
            lambda forecasts, series: forecasts.coverage(series),
            lambda forecasts, series: coverage_curve(forecasts, series),
        ],
        ids=["pit", "coverage", "coverage_curve"],
    )
    def test_times_outside_the_series_are_refused(self, times, consumer):
        """A time with no realised value is a DataError, never scored
        against another time's value (t = -1 is not the last value)."""
        forecasts = DensitySeries.from_columns(
            times, [4.0, 5.0], [1.0, 1.0], [3.0, 4.0], [5.0, 6.0]
        )
        with pytest.raises(DataError, match="no realised value"):
            consumer(forecasts, TimeSeries(np.arange(10.0)))

    def test_coverage(self, simple_series):
        metric = VariableThresholdingMetric(kappa=3.0)
        forecasts = metric.run(simple_series, 30)
        # kappa=3 Gaussian bounds should cover nearly all realised values.
        assert forecasts.coverage(simple_series) > 0.9


class TestDensitySeriesConstruction:
    """What a row may hold: a Gaussian ``N(mean, variance)`` or a uniform
    ``U(lower, upper)``, with the per-object parameter checks run at
    construction however the series is built."""

    @staticmethod
    def _columns(**overrides):
        columns = dict(
            t=np.array([0, 1]), mean=np.array([1.0, 2.0]),
            volatility=np.array([2.0, 0.5]), lower=np.array([-5.0, 1.0]),
            upper=np.array([7.0, 3.0]),
        )
        columns.update(overrides)
        return columns

    @pytest.mark.parametrize(
        "t", [np.array([3.5, 4.9]), np.array([0.0, np.nan]), np.array([1e19, 2e19])]
    )
    def test_non_integral_times_are_refused(self, t):
        with pytest.raises(DataError, match="'t'"):
            DensitySeries.from_columns(**self._columns(t=t))

    def test_whole_float_times_cast_exactly(self):
        series = DensitySeries.from_columns(**self._columns(t=np.array([3.0, 4.0])))
        assert series.times.dtype == np.int64
        assert series.times.tolist() == [3, 4]

    @pytest.mark.parametrize(
        "codes", [np.array([0.0, 1.5]), np.array([0, 2]), np.array([-1, 0])]
    )
    def test_family_codes_must_name_a_family(self, codes):
        with pytest.raises(DataError):
            DensitySeries.from_columns(**self._columns(), family=codes)

    def test_unknown_family_name_rejected(self):
        with pytest.raises(InvalidParameterError, match="histogram"):
            DensitySeries.from_columns(**self._columns(), family="histogram")

    def test_mixed_family_codes(self):
        series = DensitySeries.from_columns(
            **self._columns(), family=np.array([1.0, 0.0])
        )
        assert series.family_codes.dtype == np.int8
        assert series[0].family_code == UNIFORM
        assert series[1].family_code == GAUSSIAN

    @pytest.mark.parametrize("upper", [-5.0, -6.0, np.inf])
    def test_uniform_row_needs_upper_above_lower(self, upper):
        columns = self._columns(upper=np.array([upper, 3.0]))
        with pytest.raises(InvalidParameterError):
            DensitySeries.from_columns(**columns, family="uniform")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"variance": np.array([4.0, 0.0])},
            {"variance": np.array([np.inf, 0.25])},
            {"volatility": np.array([0.0, 0.5])},
            {"mean": np.array([np.nan, 2.0])},
        ],
    )
    def test_gaussian_row_needs_finite_mean_and_positive_variance(self, overrides):
        with pytest.raises(InvalidParameterError):
            DensitySeries.from_columns(**self._columns(**overrides))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lower": np.array([np.nan, 1.0])},
            {"lower": np.array([-np.inf, 1.0])},
            {"lower": np.array([5.0, 1.0]), "upper": np.array([2.0, 3.0])},
        ],
    )
    def test_gaussian_row_needs_ordered_finite_bounds(self, overrides):
        with pytest.raises(InvalidParameterError, match="t=0"):
            DensitySeries.from_columns(**self._columns(**overrides))

    def test_nan_bound_raises_before_coverage_reads_it(self):
        """At a NaN bound the row used to count as a miss: coverage 0.5."""
        with pytest.raises(InvalidParameterError, match="t=0"):
            series = DensitySeries.from_columns(
                **self._columns(lower=np.array([np.nan, 1.0]))
            )
            series.coverage(TimeSeries([0.5, 2.0]))

    def test_gaussian_row_accepts_equal_bounds(self):
        """``kappa = 0`` puts both bounds on the mean."""
        series = DensitySeries.from_columns(
            **self._columns(lower=np.array([1.0, 2.0]), upper=np.array([1.0, 2.0]))
        )
        assert series.coverage(TimeSeries([1.0, 0.0])) == 0.5

    def test_rows_keep_their_variance(self):
        """A Gaussian row's exact variance, not ``volatility ** 2``."""
        series = DensitySeries.from_columns(
            [0], [1.0], [0.3], [-0.9], [2.9], variance=[0.1]
        )
        assert series[0].variance == 0.1
        _mask, _mu, sigma = series.gaussian_params()
        assert sigma[0] == np.sqrt(0.1)


class TestUniformThresholding:
    def test_emits_uniform_centred_on_forecast(self, simple_series):
        metric = UniformThresholdingMetric(threshold=0.5)
        forecast = metric.infer(simple_series.values[:60], t=60)
        assert forecast.family_code == UNIFORM
        assert forecast.upper - forecast.lower == pytest.approx(1.0)
        assert (forecast.lower + forecast.upper) / 2 == pytest.approx(forecast.mean)

    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError):
            UniformThresholdingMetric(threshold=0.0)

    def test_tracks_linear_trend(self):
        values = np.arange(50, dtype=float)
        metric = UniformThresholdingMetric(threshold=1.0)
        forecast = metric.infer(values, t=50)
        assert forecast.mean == pytest.approx(50.0, abs=0.5)


class TestVariableThresholding:
    def test_emits_gaussian_with_window_variance(self, rng):
        window = rng.normal(10.0, 2.0, size=80)
        metric = VariableThresholdingMetric()
        forecast = metric.infer(window, t=80)
        assert forecast.family_code == GAUSSIAN
        assert forecast.volatility == pytest.approx(np.std(window, ddof=1), rel=1e-6)

    def test_constant_window_variance_floored(self):
        metric = VariableThresholdingMetric()
        forecast = metric.infer(np.full(30, 7.0), t=30)
        assert forecast.volatility > 0.0

    def test_kappa_bounds(self, rng):
        window = rng.normal(size=60)
        metric = VariableThresholdingMetric(kappa=2.0)
        forecast = metric.infer(window, t=60)
        assert forecast.upper - forecast.mean == pytest.approx(
            2.0 * forecast.volatility
        )


class TestARMAGARCH:
    def test_gaussian_output_with_positive_volatility(self, campus_series):
        metric = ARMAGARCHMetric()
        forecast = metric.infer(campus_series.values[:80], t=80)
        assert forecast.family_code == GAUSSIAN
        assert forecast.volatility > 0.0
        assert forecast.lower < forecast.mean < forecast.upper

    def test_kappa_scaling_of_bounds(self, campus_series):
        window = campus_series.values[:60]
        narrow = ARMAGARCHMetric(kappa=1.0, warm_start=False).infer(window, 60)
        wide = ARMAGARCHMetric(kappa=3.0, warm_start=False).infer(window, 60)
        assert wide.upper - wide.lower == pytest.approx(
            3.0 * (narrow.upper - narrow.lower), rel=1e-6
        )

    def test_volatility_responds_to_regime(self, rng):
        """A turbulent window must yield a wider density than a calm one."""
        calm = 10.0 + 0.01 * rng.standard_normal(60)
        turbulent = 10.0 + 1.5 * rng.standard_normal(60)
        metric = ARMAGARCHMetric(warm_start=False)
        sigma_calm = metric.infer(calm, 60).volatility
        metric.reset()
        sigma_turbulent = metric.infer(turbulent, 60).volatility
        assert sigma_turbulent > 5.0 * sigma_calm

    def test_warm_start_does_not_change_quality_materially(self, campus_series):
        from repro.evaluation.density_distance import density_distance

        warm = ARMAGARCHMetric(warm_start=True).run(campus_series, 50, step=10)
        cold = ARMAGARCHMetric(warm_start=False).run(campus_series, 50, step=10)
        dd_warm = density_distance(warm, campus_series)
        dd_cold = density_distance(cold, campus_series)
        assert dd_warm == pytest.approx(dd_cold, abs=0.25)

    def test_run_rejects_window_below_minimum(self, campus_series):
        metric = ARMAGARCHMetric(p=2, q=2)
        with pytest.raises(InvalidParameterError):
            metric.run(campus_series, H=3)

    def test_reset_clears_warm_state(self):
        metric = ARMAGARCHMetric()
        metric._last_garch_params = "sentinel"
        metric.reset()
        assert metric._last_garch_params is None


class TestKalmanGARCH:
    def test_gaussian_output(self, campus_series):
        metric = KalmanGARCHMetric(em_max_iter=5)
        forecast = metric.infer(campus_series.values[:60], t=60)
        assert forecast.family_code == GAUSSIAN
        assert forecast.volatility > 0.0

    def test_tracks_level(self, rng):
        window = np.full(50, 20.0) + rng.normal(0, 0.1, 50)
        metric = KalmanGARCHMetric(em_max_iter=10)
        forecast = metric.infer(window, t=50)
        assert forecast.mean == pytest.approx(20.0, abs=0.5)

    def test_counts_cold_started_garch_evaluations(self, campus_series):
        metric = KalmanGARCHMetric(em_max_iter=5)
        assert metric.garch_evaluations_ == 0
        window = campus_series.values[:60]
        first = metric.infer(window, t=60)
        once = metric.garch_evaluations_
        assert once > 0
        # No warm state: the same window costs the same fit again.
        assert metric.infer(window, t=60) == first
        assert metric.garch_evaluations_ == 2 * once

    def test_em_iter_validation(self):
        with pytest.raises(InvalidParameterError):
            KalmanGARCHMetric(em_max_iter=0)


class TestRunLoop:
    def test_run_times_match_step(self, campus_series):
        metric = VariableThresholdingMetric()
        forecasts = metric.run(campus_series, 40, step=50)
        times = list(forecasts.times)
        assert times == list(range(40, len(campus_series), 50))

    def test_run_empty_range_rejected(self, campus_series):
        metric = VariableThresholdingMetric()
        with pytest.raises(DataError):
            metric.run(campus_series, 40, start=len(campus_series), stop=None)

    @pytest.mark.parametrize("name", available_metrics())
    def test_series_without_a_full_window_raises_data_error(self, name):
        # One exception type for every metric, C-GARCH's cleaning pass
        # included, so a caller catching DataError misses none of them.
        metric = create_metric(name, **_REQUIRED_PARAMS.get(name, {}))
        with pytest.raises(DataError):
            metric.run(campus_temperature(50, rng=12), 60)


class TestRegistry:
    def test_all_builtins_available(self):
        names = available_metrics()
        for expected in (
            "uniform_threshold", "variable_threshold", "arma_garch",
            "kalman_garch", "cgarch",
        ):
            assert expected in names

    def test_create_with_params(self):
        metric = create_metric("arma_garch", p=2, kappa=2.5)
        assert metric.p == 2
        assert metric.kappa == 2.5

    def test_aliases(self):
        assert isinstance(create_metric("ut", threshold=1.0), UniformThresholdingMetric)
        assert isinstance(create_metric("VT"), VariableThresholdingMetric)
        assert isinstance(create_metric("garch"), ARMAGARCHMetric)

    def test_unknown_metric_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown metric"):
            create_metric("no_such_metric")

    def test_bad_params_reported(self):
        with pytest.raises(InvalidParameterError, match="invalid parameters"):
            create_metric("arma_garch", nonsense=True)

    def test_custom_registration(self):
        register_metric("custom_vt", VariableThresholdingMetric)
        assert isinstance(create_metric("custom_vt"), VariableThresholdingMetric)
