"""Tests for the extension layer: EWMA metric, calibration, stream queries,
humidity data."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import campus_humidity, campus_temperature
from repro.db.prob_view import ProbTuple, ProbabilisticView
from repro.db.stream_queries import (
    exceedance_probability,
    expected_time_above,
    sustained_exceedance_probability,
    windowed_expected_value,
)
from repro.evaluation.calibration import (
    calibration_report,
    coverage_curve,
    ks_uniformity_test,
    pit_histogram,
)
from repro.distributions import gaussian_cdf, uniform_cdf
from repro.exceptions import DataError, InvalidParameterError
from repro.metrics.base import GAUSSIAN, UNIFORM, DensitySeries
from repro.metrics.ewma import EWMAMetric
from repro.metrics.registry import create_metric
from repro.metrics.uniform_threshold import UniformThresholdingMetric
from repro.metrics.variable_threshold import VariableThresholdingMetric
from repro.timeseries.stats import rolling_variance
from view_helpers import view_from_rows


class TestEWMAMetric:
    def test_registered(self):
        assert isinstance(create_metric("ewma"), EWMAMetric)

    def test_tracks_level(self, rng):
        window = 20.0 + rng.normal(0, 0.1, 60)
        forecast = EWMAMetric().infer(window, t=60)
        assert forecast.mean == pytest.approx(20.0, abs=0.3)

    def test_variance_adapts_to_turbulence(self, rng):
        calm = 10.0 + 0.01 * rng.standard_normal(60)
        turbulent = 10.0 + 2.0 * rng.standard_normal(60)
        metric = EWMAMetric()
        assert (
            metric.infer(turbulent, 60).volatility
            > 10.0 * metric.infer(calm, 60).volatility
        )

    def test_much_faster_than_arma_garch(self, campus_series):
        import time

        from repro.metrics.arma_garch import ARMAGARCHMetric

        start = time.perf_counter()
        EWMAMetric().run(campus_series, 60, step=5)
        ewma_time = time.perf_counter() - start
        start = time.perf_counter()
        ARMAGARCHMetric().run(campus_series, 60, step=5)
        garch_time = time.perf_counter() - start
        assert ewma_time < garch_time / 5.0

    def test_decay_validation(self):
        with pytest.raises(InvalidParameterError):
            EWMAMetric(mean_decay=0.0)
        with pytest.raises(InvalidParameterError):
            EWMAMetric(variance_decay=1.0)

    def test_short_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            EWMAMetric().infer(np.array([1.0, 2.0]), t=2)


class TestCalibration:
    def test_pit_histogram_uniform(self):
        z = np.linspace(0.001, 0.999, 1000)
        histogram = pit_histogram(z, n_bins=10)
        np.testing.assert_allclose(histogram, 0.1, atol=0.01)

    def test_pit_histogram_validation(self):
        with pytest.raises(DataError):
            pit_histogram(np.array([1.2]))
        with pytest.raises(InvalidParameterError):
            pit_histogram(np.array([0.5]), n_bins=1)

    def test_ks_detects_miscalibration(self, rng):
        uniform = rng.uniform(size=2000)
        clustered = 0.5 + 0.01 * rng.standard_normal(2000)
        _s, p_good = ks_uniformity_test(uniform)
        _s, p_bad = ks_uniformity_test(np.clip(clustered, 0, 1))
        assert p_good > 0.01
        assert p_bad < 1e-10

    def test_coverage_curve_nominal_vs_empirical(self, campus_series):
        forecasts = VariableThresholdingMetric().run(campus_series, 40, step=5)
        rows = coverage_curve(forecasts, campus_series, kappas=(1.0, 3.0))
        assert rows[0]["kappa"] == 1.0
        # kappa=3 nominal coverage for Gaussians is ~0.9973.
        assert rows[1]["nominal"] == pytest.approx(0.9973, abs=1e-3)
        assert 0.0 <= rows[1]["empirical"] <= 1.0

    def test_full_report(self, campus_series):
        forecasts = VariableThresholdingMetric().run(campus_series, 40, step=5)
        report = calibration_report(forecasts, campus_series)
        assert report.density_distance > 0
        assert report.histogram.sum() == pytest.approx(1.0)
        assert 0.0 <= report.worst_coverage_gap() <= 1.0

    def test_kappa_validation(self, campus_series):
        forecasts = VariableThresholdingMetric().run(campus_series, 40, step=20)
        with pytest.raises(InvalidParameterError):
            coverage_curve(forecasts, campus_series, kappas=(0.0,))
        with pytest.raises(InvalidParameterError):
            coverage_curve(forecasts, campus_series, kappas=())


def _calibration_series(series, family: str) -> DensitySeries:
    gaussian = VariableThresholdingMetric().run(series, 40, step=5)
    uniform = UniformThresholdingMetric(threshold=0.3).run(series, 40, step=5)
    if family == "gaussian":
        return gaussian
    if family == "uniform":
        return uniform
    odd = np.arange(len(gaussian)) % 2 == 1

    def pick(g, u):
        return np.where(odd, g, u)

    return DensitySeries.from_columns(
        gaussian.times,
        pick(gaussian.means, uniform.means),
        pick(gaussian.volatilities, uniform.volatilities),
        pick(gaussian.lowers, uniform.lowers),
        pick(gaussian.uppers, uniform.uppers),
        family=np.where(odd, GAUSSIAN, UNIFORM),
        variance=pick(gaussian.variances, uniform.volatilities**2),
    )


class TestCoverageCurveColumns:
    def test_empty_series_is_a_data_error(self, campus_series):
        with pytest.raises(DataError):
            coverage_curve(
                DensitySeries.from_columns([], [], [], [], []), campus_series
            )

    @pytest.mark.parametrize("family", ["gaussian", "uniform", "mixed"])
    def test_matches_per_forecast_loop(self, campus_series, family):
        forecasts = _calibration_series(campus_series, family)
        kappas = (0.5, 1.0, 1.7, 3.0)
        rows = coverage_curve(forecasts, campus_series, kappas)
        for row, kappa in zip(rows, kappas):
            hits = 0
            nominal = 0.0
            for forecast in forecasts:
                sigma = np.sqrt(forecast.variance)
                low = forecast.mean - kappa * sigma
                high = forecast.mean + kappa * sigma
                if forecast.family_code == GAUSSIAN:
                    cdf = gaussian_cdf(np.array([low, high]), forecast.mean, sigma)
                else:
                    cdf = uniform_cdf(
                        np.array([low, high]), forecast.lower, forecast.upper
                    )
                nominal += cdf[1] - cdf[0]
                hits += low <= campus_series[forecast.t] <= high
            assert row["kappa"] == kappa
            assert abs(row["nominal"] - nominal / len(forecasts)) <= 1e-12
            assert abs(row["empirical"] - hits / len(forecasts)) <= 1e-12


def _simple_view() -> ProbabilisticView:
    """Three times, two ranges each, easily hand-checkable."""
    tuples = [
        ProbTuple(t=1, low=0.0, high=10.0, probability=0.7),
        ProbTuple(t=1, low=10.0, high=20.0, probability=0.3),
        ProbTuple(t=2, low=0.0, high=10.0, probability=0.4),
        ProbTuple(t=2, low=10.0, high=20.0, probability=0.6),
        ProbTuple(t=3, low=0.0, high=10.0, probability=0.2),
        ProbTuple(t=3, low=10.0, high=20.0, probability=0.8),
    ]
    return view_from_rows("v", tuples)


class TestStreamQueries:
    def test_exceedance_full_and_partial(self):
        view = _simple_view()
        out = exceedance_probability(view, 10.0)
        assert out[1] == pytest.approx(0.3)
        # Threshold inside the lower range: half of its mass counts.
        partial = exceedance_probability(view, 5.0)
        assert partial[1] == pytest.approx(0.7 * 0.5 + 0.3)

    def test_windowed_expected_value(self):
        view = _simple_view()
        out = windowed_expected_value(view, window=2)
        # E[t=1] = .7*5 + .3*15 = 8; E[t=2] = .4*5+.6*15 = 11; mean 9.5.
        assert out[2] == pytest.approx(9.5)
        assert set(out) == {2, 3}

    def test_sustained_exceedance_multiplies(self):
        view = _simple_view()
        out = sustained_exceedance_probability(view, 10.0, window=3)
        assert out[3] == pytest.approx(0.3 * 0.6 * 0.8)

    def test_expected_time_above_is_linear(self):
        view = _simple_view()
        out = expected_time_above(view, 10.0, window=3)
        assert out[3] == pytest.approx(0.3 + 0.6 + 0.8)

    def test_window_validation(self):
        view = _simple_view()
        with pytest.raises(InvalidParameterError):
            windowed_expected_value(view, 0)
        with pytest.raises(InvalidParameterError):
            sustained_exceedance_probability(view, 10.0, window=10)


class TestHumidityData:
    def test_physical_range(self):
        series = campus_humidity(2000, rng=0)
        assert series.values.min() >= 5.0
        assert series.values.max() <= 100.0

    def test_volatility_regimes_present(self):
        series = campus_humidity(3000, rng=0)
        variances = rolling_variance(series.values, 30)
        assert np.percentile(variances, 90) > 3.0 * np.percentile(variances, 10)

    def test_anticorrelated_with_temperature_diurnal(self):
        n = 1440  # Two days.
        temperature = campus_temperature(n, rng=0)
        humidity = campus_humidity(n, rng=0)
        corr = np.corrcoef(temperature.values, humidity.values)[0, 1]
        assert corr < 0.1  # Warm afternoons are dry.

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            campus_humidity(1)
