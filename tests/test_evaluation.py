"""Tests for PIT, density distance and the ARCH-effect test."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.density_distance import (
    density_distance,
    density_distance_from_pit,
)
from repro.evaluation.volatility_test import engle_arch_test, rolling_arch_test
from repro.exceptions import DataError, InvalidParameterError
from repro.metrics.base import DensitySeries
from repro.timeseries.garch import GARCHModel, GARCHParams
from repro.timeseries.series import TimeSeries


def _true_model_forecasts(n, rng):
    """Forecasts that *are* the generating model: PIT must be uniform."""
    sigmas = 0.5 + rng.uniform(0.0, 2.0, size=n)
    means = rng.normal(0.0, 5.0, size=n)
    values = means + sigmas * rng.standard_normal(n)
    forecasts = DensitySeries.from_columns(
        np.arange(n), means, sigmas, means - 3 * sigmas, means + 3 * sigmas,
        variance=sigmas**2,
    )
    return forecasts, TimeSeries(values)


def _inflated(forecasts):
    """Every variance 25x, the bounds kept."""
    return DensitySeries.from_columns(
        forecasts.times, forecasts.means, 5.0 * forecasts.volatilities,
        forecasts.lowers, forecasts.uppers, variance=25.0 * forecasts.variances,
    )


class TestPIT:
    def test_true_model_gives_uniform_pit(self, rng):
        forecasts, series = _true_model_forecasts(3000, rng)
        z = forecasts.pit(series)
        # Kolmogorov-Smirnov style check on the empirical CDF.
        grid = np.sort(z)
        uniform = (np.arange(1, z.size + 1)) / z.size
        assert float(np.max(np.abs(grid - uniform))) < 0.03

    def test_misscaled_model_gives_clustered_pit(self, rng):
        forecasts, series = _true_model_forecasts(1000, rng)
        # Inflate every variance 25x: transforms cluster around 0.5.
        inflated = _inflated(forecasts)
        z = inflated.pit(series)
        assert float(np.std(z)) < 0.12


class TestDensityDistance:
    def test_uniform_pit_scores_near_zero(self):
        z = np.linspace(0.001, 0.999, 5000)
        assert density_distance_from_pit(z) < 0.05

    def test_clustered_pit_scores_high(self):
        z = np.full(1000, 0.5)
        assert density_distance_from_pit(z) > 2.0

    def test_one_sided_pit_scores_highest(self):
        z = np.full(1000, 0.999)
        assert density_distance_from_pit(z) > 4.0

    def test_better_calibration_scores_lower(self, rng):
        forecasts, series = _true_model_forecasts(2000, rng)
        good = density_distance(forecasts, series)
        inflated = _inflated(forecasts)
        bad = density_distance(inflated, series)
        assert bad > 3.0 * good

    @pytest.mark.parametrize("n_bins", [2, 10, 100])
    def test_empirical_cdf_is_the_share_below_each_interior_edge(self, rng, n_bins):
        edges = np.linspace(0.0, 1.0, n_bins + 1)
        for z in (
            rng.uniform(size=500),
            rng.beta(0.5, 2.0, size=500),
            np.round(rng.uniform(size=500), 2),
            rng.choice(edges, size=500),
        ):
            observed = np.array([np.mean(z < edge) for edge in edges[1:-1]])
            expected = np.sqrt(np.sum((edges[1:-1] - observed) ** 2))
            assert density_distance_from_pit(z, n_bins=n_bins) == expected

    def test_out_of_range_pit_rejected(self):
        with pytest.raises(DataError):
            density_distance_from_pit(np.array([0.5, 1.2]))

    def test_n_bins_validation(self):
        with pytest.raises(InvalidParameterError):
            density_distance_from_pit(np.array([0.5]), n_bins=1)


class TestEngleArchTest:
    def test_garch_errors_reject_iid(self):
        params = GARCHParams(
            omega=0.1, alpha=np.array([0.3]), beta=np.array([0.6])
        )
        shocks = GARCHModel.simulate(params, 3000, rng=0)
        result = engle_arch_test(shocks, m=2)
        assert result.reject_iid
        assert result.p_value < 0.01

    def test_iid_errors_accept_null(self, rng):
        result = engle_arch_test(rng.standard_normal(3000), m=2)
        assert not result.reject_iid

    def test_statistic_positive_and_critical_matches_chi2(self):
        from scipy import stats as scipy_stats

        params = GARCHParams(
            omega=0.1, alpha=np.array([0.3]), beta=np.array([0.5])
        )
        shocks = GARCHModel.simulate(params, 500, rng=1)
        result = engle_arch_test(shocks, m=3, alpha=0.05)
        assert result.critical_value == pytest.approx(
            scipy_stats.chi2.ppf(0.95, df=3)
        )

    def test_degenerate_window_gives_infinite_statistic(self):
        result = engle_arch_test(np.zeros(50), m=1)
        assert result.statistic == float("inf")
        assert result.reject_iid

    def test_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            engle_arch_test(rng.standard_normal(100), m=0)
        with pytest.raises(InvalidParameterError):
            engle_arch_test(rng.standard_normal(100), m=1, alpha=1.5)
        with pytest.raises(DataError):
            engle_arch_test(rng.standard_normal(4), m=2)


class TestRollingArchTest:
    def test_heteroskedastic_series_rejects(self):
        params = GARCHParams(
            omega=0.1, alpha=np.array([0.35]), beta=np.array([0.55])
        )
        shocks = GARCHModel.simulate(params, 3000, rng=2)
        series = TimeSeries(np.asarray(shocks))
        result = rolling_arch_test(series, m=1, H=180, n_windows=40)
        assert result.reject_iid

    def test_homoskedastic_series_accepts(self, rng):
        series = TimeSeries(rng.standard_normal(3000))
        result = rolling_arch_test(series, m=1, H=180, n_windows=40)
        assert not result.reject_iid

    def test_window_validation(self, rng):
        series = TimeSeries(rng.standard_normal(100))
        with pytest.raises(InvalidParameterError):
            rolling_arch_test(series, m=8, H=10)
