"""Tests for the Omega-view builder (eq. 9) and its cached path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import gaussian_cdf
from repro.exceptions import InvalidParameterError
from repro.metrics.base import DensitySeries
from repro.view.builder import ViewBuilder
from repro.view.omega import OmegaGrid
from repro.view.sigma_cache import SigmaCache


def _row(builder, forecast):
    """``builder``'s eq. (9) row for a one-row series, through ``build_matrix``."""
    return builder.build_matrix(forecast).probabilities[0]


def _gaussian_forecast(t=0, mean=10.0, sigma=1.0):
    return DensitySeries.from_columns(
        [t], [mean], [sigma], [mean - 3 * sigma], [mean + 3 * sigma],
        variance=[sigma**2],
    )


def _uniform_forecast(t=0):
    """``U(1, 3)`` about mean 2."""
    return DensitySeries.from_columns(
        [t], [2.0], [np.sqrt(4.0 / 12.0)], [1.0], [3.0], family="uniform"
    )


class TestNaivePath:
    def test_row_matches_eq9(self):
        """rho_lambda = P(edge_{lambda+1}) - P(edge_lambda)."""
        grid = OmegaGrid(delta=1.0, n=4)
        forecast = _gaussian_forecast(mean=5.0, sigma=2.0)
        row = _row(ViewBuilder(grid), forecast)
        expected = np.diff(gaussian_cdf([3.0, 4.0, 5.0, 6.0, 7.0], 5.0, 2.0))
        np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_probabilities_sum_below_one(self):
        grid = OmegaGrid(delta=0.5, n=4)  # Narrow grid truncates tails.
        row = _row(ViewBuilder(grid), _gaussian_forecast(sigma=3.0))
        assert 0.0 < row.sum() < 1.0

    def test_wide_grid_captures_nearly_all_mass(self):
        grid = OmegaGrid(delta=1.0, n=12)  # +/- 6 sigma.
        row = _row(ViewBuilder(grid), _gaussian_forecast(sigma=1.0))
        assert row.sum() == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_distribution_symmetric_row(self):
        grid = OmegaGrid(delta=0.5, n=6)
        row = _row(ViewBuilder(grid), _gaussian_forecast(mean=0.0, sigma=1.0))
        np.testing.assert_allclose(
            row, row[::-1], atol=1e-12
        )

    def test_uniform_forecast_supported(self):
        grid = OmegaGrid(delta=0.5, n=4)
        row = _row(ViewBuilder(grid), _uniform_forecast())
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rows_for_series(self, gaussian_forecasts):
        matrix = ViewBuilder(OmegaGrid(0.5, 6)).build_matrix(gaussian_forecasts)
        assert len(matrix) == len(gaussian_forecasts)
        assert list(matrix.t) == list(gaussian_forecasts.times)
        assert matrix.probabilities.shape == (len(gaussian_forecasts), 6)


class TestCachedPath:
    def test_cache_grid_mismatch_rejected(self):
        cache = SigmaCache(OmegaGrid(0.5, 4), 0.5, 5.0, distance_constraint=0.05)
        with pytest.raises(InvalidParameterError):
            ViewBuilder(OmegaGrid(0.5, 6), cache)

    def test_cached_rows_close_to_naive(self, gaussian_forecasts):
        grid = OmegaGrid(delta=0.5, n=6)
        naive = ViewBuilder(grid)
        cached = naive.with_cache_for(gaussian_forecasts, distance_constraint=0.005)
        exact = naive.build_matrix(gaussian_forecasts).probabilities
        approx = cached.build_matrix(gaussian_forecasts).probabilities
        # A tight Hellinger constraint implies close probability rows.
        np.testing.assert_allclose(approx, exact, atol=0.02)

    def test_cached_row_errors_shrink_with_constraint(self, gaussian_forecasts):
        grid = OmegaGrid(delta=0.5, n=6)
        naive = ViewBuilder(grid)

        def max_error(constraint):
            cached = naive.with_cache_for(
                gaussian_forecasts, distance_constraint=constraint
            )
            exact = naive.build_matrix(gaussian_forecasts).probabilities
            approx = cached.build_matrix(gaussian_forecasts).probabilities
            return float(np.max(np.abs(approx - exact)))

        assert max_error(0.001) <= max_error(0.1) + 1e-12

    def test_uniform_forecast_bypasses_the_cache(self):
        grid = OmegaGrid(delta=0.5, n=4)
        builder = ViewBuilder(grid).with_cache_for(
            _gaussian_forecast(t=0), distance_constraint=0.05
        )
        uniform_forecast = _uniform_forecast(t=1)
        row = _row(builder, uniform_forecast)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(
            row, _row(ViewBuilder(grid), uniform_forecast)
        )

    def test_with_cache_for_sizes_from_forecasts(self, gaussian_forecasts):
        grid = OmegaGrid(delta=0.5, n=6)
        builder = ViewBuilder(grid).with_cache_for(
            gaussian_forecasts, distance_constraint=0.01
        )
        sigmas = gaussian_forecasts.volatilities
        assert builder.cache.min_sigma == pytest.approx(float(sigmas.min()))
        assert builder.cache.max_sigma == pytest.approx(float(sigmas.max()))
