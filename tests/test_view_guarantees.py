"""End-to-end guarantee tests for the view layer.

The sigma-cache's contract is that the *probability rows* it serves stay
close to the exact ones whenever the Hellinger constraint holds; these
tests measure the actual row error across whole realistic runs, tying
Theorem 1 to the quantity users consume.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.prob_view import ProbabilisticView
from repro.metrics.base import DensitySeries
from repro.metrics.variable_threshold import VariableThresholdingMetric
from repro.view.builder import ViewBuilder
from repro.view.omega import OmegaGrid


def _forecasts_with_sigmas(sigmas: list[float]) -> DensitySeries:
    sigmas = np.asarray(sigmas)
    means = np.full(sigmas.size, 10.0)
    return DensitySeries.from_columns(
        np.arange(sigmas.size), means, sigmas, means - 3 * sigmas,
        means + 3 * sigmas, variance=sigmas**2,
    )


class TestRowErrorBounds:
    def test_row_error_scales_with_constraint(self):
        """Max row error decreases monotonically as H' tightens."""
        rng = np.random.default_rng(0)
        sigmas = list(rng.uniform(0.2, 20.0, size=120))
        forecasts = _forecasts_with_sigmas(sigmas)
        grid = OmegaGrid(delta=0.5, n=8)
        naive = ViewBuilder(grid)
        exact = naive.build_matrix(forecasts).probabilities
        errors = []
        for constraint in (0.1, 0.02, 0.002):
            cached = naive.with_cache_for(forecasts,
                                          distance_constraint=constraint)
            approx = cached.build_matrix(forecasts).probabilities
            errors.append(float(np.max(np.abs(approx - exact))))
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] < 0.01

    def test_cached_view_total_mass_valid(self, campus_series):
        """Cached probability rows still form a valid probabilistic view."""
        metric = VariableThresholdingMetric()
        forecasts = metric.run(campus_series, 40, step=8)
        grid = OmegaGrid(delta=0.25, n=20)
        builder = ViewBuilder(grid).with_cache_for(
            forecasts, distance_constraint=0.05
        )
        matrix = builder.build_matrix(forecasts)
        view = ProbabilisticView.from_matrix("cached", matrix, grid)
        for t in view.times:
            assert view.total_mass_at(t) <= 1.0 + 1e-6

    def test_memory_constrained_cache_still_valid(self):
        rng = np.random.default_rng(1)
        forecasts = _forecasts_with_sigmas(list(rng.uniform(0.5, 50.0, 60)))
        grid = OmegaGrid(delta=1.0, n=6)
        builder = ViewBuilder(grid).with_cache_for(
            forecasts, memory_constraint=8
        )
        assert len(builder.cache) <= 9
        matrix = builder.build_matrix(forecasts)
        assert np.all(matrix.probabilities >= 0.0)
        assert np.all(matrix.total_mass <= 1.0 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    sigma_low=st.floats(min_value=0.05, max_value=1.0),
    span=st.floats(min_value=1.5, max_value=200.0),
    constraint=st.floats(min_value=0.005, max_value=0.1),
    delta=st.floats(min_value=0.1, max_value=2.0),
)
def test_cached_rows_within_empirical_tolerance(sigma_low, span, constraint, delta):
    """Property: across random sigma populations and grids, cached rows
    differ from exact rows by an amount that shrinks with the constraint.

    The Hellinger bound does not translate linearly to row error, but a
    loose empirical envelope (2 * H') holds comfortably across the space
    this strategy explores and would catch any floor-lookup regression.
    """
    rng = np.random.default_rng(42)
    sigmas = list(rng.uniform(sigma_low, sigma_low * span, size=30))
    forecasts = _forecasts_with_sigmas(sigmas)
    grid = OmegaGrid(delta=delta, n=4)
    naive = ViewBuilder(grid)
    cached = naive.with_cache_for(forecasts, distance_constraint=constraint)
    exact = naive.build_matrix(forecasts).probabilities
    approx = cached.build_matrix(forecasts).probabilities
    assert float(np.max(np.abs(approx - exact))) <= 2.0 * constraint + 1e-9
