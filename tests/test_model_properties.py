"""Property-based tests on the statistical substrates.

These encode the *invariants* of the models rather than point examples:
filters preserve array shapes and positivity, likelihood improves under
fitting, simulators honour their parameters, and the metric layer never
emits an invalid density regardless of window content.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distributions import gaussian_cdf
from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.metrics.ewma import EWMAMetric
from repro.metrics.variable_threshold import VariableThresholdingMetric
from repro.timeseries.arma import ARMAModel
from repro.timeseries.garch import GARCHModel, GARCHParams
from repro.timeseries.kalman import KalmanFilter, KalmanParams

_WINDOWS = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=20, max_value=80),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                       allow_infinity=False),
)

_GARCH_PARAMS = st.builds(
    lambda omega, alpha, beta_fraction: GARCHParams(
        omega=omega,
        alpha=np.array([alpha]),
        # beta chosen as a fraction of the remaining stationarity budget.
        beta=np.array([(0.98 - alpha) * beta_fraction]),
    ),
    omega=st.floats(min_value=1e-4, max_value=2.0),
    alpha=st.floats(min_value=0.0, max_value=0.9),
    beta_fraction=st.floats(min_value=0.0, max_value=0.99),
)


@settings(max_examples=50, deadline=None)
@given(window=_WINDOWS, params=_GARCH_PARAMS)
def test_garch_filter_positive_and_aligned(window, params):
    """The variance filter output is positive and input-aligned, always."""
    variance = GARCHModel().filter_variance(window, params)
    assert variance.shape == window.shape
    assert np.all(variance > 0)
    assert np.all(np.isfinite(variance))


@settings(max_examples=30, deadline=None)
@given(params=_GARCH_PARAMS)
def test_garch_simulation_variance_tracks_unconditional(params):
    """Long-run simulated second moment matches omega / (1 - persistence)."""
    assume(params.persistence < 0.9)  # Keep the required sample size sane.
    shocks = GARCHModel.simulate(params, 6000, rng=0)
    empirical = float(np.mean(np.square(shocks)))
    assert empirical == pytest.approx(
        params.unconditional_variance, rel=0.5
    )


@settings(max_examples=40, deadline=None)
@given(window=_WINDOWS)
def test_garch_fit_is_stationary_on_any_window(window):
    """Whatever the window, the fitted model satisfies the paper's
    constraints (omega > 0, coefficients >= 0, persistence < 1)."""
    model = GARCHModel().fit(window)
    model.params_.validate()
    assert model.forecast_variance() > 0


@settings(max_examples=40, deadline=None)
@given(window=_WINDOWS)
def test_arma_fit_and_forecast_finite_on_any_window(window):
    model = ARMAModel(1, 0).fit(window)
    assert np.isfinite(model.predict_next())
    assert model.residuals_.shape == window.shape


@settings(max_examples=30, deadline=None)
@given(
    window=_WINDOWS,
    state_variance=st.floats(min_value=1e-6, max_value=10.0),
    obs_variance=st.floats(min_value=1e-6, max_value=10.0),
)
def test_kalman_filter_variance_reduction_property(
    window, state_variance, obs_variance
):
    """Filtering never increases state uncertainty beyond the prediction."""
    params = KalmanParams(
        state_variance=state_variance, obs_variance=obs_variance,
        initial_mean=float(window[0]),
    )
    result = KalmanFilter().filter(window, params)
    assert np.all(
        result.filtered_variance <= result.predicted_variance + 1e-12
    )
    assert np.isfinite(result.loglik)


@settings(max_examples=40, deadline=None)
@given(window=_WINDOWS)
def test_metrics_emit_valid_densities_on_any_window(window):
    """Every metric yields a positive-volatility density with ordered
    bounds containing the mean, for arbitrary (finite) window content."""
    for metric in (
        VariableThresholdingMetric(),
        EWMAMetric(),
        ARMAGARCHMetric(warm_start=False),
    ):
        forecast = metric.infer(window, t=len(window))
        assert np.isfinite(forecast.mean)
        assert forecast.volatility > 0
        assert forecast.lower <= forecast.mean <= forecast.upper
        # CDF sanity at the bounds.
        sigma = np.sqrt(forecast.variance)
        cdf_low = gaussian_cdf(forecast.lower, forecast.mean, sigma)
        cdf_high = gaussian_cdf(forecast.upper, forecast.mean, sigma)
        assert 0.0 <= cdf_low <= cdf_high <= 1.0


@settings(max_examples=30, deadline=None)
@given(
    window=_WINDOWS,
    kappa=st.floats(min_value=0.5, max_value=5.0),
)
# A near-constant window whose ARMA forecast lands near 4.9e7 with sigma
# ~1.35: the stored bounds round by ulp(4.9e7) ~ 7.5e-9, i.e. ~5.5e-9 sigma.
@example(window=np.array([0.0] * 25 + [1e-6, 7.0]), kappa=1.0)
def test_kappa_bound_probability_matches_gaussian(window, kappa):
    """For Gaussian metrics, P(lower <= X <= upper) is the kappa coverage,
    independent of the window (Algorithm 1's kappa semantics).

    ``lower`` / ``upper`` are stored float64 values ``mean -/+ kappa *
    sigma``, each rounded by up to one ulp of its own magnitude, which
    moves the coverage by up to ``phi(kappa) * ulp / sigma`` per bound:
    the tolerance adds exactly that term, negligible unless the mean is
    far larger than sigma."""
    from scipy import stats as scipy_stats

    metric = VariableThresholdingMetric(kappa=kappa)
    forecast = metric.infer(window, t=len(window))
    expected = 2.0 * scipy_stats.norm.cdf(kappa) - 1.0
    sigma = np.sqrt(forecast.variance)
    actual = gaussian_cdf(forecast.upper, forecast.mean, sigma) - gaussian_cdf(
        forecast.lower, forecast.mean, sigma
    )
    rounding = (
        scipy_stats.norm.pdf(kappa)
        * (abs(np.spacing(forecast.upper)) + abs(np.spacing(forecast.lower)))
        / sigma
    )
    assert actual == pytest.approx(expected, abs=1e-9 + rounding)
