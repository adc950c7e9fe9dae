"""Bit-exactness of the per-window fit kernels against naive references.

The rolling GARCH / ARMA / Kalman fits are the hot path of view creation,
and every optimisation of them must leave each float unchanged: L-BFGS-B
walks a different path as soon as one ``(loglik, gradient)`` pair differs
in its last bit.  The references below are the plain, recompute-everything
implementations (four ``lfilter`` calls per likelihood, ``np.float64``
scalar loops, one ``infer`` per window); they live here, import nothing
private from ``src/`` and are compared with ``==``, never ``allclose``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import optimize, signal

from repro.cleaning.svr_filter import (
    learn_sv_max,
    successive_variance_reduction,
)
from repro.data.synthetic import campus_temperature, car_gps
from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.metrics.cgarch import CGARCHMetric
from repro.metrics.kalman_garch import KalmanGARCHMetric
from repro.timeseries.arma import ARMAModel
from repro.timeseries.garch import GARCHModel, GARCHParams
from repro.timeseries.kalman import KalmanFilter, KalmanParams
from repro.timeseries.series import TimeSeries

FLOOR = 1e-12
MAX_PERSISTENCE = 0.9995


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype=float).tobytes()


# ----------------------------------------------------------------------
# (a) GARCH(1,1): likelihood, gradient and the fit built on them.
# ----------------------------------------------------------------------
def _ref_loglik_and_grad(data, omega, alpha, beta):
    """Four filters, every constant recomputed: the naive evaluation."""
    n = data.size
    initial = max(float(np.var(data)), FLOOR)
    squared = data**2
    lagged_sq = np.concatenate(([initial], squared[:-1]))
    drive = omega + alpha * lagged_sq
    denominator = np.array([1.0, -beta])
    variance, _ = signal.lfilter(
        [1.0], denominator, drive, zi=np.array([beta * initial])
    )
    variance = np.maximum(variance, FLOOR)
    lagged_var = np.concatenate(([initial], variance[:-1]))
    zero = np.array([0.0])
    d_omega, _ = signal.lfilter([1.0], denominator, np.ones(n), zi=zero)
    d_alpha, _ = signal.lfilter([1.0], denominator, lagged_sq, zi=zero)
    d_beta, _ = signal.lfilter([1.0], denominator, lagged_var, zi=zero)
    terms = np.log(2.0 * np.pi * variance) + squared / variance
    loglik = -0.5 * float(np.sum(terms))
    weight = 0.5 * (squared / variance - 1.0) / variance
    gradient = np.array(
        [
            float(np.dot(weight, d_omega)),
            float(np.dot(weight, d_alpha)),
            float(np.dot(weight, d_beta)),
        ]
    )
    return loglik, gradient


def _ref_filter_variance(data, omega, alpha, beta):
    initial = max(float(np.var(data)), FLOOR)
    padded = np.concatenate(([initial], data**2))
    drive = np.full(data.size, omega)
    drive += alpha * padded[: data.size]
    variance, _ = signal.lfilter(
        [1.0], [1.0, -beta], drive, zi=np.array([beta * initial])
    )
    return np.maximum(variance, FLOOR)


def _ref_loglik(data, omega, alpha, beta):
    variance = _ref_filter_variance(data, omega, alpha, beta)
    terms = np.log(2.0 * np.pi * variance) + data**2 / variance
    return float(-0.5 * np.sum(terms))


def _ref_fit(data, warm_start=None):
    """``GARCHModel().fit`` spelled out over the reference objective.

    Returns ``(omega, alpha, beta, loglik, variance, penalised, nfev)``
    where ``penalised`` counts the evaluations that took the
    persistence-penalty branch and ``nfev`` sums ``minimize``'s evaluation
    counts over the starts.
    """
    base_variance = float(np.var(data))
    if base_variance < FLOOR:
        flat = max(base_variance, FLOOR)
        loglik = _ref_loglik(data, flat, 0.0, 0.0)
        return flat, 0.0, 0.0, loglik, np.full(data.size, flat), 0, 0
    penalised = nfev = 0

    def objective(theta):
        nonlocal penalised
        omega = max(float(theta[0]), 1e-10)
        alpha = np.clip(theta[1:2], 0.0, None)
        beta = np.clip(theta[2:], 0.0, None)
        penalty = 0.0
        persistence = float(np.sum(alpha) + np.sum(beta))
        excess = persistence - MAX_PERSISTENCE + 1e-6
        if excess > 0:
            penalised += 1
            penalty = 1e4 * excess**2
        loglik, gradient = _ref_loglik_and_grad(
            data, omega, float(alpha[0]), float(beta[0])
        )
        gradient = -gradient
        if excess > 0:
            gradient[1] += 2e4 * excess
            gradient[2] += 2e4 * excess
        return -loglik + penalty, gradient

    if warm_start is not None:
        starts = [np.array(warm_start, dtype=float)]
    else:
        starts = [
            np.array([base_variance * max(1.0 - a - b, 0.05), a, b])
            for a, b in ((0.10, 0.80), (0.30, 0.50), (0.05, 0.00))
        ]
    bounds = [(1e-10, None), (0.0, MAX_PERSISTENCE), (0.0, MAX_PERSISTENCE)]
    best_theta, best_value = None, math.inf
    for start in starts:
        result = optimize.minimize(
            objective,
            start,
            method="L-BFGS-B",
            bounds=bounds,
            jac=True,
            options={"maxiter": 200},
        )
        nfev += result.nfev
        if np.all(np.isfinite(result.x)) and result.fun < best_value:
            best_value = float(result.fun)
            best_theta = result.x
    omega = max(float(best_theta[0]), 1e-10)
    alpha = float(np.clip(best_theta[1], 0.0, None))
    beta = float(np.clip(best_theta[2], 0.0, None))
    if alpha + beta >= 1.0:
        # Each coefficient is bounded by the cap, not their sum: clamp.
        scale = MAX_PERSISTENCE / (alpha + beta)
        alpha, beta = alpha * scale, beta * scale
    variance = _ref_filter_variance(data, omega, alpha, beta)
    return omega, alpha, beta, -best_value, variance, penalised, nfev


def _garch_pairs():
    """Seeded ``(window, omega, alpha, beta)`` evaluation points."""
    rng = np.random.default_rng(20)
    pairs = []
    for n in (4, 29, 59, 179):
        for _ in range(14):
            scale = 10.0 ** rng.uniform(-3.0, 2.0)
            data = scale * rng.standard_normal(n)
            data[rng.integers(n)] *= 6.0  # One volatility burst.
            base = float(np.var(data))
            for _ in range(3):
                omega = base * rng.uniform(0.01, 1.0)
                alpha, beta = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.6)
                pairs.append((data, omega, alpha, beta))
            pairs.append((data, base * 0.3, rng.uniform(0.0, 0.9), 0.0))
            pairs.append((data, base * 0.3, 0.0, rng.uniform(0.0, 0.9)))
            pairs.append((data, 1e-10, 0.2, 0.7995))
    return pairs


def test_garch11_loglik_and_gradient_bitwise():
    pairs = _garch_pairs()
    assert len(pairs) >= 200
    for data, omega, alpha, beta in pairs:
        params = GARCHParams(
            omega=omega, alpha=np.array([alpha]), beta=np.array([beta])
        )
        loglik, gradient = GARCHModel._loglik_and_grad(data, params)
        reference = _ref_loglik_and_grad(data, omega, alpha, beta)
        assert loglik == reference[0]
        assert _bits(gradient) == _bits(reference[1])


def _fit_windows():
    """Residual-like windows; the integrated ones end on the cap."""
    rng = np.random.default_rng(21)
    windows = [rng.standard_normal(n) * 0.3 for n in (9, 29, 59, 59, 119)]
    # Variance that keeps growing: the optimum sits on the 0.9995 cap.
    for n in (59, 119, 179):
        windows.append(rng.standard_normal(n) * np.linspace(0.05, 3.0, n))
    residuals = ARMAModel(1).fit(campus_temperature(240, rng=5).values)
    windows.append(residuals.residuals_[1:60])
    windows.append(residuals.residuals_[100:159])
    return windows


def _create_view_windows(count=40, H=60):
    """ARMA(1) residuals of consecutive H-windows: what a rolling fit sees."""
    values = campus_temperature(400, rng=0).values
    return [
        ARMAModel(1).fit(values[t - H : t]).residuals_[1:]
        for t in range(H, H + count)
    ]


def _assert_fit_equals_reference(data, warm_start):
    theta = None
    if warm_start is not None:
        theta = [warm_start.omega, warm_start.alpha[0], warm_start.beta[0]]
    omega, alpha, beta, loglik, variance, penalised, nfev = _ref_fit(data, theta)
    model = GARCHModel().fit(data, warm_start=warm_start)
    assert model.params_.omega == omega
    assert _bits(model.params_.alpha) == _bits(np.array([alpha]))
    assert _bits(model.params_.beta) == _bits(np.array([beta]))
    assert model.loglik_ == loglik
    assert _bits(model.conditional_variance_) == _bits(variance)
    assert model.evaluations_ == nfev
    return model, penalised


def test_garch_fit_matches_reference_fit_bitwise():
    penalised_cold = penalised_warm = 0
    previous = None
    for data in _fit_windows():
        model, penalised = _assert_fit_equals_reference(data, None)
        penalised_cold += penalised
        if previous is not None:
            _model, penalised = _assert_fit_equals_reference(data, previous)
            penalised_warm += penalised
        previous = model.params_
    # The persistence-penalty branch was exercised on both start rules.
    assert penalised_cold > 0
    assert penalised_warm > 0
    # A rolling fit's chain: each window starts from the last one's optimum.
    for data in _create_view_windows():
        previous = _assert_fit_equals_reference(data, previous)[0].params_


def test_garch_fit_constant_window_flat_fallback_bitwise():
    for value, n in ((0.0, 29), (2.5, 59), (-1e-9, 8)):
        _assert_fit_equals_reference(np.full(n, value), None)
        warm = GARCHParams(0.1, np.array([0.1]), np.array([0.8]))
        model, _ = _assert_fit_equals_reference(np.full(n, value), warm)
        assert model.params_.persistence == 0.0


# ----------------------------------------------------------------------
# (b) ARMA in-sample predictions.
# ----------------------------------------------------------------------
def _ref_in_sample(data, params, p, q):
    """The scalar one-step loop: lag by lag, AR terms before MA terms."""
    warm = max(p, q)
    fitted = data.copy()
    residuals = np.zeros(data.size)
    for i in range(warm, data.size):
        prediction = params.const
        for j in range(1, p + 1):
            prediction += params.ar[j - 1] * data[i - j]
        for j in range(1, q + 1):
            prediction += params.ma[j - 1] * residuals[i - j]
        fitted[i] = prediction
        residuals[i] = data[i] - prediction
    return fitted, residuals


@pytest.mark.parametrize(
    "p,q", [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 2), (0, 1)]
)
def test_arma_in_sample_matches_scalar_loop_bitwise(p, q):
    rng = np.random.default_rng(22)
    windows = [campus_temperature(90, rng=seed).values for seed in range(4)]
    windows += [car_gps(60, rng=6).values, rng.standard_normal(40) * 1e-4]
    if q == 0:
        windows += [np.full(30, 7.25), rng.standard_normal(2 * p + 2)]
    for data in windows:
        model = ARMAModel(p, q).fit(data)
        fitted, residuals = _ref_in_sample(data, model.params_, p, q)
        assert _bits(model.fitted_) == _bits(fitted)
        assert _bits(model.residuals_) == _bits(residuals)
        usable = residuals[max(p, q) :]
        assert model.params_.sigma2 == float(np.mean(usable**2))


# ----------------------------------------------------------------------
# (c) Kalman filter, RTS smoother and EM.
# ----------------------------------------------------------------------
def _ref_filter(data, p):
    """Forward pass over ``np.float64`` scalars, one index at a time."""
    n = data.size
    predicted_mean = np.empty(n)
    predicted_variance = np.empty(n)
    filtered_mean = np.empty(n)
    filtered_variance = np.empty(n)
    loglik = 0.0
    mean, variance = p.initial_mean, p.initial_variance
    for i in range(n):
        if i > 0:
            mean = p.c1 * filtered_mean[i - 1]
            variance = p.c1**2 * filtered_variance[i - 1] + p.state_variance
        predicted_mean[i] = mean
        predicted_variance[i] = variance
        innovation = data[i] - p.c2 * mean
        innovation_variance = p.c2**2 * variance + p.obs_variance
        innovation_variance = max(innovation_variance, FLOOR)
        gain = p.c2 * variance / innovation_variance
        filtered_mean[i] = mean + gain * innovation
        filtered_variance[i] = max((1.0 - gain * p.c2) * variance, 0.0)
        loglik -= 0.5 * (
            math.log(2.0 * math.pi * innovation_variance)
            + innovation**2 / innovation_variance
        )
    return (
        predicted_mean,
        predicted_variance,
        filtered_mean,
        filtered_variance,
        loglik,
    )


def _ref_smooth(data, p):
    predicted_mean, predicted_variance, filtered_mean, filtered_variance, _ = (
        _ref_filter(data, p)
    )
    n = data.size
    smoothed_mean = filtered_mean.copy()
    smoothed_variance = filtered_variance.copy()
    lag1 = np.zeros(n)
    gains = np.zeros(n)
    for i in range(n - 2, -1, -1):
        next_predicted_var = max(predicted_variance[i + 1], FLOOR)
        gain = filtered_variance[i] * p.c1 / next_predicted_var
        gains[i] = gain
        smoothed_mean[i] = filtered_mean[i] + gain * (
            smoothed_mean[i + 1] - predicted_mean[i + 1]
        )
        smoothed_variance[i] = filtered_variance[i] + gain**2 * (
            smoothed_variance[i + 1] - next_predicted_var
        )
    for i in range(1, n):
        lag1[i] = gains[i - 1] * smoothed_variance[i]
    return smoothed_mean, np.maximum(smoothed_variance, 0.0), lag1


def _ref_fit_em(data, c1=1.0, c2=1.0, max_iter=30, tol=1e-6):
    """EM with two forward passes per iteration (smooth, then loglik)."""
    base_variance = max(float(np.var(data)), FLOOR)
    params = KalmanParams(
        c1=c1,
        c2=c2,
        state_variance=base_variance / 2.0,
        obs_variance=base_variance / 2.0,
        initial_mean=float(data[0]),
        initial_variance=base_variance * 10.0,
    )
    previous_loglik = -math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        means, variances, lag1 = _ref_smooth(data, params)
        second = variances + means**2
        cross = lag1[1:] + means[1:] * means[:-1]
        state_terms = second[1:] - 2.0 * c1 * cross + c1**2 * second[:-1]
        obs_terms = data**2 - 2.0 * c2 * data * means + c2**2 * second
        params = KalmanParams(
            c1=c1,
            c2=c2,
            state_variance=max(float(np.mean(state_terms)), FLOOR),
            obs_variance=max(float(np.mean(obs_terms)), FLOOR),
            initial_mean=float(means[0]),
            initial_variance=params.initial_variance,
        )
        loglik = _ref_filter(data, params)[4]
        if abs(loglik - previous_loglik) < tol * (1.0 + abs(previous_loglik)):
            break
        previous_loglik = loglik
    return params, _ref_filter(data, params), iterations


def _kalman_windows():
    rng = np.random.default_rng(23)
    level = np.cumsum(rng.normal(0.0, 0.3, 80))
    return [
        level + rng.normal(0.0, 1.0, 80),
        campus_temperature(60, rng=3).values,
        car_gps(45, rng=4).values,
        rng.standard_normal(12) * 1e-3,
        np.full(20, 3.5),
    ]


def _assert_filter_result(result, reference):
    assert _bits(result.predicted_mean) == _bits(reference[0])
    assert _bits(result.predicted_variance) == _bits(reference[1])
    assert _bits(result.filtered_mean) == _bits(reference[2])
    assert _bits(result.filtered_variance) == _bits(reference[3])
    assert result.loglik == reference[4]


def test_kalman_filter_and_smoother_match_scalar_loops_bitwise():
    settings = [
        KalmanParams(state_variance=0.09, obs_variance=1.0),
        KalmanParams(
            c1=0.95,
            c2=1.3,
            state_variance=0.4,
            obs_variance=0.02,
            initial_mean=2.0,
            initial_variance=7.0,
        ),
        KalmanParams(state_variance=0.0, obs_variance=0.0),
    ]
    for data in _kalman_windows():
        for params in settings:
            kalman = KalmanFilter()
            _assert_filter_result(
                kalman.filter(data, params), _ref_filter(data, params)
            )
            smoothed = kalman.smooth(data, params)
            reference = _ref_smooth(data, params)
            for column, expected in zip(smoothed, reference):
                assert _bits(column) == _bits(expected)


def test_kalman_fit_em_matches_two_filter_em_bitwise():
    iteration_counts = set()
    for data in _kalman_windows():
        for c1, c2, cap in ((1.0, 1.0, 30), (0.9, 1.2, 30), (1.0, 1.0, 4)):
            settings = dict(c1=c1, c2=c2, max_iter=cap)
            kalman = KalmanFilter().fit_em(data, **settings)
            params, result, iterations = _ref_fit_em(data, **settings)
            assert kalman.params_ == params
            assert kalman.em_iterations_ == iterations
            _assert_filter_result(kalman.result_, result)
            iteration_counts.add((cap, iterations))
    # Both exits were taken: convergence before the cap, and the cap.
    assert any(count < cap for cap, count in iteration_counts)
    assert any(count == cap for cap, count in iteration_counts)


# ----------------------------------------------------------------------
# (d) Rolling metrics: run() against a time-ordered loop of infer().
# ----------------------------------------------------------------------
def _columns(forecasts):
    """Column bits of a series, or of a plain list of forecasts."""
    return {
        "times": [f.t for f in forecasts],
        "means": _bits(np.array([f.mean for f in forecasts])),
        "volatilities": _bits(np.array([f.volatility for f in forecasts])),
        "lowers": _bits(np.array([f.lower for f in forecasts])),
        "uppers": _bits(np.array([f.upper for f in forecasts])),
    }


def _infer_loop_columns(metric, series, H, step):
    """One ``infer`` per window, in time order, on a fresh metric."""
    times = range(H, len(series), step)
    return _columns([metric.infer(series.values[t - H : t], t) for t in times])


def _series_with_constant_stretch():
    """Campus data with a stuck sensor: whole windows become constant."""
    values = campus_temperature(110, rng=11).values.copy()
    values[40:85] = values[40]
    return TimeSeries(values)


ROLLING_METRICS = {
    "arma_garch_p1": (lambda: ARMAGARCHMetric(p=1), 30),
    "arma_garch_p2_q2": (lambda: ARMAGARCHMetric(p=2, q=2), 36),
    "kalman_garch": (lambda: KalmanGARCHMetric(em_max_iter=12), 30),
}


@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize("name", sorted(ROLLING_METRICS))
def test_run_matches_time_ordered_infer_loop_bitwise(name, step):
    factory, H = ROLLING_METRICS[name]
    series = car_gps(H + 40, rng=12)
    assert _columns(factory().run(series, H, step=step)) == (
        _infer_loop_columns(factory(), series, H, step)
    )


@pytest.mark.parametrize("name", ["arma_garch_p1", "kalman_garch"])
def test_run_matches_infer_loop_through_constant_windows(name):
    factory, H = ROLLING_METRICS[name]
    series = _series_with_constant_stretch()
    forecasts = factory().run(series, H)
    assert _columns(forecasts) == _infer_loop_columns(factory(), series, H, 1)
    # t = 70..85 infer from a constant window: the flat-variance fallback.
    stuck = (forecasts.times >= 70) & (forecasts.times <= 85)
    assert np.all(forecasts.volatilities[stuck] < 1e-3)


def _ref_cgarch(metric, series, H):
    """Section V's cleaning loop, one ``ARMAGARCHMetric.infer`` per step."""
    inner = metric.base
    base = ARMAGARCHMetric(p=inner.p, q=inner.q, kappa=inner.kappa)
    raw = series.values
    cleaned = raw.copy()
    sv_max = learn_sv_max(cleaned[:H], metric.oc_max)
    flagged, trend_changes, consecutive = set(), [], 0
    forecasts = []
    for t in range(H, len(series)):
        forecast = base.infer(cleaned[t - H : t], t)
        forecasts.append(forecast)
        value = raw[t]
        if forecast.lower <= value <= forecast.upper:
            consecutive = 0
            continue
        consecutive += 1
        if consecutive < metric.oc_max:
            flagged.add(t)
            cleaned[t] = forecast.mean
            continue
        trend_changes.append(t)
        span_start = t - metric.oc_max + 1
        span = slice(span_start, t + 1)
        cleaned[span] = raw[span]
        flagged.difference_update(range(span_start, t + 1))
        result = successive_variance_reduction(cleaned[span], sv_max)
        cleaned[span] = result.cleaned
        flagged.update(span_start + k for k in result.removed_indices)
        consecutive = 0
    flagged = tuple(sorted(flagged))
    return _columns(forecasts), flagged, tuple(trend_changes), cleaned


def _spiky_series():
    values = campus_temperature(130, rng=16).values.copy()
    values[[50, 51, 77, 101]] += np.array([9.0, -7.0, 12.0, -10.0])
    return TimeSeries(values)


def _shifted_series():
    values = campus_temperature(130, rng=16).values.copy()
    values[70:] += 8.0
    return TimeSeries(values)


@pytest.mark.parametrize("kind", ["spikes", "level_shift"])
def test_cgarch_report_matches_reference_cleaning_loop_bitwise(kind):
    series = _spiky_series() if kind == "spikes" else _shifted_series()
    metric = CGARCHMetric(oc_max=6)
    forecasts, report = metric.run_with_report(series, 40)
    columns, flagged, trend_changes, cleaned = _ref_cgarch(metric, series, 40)
    assert _columns(forecasts) == columns
    assert report.flagged == flagged
    assert report.trend_changes == trend_changes
    assert _bits(report.cleaned) == _bits(cleaned)
    # Each series drives its own branch of the protocol.
    if kind == "spikes":
        assert {50, 51, 77, 101} <= set(flagged) and not trend_changes
    else:
        assert trend_changes
