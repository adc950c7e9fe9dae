"""Tests for GARCH estimation, filtering, forecasting and the gradient."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EstimationError, InvalidParameterError, NotFittedError
from repro.timeseries.garch import GARCHModel, GARCHParams


def _make_params(omega=0.2, alpha=0.15, beta=0.7) -> GARCHParams:
    return GARCHParams(
        omega=omega, alpha=np.array([alpha]), beta=np.array([beta])
    )


class TestParams:
    def test_persistence(self):
        assert _make_params().persistence == pytest.approx(0.85)

    def test_unconditional_variance(self):
        params = _make_params(omega=0.3, alpha=0.1, beta=0.6)
        assert params.unconditional_variance == pytest.approx(0.3 / 0.3)

    def test_unconditional_variance_nonstationary_is_inf(self):
        params = _make_params(alpha=0.5, beta=0.6)
        assert params.unconditional_variance == float("inf")

    def test_validate_rejects_bad_params(self):
        with pytest.raises(InvalidParameterError):
            _make_params(omega=0.0).validate()
        with pytest.raises(InvalidParameterError):
            _make_params(alpha=-0.1).validate()
        with pytest.raises(InvalidParameterError):
            _make_params(alpha=0.5, beta=0.6).validate()


class TestFilterVariance:
    def test_lfilter_matches_naive_recursion(self, rng):
        """The vectorised s=1 path must equal the definition exactly."""
        data = rng.standard_normal(60)
        params = _make_params()
        model = GARCHModel()
        fast = model.filter_variance(data, params)
        initial = float(np.var(data))
        slow = np.empty(60)
        for i in range(60):
            a2 = data[i - 1] ** 2 if i >= 1 else initial
            prev = slow[i - 1] if i >= 1 else initial
            slow[i] = params.omega + params.alpha[0] * a2 + params.beta[0] * prev
        np.testing.assert_allclose(fast, slow, rtol=1e-10)

    def test_s0_pure_arch(self, rng):
        data = rng.standard_normal(30)
        params = GARCHParams(omega=0.1, alpha=np.array([0.3]), beta=np.empty(0))
        variance = GARCHModel(m=1, s=0).filter_variance(data, params)
        initial = float(np.var(data))
        expected0 = 0.1 + 0.3 * initial
        assert variance[0] == pytest.approx(expected0)
        assert variance[5] == pytest.approx(0.1 + 0.3 * data[4] ** 2)

    def test_s2_loop_path(self, rng):
        data = rng.standard_normal(40)
        params = GARCHParams(
            omega=0.1, alpha=np.array([0.2]), beta=np.array([0.3, 0.2])
        )
        variance = GARCHModel(m=1, s=2).filter_variance(data, params)
        assert variance.shape == (40,)
        assert np.all(variance > 0)
        np.testing.assert_allclose(
            variance, _naive_variance(data, params), rtol=1e-13
        )

    @pytest.mark.parametrize("order", [(1, 0), (2, 1), (2, 2), (3, 3)])
    def test_other_orders_match_naive_recursion(self, rng, order):
        data = rng.standard_normal(50)
        params = _order_params(*order)
        variance = GARCHModel(*order).filter_variance(data, params)
        np.testing.assert_allclose(
            variance, _naive_variance(data, params), rtol=1e-13
        )


def _naive_variance(data, params):
    """Eq. (5) term by term, pre-sample shocks and variances at np.var."""
    initial = float(np.var(data))
    variance = np.empty(data.size)
    for i in range(data.size):
        value = params.omega
        for j in range(1, params.m + 1):
            value += params.alpha[j - 1] * (data[i - j] ** 2 if i >= j else initial)
        for j in range(1, params.s + 1):
            value += params.beta[j - 1] * (variance[i - j] if i >= j else initial)
        variance[i] = value
    return variance


def _order_params(m, s, omega=0.3):
    """Stationary GARCH(m, s) coefficients: ARCH total 0.2, GARCH 0.5."""
    alpha = np.linspace(2.0, 1.0, m)
    beta = np.linspace(2.0, 1.0, s) if s else np.empty(0)
    return GARCHParams(
        omega=omega,
        alpha=0.2 * alpha / alpha.sum(),
        beta=0.5 * beta / beta.sum() if s else beta,
    )


class TestGradient:
    def test_gradient_matches_finite_differences(self, rng):
        data = rng.standard_normal(80)
        params = _make_params(omega=0.3, alpha=0.2, beta=0.5)
        loglik, gradient = GARCHModel._loglik_and_grad(data, params)
        model = GARCHModel()
        eps = 1e-6
        for index, delta in enumerate(
            [(eps, 0, 0), (0, eps, 0), (0, 0, eps)]
        ):
            shifted = GARCHParams(
                omega=params.omega + delta[0],
                alpha=params.alpha + delta[1],
                beta=params.beta + delta[2],
            )
            fd = (model._log_likelihood(data, shifted) - loglik) / eps
            assert gradient[index] == pytest.approx(fd, rel=1e-3, abs=1e-4)

    @pytest.mark.parametrize("order", [(1, 0), (2, 1), (1, 2), (2, 2)])
    def test_every_order_matches_finite_differences(self, rng, order):
        data = rng.standard_normal(80)
        params = _order_params(*order)
        loglik, gradient = GARCHModel._loglik_and_grad(data, params)
        model = GARCHModel(*order)
        assert loglik == pytest.approx(model._log_likelihood(data, params))
        theta = np.concatenate(([params.omega], params.alpha, params.beta))
        assert gradient.shape == theta.shape
        m, eps = params.m, 1e-6
        for index in range(theta.size):
            shifted = theta.copy()
            shifted[index] += eps
            moved = GARCHParams(shifted[0], shifted[1 : 1 + m], shifted[1 + m :])
            fd = (model._log_likelihood(data, moved) - loglik) / eps
            assert gradient[index] == pytest.approx(fd, rel=1e-3, abs=1e-4)


class TestFit:
    def test_recovers_parameters_on_long_sample(self):
        true = _make_params(omega=0.2, alpha=0.15, beta=0.7)
        shocks = GARCHModel.simulate(true, 4000, rng=0)
        model = GARCHModel().fit(shocks)
        assert model.params_.persistence == pytest.approx(0.85, abs=0.08)
        assert model.params_.alpha[0] == pytest.approx(0.15, abs=0.08)

    def test_recovers_garch21_parameters(self):
        true = GARCHParams(
            omega=0.2, alpha=np.array([0.1, 0.15]), beta=np.array([0.6])
        )
        shocks = GARCHModel.simulate(true, 6000, rng=11)
        model = GARCHModel(m=2, s=1).fit(shocks)
        fitted = model.params_
        assert (fitted.m, fitted.s) == (2, 1)
        assert fitted.persistence == pytest.approx(0.85, abs=0.08)
        assert fitted.alpha.sum() == pytest.approx(0.25, abs=0.08)
        assert fitted.beta[0] == pytest.approx(0.6, abs=0.12)
        assert fitted.unconditional_variance == pytest.approx(
            true.unconditional_variance, rel=0.3
        )

    @pytest.mark.parametrize("order", [(1, 0), (2, 1), (1, 2), (2, 2)])
    def test_other_orders_fit_and_forecast(self, order):
        shocks = GARCHModel.simulate(_make_params(), 300, rng=8)
        model = GARCHModel(*order).fit(shocks)
        assert (model.params_.m, model.params_.s) == order
        assert model.params_.persistence < 1.0
        assert model.evaluations_ > 0
        assert model.loglik_ == pytest.approx(
            model._log_likelihood(shocks, model.params_)
        )
        np.testing.assert_array_equal(
            model.conditional_variance_,
            model.filter_variance(shocks, model.params_),
        )
        assert model.forecast_variance() > 0.0

    def test_stationarity_always_enforced(self, rng):
        # Integrated-looking input should still give persistence < 1.
        data = np.cumsum(rng.standard_normal(300)) * 0.2
        model = GARCHModel().fit(data)
        assert model.params_.persistence < 1.0

    def test_constant_residuals_fall_back_to_flat_variance(self):
        model = GARCHModel().fit(np.zeros(50))
        assert model.params_.alpha[0] == 0.0
        assert model.params_.beta[0] == 0.0
        assert model.forecast_variance() > 0.0

    def test_conditional_variance_aligned(self, rng):
        data = rng.standard_normal(100)
        model = GARCHModel().fit(data)
        assert model.conditional_variance_.shape == data.shape
        assert np.all(model.conditional_variance_ > 0)

    def test_warm_start_reaches_similar_likelihood(self, rng):
        shocks = GARCHModel.simulate(_make_params(), 300, rng=3)
        cold = GARCHModel().fit(shocks)
        warm = GARCHModel().fit(shocks, warm_start=cold.params_)
        assert warm.loglik_ >= cold.loglik_ - 1.0
        # One start from the optimum instead of three heuristic ones.
        assert 0 < warm.evaluations_ < cold.evaluations_

    def test_warm_start_wrong_order_ignored(self, rng):
        shocks = GARCHModel.simulate(_make_params(), 200, rng=4)
        wrong = GARCHParams(
            omega=0.1, alpha=np.array([0.1, 0.1]), beta=np.array([0.5])
        )
        model = GARCHModel(m=1, s=1).fit(shocks, warm_start=wrong)
        assert model.params_.m == 1

    def test_too_short_input_rejected(self):
        with pytest.raises(Exception):
            GARCHModel().fit(np.array([1.0]))


def _recording(kind, n=3):
    """An objective on the n-parameter GARCH box that records every point."""
    seen = []
    target = np.linspace(0.3, 0.5, n)
    target[1] = 0.2
    if kind == "bound":
        target[-1] = 1.5

    def objective(x):
        seen.append(x.copy())
        if kind == "nan" and len(seen) == 1:
            # A NaN gradient at the start sends every later point to NaN.
            return 1.0, np.concatenate(([np.nan], np.ones(n - 1)))
        r = x - target
        return float(r @ r + np.sin(x).sum()), 2.0 * r + np.cos(x)

    return objective, seen


class TestLbfgsbReplay:
    """``_lbfgsb`` against ``optimize.minimize`` on the same box."""

    @pytest.mark.parametrize("kind", ["interior", "bound", "nan"])
    @pytest.mark.parametrize(
        "start",
        [
            (1.0, 0.5, 0.4), (-2.0, -0.1, 3.0),
            (1.0, 0.5), (-2.0, 3.0),
            (1.0, 0.5, 0.1, 0.4), (-2.0, -0.1, 0.5, 3.0),
            (1.0, 0.5, 0.1, 0.2, 0.4), (-2.0, -0.1, 2.0, 0.5, 3.0),
        ],
    )
    def test_same_points_result_and_count(self, kind, start):
        from scipy import optimize

        from repro.timeseries.garch import _MAX_PERSISTENCE, _lbfgsb

        n = len(start)
        bounds = [(1e-10, None)] + [(0.0, _MAX_PERSISTENCE)] * (n - 1)
        objective, seen = _recording(kind, n)
        result = optimize.minimize(
            objective, np.array(start), method="L-BFGS-B", jac=True,
            bounds=bounds, options={"maxiter": 200},
        )
        replay, replay_seen = _recording(kind, n)
        x, fun = _lbfgsb(replay, np.array(start))
        assert np.array(replay_seen).tobytes() == np.array(seen).tobytes()
        assert x.tobytes() == result.x.tobytes()
        assert np.array(fun).tobytes() == np.array(result.fun).tobytes()
        # ``nfev`` omits MemoizeJac's second call at a NaN point.
        nan_points = sum(bool(np.isnan(p).any()) for p in seen)
        assert result.nfev == len(seen) - nan_points // 2

    @pytest.mark.parametrize("order", [(1, 0), (1, 1), (2, 1), (1, 2)])
    def test_garch11_fit_calls_neither_minimize_nor_lfilter(
        self, monkeypatch, order
    ):
        import scipy.optimize
        import scipy.signal

        def refuse(*args, **kwargs):
            raise AssertionError("a GARCH fit went through a scipy wrapper")

        monkeypatch.setattr(scipy.optimize, "minimize", refuse)
        monkeypatch.setattr(scipy.signal, "lfilter", refuse)
        shocks = GARCHModel.simulate(_make_params(), 120, rng=5)
        cold = GARCHModel(*order).fit(shocks)
        warm = GARCHModel(*order).fit(shocks, warm_start=cold.params_)
        assert cold.evaluations_ > 0 and warm.evaluations_ > 0


class TestForecast:
    def test_forecast_matches_eq6(self, rng):
        data = rng.standard_normal(120)
        model = GARCHModel().fit(data)
        params = model.params_
        expected = (
            params.omega
            + params.alpha[0] * data[-1] ** 2
            + params.beta[0] * model.conditional_variance_[-1]
        )
        assert model.forecast_variance() == pytest.approx(expected)

    def test_forecast_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            GARCHModel().forecast_variance()


class TestSimulate:
    def test_volatility_clustering_present(self):
        shocks, variance = GARCHModel.simulate(
            _make_params(alpha=0.25, beta=0.7), 4000, rng=5, return_variance=True
        )
        # Squared shocks must correlate with the generating variance.
        corr = np.corrcoef(shocks**2, variance)[0, 1]
        assert corr > 0.2

    def test_nonstationary_params_rejected(self):
        with pytest.raises((EstimationError, InvalidParameterError)):
            GARCHModel.simulate(_make_params(alpha=0.6, beta=0.5), 100)

    def test_reproducible(self):
        a = GARCHModel.simulate(_make_params(), 50, rng=6)
        b = GARCHModel.simulate(_make_params(), 50, rng=6)
        np.testing.assert_array_equal(a, b)

    def test_order_validation(self):
        with pytest.raises(InvalidParameterError):
            GARCHModel(m=0)
        with pytest.raises(InvalidParameterError):
            GARCHModel(s=-1)
