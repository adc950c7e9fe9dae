"""GARCH(m, s) volatility model (paper Section IV-A, eqs. 4-6).

Given ARMA (or Kalman) residuals ``a_i``, the GARCH model expresses the
conditional variance as

    sigma^2_i = alpha_0 + sum_j alpha_j a^2_{i-j} + sum_j beta_j sigma^2_{i-j}

with ``alpha_0 > 0``, ``alpha_j, beta_j >= 0`` and persistence
``sum(alpha) + sum(beta) < 1``.  Estimation is Gaussian quasi-maximum
likelihood via L-BFGS-B with box bounds and a persistence penalty; when the
optimiser cannot improve on it (e.g. a near-constant window where the
likelihood is unidentified) the model falls back to a constant-variance
parameterisation so the metric pipeline never aborts mid-stream.  The paper
restricts experiments to GARCH(1,1); higher orders are supported and tested.

Hot path: a rolling metric fits one model per window and L-BFGS-B evaluates
the likelihood 13-23 times per warm-started fit (~90 from the three cold
starts), so for GARCH(1,1) everything that is constant across those
evaluations (pre-sample variance, squared shocks, the drives of the
sensitivity filters) is computed once per fit by
:class:`_Garch11Likelihood`; an evaluation is then two calls of
``lfilter``'s C core and a handful of array operations.  The fit itself
runs :func:`_lbfgsb_11`, scipy's L-BFGS-B loop replayed around the
compiled step without ``minimize``'s wrapper layers, to the same iterates
and evaluation count.  :meth:`GARCHModel.filter_variance` is the general
(m, s) recursion: it runs once per fit for ``conditional_variance_`` and
per evaluation only for orders other than (1, 1), which keep
``optimize.minimize`` for its finite-difference gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

# Private scipy entry points (both in scipy >= 1.15, requirements.txt):
# the compiled L-BFGS-B step and lfilter's C core.  A change to either
# fails tests/test_fit_exactness.py, whose references use the public API.
from scipy.optimize._lbfgsb import setulb
from scipy.signal._sigtools import _linear_filter

from repro.exceptions import (
    EstimationError,
    InvalidParameterError,
    NotFittedError,
)
from repro.util.rng import ensure_rng
from repro.util.validation import require_finite_array

__all__ = ["GARCHModel", "GARCHParams"]

#: Hard floor applied to every conditional variance to keep the likelihood
#: finite on degenerate (constant) windows.
_VARIANCE_FLOOR = 1e-12

#: Upper bound on persistence enforced during estimation; the paper requires
#: strict stationarity (sum < 1).
_MAX_PERSISTENCE = 0.9995

_TWO_PI = 2.0 * np.pi

#: ``lfilter``'s numerator ``[1.0]`` as the array it would build.
_NUMERATOR = np.ones(1)

#: The GARCH(1,1) box ``omega >= 1e-10``, ``0 <= alpha, beta <= 0.9995``:
#: ``_BOX`` clips the start; ``_LOWER`` / ``_UPPER`` / ``_NBD`` are the
#: ``l`` / ``u`` / ``nbd`` arrays ``minimize`` hands L-BFGS-B (``nbd`` 1:
#: lower bound only, so ``u[0]`` stays 0; 2: both bounds).
_BOX = (np.array([1e-10, 0.0, 0.0]),
        np.array([np.inf, _MAX_PERSISTENCE, _MAX_PERSISTENCE]))
_LOWER = _BOX[0]
_UPPER = np.array([0.0, _MAX_PERSISTENCE, _MAX_PERSISTENCE])
_NBD = np.array([1, 2, 2], dtype=np.int32)

#: ``minimize``'s L-BFGS-B defaults: ``ftol`` as ``factr``, ``gtol``.
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5


def _lbfgsb_11(objective, start: np.ndarray) -> tuple[np.ndarray, float]:
    """``optimize.minimize(objective, start, method="L-BFGS-B", jac=True,
    bounds=<the GARCH(1,1) box>, options={"maxiter": 200})`` as ``(x, fun)``.

    Replays ``scipy.optimize._lbfgsb_py._minimize_lbfgsb`` around the
    compiled ``setulb`` step with its defaults (``m=10``, ``maxls=20``,
    ``maxfun=15000``), and evaluates ``objective`` as ``ScalarFunction``
    does: once at the clipped start, then only when ``x`` differs
    (``np.array_equal``) from the last point, on a copy of ``x``.
    """
    x = np.clip(np.array(start, dtype=float), *_BOX)
    m, n = 10, x.size
    last = x.copy()
    value, gradient = objective(x.copy())
    nfev, iterations = 1, 0
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    while True:
        # As minimize does: setulb gets a copy, never the memoised gradient.
        g = g.astype(np.float64)
        setulb(m, x, _LOWER, _UPPER, _NBD, f, g, _FACTR, _PGTOL, wa, iwa,
               task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # FG: the objective at the current x.
            if not np.array_equal(x, last):
                last = x.copy()
                value, gradient = objective(x.copy())
                nfev += 1
                if value != value and np.isnan(x).any():
                    # minimize's MemoizeJac re-evaluates for the gradient
                    # when x holds a NaN (NaN != NaN); keep the count.
                    objective(x.copy())
            f, g = value, gradient
        elif task[0] == 1:  # NEW_X: one iteration done.
            iterations += 1
            if iterations >= 200:
                task[0], task[1] = 5, 504
            elif nfev > 15000:
                task[0], task[1] = 5, 502
        else:
            return x, f


@dataclass(frozen=True)
class GARCHParams:
    """Fitted GARCH coefficients ``(alpha_0, alpha_1.., beta_1..)``."""

    omega: float
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def m(self) -> int:
        return int(np.size(self.alpha))

    @property
    def s(self) -> int:
        return int(np.size(self.beta))

    @property
    def persistence(self) -> float:
        """``sum(alpha) + sum(beta)``; < 1 for a stationary process."""
        return float(np.sum(self.alpha) + np.sum(self.beta))

    @property
    def unconditional_variance(self) -> float:
        """Long-run variance ``omega / (1 - persistence)``."""
        gap = 1.0 - self.persistence
        if gap <= 0:
            return float("inf")
        return self.omega / gap

    def validate(self) -> None:
        """Raise :class:`InvalidParameterError` unless the paper's constraints hold."""
        if self.omega <= 0:
            raise InvalidParameterError(f"omega must be > 0, got {self.omega}")
        if np.any(np.asarray(self.alpha) < 0) or np.any(np.asarray(self.beta) < 0):
            raise InvalidParameterError("alpha and beta coefficients must be >= 0")
        if self.persistence >= 1.0:
            raise InvalidParameterError(
                f"persistence must be < 1, got {self.persistence}"
            )


class _Garch11Likelihood:
    """Gaussian log-likelihood and gradient of GARCH(1,1) on one window.

    The variance recursion and each parameter sensitivity
    ``d sigma^2_i / d theta`` are linear filters in C:

        d s2/d omega_i = 1            + beta * d s2/d omega_{i-1}
        d s2/d alpha_i = a^2_{i-1}    + beta * d s2/d alpha_{i-1}
        d s2/d beta_i  = sigma^2_{i-1}+ beta * d s2/d beta_{i-1}

    The three sensitivities share the denominator ``[1, -beta]``, so they
    run as one filter call over a ``(3, n)`` stack of drives (rows filter
    independently).  Both calls go to ``lfilter``'s C core with the
    ``float64`` arrays ``lfilter`` would hand it.  The first two drives,
    the squared shocks and the pre-sample variance do not depend on the
    parameters and are built once here; a call fills in the third drive
    and evaluates one ``(omega, alpha, beta)``.
    """

    def __init__(self, data: np.ndarray) -> None:
        self.initial = max(float(np.var(data)), _VARIANCE_FLOOR)
        self.squared = data**2
        # Rows: d/d omega, d/d alpha, d/d beta (lagged variance, per call).
        self.drives = np.empty((3, data.size))
        self.drives[0] = 1.0
        self.drives[1:, 0] = self.initial
        self.drives[1, 1:] = self.squared[:-1]
        # Zero initial conditions: the pre-sample variance is a data
        # constant, not a parameter function.
        self.zero_state = np.zeros((3, 1))

    def __call__(
        self, omega: float, alpha: float, beta: float
    ) -> tuple[float, np.ndarray]:
        squared, drives, zero = self.squared, self.drives, self.zero_state
        denominator = np.array([1.0, -beta])
        drive = omega + alpha * drives[1]
        state = np.array([beta * self.initial])
        variance, _ = _linear_filter(_NUMERATOR, denominator, drive, -1, state)
        variance = np.maximum(variance, _VARIANCE_FLOOR)
        drives[2, 1:] = variance[:-1]
        sensitivity, _ = _linear_filter(_NUMERATOR, denominator, drives, -1, zero)
        ratio = squared / variance
        loglik = -0.5 * float((np.log(_TWO_PI * variance) + ratio).sum())
        # d loglik / d sigma^2_i = 0.5 * (a^2_i / sigma^2_i - 1) / sigma^2_i.
        weight = 0.5 * (ratio - 1.0) / variance
        gradient = [float(np.dot(weight, row)) for row in sensitivity]
        return loglik, np.array(gradient)


class GARCHModel:
    """GARCH(m, s) with Gaussian quasi-MLE estimation.

    Parameters
    ----------
    m:
        Number of ARCH (squared-shock) lags.
    s:
        Number of GARCH (variance) lags.

    Examples
    --------
    >>> import numpy as np
    >>> params = GARCHParams(omega=0.2, alpha=np.array([0.2]), beta=np.array([0.6]))
    >>> shocks = GARCHModel.simulate(params, 2000, rng=7)
    >>> model = GARCHModel().fit(shocks)
    >>> model.params_.persistence < 1.0
    True
    """

    def __init__(self, m: int = 1, s: int = 1) -> None:
        if m < 1:
            raise InvalidParameterError(f"m must be >= 1, got {m}")
        if s < 0:
            raise InvalidParameterError(f"s must be >= 0, got {s}")
        self.m = int(m)
        self.s = int(s)
        self.params_: GARCHParams | None = None
        self.conditional_variance_: np.ndarray | None = None
        self.loglik_: float | None = None
        self.evaluations_: int | None = None
        self._residuals: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Estimation.
    # ------------------------------------------------------------------
    def fit(
        self, residuals: np.ndarray, *, warm_start: GARCHParams | None = None
    ) -> "GARCHModel":
        """Estimate GARCH parameters from mean-model residuals ``a_i``.

        Stores the fitted ``params_``, the filtered ``conditional_variance_``
        aligned with the input, the achieved log-likelihood and
        ``evaluations_``, the number of likelihood evaluations the optimiser
        spent (summed over its starting points; 0 on a constant window,
        which is never optimised).

        ``warm_start`` seeds the optimiser with a previously fitted
        parameter vector *instead of* the multi-start heuristics; rolling
        applications over overlapping windows use this to cut the dominant
        estimation cost (consecutive windows share all but one value, so
        the previous optimum is an excellent start).
        """
        data = require_finite_array("residuals", residuals,
                                    min_len=max(self.m, self.s) + 2)
        base_variance = float(np.var(data))
        self.evaluations_ = 0
        if base_variance < _VARIANCE_FLOOR:
            # Degenerate window: constant residuals carry no volatility
            # information.  Use a flat-variance parameterisation.
            self.params_ = self._constant_params(max(base_variance, _VARIANCE_FLOOR))
            self.conditional_variance_ = np.full(data.size,
                                                 max(base_variance, _VARIANCE_FLOOR))
            self.loglik_ = self._log_likelihood(data, self.params_)
            self._residuals = data
            return self

        best_params, best_loglik = self._optimize(data, base_variance, warm_start)
        self.params_ = best_params
        self.conditional_variance_ = self.filter_variance(data, best_params)
        self.loglik_ = best_loglik
        self._residuals = data
        return self

    def _constant_params(self, variance: float) -> GARCHParams:
        return GARCHParams(
            omega=variance,
            alpha=np.zeros(self.m),
            beta=np.zeros(self.s),
        )

    def _starting_points(self, base_variance: float) -> list[np.ndarray]:
        """Heuristic multi-start values spanning low and high persistence."""
        points = []
        for arch_total, garch_total in ((0.10, 0.80), (0.30, 0.50), (0.05, 0.00)):
            alpha = np.full(self.m, arch_total / self.m)
            beta = np.full(self.s, garch_total / self.s) if self.s else np.empty(0)
            omega = base_variance * max(1.0 - arch_total - garch_total, 0.05)
            points.append(np.concatenate(([omega], alpha, beta)))
        return points

    def _optimize(
        self,
        data: np.ndarray,
        base_variance: float,
        warm_start: GARCHParams | None = None,
    ) -> tuple[GARCHParams, float]:
        analytic = self.m == 1 and self.s == 1
        if analytic:
            likelihood = _Garch11Likelihood(data)

            def objective(theta: np.ndarray):
                self.evaluations_ += 1
                # The clamps of _unpack, on plain floats.
                omega = max(float(theta[0]), 1e-10)
                alpha = max(float(theta[1]), 0.0)
                beta = max(float(theta[2]), 0.0)
                loglik, gradient = likelihood(omega, alpha, beta)
                gradient = -gradient
                penalty = 0.0
                excess = alpha + beta - _MAX_PERSISTENCE + 1e-6
                if excess > 0:
                    # Smooth barrier steering the optimiser back inside
                    # the stationarity region.
                    penalty = 1e4 * excess**2
                    gradient[1] += 2e4 * excess
                    gradient[2] += 2e4 * excess
                return -loglik + penalty, gradient
        else:
            bounds = [(1e-10, None)]
            bounds += [(0.0, _MAX_PERSISTENCE)] * (self.m + self.s)

            def objective(theta: np.ndarray):
                self.evaluations_ += 1
                params = self._unpack(theta)
                penalty = 0.0
                excess = params.persistence - _MAX_PERSISTENCE + 1e-6
                if excess > 0:
                    penalty = 1e4 * excess**2
                return -self._log_likelihood(data, params) + penalty

        if warm_start is not None and warm_start.m == self.m and warm_start.s == self.s:
            starting_points = [
                np.concatenate(
                    ([warm_start.omega], warm_start.alpha, warm_start.beta)
                )
            ]
        else:
            starting_points = self._starting_points(base_variance)
        best_theta: np.ndarray | None = None
        best_value = math.inf
        for start in starting_points:
            try:
                if analytic:
                    theta, value = _lbfgsb_11(objective, start)
                else:
                    result = optimize.minimize(
                        objective, start, method="L-BFGS-B", bounds=bounds,
                        options={"maxiter": 200},
                    )
                    theta, value = result.x, result.fun
            except (ValueError, FloatingPointError):  # pragma: no cover - scipy guard.
                continue
            if np.all(np.isfinite(theta)) and value < best_value:
                best_value = float(value)
                best_theta = theta
        if best_theta is None:
            # Optimiser never produced finite parameters: flat fallback.
            params = self._constant_params(base_variance)
            return params, self._log_likelihood(data, params)
        params = self._unpack(best_theta)
        if params.persistence >= 1.0:
            # Clamp the rare boundary solution back into stationarity.
            scale = _MAX_PERSISTENCE / params.persistence
            params = GARCHParams(
                omega=params.omega,
                alpha=params.alpha * scale,
                beta=params.beta * scale,
            )
        return params, -best_value

    def _unpack(self, theta: np.ndarray) -> GARCHParams:
        omega = max(float(theta[0]), 1e-10)
        alpha = np.clip(theta[1 : 1 + self.m], 0.0, None)
        beta = np.clip(theta[1 + self.m :], 0.0, None)
        return GARCHParams(omega=omega, alpha=alpha, beta=beta)

    # ------------------------------------------------------------------
    # Filtering / likelihood.
    # ------------------------------------------------------------------
    def filter_variance(self, residuals: np.ndarray, params: GARCHParams) -> np.ndarray:
        """Run the variance recursion of eq. (5) over ``residuals``.

        Pre-sample terms are initialised with the sample variance, the
        standard convention for short-window estimation.  The recursion is a
        linear filter in the squared shocks, so for ``s <= 1`` (the paper
        only ever uses GARCH(1,1)) it runs through ``lfilter``'s C core;
        higher ``s`` falls back to the straightforward loop.  A fit
        calls this once, for ``conditional_variance_``; only the
        finite-difference estimation of orders other than (1, 1) evaluates
        it on every likelihood call.
        """
        data = np.asarray(residuals, dtype=float)
        n = data.size
        initial = max(float(np.var(data)), _VARIANCE_FLOOR)
        # Driving term x_i = omega + sum_j alpha_j * a^2_{i-j}, with
        # pre-sample squared shocks replaced by the initial variance.
        padded = np.concatenate((np.full(params.m, initial), data**2))
        drive = np.full(n, params.omega)
        for j in range(1, params.m + 1):
            drive += params.alpha[j - 1] * padded[params.m - j : params.m - j + n]
        if params.s == 0:
            return np.maximum(drive, _VARIANCE_FLOOR)
        if params.s == 1:
            beta = float(params.beta[0])
            variance, _state = _linear_filter(
                _NUMERATOR, np.array([1.0, -beta]), drive, -1,
                np.array([beta * initial]),
            )
            return np.maximum(variance, _VARIANCE_FLOOR)
        variance = np.empty(n)
        for i in range(n):
            value = drive[i]
            for j in range(1, params.s + 1):
                lagged = variance[i - j] if i - j >= 0 else initial
                value += params.beta[j - 1] * lagged
            variance[i] = max(value, _VARIANCE_FLOOR)
        return variance

    def _log_likelihood(self, residuals: np.ndarray, params: GARCHParams) -> float:
        variance = self.filter_variance(residuals, params)
        return float(
            -0.5 * np.sum(np.log(2.0 * np.pi * variance) + residuals**2 / variance)
        )

    @staticmethod
    def _loglik_and_grad_11(
        residuals: np.ndarray, params: GARCHParams
    ) -> tuple[float, np.ndarray]:
        """One :class:`_Garch11Likelihood` evaluation at ``params``."""
        likelihood = _Garch11Likelihood(np.asarray(residuals, dtype=float))
        alpha, beta = float(params.alpha[0]), float(params.beta[0])
        return likelihood(params.omega, alpha, beta)

    # ------------------------------------------------------------------
    # Forecasting.
    # ------------------------------------------------------------------
    def forecast_variance(self) -> float:
        """One-step-ahead conditional variance ``sigma_hat^2_t`` (eq. 6)."""
        if self.params_ is None or self._residuals is None:
            raise NotFittedError("call fit() before forecasting")
        assert self.conditional_variance_ is not None
        params = self.params_
        data = self._residuals
        variance = self.conditional_variance_
        value = params.omega
        for j in range(1, params.m + 1):
            value += params.alpha[j - 1] * data[-j] ** 2
        for j in range(1, params.s + 1):
            value += params.beta[j - 1] * variance[-j]
        return float(max(value, _VARIANCE_FLOOR))

    # ------------------------------------------------------------------
    # Simulation.
    # ------------------------------------------------------------------
    @staticmethod
    def simulate(
        params: GARCHParams,
        n: int,
        rng: int | np.random.Generator | None = None,
        *,
        burn_in: int = 200,
        return_variance: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` GARCH shocks (optionally with their true variances).

        The generator follows eq. (5): ``a_i = sigma_i * eps_i`` with i.i.d.
        standard-normal ``eps``.  ``return_variance=True`` additionally
        returns the simulated ``sigma^2_i`` path, which the evaluation tests
        use as ground truth.
        """
        if n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {n}")
        params.validate()
        if params.persistence >= 1.0:
            raise EstimationError("cannot simulate a non-stationary GARCH process")
        generator = ensure_rng(rng)
        total = n + burn_in
        epsilon = generator.standard_normal(total)
        shocks = np.zeros(total)
        variance = np.full(total, params.unconditional_variance)
        for i in range(total):
            value = params.omega
            for j in range(1, params.m + 1):
                if i - j >= 0:
                    value += params.alpha[j - 1] * shocks[i - j] ** 2
                else:
                    value += params.alpha[j - 1] * params.unconditional_variance
            for j in range(1, params.s + 1):
                if i - j >= 0:
                    value += params.beta[j - 1] * variance[i - j]
                else:
                    value += params.beta[j - 1] * params.unconditional_variance
            variance[i] = max(value, _VARIANCE_FLOOR)
            shocks[i] = math.sqrt(variance[i]) * epsilon[i]
        if return_variance:
            return shocks[burn_in:], variance[burn_in:]
        return shocks[burn_in:]
