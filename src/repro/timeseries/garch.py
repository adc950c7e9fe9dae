"""GARCH(m, s) volatility model (paper Section IV-A, eqs. 4-6).

Given ARMA (or Kalman) residuals ``a_i``, the GARCH model expresses the
conditional variance as

    sigma^2_i = alpha_0 + sum_j alpha_j a^2_{i-j} + sum_j beta_j sigma^2_{i-j}

with ``alpha_0 > 0``, ``alpha_j, beta_j >= 0`` and persistence
``sum(alpha) + sum(beta) < 1``.  Estimation is Gaussian quasi-maximum
likelihood via L-BFGS-B with box bounds, an analytic gradient and a
persistence penalty; when the optimiser cannot improve on it (e.g. a
near-constant window where the likelihood is unidentified) the model falls
back to a constant-variance parameterisation so the metric pipeline never
aborts mid-stream.  The paper restricts experiments to GARCH(1,1); every
order runs the same path below, and ``tests/test_garch.py`` fits (1, 0),
(2, 1), (1, 2) and (2, 2) as well.

Hot path: a rolling metric fits one model per window and L-BFGS-B evaluates
the likelihood 13-23 times per warm-started (1, 1) fit (~90 from the three
cold starts), so everything that is constant across those evaluations
(pre-sample variance, squared shocks, the drives of the sensitivity
filters) is computed once per fit by :class:`_GarchLikelihood`; an
evaluation is then two calls of ``lfilter``'s C core and a handful of
array operations.  The fit runs :func:`_lbfgsb`, scipy's L-BFGS-B loop
replayed around the compiled step without ``minimize``'s wrapper layers,
to the same iterates and evaluation count.  Eq. (5)'s recursion exists
once, in :meth:`_GarchLikelihood.variance`: the fit,
:meth:`GARCHModel.filter_variance` and the likelihood all run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

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
#: strict stationarity (sum < 1).  It also bounds each coefficient.
_MAX_PERSISTENCE = 0.9995

_TWO_PI = 2.0 * np.pi

#: ``lfilter``'s numerator ``[1.0]`` as the array it would build.
_NUMERATOR = np.ones(1)

#: ``minimize``'s L-BFGS-B defaults: ``ftol`` as ``factr``, ``gtol``.
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5


def _lbfgsb(objective, start: np.ndarray) -> tuple[np.ndarray, float]:
    """``optimize.minimize(objective, start, method="L-BFGS-B", jac=True,
    bounds=<the GARCH box>, options={"maxiter": 200})`` as ``(x, fun)``.

    The GARCH box of ``start.size`` parameters is ``omega >= 1e-10`` and
    every other coefficient in ``[0, 0.9995]``.  Replays
    ``scipy.optimize._lbfgsb_py._minimize_lbfgsb`` around the compiled
    ``setulb`` step with its defaults (``m=10``, ``maxls=20``,
    ``maxfun=15000``), and evaluates ``objective`` as ``ScalarFunction``
    does: once at the clipped start, then only when ``x`` differs
    (``np.array_equal``) from the last point, on a copy of ``x``.
    """
    x = np.array(start, dtype=float)
    m, n = 10, x.size
    lower, upper = np.zeros(n), np.full(n, _MAX_PERSISTENCE)
    lower[0], upper[0] = 1e-10, np.inf
    x = np.clip(x, lower, upper)
    # The l / u / nbd arrays minimize hands L-BFGS-B: nbd 1 is a lower
    # bound only, so u[0] stays 0; 2 is both bounds.
    upper[0] = 0.0
    nbd = np.full(n, 2, dtype=np.int32)
    nbd[0] = 1
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
        setulb(m, x, lower, upper, nbd, f, g, _FACTR, _PGTOL, wa, iwa,
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


class _GarchLikelihood:
    """Eq. (5), the Gaussian log-likelihood and its gradient on one window.

    The variance recursion is a linear filter of the drive
    ``x_i = omega + sum_j alpha_j a^2_{i-j}`` with denominator
    ``[1, -beta_1, .., -beta_s]``.  Pre-sample shocks and variances are
    the sample variance ``sigma^2_0``, the standard convention for
    short-window estimation; the pre-sample variances enter as the
    filter's initial state ``zi[j] = sum_{k>j} beta_k sigma^2_0``.  Each
    parameter sensitivity ``d sigma^2_i / d theta`` is the same filter
    over its own drive:

        d s2/d omega_i    = 1             + sum_k beta_k d s2/d omega_{i-k}
        d s2/d alpha_j,i  = a^2_{i-j}     + sum_k beta_k d s2/d alpha_j,{i-k}
        d s2/d beta_j,i   = sigma^2_{i-j} + sum_k beta_k d s2/d beta_j,{i-k}

    so all ``1 + m + s`` run as one filter call over a stack of drives
    (rows filter independently), in ``lfilter``'s C core with the arrays
    ``lfilter`` would hand it.  Everything but the lagged-variance drives
    is built once here; a call fills those in and evaluates one
    ``(omega, alpha, beta)``.
    """

    def __init__(self, data: np.ndarray, m: int, s: int) -> None:
        self.m = m
        self.sample_variance = float(np.var(data))
        self.initial = max(self.sample_variance, _VARIANCE_FLOOR)
        self.squared = data**2
        # Rows: d/d omega, d/d alpha_j (a^2_{i-j}), d/d beta_j (sigma^2_{i-j},
        # per call); pre-sample terms are the initial variance.
        self.drives = np.full((1 + m + s, data.size), self.initial)
        self.drives[0] = 1.0
        for j in range(1, m + 1):
            self.drives[j, j:] = self.squared[:-j]
        # Zero initial conditions: the pre-sample variance is a data
        # constant, not a parameter function.
        self.zero_state = np.zeros((1 + m + s, s))

    def variance(self, omega, alpha, beta) -> tuple[np.ndarray, np.ndarray]:
        """``(sigma^2, denominator)``: eq. (5), unfloored.  Inside the fit's
        box each ``sigma^2_i >= omega >= 1e-10``, so the floor cannot bind;
        :meth:`floored` serves parameters from outside it."""
        drives, initial = self.drives, self.initial
        drive = omega + alpha[0] * drives[1]
        for j in range(1, self.m):
            drive += alpha[j] * drives[1 + j]
        denominator = np.array([1.0, *[-b for b in beta]])
        state = np.array([b * initial for b in accumulate(reversed(beta))][::-1])
        variance, _ = _linear_filter(_NUMERATOR, denominator, drive, -1, state)
        return variance, denominator

    def floored(self, omega, alpha, beta) -> np.ndarray:
        """:meth:`variance` at any parameters, floored after filtering."""
        variance = self.variance(omega, alpha, beta)[0]
        return np.maximum(variance, _VARIANCE_FLOOR, out=variance)

    def loglik(self, omega, alpha, beta) -> float:
        """The log-likelihood alone (no sensitivities), at any parameters."""
        variance = self.floored(omega, alpha, beta)
        return -0.5 * float(
            (np.log(_TWO_PI * variance) + self.squared / variance).sum()
        )

    def __call__(self, omega, alpha, beta) -> tuple[float, np.ndarray]:
        """Log-likelihood and gradient at ``(omega, alpha, beta)``."""
        variance, denominator = self.variance(omega, alpha, beta)
        drives, m = self.drives, self.m
        for j in range(1, len(beta) + 1):
            drives[m + j, j:] = variance[:-j]
        sensitivity, _ = _linear_filter(
            _NUMERATOR, denominator, drives, -1, self.zero_state
        )
        ratio = self.squared / variance
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
        likelihood = _GarchLikelihood(data, self.m, self.s)
        self.evaluations_ = 0
        self._residuals = data
        if likelihood.sample_variance < _VARIANCE_FLOOR:
            # Degenerate window: constant residuals carry no volatility
            # information.  Use a flat-variance parameterisation.
            self.params_ = self._constant_params(likelihood.initial)
            self.conditional_variance_ = np.full(data.size, likelihood.initial)
            self.loglik_ = likelihood.loglik(
                self.params_.omega, self.params_.alpha, self.params_.beta
            )
            return self

        self.params_, self.loglik_ = self._optimize(likelihood, warm_start)
        self.conditional_variance_ = likelihood.floored(
            self.params_.omega, self.params_.alpha, self.params_.beta
        )
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
        likelihood: _GarchLikelihood,
        warm_start: GARCHParams | None = None,
    ) -> tuple[GARCHParams, float]:
        m = self.m

        def objective(theta: np.ndarray):
            self.evaluations_ += 1
            # The clamps of _unpack, on plain floats (``max(c, 0.0)``).
            values = theta.tolist()
            coefficients = [0.0 if c < 0.0 else c for c in values[1:]]
            loglik, gradient = likelihood(
                max(values[0], 1e-10), coefficients[:m], coefficients[m:]
            )
            gradient = -gradient
            excess = sum(coefficients) - _MAX_PERSISTENCE + 1e-6
            if excess <= 0:
                return -loglik, gradient
            # Smooth barrier steering the optimiser back inside the
            # stationarity region.
            gradient[1:] += 2e4 * excess
            return -loglik + 1e4 * excess**2, gradient

        if warm_start is not None and warm_start.m == self.m and warm_start.s == self.s:
            starting_points = [
                np.concatenate(
                    ([warm_start.omega], warm_start.alpha, warm_start.beta)
                )
            ]
        else:
            starting_points = self._starting_points(likelihood.sample_variance)
        best_theta: np.ndarray | None = None
        best_value = math.inf
        for start in starting_points:
            try:
                theta, value = _lbfgsb(objective, start)
            except (ValueError, FloatingPointError):  # pragma: no cover - scipy guard.
                continue
            if np.all(np.isfinite(theta)) and value < best_value:
                best_value = float(value)
                best_theta = theta
        if best_theta is None:
            # Optimiser never produced finite parameters: flat fallback.
            params = self._constant_params(likelihood.sample_variance)
            return params, likelihood.loglik(params.omega, params.alpha, params.beta)
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

        Pre-sample terms are initialised with the sample variance.  A fit
        evaluates the same :meth:`_GarchLikelihood.variance` on every
        likelihood call and once more for ``conditional_variance_``.
        """
        likelihood = _GarchLikelihood(np.asarray(residuals, float), params.m, params.s)
        return likelihood.floored(params.omega, params.alpha, params.beta)

    def _log_likelihood(self, residuals: np.ndarray, params: GARCHParams) -> float:
        likelihood = _GarchLikelihood(np.asarray(residuals, float), params.m, params.s)
        return likelihood.loglik(params.omega, params.alpha, params.beta)

    @staticmethod
    def _loglik_and_grad(
        residuals: np.ndarray, params: GARCHParams
    ) -> tuple[float, np.ndarray]:
        """One :class:`_GarchLikelihood` evaluation at ``params``, which
        must lie in the fit's box (the variance is not floored)."""
        likelihood = _GarchLikelihood(np.asarray(residuals, float), params.m, params.s)
        return likelihood(params.omega, params.alpha, params.beta)

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
