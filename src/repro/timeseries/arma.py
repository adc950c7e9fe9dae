"""ARMA(p, q) estimation and forecasting.

The paper uses the ARMA model in three places: the uniform and variable
thresholding metrics infer the *expected true value* ``r_hat_t`` with it
(eq. 2), the ARMA-GARCH metric feeds its residuals ``a_i = r_i - r_hat_i``
into the GARCH volatility model (Algorithm 1, steps 1-3), and the ARCH-effect
test of Section VII-D operates on its squared residuals.

Estimation uses the Hannan-Rissanen two-stage least-squares procedure rather
than full maximum likelihood: the paper re-fits a fresh model on every
sliding window (tens of thousands of fits per experiment), and HR is
closed-form, numerically robust on short windows, and produces one-step
forecasts indistinguishable from MLE at these window sizes.  This design
choice is recorded in DESIGN.md and ablated in the benchmark suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import (
    DataError,
    EstimationError,
    InvalidParameterError,
    NotFittedError,
)
from repro.util.rng import ensure_rng
from repro.util.validation import require_finite_array

__all__ = ["ARMAModel", "ARMAParams", "batch_ar_predict", "batch_arma_predict"]


@dataclass(frozen=True)
class ARMAParams:
    """Fitted ARMA coefficients.

    Attributes
    ----------
    const:
        The intercept ``phi_0`` of eq. (2).
    ar:
        Autoregressive coefficients ``phi_1 .. phi_p``.
    ma:
        Moving-average coefficients ``theta_1 .. theta_q``.
    sigma2:
        Innovation variance ``sigma_a^2`` estimated from the residuals.
    """

    const: float
    ar: np.ndarray = field(default_factory=lambda: np.empty(0))
    ma: np.ndarray = field(default_factory=lambda: np.empty(0))
    sigma2: float = 0.0

    @property
    def p(self) -> int:
        return int(np.size(self.ar))

    @property
    def q(self) -> int:
        return int(np.size(self.ma))

    def is_ar_stationary(self) -> bool:
        """True when all roots of the AR polynomial lie outside the unit circle."""
        if self.p == 0:
            return True
        poly = np.concatenate(([1.0], -np.asarray(self.ar, dtype=float)))
        roots = np.roots(poly[::-1])
        return bool(np.all(np.abs(roots) > 1.0))


class ARMAModel:
    """ARMA(p, q) model with Hannan-Rissanen estimation.

    Parameters
    ----------
    p, q:
        Non-negative model orders.  ``ARMA(p, 0)`` degenerates to ordinary
        least-squares autoregression; ``ARMA(0, 0)`` to the sample mean.
    long_ar_order:
        Order of the stage-1 long autoregression used to proxy the
        unobserved innovations when ``q > 0``.  Defaults to a standard
        ``max(p + q, ceil(10 * log10(n)))`` rule capped at ``n // 3``.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> values = ARMAModel.simulate(
    ...     ARMAParams(const=0.0, ar=np.array([0.7]), sigma2=1.0), 500, rng)
    >>> model = ARMAModel(p=1).fit(values)
    >>> bool(abs(model.params_.ar[0] - 0.7) < 0.15)
    True
    """

    def __init__(self, p: int = 1, q: int = 0, long_ar_order: int | None = None) -> None:
        if p < 0 or q < 0:
            raise InvalidParameterError(f"model orders must be >= 0, got p={p}, q={q}")
        if p == 0 and q > 0:
            # Pure-MA estimation still needs the long AR stage; allowed.
            pass
        self.p = int(p)
        self.q = int(q)
        self.long_ar_order = long_ar_order
        self.params_: ARMAParams | None = None
        self.residuals_: np.ndarray | None = None
        self.fitted_: np.ndarray | None = None
        self._training_values: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Estimation.
    # ------------------------------------------------------------------
    def fit(self, values: np.ndarray) -> "ARMAModel":
        """Estimate the model on ``values`` and return ``self``.

        Populates ``params_``, the aligned in-sample ``fitted_`` one-step
        predictions and ``residuals_`` (entries before ``max(p, q)`` are
        zero, matching the paper's convention that residuals are available
        for ``i >= t - H + max(p, q)``).
        """
        data = require_finite_array("values", values, min_len=2)
        n = data.size
        min_len = max(self.p, self.q) + max(self.p + self.q, 1) + 1
        if n < min_len:
            raise EstimationError(
                f"ARMA({self.p},{self.q}) needs at least {min_len} values, got {n}"
            )
        if self.q == 0:
            params = self._fit_ar(data)
        else:
            params = self._fit_hannan_rissanen(data)
        fitted, residuals = self._in_sample(data, params)
        usable = residuals[max(self.p, self.q):]
        sigma2 = float(np.mean(usable**2)) if usable.size else 0.0
        self.params_ = ARMAParams(
            const=params.const, ar=params.ar, ma=params.ma, sigma2=sigma2
        )
        self.fitted_ = fitted
        self.residuals_ = residuals
        self._training_values = data
        return self

    def _fit_ar(self, data: np.ndarray) -> ARMAParams:
        """OLS autoregression: regress r_t on an intercept and p lags."""
        if self.p == 0:
            return ARMAParams(const=float(np.mean(data)))
        design, target = _lag_matrix(data, self.p)
        coefficients = _least_squares(design, target)
        return ARMAParams(const=float(coefficients[0]), ar=coefficients[1:])

    def _fit_hannan_rissanen(self, data: np.ndarray) -> ARMAParams:
        """Two-stage HR: long-AR innovations proxy, then joint regression."""
        n = data.size
        if self.long_ar_order is not None:
            long_order = self.long_ar_order
        else:
            long_order = max(self.p + self.q, int(math.ceil(10 * math.log10(max(n, 10)))))
            long_order = min(long_order, max(n // 3, self.p + self.q))
        long_order = max(long_order, 1)
        if n <= long_order + 1:
            raise EstimationError(
                f"window of {n} values too short for stage-1 AR({long_order})"
            )
        # Stage 1: innovations proxy from a long autoregression.
        design, target = _lag_matrix(data, long_order)
        coefficients = _least_squares(design, target)
        innovations = np.zeros(n)
        innovations[long_order:] = target - design @ coefficients
        # Stage 2: regress r_t on p value-lags and q innovation-lags.
        offset = max(self.p, self.q, long_order)
        rows = n - offset
        if rows < self.p + self.q + 1:
            raise EstimationError(
                f"window of {n} values leaves only {rows} rows for "
                f"ARMA({self.p},{self.q}) stage-2 regression"
            )
        design2 = np.empty((rows, 1 + self.p + self.q))
        design2[:, 0] = 1.0
        for j in range(1, self.p + 1):
            design2[:, j] = data[offset - j : n - j]
        for j in range(1, self.q + 1):
            design2[:, self.p + j] = innovations[offset - j : n - j]
        target2 = data[offset:]
        coefficients2 = _least_squares(design2, target2)
        return ARMAParams(
            const=float(coefficients2[0]),
            ar=coefficients2[1 : 1 + self.p],
            ma=coefficients2[1 + self.p :],
        )

    def _in_sample(
        self, data: np.ndarray, params: ARMAParams
    ) -> tuple[np.ndarray, np.ndarray]:
        """One-step in-sample predictions and residuals, aligned to ``data``.

        Positions before ``max(p, q)`` carry the observation itself as the
        fitted value (zero residual), so downstream consumers can index
        freely without special-casing the warm-up.  Without MA terms no
        prediction depends on an earlier residual, so all of them come from
        one vector expression that adds the lags in the scalar loop's order.
        """
        n = data.size
        warm = max(self.p, self.q)
        fitted = data.copy()
        residuals = np.zeros(n)
        if self.q == 0:
            prediction = np.full(n - warm, params.const)
            for j in range(1, self.p + 1):
                prediction += params.ar[j - 1] * data[warm - j : n - j]
            fitted[warm:] = prediction
            residuals[warm:] = data[warm:] - prediction
            return fitted, residuals
        for i in range(warm, n):
            prediction = params.const
            for j in range(1, self.p + 1):
                prediction += params.ar[j - 1] * data[i - j]
            for j in range(1, self.q + 1):
                prediction += params.ma[j - 1] * residuals[i - j]
            fitted[i] = prediction
            residuals[i] = data[i] - prediction
        return fitted, residuals

    # ------------------------------------------------------------------
    # Forecasting.
    # ------------------------------------------------------------------
    def predict_next(self) -> float:
        """One-step-ahead forecast ``r_hat_t`` from the training window (eq. 2)."""
        params, data, residuals = self._require_fitted()
        prediction = params.const
        for j in range(1, self.p + 1):
            prediction += params.ar[j - 1] * data[-j]
        for j in range(1, self.q + 1):
            prediction += params.ma[j - 1] * residuals[-j]
        return float(prediction)

    def forecast(self, steps: int) -> np.ndarray:
        """Multi-step forecast: recursive eq. (2) with future shocks at zero."""
        if steps < 1:
            raise InvalidParameterError(f"steps must be >= 1, got {steps}")
        params, data, residuals = self._require_fitted()
        history = list(data[-max(self.p, 1):]) if self.p else []
        shocks = list(residuals[-max(self.q, 1):]) if self.q else []
        out = np.empty(steps)
        for step in range(steps):
            prediction = params.const
            for j in range(1, self.p + 1):
                prediction += params.ar[j - 1] * history[-j]
            for j in range(1, self.q + 1):
                prediction += params.ma[j - 1] * shocks[-j]
            out[step] = prediction
            if self.p:
                history.append(prediction)
            if self.q:
                shocks.append(0.0)
        return out

    def _require_fitted(self) -> tuple[ARMAParams, np.ndarray, np.ndarray]:
        if self.params_ is None or self._training_values is None:
            raise NotFittedError("call fit() before forecasting")
        assert self.residuals_ is not None
        return self.params_, self._training_values, self.residuals_

    # ------------------------------------------------------------------
    # Simulation.
    # ------------------------------------------------------------------
    @staticmethod
    def simulate(
        params: ARMAParams,
        n: int,
        rng: int | np.random.Generator | None = None,
        *,
        burn_in: int = 200,
        innovations: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw ``n`` values from the ARMA process defined by ``params``.

        ``innovations`` overrides the Gaussian shocks (useful for composing
        an ARMA mean process with GARCH innovations when generating the
        synthetic datasets); it must then have length ``n + burn_in``.
        """
        if n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {n}")
        generator = ensure_rng(rng)
        total = n + burn_in
        if innovations is None:
            scale = math.sqrt(max(params.sigma2, 0.0)) or 1.0
            shocks = generator.normal(0.0, scale, size=total)
        else:
            shocks = require_finite_array("innovations", innovations)
            if shocks.size != total:
                raise DataError(
                    f"innovations must have length n + burn_in = {total}, "
                    f"got {shocks.size}"
                )
        p, q = params.p, params.q
        values = np.zeros(total)
        for i in range(total):
            value = params.const + shocks[i]
            for j in range(1, p + 1):
                if i - j >= 0:
                    value += params.ar[j - 1] * values[i - j]
            for j in range(1, q + 1):
                if i - j >= 0:
                    value += params.ma[j - 1] * shocks[i - j]
            values[i] = value
        return values[burn_in:]


def batch_ar_predict(windows: np.ndarray, p: int) -> np.ndarray:
    """One-step AR(p) OLS forecast for every row of ``windows`` at once.

    The batched equivalent of ``ARMAModel(p, 0).fit(w).predict_next()``:
    each row is regressed on an intercept and its ``p`` lags, solved as
    minimum-norm least squares via a batched pseudo-inverse — the same
    solution ``lstsq`` produces (up to float rounding), including for
    singular designs such as constant windows.  numpy solves each row's
    design with its own LAPACK call, so a row gets the same bits alone as
    inside a stack — what makes a streamed row equal its offline twin
    (``tests/test_pipeline_parity.py``).  A row whose solve is non-finite
    comes back non-finite; see :func:`batch_arma_predict`.
    """
    if p < 0:
        raise InvalidParameterError(f"model order must be >= 0, got p={p}")
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2:
        raise DataError(f"windows must be a 2-D matrix, got shape {windows.shape}")
    n = windows.shape[1]
    min_len = p + max(p, 1) + 1
    if n < min_len:
        raise EstimationError(
            f"ARMA({p},0) needs at least {min_len} values, got {n}"
        )
    if p == 0:
        return np.mean(windows, axis=1)
    rows = n - p
    design = np.empty((windows.shape[0], rows, p + 1))
    design[:, :, 0] = 1.0
    for j in range(1, p + 1):
        design[:, :, j] = windows[:, p - j : n - j]
    target = windows[:, p:]
    try:
        coefficients = np.linalg.pinv(design) @ target[:, :, None]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal.
        raise EstimationError(f"batched least-squares failed: {exc}") from exc
    coefficients = coefficients[:, :, 0]
    prediction = coefficients[:, 0].copy()
    for j in range(1, p + 1):
        prediction += coefficients[:, j] * windows[:, n - j]
    return prediction


def batch_arma_predict(windows: np.ndarray, p: int, q: int) -> np.ndarray:
    """One-step ARMA(p, q) forecast ``r_hat_t`` for every row of ``windows``.

    ARMA(p, 0) rows come from one :func:`batch_ar_predict` solve.  A row
    that solve leaves non-finite, and every row when ``q > 0``, is fitted
    alone by :class:`ARMAModel` — which raises where the window cannot be
    fitted at all.  The thresholding metrics' ``infer_batch`` is this.
    """
    if q == 0:
        mean = batch_ar_predict(windows, p)
        rows = np.flatnonzero(~np.isfinite(mean))
    else:
        mean = np.empty(len(windows))
        rows = range(len(windows))
    for row in rows:
        mean[row] = ARMAModel(p, q).fit(windows[row]).predict_next()
    return mean


def _lag_matrix(data: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix ``[1, r_{t-1}, ..., r_{t-order}]`` and target ``r_t``."""
    n = data.size
    rows = n - order
    design = np.empty((rows, order + 1))
    design[:, 0] = 1.0
    for j in range(1, order + 1):
        design[:, j] = data[order - j : n - j]
    return design, data[order:]


def _least_squares(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares; raises EstimationError on failure."""
    try:
        coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal.
        raise EstimationError(f"least-squares failed: {exc}") from exc
    if not np.all(np.isfinite(coefficients)):
        raise EstimationError("least-squares produced non-finite coefficients")
    return coefficients
