"""Kalman filter for the paper's local-level state-space model (eqs. 7-8).

The Kalman-GARCH metric infers the expected true value ``r_hat_t`` with

    state equation:        x_i = c1 * x_{i-1} + e_{i-1},  e ~ N(0, sigma_e^2)
    observation equation:  r_i = c2 * x_i     + eta_i,    eta ~ N(0, sigma_eta^2)

Parameters ``sigma_e^2`` and ``sigma_eta^2`` are estimated by
expectation-maximisation (the paper attributes Kalman-GARCH's slowness to
exactly this "slow convergence of the iterative EM algorithm", Section
VII-A); ``c1`` and ``c2`` are treated as known constants, 1.0 by default,
which is the standard local-level specification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import InvalidParameterError, NotFittedError
from repro.util.validation import require_finite_array

__all__ = ["KalmanFilter", "KalmanParams", "FilterResult"]

#: Variance floor keeping the filter well-posed on constant windows.
_VARIANCE_FLOOR = 1e-12

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class KalmanParams:
    """Parameters of the local-level model.

    Attributes
    ----------
    c1, c2:
        State-transition and observation constants of eqs. (7)-(8).
    state_variance:
        ``sigma_e^2`` — variance of the state innovation ``e_i``.
    obs_variance:
        ``sigma_eta^2`` — variance of the observation noise ``eta_i``.
    initial_mean, initial_variance:
        Prior on the first state ``x_1`` (the paper's a-priori ``r_hat_1``).
    """

    c1: float = 1.0
    c2: float = 1.0
    state_variance: float = 1.0
    obs_variance: float = 1.0
    initial_mean: float = 0.0
    initial_variance: float = 1e6

    def validate(self) -> None:
        if self.state_variance < 0 or self.obs_variance < 0:
            raise InvalidParameterError("variances must be >= 0")
        if self.initial_variance <= 0:
            raise InvalidParameterError("initial_variance must be > 0")


@dataclass(frozen=True)
class FilterResult:
    """Outputs of one filtering pass, all aligned with the observations.

    ``predicted_*`` are the one-step-ahead moments before seeing ``r_i``
    (used for forecasting and the likelihood); ``filtered_*`` condition on
    ``r_i`` as well.
    """

    predicted_mean: np.ndarray
    predicted_variance: np.ndarray
    filtered_mean: np.ndarray
    filtered_variance: np.ndarray
    loglik: float


class KalmanFilter:
    """Local-level Kalman filter with EM parameter estimation.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(3)
    >>> level = np.cumsum(rng.normal(0, 0.1, 300))
    >>> observed = level + rng.normal(0, 1.0, 300)
    >>> kf = KalmanFilter().fit_em(observed, max_iter=25)
    >>> kf.params_.obs_variance > kf.params_.state_variance
    True
    """

    def __init__(self, params: KalmanParams | None = None) -> None:
        self.params_ = params
        self.result_: FilterResult | None = None
        self.em_iterations_: int | None = None
        self._observations: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Filtering / smoothing.
    # ------------------------------------------------------------------
    def filter(self, observations: np.ndarray, params: KalmanParams | None = None) -> FilterResult:
        """Run the forward filter; returns moments and the log-likelihood.

        The recursion is inherently sequential, so it runs over plain
        python floats (``tolist()`` in, arrays out): the same IEEE doubles
        as indexing the arrays element by element, without numpy's
        per-scalar dispatch.
        """
        data = require_finite_array("observations", observations)
        p = params or self.params_
        if p is None:
            raise NotFittedError("no parameters: pass params or call fit_em() first")
        p.validate()
        c1, c2 = float(p.c1), float(p.c2)
        c1_squared, c2_squared = c1**2, c2**2
        state_variance = float(p.state_variance)
        obs_variance = float(p.obs_variance)
        predicted_mean, predicted_variance = [], []
        filtered_mean, filtered_variance = [], []
        loglik = 0.0
        mean, variance = float(p.initial_mean), float(p.initial_variance)
        for value in data.tolist():
            predicted_mean.append(mean)
            predicted_variance.append(variance)
            innovation = value - c2 * mean
            innovation_variance = c2_squared * variance + obs_variance
            if innovation_variance < _VARIANCE_FLOOR:
                innovation_variance = _VARIANCE_FLOOR
            gain = c2 * variance / innovation_variance
            filtered = mean + gain * innovation
            posterior = (1.0 - gain * c2) * variance
            if posterior < 0.0:
                posterior = 0.0
            filtered_mean.append(filtered)
            filtered_variance.append(posterior)
            loglik -= 0.5 * (
                math.log(_TWO_PI * innovation_variance)
                + innovation**2 / innovation_variance
            )
            # Predict the next state.
            mean = c1 * filtered
            variance = c1_squared * posterior + state_variance
        return FilterResult(
            predicted_mean=np.array(predicted_mean),
            predicted_variance=np.array(predicted_variance),
            filtered_mean=np.array(filtered_mean),
            filtered_variance=np.array(filtered_variance),
            loglik=loglik,
        )

    def smooth(
        self, observations: np.ndarray, params: KalmanParams | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rauch-Tung-Striebel smoother.

        Returns ``(smoothed_mean, smoothed_variance, lag1_covariance)`` where
        the lag-one covariance ``Cov(x_i, x_{i-1} | all data)`` feeds the EM
        M-step (entry 0 is zero by convention).
        """
        forward = self.filter(observations, params)
        return _rts_pass(forward, params or self.params_)

    # ------------------------------------------------------------------
    # EM estimation.
    # ------------------------------------------------------------------
    def fit_em(
        self,
        observations: np.ndarray,
        *,
        c1: float = 1.0,
        c2: float = 1.0,
        max_iter: int = 30,
        tol: float = 1e-6,
    ) -> "KalmanFilter":
        """Estimate ``sigma_e^2`` and ``sigma_eta^2`` by EM; returns ``self``.

        Iterates smoother (E-step) and closed-form variance updates (M-step)
        until the log-likelihood improvement falls below ``tol`` or
        ``max_iter`` is reached.  Stores the converged parameters and the
        final forward-filter result.

        One forward pass per iteration, plus the initial one: the pass that
        scores an M-step's parameters is the pass the next E-step smooths,
        and the last one is ``result_``.
        """
        data = require_finite_array("observations", observations, min_len=3)
        if max_iter < 1:
            raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")
        base_variance = max(float(np.var(data)), _VARIANCE_FLOOR)
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
        forward = self.filter(data, params)
        for iterations in range(1, max_iter + 1):
            smoothed_mean, smoothed_variance, lag1 = _rts_pass(forward, params)
            # E-step sufficient statistics.
            second_moment = smoothed_variance + smoothed_mean**2
            cross_moment = lag1[1:] + smoothed_mean[1:] * smoothed_mean[:-1]
            # M-step: closed-form updates for the two variances.
            state_variance = float(
                np.mean(
                    second_moment[1:]
                    - 2.0 * c1 * cross_moment
                    + c1**2 * second_moment[:-1]
                )
            )
            obs_variance = float(
                np.mean(
                    data**2
                    - 2.0 * c2 * data * smoothed_mean
                    + c2**2 * second_moment
                )
            )
            params = replace(
                params,
                state_variance=max(state_variance, _VARIANCE_FLOOR),
                obs_variance=max(obs_variance, _VARIANCE_FLOOR),
                initial_mean=float(smoothed_mean[0]),
            )
            forward = self.filter(data, params)
            loglik = forward.loglik
            if abs(loglik - previous_loglik) < tol * (1.0 + abs(previous_loglik)):
                break
            previous_loglik = loglik
        self.params_ = params
        self.result_ = forward
        self.em_iterations_ = iterations
        self._observations = data
        return self

    # ------------------------------------------------------------------
    # Forecasting.
    # ------------------------------------------------------------------
    def predict_next(self) -> float:
        """One-step-ahead observation forecast ``r_hat_t = c2 * c1 * x_{H|H}``."""
        if self.params_ is None or self.result_ is None:
            raise NotFittedError("call fit_em() (or filter via fit) first")
        p = self.params_
        return float(p.c2 * p.c1 * self.result_.filtered_mean[-1])

    def fitted_means(self) -> np.ndarray:
        """In-sample one-step predictions ``c2 * x_{i|i-1}``.

        These are the ``r_hat_i`` whose residuals ``a_i = r_i - r_hat_i``
        feed the GARCH stage of the Kalman-GARCH metric.
        """
        if self.params_ is None or self.result_ is None:
            raise NotFittedError("call fit_em() first")
        return self.params_.c2 * self.result_.predicted_mean


def _rts_pass(
    forward: FilterResult, params: KalmanParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward Rauch-Tung-Striebel pass over one forward-filter result.

    Split from :meth:`KalmanFilter.smooth` so EM can smooth the forward
    pass it already ran; python floats for the reason given in
    :meth:`KalmanFilter.filter`.
    """
    c1 = float(params.c1)
    predicted_mean = forward.predicted_mean.tolist()
    predicted_variance = forward.predicted_variance.tolist()
    smoothed_mean = forward.filtered_mean.tolist()
    smoothed_variance = forward.filtered_variance.tolist()
    n = len(smoothed_mean)
    gains = [0.0] * n
    for i in range(n - 2, -1, -1):
        next_predicted_var = predicted_variance[i + 1]
        if next_predicted_var < _VARIANCE_FLOOR:
            next_predicted_var = _VARIANCE_FLOOR
        gain = smoothed_variance[i] * c1 / next_predicted_var
        gains[i] = gain
        mean_gap = smoothed_mean[i + 1] - predicted_mean[i + 1]
        smoothed_mean[i] += gain * mean_gap
        smoothed_variance[i] += gain**2 * (
            smoothed_variance[i + 1] - next_predicted_var
        )
    smoothed_variance = np.array(smoothed_variance)
    lag1 = np.zeros(n)
    lag1[1:] = np.array(gains[:-1]) * smoothed_variance[1:]
    return np.array(smoothed_mean), np.maximum(smoothed_variance, 0.0), lag1
