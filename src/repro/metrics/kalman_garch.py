"""Kalman-GARCH dynamic density metric (paper Section IV).

Identical to :class:`~repro.metrics.arma_garch.ARMAGARCHMetric` except that
the expected true value ``r_hat_t`` comes from the local-level Kalman filter
of eqs. (7)-(8), whose parameters are estimated by EM on each window.  The
GARCH stage consumes the filter's one-step prediction errors
``a_i = r_i - r_hat_i`` exactly as the paper prescribes.

The EM loop makes this metric 5-19x slower than ARMA-GARCH in the paper's
Fig. 11; the ``em_max_iter`` knob trades that cost against mean-estimate
quality and is exercised by the efficiency benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.metrics.arma_garch import garch_variance
from repro.metrics.base import (
    DensitySeries,
    DynamicDensityMetric,
    gaussian_series,
    variance_floor,
)
from repro.timeseries.kalman import KalmanFilter
from repro.util.validation import require_positive

__all__ = ["KalmanGARCHMetric"]


class KalmanGARCHMetric(DynamicDensityMetric):
    """Kalman-filter mean + GARCH volatility.

    Parameters
    ----------
    m, s:
        GARCH orders (paper uses (1, 1)).
    kappa:
        Bound scaling factor (paper uses 3).
    em_max_iter:
        Maximum EM iterations per window for the Kalman variances.
    c1, c2:
        The state/observation constants of eqs. (7)-(8).
    """

    name = "kalman_garch"

    def __init__(
        self,
        m: int = 1,
        s: int = 1,
        kappa: float = 3.0,
        em_max_iter: int = 30,
        c1: float = 1.0,
        c2: float = 1.0,
    ) -> None:
        if em_max_iter < 1:
            raise InvalidParameterError(
                f"em_max_iter must be >= 1, got {em_max_iter}"
            )
        self.m = int(m)
        self.s = int(s)
        self.kappa = require_positive("kappa", kappa, strict=False)
        self.em_max_iter = int(em_max_iter)
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.min_window = max(max(self.m, self.s) + 2, 4)
        #: GARCH likelihood evaluations spent since construction.
        self.garch_evaluations_ = 0

    def _infer_moments(self, window: np.ndarray) -> tuple[float, float]:
        """``(r_hat_t, sigma_hat_t^2)`` from one window."""
        kalman = KalmanFilter().fit_em(
            window, c1=self.c1, c2=self.c2, max_iter=self.em_max_iter
        )
        mean = kalman.predict_next()
        residuals = window - kalman.fitted_means()
        # The first prediction error reflects the diffuse prior, not the
        # dynamics; drop it before volatility estimation.
        variance, garch = garch_variance(
            residuals[1:], variance_floor(window), self.m, self.s
        )
        if garch is not None:
            self.garch_evaluations_ += garch.evaluations_
        return mean, variance

    def infer_batch(self, windows: np.ndarray, ts: np.ndarray) -> DensitySeries:
        """One EM + GARCH fit per row, written straight into forecast
        columns (the fits are independent, but each is a full estimation)."""
        mean = np.empty(len(ts))
        variance = np.empty(len(ts))
        for row, window in enumerate(windows):
            mean[row], variance[row] = self._infer_moments(window)
        return gaussian_series(ts, mean, variance, self.kappa)

    def __repr__(self) -> str:
        return (
            f"KalmanGARCHMetric(m={self.m}, s={self.s}, kappa={self.kappa}, "
            f"em_max_iter={self.em_max_iter})"
        )
