"""Uniform thresholding metric (paper Section III, Fig. 3a).

Extends the Cheng et al. fixed-uncertainty-range idea: an ARMA model infers
the expected true value ``r_hat_t`` and a user-supplied threshold ``u``
bounds a uniform density centred on it, so the true value is assumed to lie
within ``[r_hat_t - u, r_hat_t + u]`` with uniform probability.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import DensitySeries, DynamicDensityMetric
from repro.timeseries.arma import batch_arma_predict
from repro.util.validation import require_positive

__all__ = ["UniformThresholdingMetric"]


class UniformThresholdingMetric(DynamicDensityMetric):
    """ARMA expected value + user-defined uniform uncertainty range.

    Parameters
    ----------
    threshold:
        The half-width ``u`` of the uncertainty range.  A natural choice is
        the sensor accuracy (e.g. 0.3 deg C for the campus deployment).
    p, q:
        ARMA orders for the expected-true-value model (eq. 2).
    """

    name = "uniform_threshold"

    def __init__(self, threshold: float, p: int = 1, q: int = 0) -> None:
        self.threshold = require_positive("threshold", threshold)
        self.p = int(p)
        self.q = int(q)
        self.min_window = max(self.p, self.q) + max(self.p + self.q, 1) + 1

    def infer_batch(self, windows: np.ndarray, ts: np.ndarray) -> DensitySeries:
        """Uniform density of half-width ``threshold`` around each row's
        ARMA forecast, from one batched solve."""
        mean = batch_arma_predict(
            np.asarray(windows, dtype=float), self.p, self.q
        )
        lower = mean - self.threshold
        upper = mean + self.threshold
        width = upper - lower
        volatility = np.sqrt(width**2 / 12.0)
        return DensitySeries.from_columns(
            np.asarray(ts, dtype=np.int64),
            mean,
            volatility,
            lower,
            upper,
            family="uniform",
        )

    def __repr__(self) -> str:
        return (
            f"UniformThresholdingMetric(threshold={self.threshold}, "
            f"p={self.p}, q={self.q})"
        )
