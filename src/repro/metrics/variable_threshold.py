"""Variable thresholding metric (paper Section III, eq. 3, Fig. 3b).

Unlike uniform thresholding it needs no user threshold: the window's sample
variance ``s_t^2`` scales a Gaussian centred on the ARMA expected true
value.  The variance is computed on the *raw* window (not detrended), which
is exactly the deficiency the GARCH metric later fixes.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import (
    DensitySeries,
    DynamicDensityMetric,
    batch_variance_floor,
    gaussian_series,
)
from repro.timeseries.arma import batch_arma_predict
from repro.util.validation import require_positive

__all__ = ["VariableThresholdingMetric"]


class VariableThresholdingMetric(DynamicDensityMetric):
    """ARMA expected value + window-sample-variance Gaussian.

    Parameters
    ----------
    p, q:
        ARMA orders for the expected-true-value model.
    kappa:
        Scaling factor for the reported ``lower``/``upper`` bounds
        (consistent with Algorithm 1; defaults to 3).
    """

    name = "variable_threshold"

    def __init__(self, p: int = 1, q: int = 0, kappa: float = 3.0) -> None:
        self.p = int(p)
        self.q = int(q)
        self.kappa = require_positive("kappa", kappa, strict=False)
        self.min_window = max(max(self.p, self.q) + max(self.p + self.q, 1) + 1, 3)

    def infer_batch(self, windows: np.ndarray, ts: np.ndarray) -> DensitySeries:
        """Gaussian ``N(r_hat_t, s_t^2)`` per row, ``s_t^2`` the window's
        sample variance: one batched ARMA forecast plus columnar variance."""
        windows = np.asarray(windows, dtype=float)
        mean = batch_arma_predict(windows, self.p, self.q)
        variance = np.maximum(
            np.var(windows, axis=1, ddof=1), batch_variance_floor(windows)
        )
        return gaussian_series(ts, mean, variance, self.kappa)

    def __repr__(self) -> str:
        return f"VariableThresholdingMetric(p={self.p}, q={self.q}, kappa={self.kappa})"
