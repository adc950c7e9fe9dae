"""EWMA (RiskMetrics-style) dynamic density metric.

A cheap extension metric: exponentially weighted moving averages for both
the mean and the variance.  It is the ``alpha_1 = 1 - lambda, beta_1 =
lambda, omega = 0`` boundary case of the paper's GARCH recursion (eq. 5)
with no per-window estimation at all, so it costs as little as the naive
metrics while still adapting its variance over time — a useful middle
ground the ablation benchmark quantifies against full ARMA-GARCH.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import (
    DensitySeries,
    DynamicDensityMetric,
    batch_variance_floor,
    gaussian_series,
)
from repro.util.validation import require_in_range, require_positive

__all__ = ["EWMAMetric"]


class EWMAMetric(DynamicDensityMetric):
    """Exponentially weighted mean and variance.

    Parameters
    ----------
    mean_decay:
        Smoothing factor for the level: ``r_hat_t = (1 - d) * sum d^k r_{t-1-k}``
        (normalised).  Smaller reacts faster.
    variance_decay:
        RiskMetrics lambda for the variance recursion
        ``sigma^2_i = lambda * sigma^2_{i-1} + (1 - lambda) * a^2_{i-1}``
        (0.94 is the classic daily-data choice).
    kappa:
        Bound scaling factor, as in Algorithm 1.
    """

    name = "ewma"

    def __init__(
        self,
        mean_decay: float = 0.9,
        variance_decay: float = 0.94,
        kappa: float = 3.0,
    ) -> None:
        self.mean_decay = require_in_range("mean_decay", mean_decay, 0.0, 1.0,
                                           inclusive=False)
        self.variance_decay = require_in_range(
            "variance_decay", variance_decay, 0.0, 1.0, inclusive=False
        )
        self.kappa = require_positive("kappa", kappa, strict=False)
        self.min_window = 4

    def infer_batch(self, windows: np.ndarray, ts: np.ndarray) -> DensitySeries:
        """One EWMA pass per window, with no estimation step: the recursion
        runs along the window axis while every numpy operation spans the
        (large) time axis."""
        windows = np.asarray(windows, dtype=float)
        floors = batch_variance_floor(windows)
        level = windows[:, 0].copy()
        variance = np.maximum(np.var(windows, axis=1), floors)
        d, lam = self.mean_decay, self.variance_decay
        for i in range(1, windows.shape[1]):
            value = windows[:, i]
            error = value - level
            variance = lam * variance + (1.0 - lam) * error * error
            level = d * level + (1.0 - d) * value
        variance = np.maximum(variance, floors)
        return gaussian_series(ts, level, variance, self.kappa)

    def __repr__(self) -> str:
        return (
            f"EWMAMetric(mean_decay={self.mean_decay}, "
            f"variance_decay={self.variance_decay}, kappa={self.kappa})"
        )
