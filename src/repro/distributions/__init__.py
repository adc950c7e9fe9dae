"""The two density families of the paper's metrics, as vectorised CDFs.

The metrics emit either uniform densities (uniform thresholding) or
Gaussian densities (variable thresholding and the GARCH family); a
:class:`~repro.metrics.base.DensitySeries` holds their parameters as
columns, and every consumer (the Omega-view builder, the sigma-cache, the
probability integral transform) evaluates them through these two
functions, so every path shares one CDF arithmetic, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = ["gaussian_cdf", "uniform_cdf"]

_SQRT2 = math.sqrt(2.0)


def gaussian_cdf(
    x: float | np.ndarray,
    mu: float | np.ndarray,
    sigma: float | np.ndarray,
) -> np.ndarray:
    """Vectorised normal CDF ``P(N(mu, sigma^2) <= x)``, broadcasting freely.

    >>> float(np.round(gaussian_cdf(2.0, 0.0, 2.0) - gaussian_cdf(-2.0, 0.0, 2.0), 4))
    0.6827
    """
    z = (np.asarray(x, dtype=float) - mu) / (sigma * _SQRT2)
    return 0.5 * (1.0 + special.erf(z))


def uniform_cdf(
    x: float | np.ndarray,
    low: float | np.ndarray,
    high: float | np.ndarray,
) -> np.ndarray:
    """Vectorised ``P(U(low, high) <= x)``, broadcasting freely.

    >>> uniform_cdf(np.array([1.0, 3.0, 5.0, 7.0]), 2.0, 6.0).tolist()
    [0.0, 0.25, 0.75, 1.0]
    """
    return np.clip((np.asarray(x, dtype=float) - low) / (high - low), 0.0, 1.0)
