"""Descriptive statistics used across the library.

The sample-variance convention the SVR filter and variable thresholding
rely on, and the rolling variance behind the volatility-regime figure
(paper Fig. 4).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError, InvalidParameterError
from repro.util.validation import require_finite_array

__all__ = [
    "sample_variance",
    "rolling_variance",
]


def sample_variance(values: np.ndarray) -> float:
    """Unbiased sample variance (``ddof=1``); 0.0 for a single value.

    This matches the ``SV(V)`` dispersion measure in Algorithm 2 of the
    paper.
    """
    array = require_finite_array("values", values)
    if array.size < 2:
        return 0.0
    return float(np.var(array, ddof=1))


def rolling_variance(values: np.ndarray, window: int) -> np.ndarray:
    """Sample variance over each trailing window of length ``window``.

    Returns an array of length ``len(values) - window + 1`` where entry ``i``
    is the variance of ``values[i : i + window]``.  Used to visualise the
    volatility regimes of the paper's Fig. 4 and to learn ``SVmax``.
    """
    array = require_finite_array("values", values)
    if window < 2:
        raise InvalidParameterError(f"window must be >= 2, got {window}")
    if array.size < window:
        raise DataError(
            f"need at least window={window} values, got {array.size}"
        )
    # Cumulative-sum formulation: O(n) rather than O(n * window).
    csum = np.concatenate(([0.0], np.cumsum(array)))
    csum2 = np.concatenate(([0.0], np.cumsum(array * array)))
    total = csum[window:] - csum[:-window]
    total2 = csum2[window:] - csum2[:-window]
    variance = (total2 - total * total / window) / (window - 1)
    return np.maximum(variance, 0.0)  # Clamp tiny negative rounding noise.
