"""Density distance — the paper's quality measure for density metrics (eq. 1).

The empirical CDF ``Q_Z`` of the probability integral transforms is
estimated with a histogram; the density distance is the Euclidean distance
between ``Q_Z`` and the ideal uniform CDF ``U_Z(z) = z``, accumulated over
the histogram grid on (0, 1):

    d(U_Z, Q_Z) = sqrt( sum_x (U_Z(x) - Q_Z(x))^2 )

Lower is better; zero means the transforms are exactly uniform at the grid
resolution.  The grid size (``n_bins``) matches the paper's histogram
approximation and defaults to 100 cells.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import DataError, InvalidParameterError
from repro.metrics.base import DensitySeries
from repro.timeseries.series import TimeSeries
from repro.util.validation import require_finite_array

__all__ = ["density_distance", "density_distance_from_pit"]

#: Histogram resolution for the Q_Z estimate.
DEFAULT_BINS = 100


def density_distance_from_pit(z: np.ndarray, n_bins: int = DEFAULT_BINS) -> float:
    """Density distance of pre-computed probability integral transforms.

    ``z`` must lie in ``[0, 1]``.  The empirical CDF is evaluated at the
    ``n_bins`` interior grid points ``x = k / n_bins`` and compared with the
    uniform CDF there.

    >>> uniform = np.linspace(0.005, 0.995, 100)
    >>> density_distance_from_pit(uniform) < 0.1
    True
    >>> clumped = np.full(100, 0.5)
    >>> density_distance_from_pit(clumped) > 2.0
    True
    """
    data = require_finite_array("z", z)
    if n_bins < 2:
        raise InvalidParameterError(f"n_bins must be >= 2, got {n_bins}")
    if np.any((data < 0.0) | (data > 1.0)):
        raise DataError("probability integral transforms must lie in [0, 1]")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    counts, _ = np.histogram(data, bins=edges)
    # Q_Z at the interior grid points: the share of transforms in the
    # cells below each one.
    observed = np.cumsum(counts)[:-1] / data.size
    ideal = edges[1:-1]  # U_Z(x) = x on (0, 1).
    return math.sqrt(float(np.sum((ideal - observed) ** 2)))


def density_distance(
    forecasts: DensitySeries,
    series: TimeSeries,
    n_bins: int = DEFAULT_BINS,
) -> float:
    """Density distance of a metric's forecasts against realised values.

    Convenience wrapper: computes the probability integral transforms of
    ``forecasts`` against ``series`` and scores them with
    :func:`density_distance_from_pit`.
    """
    return density_distance_from_pit(forecasts.pit(series), n_bins=n_bins)
