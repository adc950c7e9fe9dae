"""Windowed probabilistic queries over created views (probabilistic streams).

The related work the paper positions against (Cormode & Garofalakis; Re et
al.) consumes *probabilistic streams* — exactly what a probabilistic view
over a time series is.  This module provides the basic windowed consumers
under the tuple-independent semantics of the created views:

* :func:`windowed_expected_value` — sliding-window mean of the per-time
  expected values;
* :func:`exceedance_probability` — P(value above a threshold) per time,
  from partially overlapping ranges;
* :func:`sustained_exceedance_probability` — P(threshold exceeded at
  *every* time of a window), using cross-time independence;
* :func:`expected_time_above` — expected number of times (within a window)
  the value exceeds the threshold, by linearity of expectation.

Like :mod:`repro.db.queries`, everything here is a column operation over
:attr:`~repro.db.prob_view.ProbabilisticView.columns`: per-time exceedance
is one grouped reduction, and the sliding windows are cumulative sums or
strided products over the per-time vectors.

Edge semantics of the windowed consumers: an empty view yields an empty
result; a window longer than the series raises
:class:`~repro.exceptions.InvalidParameterError`; and so do
*non-contiguous* times (e.g. a view built with ``step > 1``), because "the
last ``w`` times" would silently span gaps — none of these ever reach the
strided ``sliding_window_view`` internals.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.db.prob_view import ProbabilisticView
from repro.db.queries import expected_value_vector
from repro.exceptions import InvalidParameterError

__all__ = [
    "windowed_expected_value",
    "exceedance_probability",
    "exceedance_vector",
    "per_time_exceedance",
    "sustained_exceedance_probability",
    "expected_time_above",
]


def _check_windowed(view: ProbabilisticView, window: int) -> bool:
    """Validate a windowed query; true when there is anything to compute.

    Returns false for an empty view (callers yield an empty result);
    raises for a non-positive window, a window longer than the series, and
    non-contiguous times.
    """
    if window < 1:
        raise InvalidParameterError(f"window must be >= 1, got {window}")
    times = view.columns.times
    if not times.size:
        return False
    if times.size < window:
        raise InvalidParameterError(
            f"view has {times.size} times, fewer than window={window}"
        )
    if np.any(np.diff(times) != 1):
        raise InvalidParameterError(
            f"view {view.name!r} has non-contiguous times; windowed queries "
            "need consecutive inference times (build the view with step=1)"
        )
    return True


def per_time_exceedance(
    low: np.ndarray,
    high: np.ndarray,
    probability: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """P(value > threshold) of each by-time group of the tuple columns.

    The array core behind :func:`exceedance_vector`, the segment synopsis'
    exceedance sketch and the stacked service kernel — same contract as
    :func:`repro.db.queries.per_time_expected_value`.
    """
    # Ranges fully above the threshold contribute everything (the fraction
    # clips to 1); the straddling range contributes proportionally.
    fraction = np.clip((high - threshold) / (high - low), 0.0, 1.0)
    contribution = (probability * fraction)[order]
    return np.minimum(np.add.reduceat(contribution, starts), 1.0)


def exceedance_vector(view: ProbabilisticView, threshold: float) -> np.ndarray:
    """Per-time P(value > threshold), aligned with ``view.columns.times``.

    The shared per-time exceedance primitive: :func:`exceedance_probability`
    keys it by time, the windowed queries reduce over it, and the standing
    queries in :mod:`repro.store.standing` evaluate it per view suffix.
    """
    cols = view.columns
    if not cols.times.size:
        return np.empty(0)
    return per_time_exceedance(
        cols.low, cols.high, cols.probability, cols.order, cols.starts,
        threshold,
    )


def exceedance_probability(view: ProbabilisticView, threshold: float) -> dict[int, float]:
    """P(value > threshold) per time.

    Ranges fully above the threshold contribute their whole probability;
    the range straddling it contributes proportionally (the builder's
    piecewise-uniform treatment within a range).
    """
    values = exceedance_vector(view, threshold)
    return {int(t): float(v) for t, v in zip(view.columns.times, values)}


def windowed_expected_value(
    view: ProbabilisticView, window: int
) -> dict[int, float]:
    """Sliding-window average of per-time expected values.

    Keyed by the window's *last* time; only full windows are reported.
    """
    if not _check_windowed(view, window):
        return {}
    values = expected_value_vector(view)
    times = view.times
    csum = np.concatenate(([0.0], np.cumsum(values)))
    means = (csum[window:] - csum[:-window]) / window
    return {times[i + window - 1]: float(means[i]) for i in range(means.size)}


def sustained_exceedance_probability(
    view: ProbabilisticView, threshold: float, window: int
) -> dict[int, float]:
    """P(value > threshold at every time of each ``window``-length window).

    Tuples at different times are independent in the created views, so the
    window probability is the product of per-time exceedances.  Keyed by
    the window's last time.
    """
    if not _check_windowed(view, window):
        return {}
    per_time = exceedance_vector(view, threshold)
    times = view.times
    products = np.prod(sliding_window_view(per_time, window), axis=1)
    return {
        times[i + window - 1]: float(products[i]) for i in range(products.size)
    }


def expected_time_above(
    view: ProbabilisticView, threshold: float, window: int
) -> dict[int, float]:
    """Expected count of exceedances within each window (linearity of E)."""
    if not _check_windowed(view, window):
        return {}
    per_time = exceedance_vector(view, threshold)
    times = view.times
    csum = np.concatenate(([0.0], np.cumsum(per_time)))
    sums = csum[window:] - csum[:-window]
    return {times[i + window - 1]: float(sums[i]) for i in range(sums.size)}
