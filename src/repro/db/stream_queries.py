"""Windowed probabilistic queries over created views (probabilistic streams).

The related work the paper positions against (Cormode & Garofalakis; Re et
al.) consumes *probabilistic streams* — exactly what a probabilistic view
over a time series is.  This module owns the per-time exceedance core
(:func:`per_time_exceedance`) and the one-shot stream consumers under the
views' tuple-independent semantics: per-time exceedance, the windowed
expected value, sustained exceedance (a product over a window, by
cross-time independence) and the expected time above a threshold (a sum,
by linearity of expectation).  Each is its
:class:`~repro.db.aggregates.KernelSpec` — the registry entry a ``SELECT``
item or a standing query runs — over the whole view: the per-time core,
then the shared window reduction with no carry.  An empty view yields an
empty result; a window longer than the series raises
:class:`~repro.exceptions.InvalidParameterError`, and so do
*non-contiguous* times (e.g. a view built with ``step > 1``), because
"the last ``w`` times" would silently span gaps.
"""

from __future__ import annotations

import numpy as np

from repro.db.prob_view import ProbabilisticView

__all__ = [
    "windowed_expected_value",
    "exceedance_probability",
    "exceedance_vector",
    "per_time_exceedance",
    "sustained_exceedance_probability",
    "expected_time_above",
]


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
    exceedance sketch and the ``exceedance`` / ``time_above`` /
    ``sustained_exceedance`` aggregates — same contract as
    :func:`repro.db.queries.per_time_expected_value`.
    """
    # Ranges fully above the threshold contribute everything (the fraction
    # clips to 1); the straddling range contributes proportionally.
    fraction = np.clip((high - threshold) / (high - low), 0.0, 1.0)
    contribution = (probability * fraction)[order]
    return np.minimum(np.add.reduceat(contribution, starts), 1.0)


def exceedance_vector(view: ProbabilisticView, threshold: float) -> np.ndarray:
    """Per-time P(value > threshold), aligned with ``view.columns.times``."""
    cols = view.columns
    if not cols.times.size:
        return np.empty(0)
    return per_time_exceedance(
        cols.low, cols.high, cols.probability, cols.order, cols.starts, threshold
    )


def _one_shot(
    name: str, view: ProbabilisticView, arguments: tuple[float, ...]
) -> dict[int, float]:
    """Aggregate ``name`` over the whole view, keyed by (window-end) time."""
    # Imported here: the registry imports this module's exceedance core.
    from repro.db.aggregates import AGGREGATES

    spec = AGGREGATES[name]
    arguments = spec.bind(arguments)
    cols = view.columns
    times, values, _ = spec.reduce(
        spec.per_time(cols, arguments), cols.times, arguments, whole=True
    )
    return dict(zip(times.tolist(), values.tolist()))


def exceedance_probability(view: ProbabilisticView, threshold: float) -> dict[int, float]:
    """P(value > threshold) per time.

    Ranges fully above the threshold contribute their whole probability;
    the range straddling it contributes proportionally (the builder's
    piecewise-uniform treatment within a range).
    """
    return _one_shot("exceedance", view, (threshold,))


def windowed_expected_value(
    view: ProbabilisticView, window: int
) -> dict[int, float]:
    """Sliding-window average of per-time expected values.

    Keyed by the window's *last* time; only full windows are reported.
    """
    return _one_shot("windowed_expected_value", view, (window,))


def sustained_exceedance_probability(
    view: ProbabilisticView, threshold: float, window: int
) -> dict[int, float]:
    """P(value > threshold at every time of each ``window``-length window).

    Tuples at different times are independent in the created views, so the
    window probability is the product of per-time exceedances.  Keyed by
    the window's last time.
    """
    return _one_shot("sustained_exceedance", view, (threshold, window))


def expected_time_above(
    view: ProbabilisticView, threshold: float, window: int
) -> dict[int, float]:
    """Expected count of exceedances within each window (linearity of E)."""
    return _one_shot("time_above", view, (threshold, window))
