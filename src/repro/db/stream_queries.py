"""Windowed probabilistic queries over created views (probabilistic streams).

The related work the paper positions against (Cormode & Garofalakis; Re et
al.) consumes *probabilistic streams* — exactly what a probabilistic view
over a time series is.  This module holds the one-shot stream consumers
under the views' tuple-independent semantics: per-time exceedance, the
windowed expected value, sustained exceedance (a product over a window, by
cross-time independence) and the expected time above a threshold (a sum,
by linearity of expectation).  Each is a thin wrapper: its
:class:`~repro.db.aggregates.KernelSpec` — the registry entry a ``SELECT``
item or a standing query runs — binds the arguments as ``SELECT`` does,
then runs over the whole view: the per-time core, then the shared window
reduction with no carry.  An empty view yields an
empty result; a window longer than the series raises
:class:`~repro.exceptions.InvalidParameterError`, and so do
*non-contiguous* times (e.g. a view built with ``step > 1``), because
"the last ``w`` times" would silently span gaps.
"""

from __future__ import annotations

from repro.db.aggregates import AGGREGATES
from repro.db.prob_view import ProbabilisticView

__all__ = [
    "windowed_expected_value",
    "exceedance_probability",
    "sustained_exceedance_probability",
    "expected_time_above",
]


def exceedance_probability(view: ProbabilisticView, threshold: float) -> dict[int, float]:
    """P(value > threshold) per time.

    Ranges fully above the threshold contribute their whole probability;
    the range straddling it contributes proportionally (the builder's
    piecewise-uniform treatment within a range).
    """
    return AGGREGATES["exceedance"].one_shot(view, threshold)


def windowed_expected_value(
    view: ProbabilisticView, window: int
) -> dict[int, float]:
    """Sliding-window average of per-time expected values.

    Keyed by the window's *last* time; only full windows are reported.
    """
    return AGGREGATES["windowed_expected_value"].one_shot(view, window)


def sustained_exceedance_probability(
    view: ProbabilisticView, threshold: float, window: int
) -> dict[int, float]:
    """P(value > threshold at every time of each ``window``-length window).

    Tuples at different times are independent in the created views, so the
    window probability is the product of per-time exceedances.  Keyed by
    the window's last time.
    """
    return AGGREGATES["sustained_exceedance"].one_shot(view, threshold, window)


def expected_time_above(
    view: ProbabilisticView, threshold: float, window: int
) -> dict[int, float]:
    """Expected count of exceedances within each window (linearity of E)."""
    return AGGREGATES["time_above"].one_shot(view, threshold, window)
