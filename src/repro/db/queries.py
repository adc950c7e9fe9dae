"""Probabilistic queries over created views.

The point of the paper is that, once a probabilistic view exists, standard
probabilistic query machinery applies directly.  This module provides the
basic consumers used by the examples and integration tests:

* :func:`threshold_query` — tuples whose probability exceeds a threshold
  (Cheng et al.'s probabilistic threshold query);
* :func:`most_probable_range_query` — the modal range per time;
* :func:`range_probability_query` — probability the value lies in an
  arbitrary interval, per time;
* :func:`expected_value_query` — expected value under the discretised
  distribution, per time.

All four run as column operations over
:attr:`~repro.db.prob_view.ProbabilisticView.columns` — boolean masks,
grouped ``np.add.reduceat`` reductions — and only materialise the
:class:`ProbTuple` objects they actually return, so their signatures and
return types are unchanged from the row-at-a-time implementations.
"""

from __future__ import annotations

import numpy as np

from repro.db.prob_view import ProbTuple, ProbabilisticView
from repro.db.worlds import per_time_range_mass
from repro.exceptions import InvalidParameterError

__all__ = [
    "threshold_query",
    "most_probable_range_query",
    "range_probability_query",
    "expected_value_query",
    "per_time_expected_value",
]


def threshold_query(view: ProbabilisticView, tau: float) -> list[ProbTuple]:
    """All tuples with ``probability >= tau``, in (time, range) order.

    >>> # tuples whose event is at least 50% likely
    >>> # threshold_query(view, 0.5)
    """
    if not 0.0 <= tau <= 1.0:
        raise InvalidParameterError(f"tau must be in [0, 1], got {tau}")
    hits = np.flatnonzero(view.columns.probability >= tau)
    return view.take(hits)


def most_probable_range_query(view: ProbabilisticView) -> dict[int, ProbTuple]:
    """The highest-probability tuple for every time in the view.

    Ties break toward the earlier (lower) range, matching the order the
    builder emits.
    """
    cols = view.columns
    if not cols.times.size:
        return {}
    prob_sorted = cols.probability[cols.order]
    maxima = np.maximum.reduceat(prob_sorted, cols.starts)
    # First position of each group's maximum: flat indices of all maximal
    # entries, then the earliest one at or after each group start.
    is_max = prob_sorted == np.repeat(maxima, cols.counts)
    max_positions = np.flatnonzero(is_max)
    firsts = max_positions[np.searchsorted(max_positions, cols.starts)]
    return {
        int(t): view[int(cols.order[position])]
        for t, position in zip(cols.times, firsts)
    }


def range_probability_query(
    view: ProbabilisticView, low: float, high: float
) -> dict[int, float]:
    """``P(low <= value < high)`` per time, from overlapping tuples.

    Half-open, and ``high <= low`` raises.  Partially overlapping tuples
    contribute proportionally to the overlap, exact under the builder's
    piecewise treatment of each range (:func:`~repro.db.worlds.per_time_range_mass`).
    """
    if high <= low:
        raise InvalidParameterError(
            f"query range upper bound must exceed lower, got [{low}, {high}]"
        )
    cols = view.columns
    masses = per_time_range_mass(
        cols.low, cols.high, cols.probability, cols.order, cols.starts,
        cols.counts, low, high,
    )
    return {int(t): float(mass) for t, mass in zip(cols.times, masses)}


def per_time_expected_value(
    low: np.ndarray,
    high: np.ndarray,
    probability: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
) -> np.ndarray:
    """Expected value of each by-time group of the tuple columns.

    ``order`` is the stable by-time sort of the columns and ``starts``
    delimits each time's group inside it
    (:class:`~repro.db.prob_view.ViewColumns`).  The one place this
    arithmetic lives: :func:`expected_value_query`, the segment synopsis
    (:func:`repro.store.binary.compute_view_synopsis`) and the stacked
    service kernel (:mod:`repro.service.kernels`, several views
    concatenated with offset ``order`` / ``starts``) all call it, so their
    answers agree bit for bit.  ``starts`` must be non-empty.
    """
    weighted = (probability * 0.5 * (low + high))[order]
    masses = np.add.reduceat(probability[order], starts)
    sums = np.add.reduceat(weighted, starts)
    # Degenerate groups (no mass): midpoint of the group's support.
    lows = np.minimum.reduceat(low[order], starts)
    highs = np.maximum.reduceat(high[order], starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            masses > 0.0,
            sums / np.where(masses > 0.0, masses, 1.0),
            0.5 * (lows + highs),
        )


def expected_value_query(view: ProbabilisticView) -> dict[int, float]:
    """Expected value per time under the discretised distribution.

    Each tuple contributes its range midpoint weighted by its probability
    (one grouped ``np.add.reduceat`` over the columns); the result is
    normalised by the captured mass so grids that truncate the tails stay
    unbiased.
    """
    cols = view.columns
    if not cols.times.size:
        return {}
    values = per_time_expected_value(
        cols.low, cols.high, cols.probability, cols.order, cols.starts
    )
    return {int(t): float(v) for t, v in zip(cols.times, values)}
