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

All but :func:`most_probable_range_query` are thin wrappers: each is its
:data:`~repro.db.aggregates.AGGREGATES` entry's
:meth:`~repro.db.aggregates.KernelSpec.one_shot` over the whole view, so
its arguments are validated exactly as a ``SELECT`` item's are and its
answer is the ``SELECT`` answer's, bit for bit.  All four run as column
operations over :attr:`~repro.db.prob_view.ProbabilisticView.columns`;
the two that return tuples gather only those tuples' columns, in one
:meth:`~repro.db.prob_view.ProbabilisticView.take`, into fresh
:class:`ProbTuple` records.
"""

from __future__ import annotations

import numpy as np

from repro.db.aggregates import AGGREGATES
from repro.db.prob_view import ProbTuple, ProbabilisticView

__all__ = [
    "threshold_query",
    "most_probable_range_query",
    "range_probability_query",
    "expected_value_query",
]


def threshold_query(view: ProbabilisticView, tau: float) -> list[ProbTuple]:
    """All tuples with ``probability >= tau``, in (time, range) order.

    >>> # tuples whose event is at least 50% likely
    >>> # threshold_query(view, 0.5)
    """
    return AGGREGATES["threshold"].one_shot(view, tau)


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
    return dict(zip(cols.times.tolist(), view.take(cols.order[firsts])))


def range_probability_query(
    view: ProbabilisticView, low: float, high: float
) -> dict[int, float]:
    """``P(low <= value < high)`` per time, from overlapping tuples.

    Half-open: ``[a, a)`` is empty (0 at every time), and an inverted or
    non-finite range raises.  Partially overlapping tuples contribute
    proportionally to the overlap, exact under the builder's piecewise
    treatment of each range.
    """
    return AGGREGATES["probability_of"].one_shot(view, low, high)


def expected_value_query(view: ProbabilisticView) -> dict[int, float]:
    """Expected value per time under the discretised distribution.

    Each tuple contributes its range midpoint weighted by its probability;
    the result is normalised by the captured mass so grids that truncate
    the tails stay unbiased.
    """
    return AGGREGATES["expected_value"].one_shot(view)
