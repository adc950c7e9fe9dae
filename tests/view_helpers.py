"""Hand-written probabilistic views for tests, built the library's one way.

Tests spell a view as rows — :class:`~repro.db.prob_view.ProbTuple`
records or ``(t, low, high, probability[, label])`` tuples — and
:func:`view_from_rows` turns them into columns for
:meth:`~repro.db.prob_view.ProbabilisticView.from_columns`, so every
hand-built view passes the same checks as a store-loaded one.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import astuple

from repro.db.prob_view import ProbabilisticView, ProbTuple


def view_from_rows(name: str, rows: Iterable) -> ProbabilisticView:
    """The view whose tuples are ``rows``, in order (label ``""`` when a
    row gives none)."""
    rows = [
        astuple(row) if isinstance(row, ProbTuple) else tuple(row) for row in rows
    ]
    return ProbabilisticView.from_columns(
        name,
        [row[0] for row in rows],
        [row[1] for row in rows],
        [row[2] for row in rows],
        [row[3] for row in rows],
        labels=[row[4] if len(row) > 4 else "" for row in rows],
    )
