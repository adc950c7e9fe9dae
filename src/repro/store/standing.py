"""Standing queries: SELECT items kept current over a growing series.

A standing query is one select-list item — ``exceedance(21)``,
``sustained_exceedance(21, 5)`` — registered against a catalog series.
After every append it runs **only over the new suffix**, through the
one evaluator a ``SELECT`` runs
(:meth:`~repro.db.aggregates.KernelSpec.evaluate`): the per-time core on
the suffix (a time's value depends only on its own tuples), then the
window reduction continued from the handle's carry; the delta is the
suffix answer's :attr:`~repro.db.aggregates.SeriesResult.result` —
``threshold`` hits in (time, range) order as
:class:`~repro.db.prob_view.ProbTuple` records, which append, or a
per-time dict, which updates.  The accumulated result therefore *equals*
the one-shot query over the full view, at ``O(batch + window)`` per
append however long the series grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.db.aggregates import AGGREGATES, WindowCarry, resolve
from repro.db.prob_view import ProbabilisticView
from repro.view.sql import SelectItem

__all__ = ["StandingQuery", "StandingQueryHandle"]


@dataclass(frozen=True)
class StandingQuery(SelectItem):
    """One SELECT item to keep current, e.g. ``StandingQuery("time_above",
    (21, 5))``: bound through its :data:`~repro.db.aggregates.AGGREGATES`
    spec when constructed, so an invalid query fails here, not deep inside
    the first update."""

    def __post_init__(self) -> None:
        bound = resolve(self.name).bind(self.arguments)
        object.__setattr__(self, "arguments", bound)

    @classmethod
    def exceedance(cls, threshold: float) -> StandingQuery:
        """Per-time ``P(value > threshold)``."""
        return cls("exceedance", (threshold,))

    @classmethod
    def sustained_exceedance(cls, threshold: float, window: int) -> StandingQuery:
        """P(threshold exceeded at every time of each window)."""
        return cls("sustained_exceedance", (threshold, window))


class StandingQueryHandle:
    """A registered standing query: accumulated result + last delta.

    ``result()`` always equals the query's one-shot form over the full
    view — a list of :class:`~repro.db.prob_view.ProbTuple` records for
    ``threshold``, a per-time (or per-window-end) dict otherwise;
    ``last_delta`` holds only what the most recent update made newly
    answerable.
    """

    def __init__(self, query: StandingQuery) -> None:
        self.query = query
        self.last_delta: Any = None
        self._spec = AGGREGATES[query.name]
        # Threshold rows append to a list; per-time values update a dict.
        self._result: Any = [] if self._spec.kind == "rows" else {}
        self._carry: WindowCarry | None = None

    def __repr__(self) -> str:
        return f"StandingQueryHandle({self.query.label()})"

    def update(self, suffix: ProbabilisticView) -> Any:
        """Feed the view's new suffix; returns (and records) the delta."""
        answer, self._carry = self._spec.evaluate(
            suffix, self.query.arguments, self._carry
        )
        delta = answer.result
        if isinstance(delta, list):
            self._result.extend(delta)
        else:
            self._result.update(delta)
        self.last_delta = delta
        return delta

    def result(self) -> Any:
        """The accumulated result over everything ingested so far."""
        return self._result.copy()
