"""The per-series kernels: task envelopes in, array-form answers out.

:func:`compute_chunk` is the only code that turns
:class:`~repro.service.planner.TaskEnvelope` objects into answers.  Both
executor backends call it — the sequential backend inline, the process
backend inside spawn-started workers — so cross-backend parity is
structural: one function, two schedulers.

This module only loads, restricts and dispatches: every series' answer
is its kernel's :meth:`~repro.db.aggregates.KernelSpec.evaluate` over its
own restricted view — the one evaluator the executor's pruned series,
standing queries and the one-shot query functions call too — returned
as a :class:`~repro.db.aggregates.SeriesResult` (re-exported here) that
stays the same object all the way out: the backends hand it back, the
executor merges its trace span, ranks it and renders it.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.db.aggregates import KERNELS, SeriesResult
from repro.db.prob_view import ProbabilisticView
from repro.exceptions import ReproError
from repro.store.catalog import _load_view_from_segments

if TYPE_CHECKING:  # pragma: no cover - typing only.
    from repro.service.planner import TaskEnvelope

__all__ = [
    "SeriesResult",
    "compute_chunk",
    "restrict_time_range",
]


def restrict_time_range(
    view: ProbabilisticView, lo: float | None, hi: float | None
) -> ProbabilisticView:
    """The sub-view whose tuples satisfy ``lo <= t <= hi``.

    Returns the input unchanged when no bound cuts anything — the common
    unbounded query never copies columns.
    """
    if lo is None and hi is None:
        return view
    cols = view.columns
    mask = np.ones(cols.t.size, dtype=bool)
    if lo is not None:
        mask &= cols.t >= lo
    if hi is not None:
        mask &= cols.t <= hi
    if bool(mask.all()):
        return view
    indices = np.flatnonzero(mask)
    return ProbabilisticView.from_columns(
        view.name,
        cols.t[indices],
        cols.low[indices],
        cols.high[indices],
        cols.probability[indices],
        label_code=cols.label_code[indices],
        label_pool=cols.labels,
    )


def compute_chunk(
    chunk: "list[TaskEnvelope]",
    cache: Any,
) -> list[SeriesResult]:
    """Run task envelopes into array-form results, in input order.

    One straight loop: each envelope's view loads through ``cache`` (a
    :class:`~repro.service.cache.MatrixCache`), is restricted to the
    WHERE range, and runs its kernel's evaluator under the envelope's
    series id, which keys the answer and seeds its worlds.  A series
    that fails to load or compute yields an ``"error"`` result naming it
    — loading counts too: in a fan-out over hundreds of series, "which
    series is broken" is the whole diagnostic — and never disturbs its
    chunk-mates.  Each result records its own load and compute time and
    cache outcome.
    """
    out: list[SeriesResult] = []
    for envelope in chunk:
        hit = True
        load_s = 0.0

        def _load():
            nonlocal hit, load_s
            hit = False
            start = time.perf_counter()
            view = _load_view_from_segments(
                Path(envelope.directory),
                envelope.series_id,
                envelope.segments,
                shadows=envelope.shadows or None,
            )
            load_s = time.perf_counter() - start
            return view

        try:
            view = cache.get(envelope.cache_key, _load)
            start = time.perf_counter()
            view = restrict_time_range(view, envelope.time_lo, envelope.time_hi)
            result, _ = KERNELS[envelope.aggregate].evaluate(
                view, envelope.arguments, whole=True, series_id=envelope.series_id
            )
            result.compute_s = time.perf_counter() - start
        except (ReproError, OSError) as exc:
            result = SeriesResult(
                envelope.series_id,
                "error",
                error=(
                    f"aggregate {envelope.aggregate!r} failed on series "
                    f"{envelope.series_id!r}: {exc}"
                ),
            )
        result.load_s = load_s
        result.cache_hit = hit
        out.append(result)
    return out
