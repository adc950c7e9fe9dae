"""The per-series kernels: task envelopes in, array-form answers out.

:func:`compute_chunk` is the only code that turns
:class:`~repro.service.planner.TaskEnvelope` objects into answers.  Both
executor backends call it — the sequential backend inline, the process
backend inside spawn-started workers — so cross-backend parity is
structural: one function, two schedulers.

Answers are :class:`ArrayResult` objects — plain numpy arrays per series
plus the ``TOP k`` score, computed here where the arrays are.  The
per-time-dense aggregates (:data:`BATCHED_KERNELS`) additionally run
*stacked*: the chunk's restricted views are concatenated and each kernel
is one grouped pass over the stack instead of one numpy dispatch per
series.  A stack never grows past :data:`_STACK_ROWS` tuples (one larger
view runs alone), so however long the chunk, only that many rows of
views plus one stacked copy are alive at once.

The stacked kernels — ``expected_value``, ``exceedance``, ``time_above``
and ``probability_of`` — call the array cores of :mod:`repro.db`
(``per_time_expected_value``, ``per_time_exceedance``,
``per_time_range_mass``); ``simulate`` runs solo through
``WorldSampler.sample_matrix``.  The one-shot query functions built on
the same cores stay the public API and the reference the parity tests
compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.db.prob_view import ProbabilisticView
from repro.db.queries import per_time_expected_value
from repro.db.stream_queries import _check_windowed, per_time_exceedance
from repro.db.worlds import (
    WorldSampler,
    derive_series_seed,
    per_time_range_mass,
)
from repro.exceptions import ReproError
from repro.store.catalog import _load_view_from_segments

if TYPE_CHECKING:  # pragma: no cover - typing only.
    from repro.service.planner import TaskEnvelope

__all__ = [
    "ArrayResult",
    "BATCHED_KERNELS",
    "compute_chunk",
    "empty_result",
    "restrict_time_range",
]

#: Aggregates computed as one stacked pass per chunk, ``probability_of``
#: included (per-time-dense mapping kernels whose group reductions never
#: cross series).
BATCHED_KERNELS = frozenset(
    ("exceedance", "expected_value", "probability_of", "time_above")
)

#: Most tuples a chunk stacks before the pending batches are computed
#: and their views released.  Small views amortise numpy dispatch over
#: several series; past a few thousand rows a stack falls out of the
#: CPU cache and costs more than it saves, so the bound stays low —
#: which also keeps the stacked copy well under a MiB per worker.
_STACK_ROWS = 1 << 13


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


@dataclass
class ArrayResult:
    """One series' answer as plain arrays — the backend → executor carrier.

    ``kind`` names the layout of ``arrays``:

    * ``"mapping"`` — ``times`` (int64, ascending) and ``values``: the
      per-time aggregates and ``PROBABILITY OF``;
    * ``"rows"`` — ``t`` / ``low`` / ``high`` / ``probability`` / ``code``
      columns of ``threshold``'s hits, the label pool in ``meta[0]``;
    * ``"worlds"`` — ``times`` plus an ``(n_worlds, len(times))``
      ``values`` matrix, ``NaN`` marking the OUTSIDE alternative;
    * ``"error"`` — no arrays; ``error`` is the one-line diagnostic (a
      message, never an exception object, so the result pickles the same
      from any backend).

    ``load_s`` / ``compute_s`` / ``cache_hit`` are the worker-side trace
    span as three plain numbers; the executor merges them into the
    parent :class:`~repro.obs.trace.QueryTrace`.  The process backend
    pickles these objects as they are through its pool's result pipe.
    """

    series_id: str
    kind: str
    arrays: dict[str, Any] = field(default_factory=dict)
    meta: tuple[Any, ...] = ()
    score: float = 0.0
    error: str | None = None
    load_s: float = 0.0
    compute_s: float = 0.0
    cache_hit: bool = True


def empty_result(
    series_id: str, kernel: str, arguments: tuple[float, ...]
) -> ArrayResult:
    """The exact answer ``kernel`` gives over an empty restricted view.

    What the executor emits for series the prune phase skipped entirely,
    and what the stacked kernels emit for views with no tuples.
    """
    times = np.empty(0, dtype=np.int64)
    if kernel == "threshold":
        column = np.empty(0, dtype=np.float64)
        arrays = {
            "t": times,
            "low": column,
            "high": column,
            "probability": column,
            "code": times,
        }
        return ArrayResult(series_id, "rows", arrays, meta=((),))
    if kernel == "simulate":
        values = np.empty((int(arguments[0]), 0), dtype=np.float64)
        arrays = {"times": times, "values": values}
        return ArrayResult(series_id, "worlds", arrays)
    arrays = {"times": times, "values": np.empty(0, dtype=np.float64)}
    return ArrayResult(series_id, "mapping", arrays)


def _mapping_score(kernel: str, values: np.ndarray) -> float:
    """The ``TOP k`` score of one per-time value vector.

    ``mean_ev`` sums left to right over python floats — ``np.sum``'s
    pairwise order differs in the last bit, and the score is part of the
    canonical bytes.
    """
    if not values.size:
        return 0.0
    if kernel == "expected_value":
        return float(sum(values.tolist()) / values.size)
    return float(values.max())


def _batched_mapping(
    kernel: str,
    arguments: tuple[float, ...],
    views: list[ProbabilisticView],
) -> list[np.ndarray]:
    """Per-series value vectors for one batched kernel, one numpy pass.

    The stack goes through the same array cores the one-shot queries in
    :mod:`repro.db.queries` / :mod:`repro.db.stream_queries` call, and is
    bit-identical to running them per series: every elementwise op
    produces the same element values on a concatenation, and the group
    boundaries are the per-series ``starts`` shifted by each series'
    offset — groups never cross series.  Windowed
    post-passes (``time_above``'s cumulative sums) run on the per-series
    slices so float accumulation order matches the solo kernel exactly.
    """
    columns = [view.columns for view in views]
    sizes = [cols.t.size for cols in columns]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    low = np.concatenate([cols.low for cols in columns])
    high = np.concatenate([cols.high for cols in columns])
    probability = np.concatenate([cols.probability for cols in columns])
    order = np.concatenate(
        [cols.order + offset for cols, offset in zip(columns, offsets)]
    )
    starts = np.concatenate(
        [cols.starts + offset for cols, offset in zip(columns, offsets)]
    )
    if kernel == "expected_value":
        values = per_time_expected_value(
            low, high, probability, order, starts
        )
    elif kernel == "probability_of":
        group_sizes = np.concatenate([cols.counts for cols in columns])
        values = per_time_range_mass(
            low, high, probability, order, starts, group_sizes, *arguments
        )
    else:  # exceedance / time_above share the exceedance vector.
        values = per_time_exceedance(
            low, high, probability, order, starts, arguments[0]
        )
    counts = [cols.times.size for cols in columns]
    bounds = np.concatenate(([0], np.cumsum(counts)))
    per_series = [values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    if kernel == "time_above":
        window = int(arguments[1])
        windowed: list[np.ndarray] = []
        for vector in per_series:
            csum = np.concatenate(([0.0], np.cumsum(vector)))
            windowed.append(csum[window:] - csum[:-window])
        per_series = windowed
    return per_series


def _solo(envelope: "TaskEnvelope", view: ProbabilisticView) -> ArrayResult:
    """``threshold`` / ``simulate`` over one view."""
    kernel = envelope.aggregate
    arguments = envelope.arguments
    cols = view.columns
    if kernel == "threshold":
        hits = np.flatnonzero(cols.probability >= arguments[0])
        arrays = {
            "t": cols.t[hits],
            "low": cols.low[hits],
            "high": cols.high[hits],
            "probability": cols.probability[hits],
            "code": cols.label_code[hits],
        }
        return ArrayResult(
            envelope.series_id,
            "rows",
            arrays,
            meta=(cols.labels,),
            score=float(hits.size),
        )
    # simulate: the stream is seeded from (seed, series_id) alone, so the
    # drawn worlds are bit-identical whichever backend, worker or fan-out
    # order ran the series.
    rng = np.random.default_rng(
        derive_series_seed(int(arguments[1]), envelope.series_id)
    )
    values = WorldSampler(view).sample_matrix(int(arguments[0]), rng)
    return ArrayResult(
        envelope.series_id,
        "worlds",
        {"times": cols.times, "values": values},
        score=float(cols.times.size),
    )


def _flush(
    batches: dict[tuple[str, tuple[float, ...]], list[tuple]],
    out: list[ArrayResult | None],
) -> None:
    """Compute and clear the pending stacks, one pass per (kernel, args).

    A batch's wall time is attributed evenly across its members.
    """
    for (kernel, arguments), members in batches.items():
        start = time.perf_counter()
        views = [member[2] for member in members]
        vectors = _batched_mapping(kernel, arguments, views)
        elapsed = time.perf_counter() - start
        for member, values in zip(members, vectors):
            index, series_id, view, load_s, hit = member
            times = view.columns.times
            if kernel == "time_above":
                times = times[int(arguments[1]) - 1 :]
            out[index] = ArrayResult(
                series_id,
                "mapping",
                {"times": times, "values": values},
                score=_mapping_score(kernel, values),
                load_s=load_s,
                compute_s=elapsed / len(members),
                cache_hit=hit,
            )
    batches.clear()


def compute_chunk(
    chunk: "list[TaskEnvelope]",
    cache: Any,
    *,
    mmap: bool = False,
) -> list[ArrayResult]:
    """Run task envelopes into array-form results, in input order.

    Views load through ``cache`` (a
    :class:`~repro.service.cache.MatrixCache`).  A series that fails to
    load or compute yields an ``"error"`` result naming it — loading
    counts too: in a fan-out over hundreds of series, "which series is
    broken" is the whole diagnostic — and never disturbs its
    chunk-mates.  Each result records its series' load/compute split
    and cache outcome.
    """
    out: list[ArrayResult | None] = [None] * len(chunk)
    batches: dict[tuple[str, tuple[float, ...]], list[tuple]] = {}
    stacked = 0
    for index, envelope in enumerate(chunk):
        hit = True
        load_s = 0.0

        def _load(envelope=envelope):
            nonlocal hit, load_s
            hit = False
            start = time.perf_counter()
            view = _load_view_from_segments(
                Path(envelope.directory),
                envelope.series_id,
                envelope.segments,
                mmap=mmap,
                shadows=envelope.shadows or None,
            )
            load_s = time.perf_counter() - start
            return view

        kernel = envelope.aggregate
        arguments = envelope.arguments
        try:
            view = cache.get(envelope.cache_key, _load)
            start = time.perf_counter()
            lo, hi = envelope.time_lo, envelope.time_hi
            view = restrict_time_range(view, lo, hi)
            if kernel not in BATCHED_KERNELS:
                result = _solo(envelope, view)
            else:
                # Windowed validation runs per series before the batch
                # forms, raising exactly what the solo kernel raises;
                # empty views take the empty-result path.
                if kernel == "time_above":
                    batchable = _check_windowed(view, int(arguments[1]))
                else:
                    batchable = bool(view.columns.times.size)
                if batchable:
                    rows = view.columns.t.size
                    if stacked and stacked + rows > _STACK_ROWS:
                        _flush(batches, out)
                        stacked = 0
                    stacked += rows
                    member = (index, envelope.series_id, view, load_s, hit)
                    batches.setdefault((kernel, arguments), []).append(member)
                    continue
                result = empty_result(envelope.series_id, kernel, arguments)
        except (ReproError, OSError) as exc:
            out[index] = ArrayResult(
                envelope.series_id,
                "error",
                error=(
                    f"aggregate {kernel!r} failed on series "
                    f"{envelope.series_id!r}: {exc}"
                ),
                load_s=load_s,
                cache_hit=hit,
            )
            continue
        result.load_s = load_s
        result.cache_hit = hit
        result.compute_s = time.perf_counter() - start
        out[index] = result
    _flush(batches, out)
    return out
