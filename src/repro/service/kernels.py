"""The per-series kernels: task envelopes in, array-form answers out.

:func:`compute_chunk` is the only code that turns
:class:`~repro.service.planner.TaskEnvelope` objects into answers.  Both
executor backends call it — the sequential backend inline, the process
backend inside spawn-started workers — so cross-backend parity is
structural: one function, two schedulers.

Answers are :class:`SeriesResult` objects — plain numpy arrays per series
plus the ``TOP k`` score — and stay the same objects all the way out:
the backends hand them back, the executor merges their trace spans,
ranks them and renders them.  This module only loads and dispatches:
what an aggregate computes and how it scores is its
:class:`~repro.db.aggregates.KernelSpec`'s.  Every series runs its
kernel alone, over its own restricted view: a per-time core plus its
window pass, a row selection, or sampled worlds.  A row selection's
rows — its JSON payload and its :class:`~repro.db.prob_view.ProbTuple`
records alike — come out of :func:`~repro.db.prob_view.tuple_rows`, the
one row renderer ``CREATE VIEW`` payloads and
:meth:`~repro.db.prob_view.ProbabilisticView.take` use too.  The
one-shot query functions built on the same specs are the reference the
parity tests compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.db.aggregates import KERNELS, KernelSpec
from repro.db.prob_view import ProbabilisticView, ProbTuple, tuple_rows
from repro.db.worlds import WorldSampler, derive_series_seed
from repro.exceptions import ReproError
from repro.store.catalog import _load_view_from_segments

if TYPE_CHECKING:  # pragma: no cover - typing only.
    from repro.service.planner import TaskEnvelope

__all__ = [
    "SeriesResult",
    "compute_chunk",
    "empty_result",
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


@dataclass(eq=False)
class SeriesResult:
    """One series' answer to a statement item, kept as the kernel's arrays.

    ``kind`` names the layout of ``arrays``:

    * ``"mapping"`` — ``times`` (int64, ascending) and ``values``: a
      per-time core's answer, after its window pass;
    * ``"rows"`` — ``t`` / ``low`` / ``high`` / ``probability`` / ``code``
      columns of a row selection's hits, the label pool in ``meta[0]``;
    * ``"worlds"`` — ``times`` plus an ``(n_worlds, len(times))``
      ``values`` matrix, ``NaN`` marking the OUTSIDE alternative;
    * ``"approx"`` — no arrays: the executor's synopsis estimate, its
      estimate/error-bound mapping in ``meta[0]``;
    * ``"error"`` — no arrays; ``error`` is the one-line diagnostic (a
      message, never an exception object, so the result pickles the same
      from any backend).

    ``score`` is the scalar ``TOP k`` ranks by.  ``load_s`` /
    ``compute_s`` / ``cache_hit`` are the worker-side trace span as three
    plain numbers; the executor merges them into the parent
    :class:`~repro.obs.trace.QueryTrace`.  The process backend pickles
    these objects as they are through its pool's result pipe, and the
    executor ranks and renders the same objects: :meth:`rows` builds the
    JSON payload straight from the arrays.  ``result`` is the object the
    aggregate's one-shot query returns for this series — for
    ``threshold`` a :class:`~repro.db.prob_view.ProbTuple` record per
    :meth:`rows` row, a per-time dict for the other aggregates, a list of
    ``[t, value]`` worlds for ``SIMULATE`` — built on first access and kept; an
    ``"error"`` entry's is ``None``, its ``size`` 0, and ``==`` compares
    ``error`` too.
    """

    series_id: str
    kind: str
    arrays: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    meta: tuple[Any, ...] = field(default=(), repr=False)
    score: float = 0.0
    error: str | None = None
    load_s: float = 0.0
    compute_s: float = 0.0
    cache_hit: bool = True
    _result: Any = field(default=None, init=False, repr=False)

    def rows(self) -> Any:
        """This entry's JSON-ready payload, no per-row objects built.

        Mapping rows are ``[t, value]`` in the arrays' (ascending-time)
        order; ``threshold`` rows are 5-column; worlds are ``[t, value]``
        lists with ``None`` for the OUTSIDE alternative.
        """
        arrays = self.arrays
        if self.kind == "mapping":
            return [
                list(pair)
                for pair in zip(arrays["times"].tolist(), arrays["values"].tolist())
            ]
        if self.kind == "rows":
            return tuple_rows(
                arrays["t"],
                arrays["low"],
                arrays["high"],
                arrays["probability"],
                arrays["code"],
                self.meta[0],
            )
        if self.kind == "worlds":
            times = arrays["times"].tolist()
            # NaN (the only value unequal to itself) marks OUTSIDE.
            return [
                [[t, v if v == v else None] for t, v in zip(times, world)]
                for world in arrays["values"].tolist()
            ]
        return {key: float(value) for key, value in sorted(self.meta[0].items())}

    @property
    def result(self) -> Any:
        if self._result is None:
            if self.kind == "mapping":
                self._result = dict(
                    zip(
                        self.arrays["times"].tolist(),
                        self.arrays["values"].tolist(),
                    )
                )
            elif self.kind == "rows":
                self._result = [ProbTuple(*row) for row in self.rows()]
            elif self.kind == "worlds":
                self._result = self.rows()
            elif self.kind == "approx":
                self._result = self.meta[0]
        return self._result

    @property
    def size(self) -> int:
        if self.kind == "error":
            return 0
        if self.kind == "approx":
            return len(self.meta[0])
        return len(self.arrays["t" if self.kind == "rows" else "values"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeriesResult):
            return NotImplemented
        return (self.series_id, self.score, self.error, self.result) == (
            other.series_id,
            other.score,
            other.error,
            other.result,
        )


def empty_result(
    series_id: str, kernel: str, arguments: tuple[float, ...]
) -> SeriesResult:
    """The exact answer ``kernel`` gives over an empty restricted view.

    What the executor emits for series the prune phase skipped entirely.
    """
    times = np.empty(0, dtype=np.int64)
    values = np.empty(0, dtype=np.float64)
    kind = KERNELS[kernel].kind
    if kind == "rows":
        arrays = dict(t=times, low=values, high=values, probability=values, code=times)
        return SeriesResult(series_id, kind, arrays, meta=((),))
    if kind == "worlds":
        values = np.empty((int(arguments[0]), 0), dtype=np.float64)
    return SeriesResult(series_id, kind, {"times": times, "values": values})


def _compute(
    spec: KernelSpec, envelope: "TaskEnvelope", view: ProbabilisticView
) -> SeriesResult:
    """``spec``'s kernel over one restricted view.

    A per-time core plus its window pass, a row selection, or sampled
    worlds.
    """
    arguments = envelope.arguments
    cols = view.columns
    if spec.core is not None:
        times, values, _ = spec.reduce(
            spec.per_time(cols, arguments), cols.times, arguments, whole=True
        )
        return SeriesResult(
            envelope.series_id,
            "mapping",
            {"times": times, "values": values},
            score=spec.score(values),
        )
    if spec.selection is not None:
        hits = spec.selection(cols, arguments)
        arrays = {
            "t": cols.t[hits],
            "low": cols.low[hits],
            "high": cols.high[hits],
            "probability": cols.probability[hits],
            "code": cols.label_code[hits],
        }
        return SeriesResult(
            envelope.series_id,
            "rows",
            arrays,
            meta=(cols.labels,),
            score=spec.score(arrays["probability"]),
        )
    # Worlds: the stream is seeded from (seed, series_id) alone, so the
    # drawn worlds are bit-identical whichever backend, worker or fan-out
    # order ran the series.
    rng = np.random.default_rng(
        derive_series_seed(int(arguments[1]), envelope.series_id)
    )
    values = WorldSampler(view).sample_matrix(int(arguments[0]), rng)
    return SeriesResult(
        envelope.series_id,
        "worlds",
        {"times": cols.times, "values": values},
        score=spec.score(values),
    )


def compute_chunk(
    chunk: "list[TaskEnvelope]",
    cache: Any,
) -> list[SeriesResult]:
    """Run task envelopes into array-form results, in input order.

    One straight loop: each envelope's view loads through ``cache`` (a
    :class:`~repro.service.cache.MatrixCache`), is restricted to the
    WHERE range, and runs its kernel.  A series that fails to load or
    compute yields an ``"error"`` result naming it — loading counts too:
    in a fan-out over hundreds of series, "which series is broken" is
    the whole diagnostic — and never disturbs its chunk-mates.  Each
    result records its own load and compute time and cache outcome.
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
            result = _compute(KERNELS[envelope.aggregate], envelope, view)
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
