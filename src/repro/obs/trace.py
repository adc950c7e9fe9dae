"""Per-query trace spans: where one statement's wall time actually went.

Every statement is traced: a :class:`QueryTrace` is created when it
enters the stack (the server's request handler,
:meth:`~repro.db.engine.Database.execute`, or
:class:`~repro.service.executor.CatalogQueryService` when called
directly) and carried through parse → plan → prune → fan-out →
per-series load/compute → serialize.  Stage timings are recorded as
*contiguous, non-overlapping* top-level spans, so their sum approximates
the query's wall time (the acceptance tests pin the gap under 10%);
per-series load/compute spans are children of the fan-out stage and are
reported separately — they overlap each other under the process backend
and must not be summed with the stages.

Worker-side spans cross backend boundaries as three plain numbers on each
:class:`~repro.db.aggregates.SeriesResult` (``load_s``,
``compute_s``, ``cache_hit``) — picklable under any multiprocessing start
method — and are merged into the parent trace by the executor, so a trace
looks the same whether the work ran inline or in spawn-started worker
processes.

The rendered block (``trace.as_dict()``, attached to wire results when
the request asked for it)::

    {
      "backend": "sequential",
      "transport": "inline",
      "wall_ms": 12.41,
      "stages": [{"name": "parse", "ms": 0.05}, ...],
      "series": [{"series": "room-1", "load_ms": 3.1,
                  "compute_ms": 0.6, "cache_hit": false}, ...],
      "series_truncated": 0,
      "cache": {"hits": 5, "misses": 1}
    }

``series`` is capped at the :data:`MAX_SERIES_SPANS` slowest entries —
a 10k-series fan-out must not ship a 10k-row trace — with the number
dropped recorded in ``series_truncated``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any

__all__ = ["MAX_SERIES_SPANS", "QueryTrace", "Span"]

#: Per-series spans kept in a rendered trace (the slowest ones win).
MAX_SERIES_SPANS = 32


class Span:
    """One named, timed region: offset and duration in seconds."""

    __slots__ = ("name", "start_s", "duration_s")

    def __init__(self, name: str, start_s: float, duration_s: float) -> None:
        self.name = name
        self.start_s = start_s
        self.duration_s = duration_s

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, +{self.start_s * 1e3:.2f}ms, "
            f"{self.duration_s * 1e3:.2f}ms)"
        )


class QueryTrace:
    """Mutable trace context for one statement's execution.

    Every statement has one: there is no disabled mode, so every route
    feeds the same latency histogram and slow-query log.  Stages are
    recorded by the single thread driving the statement, so no lock is
    needed; per-series entries are merged in by that same thread after
    the backend gather returns.
    """

    __slots__ = (
        "statement",
        "backend",
        "transport",
        "stages",
        "series",
        "cache_hits",
        "cache_misses",
        "_t0",
        "_wall_s",
    )

    def __init__(self, statement: str | None = None) -> None:
        self.statement = statement
        self.backend: str | None = None
        self.transport: str | None = None
        self.stages: list[Span] = []
        self.series: list[tuple[str, float, float, bool]] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self._t0 = time.perf_counter()
        self._wall_s: float | None = None

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    @contextmanager
    def stage(self, name: str):
        """Time one top-level stage; appends its span on exit."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            end = time.perf_counter()
            self.stages.append(Span(name, start - self._t0, end - start))

    def add_stage(self, name: str, start_s: float, duration_s: float) -> None:
        """Append an externally timed stage (offsets relative to t0)."""
        self.stages.append(Span(name, start_s, duration_s))

    def offset(self) -> float:
        """Seconds since the trace started (for add_stage bookkeeping)."""
        return time.perf_counter() - self._t0

    def add_series(
        self,
        series_id: str,
        load_s: float,
        compute_s: float,
        cache_hit: bool,
    ) -> None:
        """Merge one worker-side per-series span into this trace."""
        self.series.append((series_id, load_s, compute_s, cache_hit))
        if cache_hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def finish(self) -> float:
        """Freeze the wall clock (idempotent); returns wall seconds."""
        if self._wall_s is None:
            self._wall_s = time.perf_counter() - self._t0
        return self._wall_s

    def elapsed(self) -> float:
        """Seconds since the trace started (wall once finished)."""
        if self._wall_s is not None:
            return self._wall_s
        return time.perf_counter() - self._t0

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------
    def stage_ms(self) -> dict[str, float]:
        """Stage name -> milliseconds (stages with the same name sum)."""
        out: dict[str, float] = {}
        for span in self.stages:
            out[span.name] = out.get(span.name, 0.0) + span.duration_s * 1e3
        return out

    def as_dict(self) -> dict[str, Any]:
        """The JSON-ready trace block (see module docs for the schema)."""
        ranked = sorted(
            self.series, key=lambda entry: (-(entry[1] + entry[2]), entry[0])
        )
        kept = ranked[:MAX_SERIES_SPANS]
        payload: dict[str, Any] = {
            "wall_ms": round(self.elapsed() * 1e3, 4),
            "stages": [
                {
                    "name": span.name,
                    "start_ms": round(span.start_s * 1e3, 4),
                    "ms": round(span.duration_s * 1e3, 4),
                }
                for span in self.stages
            ],
            "series": [
                {
                    "series": series_id,
                    "load_ms": round(load_s * 1e3, 4),
                    "compute_ms": round(compute_s * 1e3, 4),
                    "cache_hit": bool(cache_hit),
                }
                for series_id, load_s, compute_s, cache_hit in kept
            ],
            "series_truncated": max(0, len(ranked) - MAX_SERIES_SPANS),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
        }
        if self.backend is not None:
            payload["backend"] = self.backend
        if self.transport is not None:
            payload["transport"] = self.transport
        if self.statement is not None:
            payload["statement"] = self.statement
        return payload

    def __repr__(self) -> str:
        return (
            f"QueryTrace(stages={[span.name for span in self.stages]}, "
            f"series={len(self.series)}, wall={self.elapsed() * 1e3:.2f}ms)"
        )

