"""Ring-buffer slow-query log: the last 128 statements over the threshold.

Lifetime histograms answer "what is p99 right now?"; the slow-query log
answers the next question — "*which* statements are the p99, and where
did their time go?".  Every executed statement is offered to the log with
its finished :class:`~repro.obs.trace.QueryTrace`; those at or over the
threshold are kept in a bounded ring (oldest evicted first), each entry
carrying the statement text, total duration, per-stage breakdown, cache
hit/miss counts, and the pruning counters of that query — enough to
re-run and attack the slow statement without enabling anything first.

The log is always on (an under-threshold query costs one float compare);
the threshold is just a knob: ``CatalogQueryService(slow_query_ms=...)``,
``server serve --slow-query-ms``, or ``log.threshold_ms = ...`` at
runtime.  It must be a number ``>= 0``: ``0`` records everything,
``float("inf")`` nothing, and a negative or NaN threshold raises
:class:`~repro.exceptions.InvalidParameterError`.  Entries come back
newest-first over the wire via ``{"op": "slowlog"}``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

from repro.exceptions import InvalidParameterError
from repro.obs.trace import QueryTrace

__all__ = ["DEFAULT_SLOW_QUERY_MS", "SlowQueryLog"]

#: Default threshold: sub-half-second statements are routine for a warm
#: catalog; anything slower deserves a record.
DEFAULT_SLOW_QUERY_MS = 500.0

#: Ring capacity — bounded memory no matter how bad the day is.
CAPACITY = 128


class SlowQueryLog:
    """Bounded, thread-safe ring of slow-statement records.

    Statements with wall time >= ``threshold_ms`` are recorded, the
    oldest evicted once :data:`CAPACITY` are held.  ``0`` records
    everything (useful in tests and short diagnostics sessions);
    ``float("inf")`` disables recording without removing the log.
    """

    def __init__(self, threshold_ms: float = DEFAULT_SLOW_QUERY_MS) -> None:
        # Written so a NaN, which compares false with everything, fails.
        if not threshold_ms >= 0:
            raise InvalidParameterError(
                f"slow-query threshold must be >= 0 ms, got {threshold_ms}"
            )
        self.threshold_ms = float(threshold_ms)
        self._lock = threading.Lock()
        self._entries: deque[dict[str, Any]] = deque(maxlen=CAPACITY)
        self._observed = 0
        self._recorded = 0

    def observe(
        self, trace: QueryTrace, *, extra: dict[str, Any] | None = None
    ) -> bool:
        """Offer one finished trace; True when it was slow enough to keep.

        ``extra`` lands verbatim in the record (the executor passes the
        pruning counters and cache totals of the query).
        """
        wall_ms = trace.elapsed() * 1e3
        with self._lock:
            self._observed += 1
            if wall_ms < self.threshold_ms:
                return False
            entry: dict[str, Any] = {
                "statement": trace.statement or "<unknown>",
                "wall_ms": round(wall_ms, 4),
                "stages": {
                    name: round(ms, 4)
                    for name, ms in trace.stage_ms().items()
                },
                "cache_hits": trace.cache_hits,
                "cache_misses": trace.cache_misses,
                "recorded_at": time.time(),
            }
            if trace.backend is not None:
                entry["backend"] = trace.backend
            if extra:
                entry.update(extra)
            self._entries.append(entry)
            self._recorded += 1
            return True

    def entries(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Records newest-first (copies: safe to mutate / serialize).

        ``limit`` caps the count; a negative one raises ``ValueError``
        rather than slicing the oldest records away.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"slowlog limit must be >= 0, got {limit}")
        with self._lock:
            records = [dict(entry) for entry in reversed(self._entries)]
        return records[:limit] if limit is not None else records

    def counts(self) -> tuple[int, int]:
        """``(observed, recorded)`` lifetime totals."""
        with self._lock:
            return self._observed, self._recorded

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        observed, recorded = self.counts()
        return (
            f"SlowQueryLog(threshold_ms={self.threshold_ms:g}, "
            f"{len(self)}/{CAPACITY} held, "
            f"{recorded}/{observed} recorded)"
        )
