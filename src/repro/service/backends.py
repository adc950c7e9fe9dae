"""Pluggable executor backends for catalog-wide SELECT fan-out.

One :class:`~repro.service.executor.CatalogQueryService` delegates its
per-series work to an :class:`ExecutorBackend`.  Both backends run the
same function — :func:`~repro.service.kernels.compute_chunk` — over
picklable :class:`~repro.service.planner.TaskEnvelope` objects; they
differ only in who calls it:

* :class:`SequentialBackend` — the default and the parity reference:
  one inline call on the caller's thread against the service's
  :class:`~repro.service.cache.MatrixCache`.  Concurrency between
  statements comes from the callers (the server's worker pool, user
  threads), never from inside a statement;
* :class:`ProcessBackend` — true multi-core execution over a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Workers start under
  the ``spawn`` method (the only one safe on every platform and the
  default on macOS/Windows), warm a per-worker catalog cache via a
  spawn-safe initializer, and return each chunk's results pickled
  through the pool's own pipe.

Both backends return :class:`~repro.db.aggregates.SeriesResult` records
in input order — the same records the executor ranks and renders.
Per-series failures travel *inside* the result (as a message, never a
pickled traceback) so one broken series aborts the statement with a
diagnostic naming that series.  A worker process dying
outright surfaces as :class:`~repro.exceptions.QueryError` naming every
series whose chunk was lost, and the pool is rebuilt lazily on the next
statement.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from multiprocessing import get_context
from typing import Any

from repro.exceptions import InvalidParameterError, QueryError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.service.cache import MatrixCache
from repro.service.kernels import SeriesResult, compute_chunk
from repro.service.planner import TaskEnvelope

__all__ = [
    "BACKEND_NAMES",
    "ExecutorBackend",
    "ProcessBackend",
    "SequentialBackend",
    "make_backend",
]

#: Spellings accepted wherever a backend is selected by name (service
#: constructor, ``server serve --backend``, ``query --backend``).
BACKEND_NAMES = ("sequential", "process")

#: Fault-injection hook for the crash tests: a worker *process* whose
#: chunk contains this series id exits hard before computing, simulating
#: an OOM kill / segfault mid-query.  Checked only on the process-pool
#: worker side — never in-process — so enabling it cannot kill the
#: service itself.
_CRASH_ENV = "REPRO_FAULT_WORKER_CRASH"


class ExecutorBackend:
    """Strategy interface: run envelopes, return results in input order.

    Subclasses implement :meth:`_map`; the public :meth:`map` wraps it
    with the backend-tier instrumentation (task counter + fan-out latency
    histogram, labelled by backend name).  :meth:`close` releases any
    pool the backend holds and is idempotent.  ``name`` identifies the
    backend in stats output and benchmarks.
    """

    name: str = "abstract"
    max_workers: int = 1
    #: How results travel from workers to the caller: ``"inline"`` for
    #: same-process backends, ``"pickle"`` for the process backend.
    transport: str = "inline"

    def transport_stats(self) -> dict[str, Any]:
        """The transport mode (``server stats`` block)."""
        return {"mode": self.transport}

    def _init_metrics(self, registry: MetricsRegistry | None) -> None:
        """Bind this backend's metric families (call from ``__init__``)."""
        registry = default_registry() if registry is None else registry
        self._obs_tasks = registry.counter(
            "repro_backend_tasks_total",
            "Per-series envelopes fanned out, by backend",
        )
        self._obs_map_seconds = registry.histogram(
            "repro_backend_map_seconds",
            "Wall time of one backend fan-out (map call), by backend",
        )

    def map(self, envelopes: list[TaskEnvelope]) -> list[SeriesResult]:
        start = time.perf_counter()
        try:
            return self._map(envelopes)
        finally:
            self._obs_tasks.inc(len(envelopes), backend=self.name)
            self._obs_map_seconds.observe(
                time.perf_counter() - start, backend=self.name
            )

    def _map(self, envelopes: list[TaskEnvelope]) -> list[SeriesResult]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default.
        pass

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"max_workers={self.max_workers})"
        )


class SequentialBackend(ExecutorBackend):
    """The parity reference: one inline chunk, no pool at all."""

    name = "sequential"

    def __init__(
        self,
        cache: MatrixCache,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.cache = cache
        self._init_metrics(registry)

    def _map(self, envelopes: list[TaskEnvelope]) -> list[SeriesResult]:
        return compute_chunk(envelopes, self.cache)


# ----------------------------------------------------------------------
# Process backend: worker-process side.
# ----------------------------------------------------------------------
# Populated by _worker_init inside each worker process.  Module-level
# because ProcessPoolExecutor initializers cannot return state; spawn-safe
# because initialisation happens after the interpreter (re-)imports this
# module, never by inheriting parent memory.
_WORKER_CACHE: MatrixCache | None = None


def _worker_init(cache_budget_bytes: int) -> None:
    """Per-process warm state: one matrix cache, built once per worker."""
    global _WORKER_CACHE
    _WORKER_CACHE = MatrixCache(cache_budget_bytes)


def _run_chunk(chunk: list[TaskEnvelope]) -> list[SeriesResult]:
    """Worker-side entry point: run one chunk against the warm cache."""
    crash = os.environ.get(_CRASH_ENV)
    if crash and any(envelope.series_id == crash for envelope in chunk):
        os._exit(17)  # Fault injection: die like an OOM-killed worker.
    cache = _WORKER_CACHE
    if cache is None:  # pragma: no cover - initializer always ran.
        cache = MatrixCache()
    return compute_chunk(chunk, cache)


class ProcessBackend(ExecutorBackend):
    """Process-pool fan-out: true multi-core, per-worker warm caches.

    Each chunk crosses the pipe as one submission, so the per-task IPC
    cost amortises.  Workers always start under ``spawn`` —
    fork would duplicate the parent's pool locks and (on macOS) deadlock
    outright — and each builds its own :class:`MatrixCache`, so repeated
    statements hit worker-resident views exactly like the inline backend
    hits the service's one.

    A chunk's results come back as its :class:`SeriesResult` list, pickled
    by the pool onto its result pipe: a few KB of arrays per series, the
    same bytes the inline backend hands over.
    """

    name = "process"
    transport = "pickle"
    #: Chunks one fan-out is cut into, per worker: enough that a slow
    #: chunk does not leave the other workers idle, few enough that
    #: submission and IPC amortise over its series.
    _CHUNKS_PER_WORKER = 2

    def __init__(
        self,
        max_workers: int,
        *,
        cache_budget_bytes: int = 64 << 20,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = int(max_workers)
        self.cache_budget_bytes = int(cache_budget_bytes)
        self._init_metrics(registry)
        # Lazy pool creation is locked: a server fans concurrent first
        # statements at one shared service, and an unsynchronised
        # check-then-set would build (and leak) duplicate pools of whole
        # worker *processes*.
        self._pool_lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=get_context("spawn"),
                    initializer=_worker_init,
                    initargs=(self.cache_budget_bytes,),
                )
            return self._pool

    def _chunks(
        self, envelopes: list[TaskEnvelope]
    ) -> list[list[TaskEnvelope]]:
        """Cut one fan-out into ``_CHUNKS_PER_WORKER`` chunks per worker."""
        size = max(
            1,
            math.ceil(
                len(envelopes)
                / (self.max_workers * self._CHUNKS_PER_WORKER)
            ),
        )
        return [
            envelopes[start : start + size]
            for start in range(0, len(envelopes), size)
        ]

    def _map(self, envelopes: list[TaskEnvelope]) -> list[SeriesResult]:
        if not envelopes:
            return []
        chunks = self._chunks(envelopes)
        try:
            pool = self._ensure_pool()
            futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
        except RuntimeError as exc:
            raise QueryError(
                f"catalog query service is shut down: {exc}"
            ) from exc
        results: list[SeriesResult] = []
        lost: list[str] = []
        broken: BaseException | None = None
        for future, chunk in zip(futures, chunks):
            try:
                results.extend(future.result())
            except BrokenExecutor as exc:
                broken = exc
                lost.extend(envelope.series_id for envelope in chunk)
        if broken is not None:
            # The pool is dead; drop it so the next statement rebuilds a
            # fresh one instead of failing forever.  Another statement
            # may have raced to the same conclusion — only tear down the
            # pool this map used.
            with self._pool_lock:
                if self._pool is pool:
                    self._pool = None
            pool.shutdown(wait=False, cancel_futures=True)
            raise QueryError(
                f"worker process died while computing series "
                f"{sorted(set(lost))}: {broken}"
            ) from broken
        return results

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def make_backend(
    backend: "str | ExecutorBackend",
    *,
    max_workers: int | None = None,
    cache: MatrixCache,
    cache_budget_bytes: int = 64 << 20,
    registry: MetricsRegistry | None = None,
) -> ExecutorBackend:
    """Resolve a backend spec (name or instance) into an instance.

    ``max_workers`` is the number of worker processes of the process
    backend (``None``: one per core — a process per core is the point;
    more only costs memory).  It is validated either way and otherwise
    unused: the sequential backend runs on its caller's thread.
    """
    if max_workers is not None and max_workers < 1:
        raise InvalidParameterError(
            f"max_workers must be >= 1, got {max_workers}"
        )
    if isinstance(backend, ExecutorBackend):
        return backend
    if backend not in BACKEND_NAMES:
        raise InvalidParameterError(
            f"unknown executor backend {backend!r}; "
            f"one of {', '.join(BACKEND_NAMES)}"
        )
    if backend == "process":
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        return ProcessBackend(
            max_workers,
            cache_budget_bytes=cache_budget_bytes,
            registry=registry,
        )
    return SequentialBackend(cache, registry=registry)
