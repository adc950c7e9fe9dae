"""Execution of planned catalog-wide SELECT / SIMULATE statements.

One :class:`CatalogQueryService` owns a catalog, an executor backend, and
a :class:`~repro.service.cache.MatrixCache`.  Executing a statement turns
the plan's per-series tasks into picklable envelopes and hands them to
the backend (:mod:`repro.service.backends`): ``sequential``, the default
and the parity reference, runs them inline on the caller's thread;
``process`` runs on true multi-core worker processes with per-worker
warm caches, and returns each chunk's results pickled through the
pool's pipe.  Results come back in deterministic order: series id, or
score-descending when ``TOP k`` ranks.

Both backends run the same kernel code
(:func:`repro.service.kernels.compute_chunk`) and hand back its
:class:`~repro.service.kernels.SeriesResult` records; the executor merges
their worker spans, ranks them and keeps them as the statement's
results, so a statement's JSON payload is built straight from
``ndarray.tolist()`` and the per-series python objects of the one-shot
query API exist only for callers that ask for ``entry.result``.

:meth:`CatalogQueryService.reply` is the server's entry: the same plan
and execution, answered as canonical JSON bytes that are rendered once
per catalog state and kept in the matrix cache's budget.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add
from pathlib import Path
from typing import Any

from repro.db.aggregates import SIMULATE_KERNEL
from repro.exceptions import QueryError, ReproError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.slowlog import DEFAULT_SLOW_QUERY_MS, SlowQueryLog
from repro.obs.trace import QueryTrace
from repro.service.backends import ExecutorBackend, make_backend
from repro.service.cache import MatrixCache
from repro.service.kernels import (
    SeriesResult,
    empty_result,
    restrict_time_range,
)
from repro.service.planner import (
    ItemPlan,
    PlanStats,
    QueryPlan,
    SeriesTask,
    plan_statement,
)
from repro.service.synopsis import estimate_series
from repro.store.catalog import Catalog, segment_synopsis
from repro.util.jsonio import RenderedObject, canonical_dumps
from repro.view.sql import CatalogQuery, parse_statement, render_statement

__all__ = [
    "CatalogQueryService",
    "StatementResult",
    "restrict_time_range",
]


@dataclass(frozen=True)
class StatementResult:
    """Everything one SELECT / SIMULATE statement produced.

    A statement has one *item* per select-list entry (SIMULATE is the
    single item ``simulate``), and a single-item result is its own only
    item: ``aggregate`` is the kernel name, ``arguments`` its bound
    arguments (for ``simulate`` the world count and the *resolved* seed —
    the default when the statement omitted ``SEED`` — so re-running
    ``SIMULATE {n} SEED {seed}`` reproduces the result bit-for-bit on any
    backend), ``results`` the (possibly TOP-k-truncated) per-series
    results in result order, ``matched`` every series id the SERIES
    pattern selected, and ``stats`` the pruning counters.

    A multi-item result holds those complete results in ``parts``, in
    select-list order — each bit-identical to running that item as its
    own statement, they merely shared one scan — and follows one rule:
    every statement-level field is its items' fields put together.
    ``results`` concatenates theirs, ``aggregate`` joins theirs with
    ``", "``, ``stats`` sums theirs, ``matched`` is the one list they
    share; the per-item ``arguments`` / ``score_label`` stay empty.
    ``len()`` and iteration go over ``results`` on every kind.

    ``trace`` is the statement's :class:`~repro.obs.trace.QueryTrace`
    (excluded from equality — two runs of the same statement are the
    same result).
    """

    aggregate: str
    results: tuple[SeriesResult, ...]
    matched: tuple[str, ...]
    stats: PlanStats
    arguments: tuple[float, ...] = ()
    score_label: str = ""
    parts: tuple["StatementResult", ...] = ()
    trace: Any = field(default=None, compare=False, repr=False)

    @classmethod
    def combined(cls, parts: list["StatementResult"]) -> "StatementResult":
        """The statement-level result of a select list's item results."""
        if len(parts) == 1:
            return parts[0]
        return cls(
            aggregate=", ".join(part.aggregate for part in parts),
            results=tuple(
                entry for part in parts for entry in part.results
            ),
            matched=parts[0].matched,
            stats=reduce(add, (part.stats for part in parts)),
            parts=tuple(parts),
        )

    @property
    def items(self) -> tuple["StatementResult", ...]:
        """One result per select-list item (``(self,)`` for a single one)."""
        return self.parts or (self,)

    @property
    def approx(self) -> bool:
        """Answered from synopses alone.

        Every entry's ``result`` is then an estimate/error-bound mapping
        instead of exact rows.
        """
        return self.stats.approx

    @property
    def kind(self) -> str:
        """``select`` / ``approx`` / ``simulate`` / ``multi_select``."""
        if self.parts:
            return "multi_select"
        if self.aggregate == SIMULATE_KERNEL.name:
            return "simulate"
        return "approx" if self.approx else "select"

    def to_dict(self) -> dict[str, Any]:
        """This result as the JSON-ready payload the wire protocol sends.

        A multi-item result is ``multi_select``: ``statements`` holds one
        full payload per item — byte-for-byte what each would produce as
        its own statement.  ``simulate`` lists per series its sampled
        ``worlds``, each ``[t, value]`` pairs in ascending time order
        with ``null`` marking the OUTSIDE (off-grid) alternative, and
        names its own reproduction recipe (``n_worlds``, resolved
        ``seed``).  Everything else is ``select``: per series a score
        plus exact ``rows`` — or, flagged ``approx``, the estimate with
        its proven interval (the payload's ``kind`` stays ``"select"``:
        the wire shape predates :attr:`kind` and is pinned by clients).
        The ``pruning`` block shows how much work the zone maps saved.
        """
        if self.parts:
            return {
                "kind": "multi_select",
                "statements": [part.to_dict() for part in self.parts],
            }
        matched = [str(series_id) for series_id in self.matched]
        if self.aggregate == SIMULATE_KERNEL.name:
            n_worlds, seed = self.arguments
            payload = {
                "kind": "simulate",
                "n_worlds": int(n_worlds),
                "seed": int(seed),
                "matched": matched,
                "results": [
                    {"series": entry.series_id, "worlds": entry.rows()}
                    for entry in self.results
                ],
            }
        else:
            payload_key = "approx" if self.approx else "rows"
            payload = {
                "kind": "select",
                "aggregate": self.aggregate,
                "score_label": self.score_label,
                "matched": matched,
                "results": [
                    {
                        "series": entry.series_id,
                        "score": float(entry.score),
                        payload_key: entry.rows(),
                    }
                    for entry in self.results
                ],
            }
            if self.approx:
                payload["approx"] = True
        payload["pruning"] = self.stats.as_dict()
        return payload

    def json(self) -> str:
        """Canonical JSON of :meth:`to_dict` (deterministic bytes)."""
        return canonical_dumps(self.to_dict())

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __repr__(self) -> str:
        return (
            f"StatementResult(kind={self.kind!r}, "
            f"aggregate={self.aggregate!r}, "
            f"series={len(self.results)}/{len(self.matched)})"
        )


class CatalogQueryService:
    """Set-oriented query engine over one persistent catalog.

    Parameters
    ----------
    catalog:
        A :class:`~repro.store.catalog.Catalog` or the path of one (opened
        read-only style: missing catalogs raise instead of being created).
    max_workers:
        Worker processes of ``backend="process"`` (``None``: one per
        core).  Validated ``>= 1``; otherwise unused — the sequential
        backend runs on its caller's thread.
    cache_budget_bytes:
        Byte budget of the materialised-view cache; repeated statements on
        an unchanged catalog skip every segment reload.  The process
        backend grants the same budget to each worker's private cache.
    backend:
        ``"sequential"`` (default: inline, no pool), ``"process"``, or
        an :class:`~repro.service.backends.ExecutorBackend` instance.
    pruning:
        Use segment synopses to skip provably-irrelevant segments and
        series (default).  ``False`` forces the full scan — results are
        identical either way; the flag exists for benchmarking and the
        parity property tests.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` this service's
        counters and latency histograms land in (``None``: the
        process-wide default registry, so one scrape sees every
        service).
    slow_query_ms:
        Statements at or over this wall time land in ``self.slow_log``
        (default 500ms; ``0`` records everything).

    Examples
    --------
    >>> # service = CatalogQueryService("/data/catalogs/main",
    >>> #                               backend="process")
    >>> # service.execute("SELECT exceedance(21.0) FROM CATALOG "
    >>> #                 "'/data/catalogs/main' SERIES 'room*' TOP 3")
    """

    def __init__(
        self,
        catalog: Catalog | str | Path,
        *,
        max_workers: int | None = None,
        cache_budget_bytes: int = 64 << 20,
        backend: "str | ExecutorBackend" = "sequential",
        pruning: bool = True,
        registry: MetricsRegistry | None = None,
        slow_query_ms: float = DEFAULT_SLOW_QUERY_MS,
    ) -> None:
        if not isinstance(catalog, Catalog):
            catalog = Catalog(catalog, create=False)
        self.catalog = catalog
        self.pruning = bool(pruning)
        # Cumulative pruning/approx counters across this service's
        # lifetime, surfaced by execution_stats() and `server stats`.
        # Kept as a plain per-service dict (the registry may be shared
        # process-wide; these must reset with the service, not outlive
        # it) — the registry gets the same increments under stable
        # metric names.
        self._stats_lock = threading.Lock()
        self._counters = {
            "queries": 0,
            "approx_queries": 0,
            "segments_scanned": 0,
            "segments_pruned": 0,
            "series_skipped": 0,
        }
        self.registry = (
            default_registry() if registry is None else registry
        )
        self.slow_log = SlowQueryLog(threshold_ms=slow_query_ms)
        self._obs_queries = self.registry.counter(
            "repro_queries_total",
            "SELECT statements executed, by aggregate and mode",
        )
        self._obs_segments_scanned = self.registry.counter(
            "repro_segments_scanned_total",
            "Segments the prune phase kept for scanning",
        )
        self._obs_segments_pruned = self.registry.counter(
            "repro_segments_pruned_total",
            "Segments proven irrelevant and skipped",
        )
        self._obs_series_skipped = self.registry.counter(
            "repro_series_skipped_total",
            "Series skipped whole (every segment pruned)",
        )
        self._obs_query_seconds = self.registry.histogram(
            "repro_query_seconds",
            "End-to-end SELECT latency in seconds, by aggregate",
        )
        self.cache = MatrixCache(cache_budget_bytes)
        self._backend = make_backend(
            backend,
            max_workers=max_workers,
            cache=self.cache,
            cache_budget_bytes=cache_budget_bytes,
            registry=self.registry,
        )
        self.max_workers = self._backend.max_workers
        self._cache_collector = self.cache.register_metrics(self.registry)
        # Resolved once: statement/catalog matching happens per request,
        # and the bound root never changes for the service's lifetime.
        self._root_resolved = Path(self.catalog.root).resolve()
        self._closed = False

    @property
    def backend(self) -> ExecutorBackend:
        """The live executor backend (read-only)."""
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    # ------------------------------------------------------------------
    # Entry points.
    # ------------------------------------------------------------------
    def execute(
        self,
        statement: str | CatalogQuery,
        *,
        trace: QueryTrace | None = None,
    ) -> StatementResult:
        """Parse (if needed), plan, and run one SELECT/SIMULATE statement.

        The statement's own ``FROM CATALOG`` path is checked against this
        service's catalog so a statement aimed elsewhere fails loudly
        instead of silently querying the wrong data.

        ``trace=None`` (the default) records into a service-owned
        :class:`~repro.obs.trace.QueryTrace` (attached to the result as
        ``result.trace`` and finished here); a caller-supplied trace is
        recorded into but *not* finished — whoever created it owns the
        wall clock, so a server can still time its serialize stage.
        """
        own = trace is None
        if own:
            trace = QueryTrace()
        return self._execute_traced(self._plan(statement, trace), trace, own)

    def reply(
        self, statement: str | CatalogQuery, *, trace: QueryTrace
    ) -> RenderedObject:
        """The statement's result payload as canonical JSON bytes.

        Rendered once per catalog state: the bytes are cached (in the
        matrix cache's budget, under its admission rule) under the parsed
        statement and the
        :attr:`~repro.service.planner.QueryPlan.state` its plan read, so a
        repeated statement on an unchanged catalog costs parse, plan and
        a lookup.  Any append, revision, re-creation, new matching series
        or other ``AS OF`` frontier changes the state and misses.  A hit
        records what a miss records — execution counters, the latency
        histogram, the slow log — and shows as a ``cached_reply`` stage;
        a miss executes, and renders under ``serialize``.

        ``trace`` belongs to the caller, who finishes it.
        """
        plan = self._plan(statement, trace)
        start = trace.offset()
        cached = self.cache.reply(plan.query, plan.state)
        if cached is None:
            result = self._execute_traced(plan, trace, own=False)
            with trace.stage("serialize"):
                rendered = RenderedObject(result.to_dict())
                items = tuple(
                    (part.aggregate, part.stats) for part in result.items
                )
                self.cache.put_reply(
                    plan.query, plan.state, (rendered, items), rendered.nbytes
                )
            return rendered
        rendered, items = cached
        for aggregate, stats in items:
            self._record_stats(stats, aggregate)
        self._observe_query(
            trace,
            ", ".join(aggregate for aggregate, _ in items),
            reduce(add, (stats for _, stats in items)),
        )
        trace.add_stage("cached_reply", start, trace.offset() - start)
        return rendered

    def _plan(
        self, statement: str | CatalogQuery, trace: QueryTrace
    ) -> QueryPlan:
        """Parse (if needed), pin to this catalog, and plan one statement."""
        self._begin(trace)
        if trace.statement is None:
            trace.statement = (
                statement
                if isinstance(statement, str)
                else render_statement(statement)
            )
        # An already-parsed statement (the engine parses before routing
        # here) is only re-validated — keep the span contiguous but do
        # not report a second "parse".
        stage = "parse" if isinstance(statement, str) else "validate"
        with trace.stage(stage):
            query = self._coerce(statement)
        return plan_statement(
            self.catalog, query, pruning=self.pruning, trace=trace
        )

    def execute_plan(
        self, plan: QueryPlan, *, trace: QueryTrace | None = None
    ) -> StatementResult:
        """Run an already-bound plan: fan out, gather, rank.

        APPROX plans never reach the backend: they are answered inline
        from the snapshots' synopses — per series a handful of float
        comparisons, independent of the stored tuple count.
        """
        own = trace is None
        if own:
            trace = QueryTrace()
        self._begin(trace)
        return self._execute_traced(plan, trace, own)

    def _begin(self, trace: QueryTrace) -> None:
        """Refuse work once closed; name the backend on the trace.

        Every entry point calls this before it parses, plans or reads the
        catalog, so a closed service refuses every statement with the
        same :class:`~repro.exceptions.QueryError` on *every* backend —
        never a parse or planning error, and never a pickled
        ``BrokenProcessPool`` traceback for a deliberate ``close()``.
        """
        if self._closed:
            raise QueryError(
                "service closed: CatalogQueryService.close() was called; "
                "create a new service to keep querying"
            )
        trace.backend = self._backend.name
        trace.transport = self._backend.transport

    def _execute_traced(
        self, plan: QueryPlan, trace: QueryTrace, own: bool
    ) -> StatementResult:
        """Run a plan under a trace; finish the trace only when owned."""
        items = plan.items
        if plan.query.approx:
            with trace.stage("compute"):
                item, gathered = self._estimate(items[0])
            items = (item,)
        else:
            # One fan-out for the whole statement: every item's tasks in
            # one backend pass, so a multi-aggregate select list shares the
            # warm cache (and, per cache key, the materialised views)
            # its items would otherwise each load alone.
            jobs = [(item, task) for item in items for task in item.tasks]
            with trace.stage("fan_out"):
                gathered = self._map_tasks(jobs, trace)
        with trace.stage("finalize"):
            parts = []
            offset = 0
            for item in items:
                count = len(item.tasks)
                parts.append(
                    self._finalize_item(
                        plan.query, item, gathered[offset : offset + count]
                    )
                )
                offset += count
            result = replace(StatementResult.combined(parts), trace=trace)
        self._observe_query(trace, result.aggregate, result.stats)
        if own:
            trace.finish()
        return result

    def accepts(self, query: CatalogQuery) -> bool:
        """Whether a parsed statement addresses this service's catalog: the
        root's own spelling, or a path (``./``, ``dir/``, a link) resolving to it."""
        path, root = query.catalog_path, str(self.catalog.root)
        if path == root:
            return True
        try:
            return Path(path).resolve() == self._root_resolved
        except ValueError:  # A name no filesystem can hold (lone surrogate).
            return False

    def _coerce(self, statement: str | CatalogQuery) -> CatalogQuery:
        """Parse if needed and pin the statement to this catalog."""
        if isinstance(statement, str):
            parsed = parse_statement(statement)
            if not isinstance(parsed, CatalogQuery):
                raise QueryError(
                    "CatalogQueryService executes SELECT and SIMULATE "
                    "statements; use Database.execute for CREATE VIEW"
                )
            statement = parsed
        if not self.accepts(statement):
            raise QueryError(
                f"statement addresses catalog {statement.catalog_path!r} "
                f"but this service is bound to {str(self.catalog.root)!r}"
            )
        return statement

    def _map_tasks(
        self,
        jobs: list[tuple[ItemPlan, SeriesTask]],
        trace: QueryTrace,
    ) -> list[SeriesResult]:
        """Run ``(item, task)`` jobs through the backend.

        Worker-side per-series spans come back on the results and are
        merged into ``trace`` here, on the driving thread — the
        merge looks identical whether the work ran inline or in
        spawn-started worker processes.
        """
        envelopes = [item.envelope(task) for item, task in jobs]
        gathered = self._backend.map(envelopes)
        for outcome in gathered:
            if outcome.error is not None:
                raise QueryError(outcome.error)
            trace.add_series(
                outcome.series_id,
                outcome.load_s,
                outcome.compute_s,
                outcome.cache_hit,
            )
        return gathered

    def _finalize_item(
        self,
        query: CatalogQuery,
        item: ItemPlan,
        gathered: list[SeriesResult],
    ) -> StatementResult:
        """Rank, truncate, and wrap one item's gathered results.

        Series the prune phase skipped entirely contribute their
        synthesised empty result (the exact value the kernel returns
        over an empty restricted view) at the correct position — callers
        cannot tell a skipped series from a scanned-and-empty one.
        """
        if item.skipped:
            by_id = {entry.series_id: entry for entry in gathered}
            for series_id in item.skipped:
                by_id[series_id] = empty_result(
                    series_id, item.kernel.name, item.arguments
                )
            gathered = [by_id[series_id] for series_id in item.series_ids]
        if query.top_k is not None:
            gathered = sorted(
                gathered,
                key=lambda entry: (-entry.score, entry.series_id),
            )[: query.top_k]
        self._record_stats(item.stats, item.kernel.name)
        return StatementResult(
            aggregate=item.kernel.name,
            results=tuple(gathered),
            matched=tuple(item.series_ids),
            stats=item.stats,
            arguments=item.arguments,
            score_label=item.kernel.score_label,
        )

    def _estimate(
        self, item: ItemPlan
    ) -> tuple[ItemPlan, list[SeriesResult]]:
        """Answer an APPROX item from synopses alone (no backend fan-out).

        Per series a handful of float comparisons, independent of the
        stored tuple count.  Segments without a stored synopsis —
        catalogs written before this build and never ``synopsize``d —
        are loaded once and their synopsis computed in memory, so old
        catalogs degrade to a scan instead of erroring; the count of
        such lazy loads comes back as the item's ``segments_scanned``.
        Partially-shadowed segments (some of their valid times
        superseded by newer visible revisions) get the same treatment:
        their stored synopsis covers rows the AS OF view excludes, so
        the bounds are recomputed from the masked columns — segments
        invisible at the AS OF point never reach this loop at all (the
        planner's frontier already excluded them).
        """
        lazy_loads = 0
        gathered: list[SeriesResult] = []
        for task in item.tasks:
            snapshot = task.snapshot
            shadows = task.shadows or ((),) * len(task.segments)
            synopses = []
            try:
                for name, shadow, synopsis in zip(
                    task.segments, shadows, task.synopses
                ):
                    if synopsis is None or shadow:
                        synopsis = segment_synopsis(
                            snapshot.directory, name, shadow=shadow
                        )
                        lazy_loads += 1
                    synopses.append(synopsis)
                estimate = estimate_series(
                    item.kernel.name,
                    item.arguments,
                    synopses,
                    item.time_lo,
                    item.time_hi,
                )
            except (ReproError, OSError) as exc:
                raise QueryError(
                    f"APPROX {item.kernel.name!r} failed on series "
                    f"{task.series_id!r}: {exc}"
                ) from exc
            gathered.append(
                SeriesResult(
                    task.series_id,
                    "approx",
                    meta=(estimate.as_result(),),
                    score=estimate.estimate,
                )
            )
        stats = replace(item.stats, segments_scanned=lazy_loads)
        return replace(item, stats=stats), gathered

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def _record_stats(self, stats: PlanStats, aggregate: str) -> None:
        with self._stats_lock:
            self._counters["queries"] += 1
            if stats.approx:
                self._counters["approx_queries"] += 1
            self._counters["segments_scanned"] += stats.segments_scanned
            self._counters["segments_pruned"] += stats.segments_pruned
            self._counters["series_skipped"] += stats.series_skipped
        self._obs_queries.inc(
            aggregate=aggregate,
            mode="approx" if stats.approx else "exact",
        )
        if stats.segments_scanned:
            self._obs_segments_scanned.inc(stats.segments_scanned)
        if stats.segments_pruned:
            self._obs_segments_pruned.inc(stats.segments_pruned)
        if stats.series_skipped:
            self._obs_series_skipped.inc(stats.series_skipped)

    def _observe_query(
        self, trace: QueryTrace, aggregate: str, stats: PlanStats
    ) -> None:
        """Latency histogram + slow-query log for one finished statement."""
        elapsed = trace.elapsed()
        self._obs_query_seconds.observe(elapsed, aggregate=aggregate)
        self.slow_log.observe(trace, extra=stats.as_dict())

    def execution_stats(self) -> dict[str, int]:
        """Cumulative pruning/approx counters since the service started."""
        with self._stats_lock:
            return dict(self._counters)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the backend and refuse further statements.

        Idempotent.  Subsequent ``execute``/``execute_plan``/``reply``
        calls raise ``QueryError("service closed: ...")`` before they
        parse or plan — uniformly across backends, never a
        pool-internal traceback.
        """
        self._closed = True
        self.registry.unregister_collector(self._cache_collector)
        self._backend.close()

    def __enter__(self) -> "CatalogQueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
