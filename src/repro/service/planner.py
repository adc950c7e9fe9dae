"""Physical planning: lower parsed statements into per-series tasks.

A parsed :class:`~repro.view.sql.CatalogQuery` is inert text.  This
module lowers it against a catalog: every item's kernel name resolves
against the registry (argument arity and domains checked up front, not
deep in a worker), the ``SERIES`` glob expands against the catalog
manifest, the prune phase consults segment synopses, and each matched
series becomes one :class:`SeriesTask` carrying a read-only
:class:`~repro.store.catalog.SeriesSnapshot` plus its cache key.  The
executor (:mod:`repro.service.executor`) then runs tasks in any order,
inline or on worker processes, without touching shared catalog state.

What a kernel is called, what it takes and what it computes is the
registry's (:mod:`repro.db.aggregates`, re-exported here): this module
binds statements against it, :mod:`repro.service.kernels` runs it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.db.aggregates import (
    AGGREGATES,
    KERNELS,
    SIMULATE_KERNEL,
    KernelSpec,
    resolve,
)
from repro.exceptions import InvalidParameterError, QueryError
from repro.obs.trace import QueryTrace
from repro.service.synopsis import prune_segments
from repro.store.catalog import Catalog, SeriesSnapshot
from repro.util.rng import DEFAULT_SEED
from repro.view.sql import CatalogQuery, SelectItem, render_number

__all__ = [
    "AGGREGATES",
    "ItemPlan",
    "KERNELS",
    "KernelSpec",
    "PlanStats",
    "QueryPlan",
    "SeriesTask",
    "TaskEnvelope",
    "plan_statement",
]


@dataclass(frozen=True)
class PlanStats:
    """What the prune phase decided — the per-query observability record.

    ``segments_scanned + segments_pruned == segments_total`` for exact
    plans; APPROX plans report how many segments had to be *loaded* to
    compute a missing synopsis lazily (ideally zero on a synopsized
    catalog) under ``segments_scanned``.
    """

    series_matched: int = 0
    series_skipped: int = 0
    segments_total: int = 0
    segments_scanned: int = 0
    segments_pruned: int = 0
    approx: bool = False

    def as_dict(self) -> dict[str, Any]:
        return {
            "series_matched": self.series_matched,
            "series_skipped": self.series_skipped,
            "segments_total": self.segments_total,
            "segments_scanned": self.segments_scanned,
            "segments_pruned": self.segments_pruned,
            "approx": self.approx,
        }

    def __add__(self, other: "PlanStats") -> "PlanStats":
        """Counters summed: what two items of one statement did together."""
        return PlanStats(
            series_matched=self.series_matched + other.series_matched,
            series_skipped=self.series_skipped + other.series_skipped,
            segments_total=self.segments_total + other.segments_total,
            segments_scanned=self.segments_scanned + other.segments_scanned,
            segments_pruned=self.segments_pruned + other.segments_pruned,
            approx=self.approx or other.approx,
        )


@dataclass(frozen=True)
class SeriesTask:
    """One unit of fan-out work: a snapshot plus its cache identity.

    ``segments`` is the (possibly pruned) subset of the revision
    frontier's visible segments this task must actually scan;
    ``shadows`` aligns with it, carrying the valid-time intervals newer
    revisions override (empty everywhere on a never-revised series).
    The cache key's fourth component distinguishes pruned
    materialisations from the full visible list (``()`` marks the full
    list) and its fifth is the frontier token, so warm entries never
    leak across ``AS OF`` points.  ``synopses`` (frontier-aligned with
    ``segments``) feeds the APPROX estimator; exact tasks leave it
    empty.
    """

    snapshot: SeriesSnapshot
    segments: tuple[str, ...]
    cache_key: tuple[str, str, tuple, tuple, tuple]
    shadows: tuple[tuple[tuple[int, int], ...], ...] = ()
    synopses: tuple[dict[str, Any] | None, ...] = ()

    @property
    def series_id(self) -> str:
        return self.snapshot.series_id


@dataclass(frozen=True)
class TaskEnvelope:
    """The picklable, self-contained form of one per-series unit of work.

    Everything a worker — the calling thread or a separate process — needs
    to compute one series' contribution: where the (surviving) segments live,
    which kernel to run (by registry name, so the callable never crosses a
    process boundary), its already-validated arguments, and the cache key
    identifying the materialised view.  Plain strings/tuples throughout so
    the envelope pickles cheaply under any multiprocessing start method.
    """

    series_id: str
    directory: str
    segments: tuple[str, ...]
    cache_key: tuple[str, str, tuple, tuple, tuple]
    aggregate: str
    arguments: tuple[float, ...]
    time_lo: float | None
    time_hi: float | None
    #: Per-segment shadow intervals (aligned with ``segments``): rows at
    #: these valid times were superseded by newer visible revisions and
    #: are dropped at load.  All-empty on never-revised series, keeping
    #: that load path bit-identical.
    shadows: tuple[tuple[tuple[int, int], ...], ...] = ()


@dataclass(frozen=True)
class ItemPlan:
    """One kernel of a statement, bound and pruned: the per-item physical plan.

    The prune phase ran at planning time — per item, because kernels
    prune differently (``threshold`` drops segments on probability, the
    rest on time alone): ``tasks`` holds only series with at least one
    surviving segment, ``skipped`` the matched series whose every segment
    was proven irrelevant.  ``stats`` records what pruning did for *this*
    item, so a multi-aggregate statement reports exactly what each
    aggregate would report standalone.
    """

    kernel: KernelSpec
    arguments: tuple[float, ...]
    tasks: tuple[SeriesTask, ...]
    skipped: tuple[str, ...]
    stats: PlanStats
    time_lo: float | None = None
    time_hi: float | None = None
    column: str | None = None

    @property
    def series_ids(self) -> list[str]:
        """Every matched series id (scanned and skipped), sorted."""
        return sorted(
            [task.series_id for task in self.tasks] + list(self.skipped)
        )

    def envelope(self, task: SeriesTask) -> TaskEnvelope:
        """The backend-facing form of one of this item's tasks."""
        return TaskEnvelope(
            series_id=task.series_id,
            directory=str(task.snapshot.directory),
            segments=task.segments,
            cache_key=task.cache_key,
            aggregate=self.kernel.name,
            arguments=self.arguments,
            time_lo=self.time_lo,
            time_hi=self.time_hi,
            shadows=task.shadows,
        )

    def label(self) -> str:
        """The bound item as written: ``exceedance(21)``, ``simulate(...)``."""
        return SelectItem(
            self.kernel.name, self.arguments, self.column
        ).label()


@dataclass(frozen=True)
class QueryPlan:
    """A bound, executable form of one statement: the physical plan.

    ``items`` holds one :class:`ItemPlan` per kernel of the statement:
    one for a single-aggregate SELECT or a SIMULATE, several for a
    multi-aggregate select list.

    ``state`` is the catalog state the plan read, one entry per matched
    series: ``(series_id, generation, frontier token, which visible
    segments carry a synopsis)``.  Together with ``query`` it determines
    the statement's answer and pruning counters exactly, which is what
    lets a server reuse a rendered reply until any part of it changes.
    """

    query: CatalogQuery
    items: tuple[ItemPlan, ...]
    state: tuple = ()

    def describe(self) -> str:
        """One line: each item with what the prune phase did for *it*."""
        items = ", ".join(
            f"{item.label()} ({item.stats.segments_pruned} segments "
            f"pruned, {item.stats.series_skipped} series skipped)"
            for item in self.items
        )
        mode = "APPROX " if self.query.approx else ""
        return (
            f"{mode}{items} over {self.items[0].stats.series_matched} "
            f"series of {self.query.catalog_path}"
        )

    def explain(self) -> str:
        """The statement as an indented five-level operator tree.

        Scan → Prune → Kernel (one per item) → Combine → Finalize, root
        first.
        """
        query = self.query
        if self.items[0].kernel is SIMULATE_KERNEL:
            mode = "simulate"
        else:
            mode = "approx" if query.approx else "exact"
        top = "" if query.top_k is None else f"(top {query.top_k})"
        lo = "-inf" if query.time_lo is None else render_number(query.time_lo)
        hi = "+inf" if query.time_hi is None else render_number(query.time_hi)
        return "\n".join(
            [f"Finalize{top}", f"  Combine[{mode}] x{len(self.items)}"]
            + [f"    Kernel: {item.label()}" for item in self.items]
            + [
                f"    Prune(t in [{lo}, {hi}])",
                f"      Scan({query.catalog_path!r}, "
                f"series={query.series_pattern!r})",
            ]
        )


def _check_time_range(query: CatalogQuery) -> None:
    """Guard programmatically built queries (the parser rejects earlier)."""
    if (
        query.time_lo is not None
        and query.time_hi is not None
        and query.time_hi < query.time_lo
    ):
        raise InvalidParameterError(
            f"empty time range: [{query.time_lo}, {query.time_hi}]"
        )


def _bound_items(
    query: CatalogQuery,
) -> list[tuple[KernelSpec, tuple[float, ...], str | None]]:
    """Resolve and bind every kernel of the statement, up front.

    The parser rejects most of this too; the guards here cover
    programmatically built queries, so execution can assume at least
    one item, a single item under APPROX, and ``simulate`` only alone.
    """
    if not query.items:
        raise QueryError("a statement needs at least one select-list item")
    if query.approx and len(query.items) > 1:
        raise QueryError(
            f"APPROX supports a single aggregate, got a select list of "
            f"{len(query.items)} items"
        )
    # ``simulate`` is a whole statement: it binds only as the sole item.
    kernels = KERNELS if len(query.items) == 1 else AGGREGATES
    bound: list[tuple[KernelSpec, tuple[float, ...], str | None]] = []
    for item in query.items:
        spec = resolve(item.name, kernels)
        if query.approx and not spec.approx:
            supported = sorted(name for name in AGGREGATES if AGGREGATES[name].approx)
            raise QueryError(
                f"APPROX does not support {spec.name!r}; one of "
                f"{', '.join(supported)}"
            )
        arguments = item.arguments
        if spec is SIMULATE_KERNEL and len(arguments) == 1:
            # SIMULATE without SEED: the framework default seed.
            arguments += (float(DEFAULT_SEED),)
        bound.append((spec, spec.bind(arguments), item.column))
    return bound


def plan_statement(
    catalog: Catalog,
    query: CatalogQuery,
    *,
    pruning: bool = True,
    trace: QueryTrace | None = None,
) -> QueryPlan:
    """Lower a parsed statement against a catalog.

    Raises :class:`~repro.exceptions.QueryError` for an unknown kernel or
    a pattern matching no series, and
    :class:`~repro.exceptions.InvalidParameterError` for argument arity
    or domain violations — all before any segment is read.

    The prune phase runs here, **per item** (pure metadata work —
    snapshots carry their segment synopses): segments whose synopsis
    proves non-contribution are dropped from the item's task, and series
    with no surviving segment move to its ``skipped`` list, exactly as
    they would for the same kernel planned standalone.
    ``pruning=False`` keeps the full scan — the parity reference the
    property tests compare against.  APPROX plans never prune: their
    tasks carry every visible segment's synopsis, which the executor
    answers from without backend fan-out.

    ``trace`` gets two spans: ``plan`` (binding, manifest expansion, task
    construction) and, for exact plans, ``prune`` (the synopsis scans,
    summed across items) — split out because a slow plan and a slow
    prune point at different fixes.  ``None`` records them into a
    throw-away trace.
    """
    if trace is None:
        trace = QueryTrace()
    plan_offset = trace.offset()
    plan_t0 = time.perf_counter()
    bound = _bound_items(query)
    _check_time_range(query)
    root = str(catalog.root)
    snapshots = catalog.open_many(query.series_pattern)
    # Resolve each snapshot's revision frontier once (shared across
    # items): which segments are visible AS OF the query's knowledge
    # time, and which of their valid-time rows newer revisions shadow.
    # On never-revised series this is the full segment list with an
    # empty token, so cache keys and load paths stay bit-identical.
    frontiers = [snapshot.as_of(query.as_of) for snapshot in snapshots]
    segments_total = sum(len(snapshot.segments) for snapshot in snapshots)
    approx = query.approx
    prune = pruning and not approx
    # Pass 1 — the prune phase proper, timed as its own span: every
    # item's surviving segment lists (or the full lists with pruning
    # off).  Pure metadata work against the segment synopses.
    prune_offset = trace.offset()
    prune_t0 = time.perf_counter()
    survivors_per_item: list[list[tuple[str, ...]]] = []
    for spec, arguments, _column in bound:
        if prune:
            survivors_per_item.append(
                [
                    prune_segments(
                        frontier,
                        spec.name,
                        arguments,
                        query.time_lo,
                        query.time_hi,
                    )
                    for frontier in frontiers
                ]
            )
        else:
            # Pruning off still honours the frontier: segments invisible
            # at the AS OF point are a correctness matter, not an
            # optimisation.
            survivors_per_item.append(
                [frontier.segments for frontier in frontiers]
            )
    prune_s = time.perf_counter() - prune_t0
    # Pass 2 — task construction from the surviving lists (plan time).
    items: list[ItemPlan] = []
    for (spec, arguments, column), survivors in zip(
        bound, survivors_per_item
    ):
        tasks_list: list[SeriesTask] = []
        skipped: list[str] = []
        segments_scanned = 0
        for snapshot, frontier, surviving in zip(
            snapshots, frontiers, survivors
        ):
            if prune and not surviving:
                skipped.append(snapshot.series_id)
                continue
            segments_scanned += len(surviving)
            subset = () if surviving == frontier.segments else surviving
            if subset == ():
                shadows = frontier.shadows
            else:
                keep = set(surviving)
                shadows = tuple(
                    shadow
                    for name, shadow in zip(
                        frontier.segments, frontier.shadows
                    )
                    if name in keep
                )
            tasks_list.append(
                SeriesTask(
                    snapshot=snapshot,
                    segments=surviving,
                    cache_key=(
                        root,
                        snapshot.series_id,
                        snapshot.generation,
                        subset,
                        frontier.token,
                    ),
                    shadows=shadows,
                    synopses=frontier.synopses if approx else (),
                )
            )
        segments_pruned = segments_total - segments_scanned
        if approx:
            # Nothing is scanned or pruned at plan time; the executor
            # fills in the segments it had to load for a missing synopsis.
            segments_scanned = segments_pruned = 0
        stats = PlanStats(
            series_matched=len(snapshots),
            series_skipped=len(skipped),
            segments_total=segments_total,
            segments_scanned=segments_scanned,
            segments_pruned=segments_pruned,
            approx=approx,
        )
        items.append(
            ItemPlan(
                kernel=spec,
                arguments=arguments,
                tasks=tuple(tasks_list),
                skipped=tuple(skipped),
                stats=stats,
                time_lo=query.time_lo,
                time_hi=query.time_hi,
                column=column,
            )
        )
    state = tuple(
        (
            snapshot.series_id,
            snapshot.generation,
            frontier.token,
            tuple(synopsis is not None for synopsis in frontier.synopses),
        )
        for snapshot, frontier in zip(snapshots, frontiers)
    )
    plan_s = time.perf_counter() - plan_t0
    if approx:
        trace.add_stage("plan", plan_offset, plan_s)
    else:
        trace.add_stage("plan", plan_offset, max(0.0, plan_s - prune_s))
        trace.add_stage("prune", prune_offset, prune_s)
    return QueryPlan(query=query, items=tuple(items), state=state)
