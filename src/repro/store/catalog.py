"""Persistent multi-series catalog with streaming ingestion.

The paper's end product is a probabilistic *database*; this module is the
durable service layer around it.  A :class:`Catalog` is a directory of
named series, each bound to a dynamic density metric and a persisted
probabilistic view.  Values arrive in micro-batches through
:meth:`Catalog.append`, which drives an :class:`~repro.pipeline.OnlinePipeline`
incrementally (one vectorised ``feed_batch`` per call, reusing the series'
sigma-cache across appends), extends the stored view with a new **segment**
— never rebuilding earlier rows — and pushes the new suffix to every
registered standing query.

On-disk layout (all JSON human-inspectable, all arrays binary; what a
segment is called and looks like inside is :mod:`repro.store.binary`'s
business, not this module's)::

    <root>/
      catalog.json              # schema version, synopsis version, series ids
      <series_id>/
        series.json             # metric, grid, cache config, resume state,
                                # segment list, per-segment synopses,
                                # revision chain
        seg-00000001.seg        # view columns of one ingested micro-batch
        seg-00000002.seg        # (older builds may have left read-only
                                # seg-*.npz files and seg-*.v2
                                # directories; they still load)
        ...

A segment holds rows and nothing else; ``series.json`` holds everything
known *about* the segments — each one's zone-map synopsis included, which
is stored there and nowhere else.  Every write (``append``, ``revise``,
``save_view``) is one transaction: :func:`_write_segment` names, writes
and records the segment, then ``series.json`` is rewritten atomically
(temp file + rename) — the commit point.  A crash between the two leaves
an orphan segment that is simply ignored on reopen — appends resume at the
recorded ``next_t`` and the stored view stays consistent.  Standing-query
registrations are session-scoped (clients re-register after a restart);
everything else survives a process restart.  One caveat: the metric is
rebuilt from its registry name on reopen, so a metric's *internal* state
restarts from the restored raw window — ARMA-GARCH's warm start (the
first fit after a restart starts cold and can land on a nearby optimum:
fed 200 values, reopened, fed 100 more, an ``arma_garch`` series differed
from the uninterrupted run in 14 of 100 volatilities, worst 0.849x) and
``cgarch``'s cleaning, which starts a fresh pass from that raw window.
``tests/test_pipeline_parity.py::test_resume_matches_uninterrupted`` pins
both as strict xfails.
"""

from __future__ import annotations

import json
import os
import re
import threading
import uuid
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any

import numpy as np

from repro.db.prob_view import ProbabilisticView
from repro.exceptions import InvalidParameterError, QueryError, StoreError
from repro.metrics.registry import create_metric
from repro.obs.metrics import default_registry
from repro.pipeline import OnlinePipeline
from repro.store.binary import (
    SCHEMA_VERSION,
    SYNOPSIS_VERSION,
    check_schema_version,
    compute_view_synopsis,
    next_segment_index,
    read_segment,
    remove_segment,
    save_view_columns,
    segment_name,
)
from repro.store.binary import write_json_atomic as _write_json_atomic
from repro.store.standing import StandingQuery, StandingQueryHandle
from repro.view.omega import OmegaGrid
from repro.view.sigma_cache import SigmaCache

__all__ = [
    "AppendResult",
    "Catalog",
    "RevisionFrontier",
    "SeriesHandle",
    "SeriesSnapshot",
    "segment_synopsis",
]

_CATALOG_FILE = "catalog.json"
_SERIES_FILE = "series.json"
_SERIES_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")

# Store-tier observability: segment materialisations and snapshot-memo
# traffic land on the process-wide default registry (repro.obs), so one
# metrics scrape sees I/O pressure alongside the query-tier latencies.
# Inside spawn-started worker processes these count into that process's
# own registry; the parent's numbers cover the shared read path.
_OBS_SEGMENT_READS = default_registry().counter(
    "repro_store_segment_reads_total",
    "Segment files materialised into views",
)
_OBS_VIEW_LOADS = default_registry().counter(
    "repro_store_view_loads_total",
    "Views materialised from segment lists (cache misses reach here)",
)
_OBS_SNAPSHOTS = default_registry().counter(
    "repro_store_snapshots_total",
    "Series snapshot requests by memo outcome",
)


def _coerce_synopsis(payload: Any) -> dict[str, Any] | None:
    """``payload`` when it is a current-version synopsis, else None.

    Guards every read of ``series.json``'s ``synopses`` map: metadata
    edited by hand or written by a future build with a bumped
    :data:`~repro.store.binary.SYNOPSIS_VERSION` degrades to "no synopsis"
    (no pruning, lazy APPROX fallback) instead of wrong answers.
    """
    if (
        isinstance(payload, dict)
        and payload.get("version") == SYNOPSIS_VERSION
    ):
        return payload
    return None


def _coerce_revisions(
    payload: Any, segments: Sequence[str]
) -> tuple[dict[str, Any], ...]:
    """Normalise ``series.json``'s revision chain; drop malformed records.

    Mirrors :func:`_coerce_synopsis`: hand-edited or future-format records
    degrade to "not a revision" (the segment stays a base segment) instead
    of crashing reads or silently shadowing the wrong range.
    """
    records: list[dict[str, Any]] = []
    known = set(segments)
    if isinstance(payload, list):
        for record in payload:
            if not isinstance(record, dict):
                continue
            name = record.get("segment")
            try:
                knowledge = int(record["knowledge_time"])
                t_min = int(record["t_min"])
                t_max = int(record["t_max"])
            except (KeyError, TypeError, ValueError):
                continue
            if name in known and knowledge >= 1 and t_min <= t_max:
                records.append(
                    {
                        "segment": str(name),
                        "knowledge_time": knowledge,
                        "t_min": t_min,
                        "t_max": t_max,
                    }
                )
    return tuple(records)


def _merge_intervals(
    intervals: Sequence[tuple[int, int]],
) -> tuple[tuple[int, int], ...]:
    """Sorted, merged copy of closed integer intervals (adjacency coalesced)."""
    if not intervals:
        return ()
    merged: list[list[int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _intervals_cover(
    intervals: Sequence[tuple[int, int]], lo: int, hi: int
) -> bool:
    """True when the merged ``intervals`` contain every integer in [lo, hi]."""
    for start, end in intervals:
        if start <= lo <= end:
            if end >= hi:
                return True
            lo = end + 1
    return False


def _pipeline_from_meta(meta: dict[str, Any], grid: OmegaGrid) -> OnlinePipeline:
    """Realise a series' metric/cache/window binding as a fresh pipeline.

    Shared between handle construction and :meth:`Catalog.create_series`,
    which runs it *before* registering anything so an unrealisable spec
    (unknown metric, H below the metric's minimum window, infeasible cache
    constraints) never lands on disk.
    """
    metric = create_metric(meta["metric"], **meta.get("metric_params", {}))
    cache = None
    cache_spec = meta.get("cache")
    if cache_spec is not None:
        cache = SigmaCache(
            grid,
            min_sigma=cache_spec["min_sigma"],
            max_sigma=cache_spec["max_sigma"],
            distance_constraint=cache_spec.get("distance"),
            memory_constraint=cache_spec.get("memory"),
        )
    return OnlinePipeline(metric, meta["H"], grid, cache, retain_history=False)


def _stat_token(path: str) -> tuple[int, int, int] | None:
    """``path``'s (mtime, size, inode) identity, ``None`` when it is missing."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_mtime_ns, stat.st_size, stat.st_ino


def _read_json(path: Path, what: str) -> dict[str, Any]:
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise StoreError(f"{what} metadata missing: {path}") from None
    except json.JSONDecodeError as exc:
        raise StoreError(f"{what} metadata corrupt: {path}: {exc}") from exc
    check_schema_version(int(payload.get("schema_version", -1)), path)
    return payload


def _write_segment(
    directory: Path, meta: dict[str, Any], view: ProbabilisticView
) -> str:
    """Name the next segment, write it, record it in ``meta``.

    The first half of every store write (``append``, ``revise``,
    ``save_view``); nothing is durable until the caller flushes ``meta``
    to ``series.json``, and a failure in between leaves at worst an orphan
    segment that the resumed write, handed the same index, overwrites.
    The synopsis lands in ``meta["synopses"]``, its only home, where the
    planner reads it without touching any segment file.
    """
    # The persisted counter keeps per-append naming O(1); metadata written
    # before the counter existed falls back to a name scan.
    index = meta.get("next_segment")
    if index is None:
        index = next_segment_index(meta.get("segments", []))
    name = segment_name(index)
    cols = view.columns
    synopsis = save_view_columns(
        directory / name,
        t=cols.t,
        low=cols.low,
        high=cols.high,
        probability=cols.probability,
        label_code=cols.label_code,
        labels=cols.labels,
    )
    meta.setdefault("segments", []).append(name)
    meta.setdefault("synopses", {})[name] = synopsis
    meta["next_segment"] = index + 1
    meta["tuple_count"] = int(meta.get("tuple_count", 0)) + len(view)
    return name


def _apply_shadow_mask(
    chunk: dict[str, np.ndarray], intervals: Sequence[tuple[int, int]]
) -> dict[str, np.ndarray]:
    """Drop the rows of ``chunk`` whose valid time falls in a shadow interval.

    Shadows cover whole valid-time instants, so masking removes complete
    per-time tuple groups — the surviving rows still satisfy the per-time
    mass invariant :meth:`ProbabilisticView.from_columns` re-validates.
    """
    if not intervals:
        return chunk
    t = chunk["t"]
    keep = np.ones(t.shape[0], dtype=bool)
    for lo, hi in intervals:
        keep &= (t < lo) | (t > hi)
    if keep.all():
        return chunk
    return {key: np.ascontiguousarray(column[keep]) for key, column in chunk.items()}


def segment_synopsis(
    directory: Path,
    name: str,
    *,
    shadow: Sequence[tuple[int, int]] = (),
) -> dict[str, Any]:
    """The synopsis of one stored segment, minus the rows ``shadow`` supersedes.

    Recomputed from the segment's columns exactly as the writer records
    it: :meth:`Catalog.synopsize` backfills with it and the executor's
    lazy ``APPROX`` fallback estimates with it.  Like the view loader
    below, it counts its read into ``repro_store_segment_reads_total``.
    """
    _OBS_SEGMENT_READS.inc()
    columns, _ = read_segment(os.path.join(directory, name))
    columns = _apply_shadow_mask(columns, shadow)
    return compute_view_synopsis(
        columns["t"], columns["low"], columns["high"], columns["probability"]
    )


def _load_view_from_segments(
    directory: Path,
    series_id: str,
    names: Sequence[str],
    *,
    shadows: Sequence[Sequence[tuple[int, int]]] | None = None,
) -> ProbabilisticView:
    """Column-concatenate the named segment files into one view.

    Shared by the live :class:`SeriesHandle` read path and the read-only
    :class:`SeriesSnapshot` path, so both materialise bit-identical views
    from the same segment list.  One pass over the list: the directory
    prefix is built once, every segment is one :func:`read_segment`, and
    the reads are counted once per series.  A single-segment series keeps
    the loaded columns as-is (no concatenation copy); a series whose
    segments all carry one duplicate-free label pool — every appended
    series, whose grid never changes — concatenates its label codes
    as-is, since remapping them into the merged pool would be the
    identity.  Differing or duplicated pools are remapped.

    ``shadows`` (aligned with ``names``) gives each segment the merged
    valid-time intervals that newer revisions override; rows at those
    times are dropped before concatenation (latest-wins reads).
    """
    if not names:
        return ProbabilisticView.from_columns(
            series_id,
            np.empty(0, dtype=np.int64),
            np.empty(0),
            np.empty(0),
            np.empty(0),
        )
    _OBS_VIEW_LOADS.inc()
    _OBS_SEGMENT_READS.inc(len(names))
    prefix = os.path.join(directory, "")
    chunks = [read_segment(prefix + name) for name in names]
    if shadows is not None:
        chunks = [
            (_apply_shadow_mask(columns, shadow), labels)
            for (columns, labels), shadow in zip(chunks, shadows)
        ]
    pool = chunks[0][1]
    if len(chunks) > 1 and (
        len(set(pool)) < len(pool)
        or any(labels != pool for _, labels in chunks)
    ):
        merged: dict[str, int] = {}
        for columns, labels in chunks:
            remap = np.array(
                [merged.setdefault(label, len(merged)) for label in labels],
                dtype=np.int64,
            )
            columns["label_code"] = remap[columns["label_code"]]
        pool = list(merged)
    if len(chunks) == 1:
        columns = chunks[0][0]
    else:
        columns = {
            key: np.concatenate([chunk[key] for chunk, _ in chunks])
            for key in chunks[0][0]
        }
    return ProbabilisticView.from_columns(
        series_id,
        columns["t"],
        columns["low"],
        columns["high"],
        columns["probability"],
        label_code=columns["label_code"],
        label_pool=pool,
    )


@dataclass(frozen=True)
class RevisionFrontier:
    """The segments of one series visible at a given knowledge time.

    Produced by :meth:`SeriesSnapshot.as_of`.  ``segments`` keeps the
    stored order (so loads stay row-order stable); ``shadows`` aligns
    with it, giving each segment the merged valid-time intervals that
    strictly-newer visible revisions override (latest-wins) — rows at
    those times must not be read, pruned on, or counted into APPROX
    bounds.  Segments whose synopsis proves them fully shadowed are
    dropped from the frontier outright.

    ``token`` is the hashable cache discriminator threaded into
    :class:`~repro.service.cache.MatrixCache` keys: ``()`` on a series
    without revisions (so revision-free cache keys are bit-identical to
    the historical 4-field layout's semantics), otherwise
    ``("k", effective_knowledge)`` — every AS OF point between two
    revisions normalises to one token (they see identical data), while
    distinct frontiers never share warm cache entries.
    """

    segments: tuple[str, ...]
    shadows: tuple[tuple[tuple[int, int], ...], ...]
    synopses: tuple[dict[str, Any] | None, ...]
    token: tuple
    knowledge_time: int


def _resolve_frontier(
    segments: Sequence[str],
    synopses: Sequence[dict[str, Any] | None],
    revisions: Sequence[dict[str, Any]],
    knowledge_time: int | None,
) -> RevisionFrontier:
    """Resolve latest-wins segment visibility at ``knowledge_time``.

    Base segments (plain appends / static saves) carry implicit knowledge
    time 0; revision segments carry the recorded one.  ``None`` means
    "newest" — everything is visible.  A visible revision shadows its
    whole ``[t_min, t_max]`` valid-time range in every visible segment of
    strictly lower ``(knowledge_time, position)`` priority; position
    breaks ties so two revisions recorded at the same knowledge time
    resolve to the later one.  The shadow set is computed from the
    revision-chain metadata alone — no segment file is read.  Segments
    without a synopsis are never dropped, only masked (row-level masking
    is equally correct, just less skippable).
    """
    if not revisions:
        return RevisionFrontier(
            segments=tuple(segments),
            shadows=((),) * len(segments),
            synopses=tuple(synopses),
            token=(),
            knowledge_time=0,
        )
    by_name = {record["segment"]: record for record in revisions}
    visible: list[tuple[int, int, str, dict[str, Any] | None, Any]] = []
    effective = 0
    for index, name in enumerate(segments):
        record = by_name.get(name)
        knowledge = record["knowledge_time"] if record is not None else 0
        if knowledge_time is not None and knowledge > knowledge_time:
            continue
        effective = max(effective, knowledge)
        visible.append((knowledge, index, name, record, synopses[index]))
    out_names: list[str] = []
    out_shadows: list[tuple[tuple[int, int], ...]] = []
    out_synopses: list[dict[str, Any] | None] = []
    for knowledge, index, name, _record, synopsis in visible:
        merged = _merge_intervals(
            [
                (other["t_min"], other["t_max"])
                for other_k, other_i, _, other, _syn in visible
                if other is not None and (other_k, other_i) > (knowledge, index)
            ]
        )
        if (
            merged
            and synopsis is not None
            and synopsis.get("rows")
            and _intervals_cover(merged, synopsis["t_min"], synopsis["t_max"])
        ):
            continue  # Provably fully shadowed: not part of the frontier.
        out_names.append(name)
        out_shadows.append(merged)
        out_synopses.append(synopsis)
    return RevisionFrontier(
        segments=tuple(out_names),
        shadows=tuple(out_shadows),
        synopses=tuple(out_synopses),
        token=("k", effective),
        knowledge_time=effective,
    )


@dataclass(frozen=True)
class SeriesSnapshot:
    """A point-in-time, read-only capture of one series' stored state.

    Taken by :meth:`Catalog.snapshot` / :meth:`Catalog.open_many` from one
    atomic ``series.json`` read.  Segments named here are immutable once
    listed (appends only add new names, and every segment file is fully
    written before its name is flushed), so :meth:`load_view` is safe to
    call from any thread while a single writer keeps appending — the
    snapshot simply does not see rows landed after it was taken.
    """

    series_id: str
    directory: Path
    kind: str
    segments: tuple[str, ...]
    tuple_count: int
    next_t: int | None
    created: str = ""
    #: Per-segment zone-map synopses, aligned with ``segments``; None for
    #: segments written before synopses existed (see Catalog.synopsize).
    synopses: tuple[dict[str, Any] | None, ...] = ()
    #: Revision-chain records ({"segment", "knowledge_time", "t_min",
    #: "t_max"}), in recording order; empty for never-revised series.
    revisions: tuple[dict[str, Any], ...] = ()

    def segment_synopses(self) -> tuple[dict[str, Any] | None, ...]:
        """Synopses aligned with ``segments`` (padded when metadata is short)."""
        if len(self.synopses) == len(self.segments):
            return self.synopses
        padded = list(self.synopses[: len(self.segments)])
        padded.extend([None] * (len(self.segments) - len(padded)))
        return tuple(padded)

    @property
    def generation(self) -> tuple[str, int, int, str]:
        """Cache token: changes whenever the stored view's contents change.

        Appends grow the segment list and a static re-save changes the
        last segment's name; ``created`` (a per-creation nonce) breaks the
        remaining collision — dropping a series and recreating it under
        the same id restarts segment numbering, so segment names alone
        could repeat across the two incarnations.
        """
        last = self.segments[-1] if self.segments else ""
        return (self.created, len(self.segments), self.tuple_count, last)

    @property
    def has_revisions(self) -> bool:
        """True when the series has ever been revised (re-forecasted)."""
        return bool(self.revisions)

    def knowledge_times(self) -> tuple[int, ...]:
        """Distinct knowledge times, ascending, starting at the base 0."""
        return tuple(
            sorted(
                {0, *(record["knowledge_time"] for record in self.revisions)}
            )
        )

    def as_of(self, knowledge_time: int | None = None) -> RevisionFrontier:
        """Latest-wins segment visibility at ``knowledge_time``.

        ``None`` means "newest": every recorded revision applies.  An
        integer replays the past — only segments whose knowledge time is
        at or before it are visible, each masked by the revisions *then*
        known.  On a never-revised series every knowledge time returns
        the full segment list with an empty ``token`` (the fast path).
        """
        if knowledge_time is not None:
            knowledge_time = int(knowledge_time)
            if knowledge_time < 0:
                raise QueryError(
                    f"AS OF knowledge time must be >= 0, "
                    f"got {knowledge_time}"
                )
        return _resolve_frontier(
            self.segments,
            self.segment_synopses(),
            self.revisions,
            knowledge_time,
        )

    def load_view(self, *, as_of: int | None = None) -> ProbabilisticView:
        """Materialise the captured view (all captured segments).

        ``as_of`` replays the series as known at that knowledge time; the
        default materialises the newest frontier (on a revised series,
        shadowed rows are dropped — latest wins).
        """
        frontier = self.as_of(as_of)
        return _load_view_from_segments(
            self.directory,
            self.series_id,
            frontier.segments,
            shadows=frontier.shadows,
        )


def _snapshot_from_meta(
    series_id: str, directory: Path, meta: dict[str, Any]
) -> SeriesSnapshot:
    """The snapshot one parsed ``series.json`` describes."""
    segments = tuple(meta.get("segments", ()))
    synopses_map = meta.get("synopses") or {}
    return SeriesSnapshot(
        series_id=series_id,
        directory=directory,
        kind=meta["kind"],
        segments=segments,
        tuple_count=int(meta.get("tuple_count", 0)),
        next_t=meta.get("next_t"),
        created=str(meta.get("created", "")),
        synopses=tuple(
            _coerce_synopsis(synopses_map.get(name)) for name in segments
        ),
        revisions=_coerce_revisions(meta.get("revisions"), segments),
    )


@dataclass
class AppendResult:
    """What one micro-batch append produced.

    ``fed`` values entered the series; ``emitted`` view rows (times) became
    part of the stored view — fewer than ``fed`` while the window warms up.
    ``deltas`` pairs each registered standing query with the newly
    answerable results this append unlocked for it.
    """

    series_id: str
    fed: int
    emitted: int
    times: list[int] = field(default_factory=list)
    deltas: list[tuple[StandingQueryHandle, Any]] = field(default_factory=list)


class SeriesHandle:
    """One catalog series: its pipeline, its segments, its standing queries.

    Obtained via :meth:`Catalog.series` / :meth:`Catalog.create_series`;
    all mutation goes through the handle so in-memory state (pipeline
    position, cached view, standing-query state) stays consistent with the
    directory it mirrors.
    """

    def __init__(self, catalog: "Catalog", series_id: str) -> None:
        self.catalog = catalog
        self.series_id = series_id
        self.directory = catalog.root / series_id
        self._meta = _read_json(self.directory / _SERIES_FILE, "series")
        self._queries: list[StandingQueryHandle] = []
        self._view_cache: ProbabilisticView | None = None
        # Built on first ingestion use: read paths (list/describe/view)
        # must not pay for metric construction or cache population.
        self._pipeline: OnlinePipeline | None = None
        self._closed = False  # Set when the series is dropped or replaced.
        self._poisoned = False  # Set when a write died mid-transaction.

    def _check_open(self) -> None:
        if self._poisoned:
            raise StoreError(
                f"series {self.series_id!r} handle is stale: a previous "
                "append or revision failed before its series.json flush; "
                "re-fetch the handle via Catalog.series() to resume from "
                "the last durable state"
            )
        if self._closed:
            raise StoreError(
                f"series {self.series_id!r} was dropped or replaced; "
                "re-fetch the handle via Catalog.series()"
            )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def is_dynamic(self) -> bool:
        """True when the series ingests values (vs a statically saved view)."""
        return self._meta["kind"] == "dynamic"

    @property
    def grid(self) -> OmegaGrid | None:
        spec = self._meta.get("grid")
        if spec is None:
            return None
        return OmegaGrid(delta=spec["delta"], n=spec["n"])

    @property
    def next_t(self) -> int | None:
        """Index the next appended value will receive (dynamic series)."""
        return self._meta.get("next_t")

    @property
    def tuple_count(self) -> int:
        return int(self._meta.get("tuple_count", 0))

    @property
    def segment_names(self) -> list[str]:
        return list(self._meta.get("segments", []))

    def describe(self) -> dict[str, Any]:
        """Summary used by ``repro store list``."""
        out = {
            "series": self.series_id,
            "kind": self._meta["kind"],
            "tuples": self.tuple_count,
            "segments": len(self.segment_names),
        }
        if self.is_dynamic:
            out["metric"] = self._meta["metric"]
            out["H"] = self._meta["H"]
            out["next_t"] = self.next_t
        return out

    # ------------------------------------------------------------------
    # Pipeline plumbing.
    # ------------------------------------------------------------------
    def _ensure_pipeline(self) -> OnlinePipeline:
        if self._pipeline is None:
            grid = self.grid
            assert grid is not None
            pipeline = _pipeline_from_meta(self._meta, grid)
            pipeline.load_state(
                np.array(self._meta["window"], dtype=float),
                self._meta["next_t"],
            )
            self._pipeline = pipeline
        return self._pipeline

    @property
    def sigma_cache(self) -> SigmaCache | None:
        """The series' sigma-cache, shared across every append."""
        if not self.is_dynamic:
            return None
        return self._ensure_pipeline().builder.cache

    # ------------------------------------------------------------------
    # Ingestion.
    # ------------------------------------------------------------------
    def append(self, values: np.ndarray) -> AppendResult:
        """Ingest one micro-batch; extend the stored view incrementally.

        Compute cost scales with the batch (inference + one segment write
        + the standing-query suffix updates), not with the rows already
        stored.  The ``series.json`` flush does rewrite the segment *list*,
        which grows by one name per append — size micro-batches accordingly
        (tens of values or more) rather than appending value by value.
        """
        self._check_open()
        if not self.is_dynamic:
            raise QueryError(
                f"series {self.series_id!r} holds a statically saved view "
                "and cannot be appended to"
            )
        pipeline = self._ensure_pipeline()
        # feed_batch rejects a malformed or non-finite batch before it
        # consumes anything, so a rejected append leaves the handle usable.
        matrix = pipeline.feed_batch(values)
        result = AppendResult(
            series_id=self.series_id, fed=len(values), emitted=len(matrix)
        )
        suffix: ProbabilisticView | None = None
        with self._transaction():  # The pipeline has consumed the batch.
            if len(matrix):
                grid = self.grid
                assert grid is not None
                suffix = ProbabilisticView.from_matrix(
                    f"{self.series_id}@t{int(matrix.t[0])}", matrix, grid
                )
                _write_segment(self.directory, self._meta, suffix)
                result.times = suffix.times
                self._view_cache = None  # Warm-up appends keep the view.
            # Resume state moves even during pure warm-up appends.
            self._meta["next_t"] = pipeline.t
            self._meta["window"] = pipeline.window_values.tolist()
        if suffix is not None:
            for handle in self._queries:
                result.deltas.append((handle, handle.update(suffix)))
        return result

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        """Commit the body's changes to ``self._meta``, or poison the handle.

        Leaving the body flushes ``series.json`` — the commit point, always
        after the segment was renamed into place.  A failure anywhere
        leaves disk at the last durable state (at worst plus an orphan
        segment), but pipeline and metadata in memory are ahead of it:
        poison the handle so the caller cannot double-feed, and make
        :meth:`Catalog.series` hand out a fresh one read back from disk.
        """
        try:
            yield
            _write_json_atomic(self.directory / _SERIES_FILE, self._meta)
        except BaseException:
            self._poisoned = True
            raise

    # ------------------------------------------------------------------
    # Revisions (time-of-knowledge).
    # ------------------------------------------------------------------
    def revise(
        self,
        view: ProbabilisticView,
        *,
        knowledge_time: int | None = None,
    ) -> dict[str, Any]:
        """Record a re-forecast of an already-covered valid-time range.

        Plain appends only ever *extend* a series at ``next_t``; a
        revision instead overlays ``view``'s rows over whatever the
        series previously said about those valid times.  The old rows
        stay on disk — reads resolve latest-wins per time instant, and
        ``AS OF <knowledge_time>`` replays what was known before the
        revision landed (:meth:`SeriesSnapshot.as_of`).

        ``knowledge_time`` stamps *when this was learned*: caller-supplied
        (any int >= 1, non-decreasing across revisions) or the series'
        monotonic counter.  Base segments carry implicit knowledge time 0.
        Works for dynamic and static series alike — the pipeline position
        (``next_t``, window) is untouched, so ingestion resumes exactly
        where it left off.  Standing queries are incremental over append
        suffixes and do **not** observe revisions; re-register after
        revising if a standing result must reflect them.

        Returns the recorded revision-chain entry.
        """
        self._check_open()
        if not len(view):
            raise InvalidParameterError(
                "a revision needs at least one tuple"
            )
        revisions = self._meta.setdefault("revisions", [])
        last = revisions[-1]["knowledge_time"] if revisions else 0
        if knowledge_time is None:
            knowledge_time = max(
                int(self._meta.get("next_knowledge", 1)), last + 1
            )
        else:
            knowledge_time = int(knowledge_time)
            if knowledge_time < 1:
                raise InvalidParameterError(
                    f"knowledge_time must be >= 1 (0 is the base "
                    f"segments' implicit knowledge time), "
                    f"got {knowledge_time}"
                )
            if knowledge_time < last:
                raise InvalidParameterError(
                    f"knowledge_time must not decrease: the last "
                    f"recorded revision is at {last}, got {knowledge_time}"
                )
        cols = view.columns
        record = {
            "segment": "",
            "knowledge_time": knowledge_time,
            "t_min": int(cols.t.min()),
            "t_max": int(cols.t.max()),
        }
        with self._transaction():
            record["segment"] = _write_segment(
                self.directory, self._meta, view
            )
            revisions.append(record)
            self._meta["next_knowledge"] = knowledge_time + 1
        self._view_cache = None
        return record

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------
    def view(self) -> ProbabilisticView:
        """Materialise the stored view (all segments, column-concatenated).

        Cached until the next append; the append path itself never calls
        this, so ingesting stays O(batch).
        """
        self._check_open()
        if self._view_cache is None:
            self._view_cache = _snapshot_from_meta(
                self.series_id, self.directory, self._meta
            ).load_view()
        return self._view_cache

    # ------------------------------------------------------------------
    # Standing queries.
    # ------------------------------------------------------------------
    def register_query(self, query: StandingQuery) -> StandingQueryHandle:
        """Attach a standing query; replays the already-stored view once.

        The replay seeds the incremental state so ``result()`` covers the
        full series from the first call, and every subsequent append only
        touches the new suffix.
        """
        self._check_open()
        handle = StandingQueryHandle(query)
        existing = self.view()
        if len(existing):
            handle.update(existing)
        self._queries.append(handle)
        return handle

    def queries(self) -> list[StandingQueryHandle]:
        return list(self._queries)

    def __repr__(self) -> str:
        return (
            f"SeriesHandle({self.series_id!r}, kind={self._meta['kind']!r}, "
            f"tuples={self.tuple_count}, segments={len(self.segment_names)})"
        )


class Catalog:
    """A directory of persisted probabilistic views with streaming appends.

    Examples
    --------
    >>> import tempfile
    >>> root = tempfile.mkdtemp()
    >>> catalog = Catalog(root)
    >>> handle = catalog.create_series(
    ...     "room", metric="variable_threshold", H=20,
    ...     grid=OmegaGrid(delta=0.5, n=4))
    >>> result = catalog.append("room", [20.0 + 0.01 * i for i in range(30)])
    >>> (result.fed, result.emitted)
    (30, 10)
    >>> len(Catalog(root).view("room"))       # survives a reopen
    40
    """

    def __init__(self, root: str | Path, *, create: bool = True) -> None:
        self.root = Path(root)
        manifest = self.root / _CATALOG_FILE
        if manifest.exists():
            self._manifest = _read_json(manifest, "catalog")
        elif create:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise StoreError(
                    f"cannot create catalog directory {self.root}: {exc}"
                ) from exc
            self._manifest = {
                "schema_version": SCHEMA_VERSION,
                # Segment synopses this catalog's writers produce; older
                # catalogs lack the key until `store synopsize` backfills.
                "synopsis_version": SYNOPSIS_VERSION,
                "series": [],
            }
            self._flush_manifest()
        else:
            raise StoreError(f"no catalog at {self.root}")
        self._handles: dict[str, SeriesHandle] = {}
        # Snapshot reuse: repeated reads of an unchanged series.json (every
        # statement a query server executes re-plans its fan-out) skip the
        # JSON parse.  Guarded by a lock because a server plans statements
        # from several executor threads against one shared Catalog.
        self._snapshot_lock = threading.Lock()
        self._snapshot_cache: dict[str, tuple[tuple, SeriesSnapshot]] = {}
        self._manifest_token: tuple | None = None  # select_series' last read.

    def _flush_manifest(self) -> None:
        self._manifest_token = None
        _write_json_atomic(self.root / _CATALOG_FILE, self._manifest)

    def _reload_manifest(self) -> None:
        """Re-read ``catalog.json`` so mutations see on-disk reality.

        Another :class:`Catalog` instance on the same root (e.g. the one a
        ``PERSIST INTO`` clause opens) may have registered or dropped
        series since this instance loaded; every read-modify-write of the
        manifest starts from the current file instead of the cached copy.
        Concurrent *writers* are still the caller's problem (single-writer
        service assumed), but instances no longer delist each other's
        series.
        """
        self._manifest_token = None
        manifest = self.root / _CATALOG_FILE
        if manifest.exists():
            self._manifest = _read_json(manifest, "catalog")

    # ------------------------------------------------------------------
    # Series lifecycle.
    # ------------------------------------------------------------------
    def list_series(self) -> list[str]:
        return sorted(self._manifest["series"])

    def __contains__(self, series_id: str) -> bool:
        return series_id in self._manifest["series"]

    def _check_known(self, series_id: str) -> None:
        if series_id not in self:
            self._reload_manifest()  # Another instance may have added it.
        if series_id not in self:
            raise QueryError(
                f"unknown series {series_id!r}; stored: {self.list_series()}"
            )

    def select_series(self, pattern: str = "*") -> list[str]:
        """Series ids matching a shell-style glob, sorted.

        ``*``/``?``/``[...]`` match as in :mod:`fnmatch` (case-sensitive);
        the manifest is re-read first so selection sees on-disk reality,
        unless ``catalog.json`` still has the stat token of this
        instance's last read.
        """
        with self._snapshot_lock:
            token = _stat_token(os.path.join(self.root, _CATALOG_FILE))
            if token is None or token != self._manifest_token:
                self._reload_manifest()
                self._manifest_token = token
            series = self._manifest["series"]
        return sorted(
            series_id for series_id in series if fnmatchcase(series_id, pattern)
        )

    def snapshot(self, series_id: str) -> SeriesSnapshot:
        """A read-only point-in-time capture of one series.

        One atomic ``series.json`` read; no pipeline, no metric, no handle
        caching — the cheap path for query fan-out.  The returned snapshot
        stays loadable while a writer appends (segments are immutable once
        listed); it simply will not include rows landed after the capture.

        Snapshots are memoised against the metadata file's stat identity
        (mtime, size, inode): re-snapshotting an unchanged series — every
        repeated statement through a long-lived service or server does —
        returns the cached immutable capture without re-reading the file.
        Any append rewrites ``series.json`` atomically (new inode), so a
        stale capture can never be served once the write is durable.
        Every call counts one ``hit`` or ``miss`` into
        ``repro_store_snapshots_total``; it is :meth:`open_many`'s memo
        pass over one series.
        """
        self._check_known(series_id)
        return self._snapshots([series_id])[0]

    def _snapshots(self, ids: Sequence[str]) -> list[SeriesSnapshot]:
        """The snapshots of listed ``ids``: one ``stat`` per ``series.json``,
        one locked memo check, then each miss read and memoised under its
        ``stat``'s token.  Each outcome is counted once, by its count."""
        tokens = [_stat_token(os.path.join(self.root, i, _SERIES_FILE)) for i in ids]
        with self._snapshot_lock:
            entries = [self._snapshot_cache.get(series_id) for series_id in ids]
        found = [e[1] if e and e[0] == t else None for e, t in zip(entries, tokens)]
        misses = [index for index, snapshot in enumerate(found) if snapshot is None]
        if len(misses) < len(ids):
            _OBS_SNAPSHOTS.inc(len(ids) - len(misses), outcome="hit")
        for index in misses:
            series_id, directory = ids[index], self.root / ids[index]
            meta = _read_json(directory / _SERIES_FILE, "series")
            found[index] = _snapshot_from_meta(series_id, directory, meta)
            if tokens[index] is not None:
                with self._snapshot_lock:
                    self._snapshot_cache[series_id] = (tokens[index], found[index])
        if misses:
            _OBS_SNAPSHOTS.inc(len(misses), outcome="miss")
        return found

    def _drop_snapshot(self, series_id: str) -> None:
        with self._snapshot_lock:
            self._snapshot_cache.pop(series_id, None)

    def open_many(self, pattern: str = "*") -> list[SeriesSnapshot]:
        """Snapshot every series matching ``pattern``, sorted by id.

        The set-oriented read entry point :mod:`repro.service` plans over:
        the snapshot memo is checked once per fan-out — one ``stat`` per
        series, one lock — and only the misses are read.
        Raises :class:`~repro.exceptions.QueryError` when nothing matches,
        so a typo'd pattern fails loudly instead of returning zero rows.
        """
        ids = self.select_series(pattern)
        if not ids:
            raise QueryError(
                f"no series matches pattern {pattern!r}; "
                f"stored: {self.list_series()}"
            )
        return self._snapshots(ids)

    def create_series(
        self,
        series_id: str,
        *,
        metric: str,
        H: int,
        grid: OmegaGrid,
        metric_params: dict[str, Any] | None = None,
        cache_min_sigma: float | None = None,
        cache_max_sigma: float | None = None,
        cache_distance: float | None = None,
        cache_memory: int | None = None,
    ) -> SeriesHandle:
        """Register a new dynamic series bound to ``metric`` and ``grid``.

        ``metric`` is a registry name (``METRIC`` clause vocabulary) so the
        binding survives restarts.  The optional ``cache_*`` parameters
        pre-size a sigma-cache from expected volatility extremes — online
        mode cannot derive them from a WHERE clause — and the same cache
        instance then serves every subsequent append.
        """
        self._reload_manifest()
        self._check_new_id(series_id)
        cache_spec = None
        cache_given = [
            value is not None
            for value in (cache_min_sigma, cache_max_sigma,
                          cache_distance, cache_memory)
        ]
        if any(cache_given):
            if cache_min_sigma is None or cache_max_sigma is None:
                raise InvalidParameterError(
                    "a series cache needs cache_min_sigma and cache_max_sigma"
                )
            if cache_distance is None and cache_memory is None:
                raise InvalidParameterError(
                    "a series cache needs cache_distance and/or cache_memory"
                )
            cache_spec = {
                "min_sigma": float(cache_min_sigma),
                "max_sigma": float(cache_max_sigma),
                "distance": cache_distance,
                "memory": cache_memory,
            }
        meta = {
            "schema_version": SCHEMA_VERSION,
            "kind": "dynamic",
            # Per-creation nonce: distinguishes incarnations of a reused
            # series id (drop + recreate restarts segment numbering, so
            # names alone cannot identify cached contents).
            "created": uuid.uuid4().hex,
            "metric": str(metric),
            "metric_params": dict(metric_params or {}),
            "H": int(H),
            "grid": {"delta": grid.delta, "n": grid.n},
            "cache": cache_spec,
            "next_t": 0,
            "window": [],
            "segments": [],
            "next_segment": 1,
            "tuple_count": 0,
        }
        # Fail before anything lands on disk if the spec cannot be
        # realised (unknown metric, H < min_window, infeasible cache).
        _pipeline_from_meta(meta, grid)
        return self._install(series_id, meta)

    def save_view(self, series_id: str, view: ProbabilisticView) -> SeriesHandle:
        """Persist an already-built view as a static series.

        This is the ``CREATE VIEW ... PERSIST INTO`` target: the SQL engine
        materialises the view offline, and the catalog stores its columns
        as a single segment.  Replaces an existing series of the same name,
        mirroring ``Database`` view registration semantics; the old
        segments go only after the cutover (:meth:`_install`).
        """
        self._reload_manifest()
        exists = series_id in self
        if not exists:
            self._check_new_id(series_id)
        directory = self.root / series_id
        old_segments: list[str] = []
        if exists:
            self._invalidate_handle(series_id)
            old_meta = _read_json(directory / _SERIES_FILE, "series")
            old_segments = list(old_meta.get("segments", []))
        meta: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "kind": "static",
            "created": uuid.uuid4().hex,
            "grid": None,
            "segments": [],
            "next_segment": next_segment_index(old_segments),
            "tuple_count": 0,
        }
        handle = self._install(series_id, meta, view)
        for name in old_segments:
            if name not in meta["segments"]:
                remove_segment(directory, name)
        return handle

    def _check_new_id(self, series_id: str) -> None:
        if not _SERIES_ID_RE.match(series_id or ""):
            raise InvalidParameterError(
                f"series id {series_id!r} must match {_SERIES_ID_RE.pattern}"
            )
        if series_id == _CATALOG_FILE:
            raise InvalidParameterError(
                f"series id {series_id!r} is reserved for the catalog manifest"
            )
        if series_id in self:
            raise StoreError(f"series {series_id!r} already exists")

    def _install(
        self,
        series_id: str,
        meta: dict[str, Any],
        view: ProbabilisticView | None = None,
    ) -> SeriesHandle:
        """Make ``meta`` — and ``view``'s rows, if any — the stored series.

        The commit step of ``create_series`` and ``save_view``: segment
        first, then the atomic ``series.json`` cutover (a crash before it
        leaves any previous incarnation intact), then the manifest entry.
        """
        directory = self.root / series_id
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"cannot create series directory {directory}: {exc}"
            ) from exc
        if view is not None and len(view):
            _write_segment(directory, meta, view)
        _write_json_atomic(directory / _SERIES_FILE, meta)
        if series_id not in self:
            self._manifest["series"].append(series_id)
            self._flush_manifest()
        handle = SeriesHandle(self, series_id)
        self._handles[series_id] = handle
        return handle

    def series(self, series_id: str) -> SeriesHandle:
        """The handle for ``series_id`` (loaded lazily, cached).

        A handle poisoned by a failed write is replaced by one read back
        from disk that keeps its standing queries: they update only after
        a commit, so their state is the durable one.
        """
        self._check_known(series_id)
        handle = self._handles.get(series_id)
        if handle is None or handle._poisoned:
            queries = [] if handle is None else handle._queries
            handle = self._handles[series_id] = SeriesHandle(self, series_id)
            handle._queries = queries
        return handle

    def drop_series(self, series_id: str) -> None:
        """Remove a series and delete its directory.

        Works directly on the metadata files — never through a live
        handle — so a series whose binding can no longer be realised
        (e.g. its metric was unregistered) can still be dropped.
        """
        self._reload_manifest()
        self._check_known(series_id)
        directory = self.root / series_id
        try:
            meta = _read_json(directory / _SERIES_FILE, "series")
            segments = list(meta.get("segments", []))
        except StoreError:
            segments = []  # Metadata already gone/corrupt: best effort.
        for name in segments:
            remove_segment(directory, name)
        (directory / _SERIES_FILE).unlink(missing_ok=True)
        try:
            directory.rmdir()
        except OSError:
            pass  # Foreign files in the directory: leave them.
        self._manifest["series"].remove(series_id)
        self._flush_manifest()
        self._invalidate_handle(series_id)

    def _invalidate_handle(self, series_id: str) -> None:
        handle = self._handles.pop(series_id, None)
        if handle is not None:
            handle._closed = True
        self._drop_snapshot(series_id)

    # ------------------------------------------------------------------
    # Synopsis maintenance.
    # ------------------------------------------------------------------
    def synopsize(self, pattern: str = "*") -> dict[str, int]:
        """Backfill zone-map synopses for segments whose entry is missing.

        Walks every series matching ``pattern``; for each segment without
        a current-version synopsis in ``series.json`` (written before
        synopses existed, or by a build with another synopsis version)
        loads the columns once, computes it — exactly what the writer
        would have recorded — and stores it there.  Fresh catalogs are
        no-ops; re-running is idempotent.  Returns the number of segments
        backfilled per series id.

        Old catalogs work *without* this (exact queries simply prune
        nothing; APPROX computes synopses lazily in memory) — backfilling
        makes the speedup durable.
        """
        updated: dict[str, int] = {}
        for series_id in self.select_series(pattern):
            directory = self.root / series_id
            meta = _read_json(directory / _SERIES_FILE, "series")
            synopses = meta.setdefault("synopses", {})
            backfilled = 0
            for name in meta.get("segments", []):
                if _coerce_synopsis(synopses.get(name)) is not None:
                    continue
                synopses[name] = segment_synopsis(directory, name)
                backfilled += 1
            if backfilled:
                _write_json_atomic(directory / _SERIES_FILE, meta)
                self._drop_snapshot(series_id)
                # A live handle caches series.json; keep its copy in step
                # so a later append's metadata flush cannot drop the
                # freshly backfilled synopses.
                handle = self._handles.get(series_id)
                if handle is not None and not handle._closed:
                    handle._meta.setdefault("synopses", {}).update(synopses)
            updated[series_id] = backfilled
        if self._manifest.get("synopsis_version") != SYNOPSIS_VERSION:
            self._manifest["synopsis_version"] = SYNOPSIS_VERSION
            self._flush_manifest()
        return updated

    # ------------------------------------------------------------------
    # Convenience pass-throughs.
    # ------------------------------------------------------------------
    def append(self, series_id: str, values: Any) -> AppendResult:
        """Micro-batch ingest into ``series_id`` (see :meth:`SeriesHandle.append`)."""
        return self.series(series_id).append(np.asarray(values, dtype=float))

    def revise(
        self,
        series_id: str,
        view: ProbabilisticView,
        *,
        knowledge_time: int | None = None,
    ) -> dict[str, Any]:
        """Overlay a re-forecast (see :meth:`SeriesHandle.revise`)."""
        return self.series(series_id).revise(
            view, knowledge_time=knowledge_time
        )

    def replay(
        self,
        series_id: str,
        *,
        knowledge_times: Sequence[int] | None = None,
    ) -> list[tuple[int, ProbabilisticView]]:
        """Materialise the series as it was known at each knowledge time.

        The backtest-replay primitive: each returned ``(knowledge_time,
        view)`` pair is exactly what a query at ``AS OF knowledge_time``
        reads — feed the views to the online pipeline (or any consumer)
        to reproduce decisions made with only the information available
        at each step.  ``knowledge_times`` defaults to every distinct
        recorded knowledge time, ascending, starting at the base 0.
        """
        snapshot = self.snapshot(series_id)
        if knowledge_times is None:
            knowledge_times = snapshot.knowledge_times()
        return [
            (int(knowledge), snapshot.load_view(as_of=knowledge))
            for knowledge in knowledge_times
        ]

    def view(self, series_id: str) -> ProbabilisticView:
        """The stored view of ``series_id``."""
        return self.series(series_id).view()

    def register_query(
        self, series_id: str, query: StandingQuery
    ) -> StandingQueryHandle:
        """Register a standing query against ``series_id``."""
        return self.series(series_id).register_query(query)

    def __repr__(self) -> str:
        return f"Catalog(root={str(self.root)!r}, series={self.list_series()})"
