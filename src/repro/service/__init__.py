"""Catalog-wide query service: plan, fan out, cache, rank.

The layer that turns a directory of persisted probabilistic views
(:mod:`repro.store`) into something queryable *as a database*: one
``SELECT`` or ``SIMULATE`` statement evaluates its items over every (or a
glob-selected subset of) series in a catalog, per-series work runs on a
pluggable executor backend (inline on the caller's thread, or a
spawn-safe process pool with per-worker warm caches), and
materialised view matrices are kept warm in a byte-budgeted cache so
repeated statements never reload a segment; one whose series outgrow
the budget keeps all but one of the views it has room for (the cache is
LRU under budget and admits at the cold end under pressure).

* :mod:`repro.service.planner` — lowers a parsed
  :class:`~repro.view.sql.CatalogQuery` (SELECT or SIMULATE) to the one
  plan: kernel resolution against :mod:`repro.db.aggregates` + argument
  checks + pruned snapshot fan-out list per select-list item, plus the
  picklable per-series task envelopes backends consume;
* :mod:`repro.service.kernels` — the one compute path:
  ``compute_chunk`` loads and restricts each envelope's view and runs
  its kernel's :meth:`~repro.db.aggregates.KernelSpec.evaluate`, the one
  evaluator, into a :class:`SeriesResult` — the one per-series answer,
  defined in :mod:`repro.db.aggregates` and re-exported here (each
  series' kernel run alone over its own view, scores included);
* :mod:`repro.service.backends` — the executor backends: two
  schedulers for that one function (the process pool returns those
  arrays pickled through its own pipe);
* :mod:`repro.service.executor` — runs the plan through the selected
  backend, ranks the per-series results, and returns the one
  :class:`StatementResult`, rendered to JSON straight from the arrays;
* :mod:`repro.service.cache` — the shared materialised-view cache.
"""

from repro.service.backends import (
    BACKEND_NAMES,
    ExecutorBackend,
    ProcessBackend,
    SequentialBackend,
    make_backend,
)
from repro.service.cache import CacheStats, MatrixCache
from repro.service.executor import CatalogQueryService, StatementResult
from repro.service.kernels import SeriesResult
from repro.service.planner import (
    AGGREGATES,
    KERNELS,
    ItemPlan,
    KernelSpec,
    QueryPlan,
    plan_statement,
)

__all__ = [
    "AGGREGATES",
    "BACKEND_NAMES",
    "CacheStats",
    "CatalogQueryService",
    "ExecutorBackend",
    "ItemPlan",
    "KERNELS",
    "KernelSpec",
    "MatrixCache",
    "ProcessBackend",
    "QueryPlan",
    "SequentialBackend",
    "SeriesResult",
    "StatementResult",
    "make_backend",
    "plan_statement",
]
