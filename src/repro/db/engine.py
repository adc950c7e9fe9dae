"""Database engine: the one place a statement is parsed and routed.

Ties the whole framework together (paper Fig. 2): raw-value tables go in,
``CREATE VIEW ... AS DENSITY ...`` statements run the selected dynamic
density metric over the matching rows, the Omega-view builder (optionally
backed by a sigma-cache) turns the inferred densities into probability
rows, and the result is registered as a named
:class:`~repro.db.prob_view.ProbabilisticView`.  A ``PERSIST INTO
'<path>'`` clause additionally stores the created view in the durable
catalog at that path (:mod:`repro.store`).

``SELECT`` / ``SIMULATE ... FROM CATALOG '<path>' ...`` statements run on
the catalog-wide query service (:mod:`repro.service`): the service the
database was constructed with when the statement addresses its catalog,
a throw-away default service otherwise.  Every statement kind answers
:meth:`Database.execute` with the same result surface — ``.kind`` /
``.to_dict()`` / ``.json()`` / ``.trace`` — and ``repro.connect()``,
``repro.connect(path)`` and the query server all run on this class.
The server calls :meth:`Database.reply` instead, routed by the same code:
it answers the canonical JSON bytes of ``.to_dict()``, which the bound
service renders once per catalog state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.db.prob_view import ProbabilisticView, tuple_rows
from repro.db.table import Table
from repro.exceptions import QueryError
from repro.metrics.registry import create_metric
from repro.obs.trace import QueryTrace
from repro.util.jsonio import RenderedObject, canonical_dumps
from repro.view.sql import ViewQuery, parse_statement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> db).
    from repro.service.executor import CatalogQueryService

__all__ = ["Database", "ViewResult"]

#: Window size used when a query omits the WINDOW clause.
DEFAULT_WINDOW = 60


class ViewResult:
    """A created :class:`ProbabilisticView` in the uniform result shape.

    The same ``.kind`` / ``.to_dict()`` / ``.json()`` / ``.trace``
    surface the SELECT-family results carry, with the view itself on
    ``.view``.
    """

    kind = "view"

    def __init__(self, view: ProbabilisticView, trace: QueryTrace) -> None:
        self.view = view
        self.trace = trace

    def to_dict(self) -> dict[str, Any]:
        """The view as the JSON-ready payload the wire protocol sends."""
        cols = self.view.columns
        return {
            "kind": "view",
            "name": self.view.name,
            "tuples": tuple_rows(
                cols.t, cols.low, cols.high, cols.probability,
                cols.label_code, cols.labels,
            ),
        }

    def json(self) -> str:
        """Canonical JSON of :meth:`to_dict` (deterministic bytes)."""
        return canonical_dumps(self.to_dict())

    def __repr__(self) -> str:
        return f"ViewResult(name={self.view.name!r})"


class Database:
    """Raw tables, created views, and an optional bound query service.

    ``service`` binds the engine to one catalog's
    :class:`~repro.service.executor.CatalogQueryService`: statements
    addressing that catalog run on its executor backend and warm matrix
    cache, and :meth:`close` closes it.

    Examples
    --------
    >>> import numpy as np
    >>> db = Database()
    >>> table = Table("raw_values", ["t", "r"])
    >>> rng = np.random.default_rng(1)
    >>> table.insert_many((float(i), 20 + 0.01 * i + rng.normal(0, 0.1))
    ...                   for i in range(200))
    >>> db.register_table(table)
    >>> result = db.execute(
    ...     "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=4 "
    ...     "METRIC arma_garch (p=1) WINDOW 40 FROM raw_values")
    >>> result.kind, result.view.name
    ('view', 'pv')
    """

    def __init__(
        self, service: "CatalogQueryService | None" = None
    ) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, ProbabilisticView] = {}
        self.service = service

    # ------------------------------------------------------------------
    # Catalog.
    # ------------------------------------------------------------------
    def register_table(self, table: Table) -> None:
        """Add (or replace) a raw-values table."""
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise QueryError(
                f"unknown table {name!r}; registered: {sorted(self._tables)}"
            )
        return self._tables[name]

    def view(self, name: str) -> ProbabilisticView:
        if name not in self._views:
            raise QueryError(
                f"unknown view {name!r}; created: {sorted(self._views)}"
            )
        return self._views[name]

    def list_tables(self) -> list[str]:
        return sorted(self._tables)

    def list_views(self) -> list[str]:
        return sorted(self._views)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def execute(self, sql: str, *, trace: QueryTrace | None = None) -> Any:
        """Parse and execute one statement (CREATE VIEW, SELECT, SIMULATE).

        ``CREATE VIEW`` statements return a :class:`ViewResult`;
        catalog-wide ``SELECT`` / ``SIMULATE`` statements the service
        layer's :class:`~repro.service.executor.StatementResult`.  Each
        carries the statement's stage spans on ``result.trace``: a trace
        created here is finished here; a caller-supplied one is recorded
        into but not finished — whoever created it owns its wall clock.
        """
        return self._run(sql, trace, render=False)

    def reply(self, sql: str, *, trace: QueryTrace) -> RenderedObject:
        """:meth:`execute`, answered as the canonical JSON of ``.to_dict()``.

        The query server's entry: parsed and routed exactly as
        :meth:`execute`.  On the bound service the bytes are rendered once
        per catalog state (:meth:`CatalogQueryService.reply
        <repro.service.executor.CatalogQueryService.reply>`); ``CREATE
        VIEW`` (which has side effects) and statements run on a throw-away
        service are rendered afresh, under a ``serialize`` stage.
        ``trace`` belongs to the caller, who finishes it.
        """
        return self._run(sql, trace, render=True)

    def _run(self, sql: str, trace: QueryTrace | None, render: bool) -> Any:
        own = trace is None
        if own:
            trace = QueryTrace(sql)
        elif trace.statement is None:
            trace.statement = sql
        with trace.stage("parse"):
            statement = parse_statement(sql)
            # Routing resolves the catalog path; timing it with the parse
            # keeps the stages covering the wall of a fast statement.
            bound = (
                not isinstance(statement, ViewQuery)
                and self.service is not None
                and self.service.accepts(statement)
            )
        if isinstance(statement, ViewQuery):
            with trace.stage("compute"):
                result = ViewResult(self.execute_query(statement), trace)
        elif bound:
            if render:
                return self.service.reply(statement, trace=trace)
            result = self.service.execute(statement, trace=trace)
        else:
            # Imported lazily: the service layer sits above the engine.
            from repro.service.executor import CatalogQueryService

            with CatalogQueryService(statement.catalog_path) as service:
                result = service.execute(statement, trace=trace)
        if render:
            with trace.stage("serialize"):
                return RenderedObject(result.to_dict())
        if own:
            trace.finish()
        return result

    def execute_query(self, query: ViewQuery) -> ProbabilisticView:
        """Execute an already-parsed :class:`ViewQuery`."""
        table = self.table(query.table_name)
        series = table.to_series(query.value_column, query.time_column)
        if query.time_lo is not None or query.time_hi is not None:
            lo = query.time_lo if query.time_lo is not None else float("-inf")
            hi = query.time_hi if query.time_hi is not None else float("inf")
            series = series.between_times(lo, hi)
        metric = create_metric(query.metric_name, **query.metric_params)
        window = query.window or DEFAULT_WINDOW
        if len(series) <= window:
            raise QueryError(
                f"query matches {len(series)} rows, not enough for "
                f"window H={window}; widen the WHERE range or shrink WINDOW"
            )
        # Imported lazily: the pipeline sits above the engine's package.
        from repro.pipeline import create_probabilistic_view

        view = create_probabilistic_view(
            series,
            metric,
            window,
            query.grid(),
            view_name=query.view_name,
            distance_constraint=query.cache_distance,
            memory_constraint=query.cache_memory,
        )
        self._views[query.view_name] = view
        if query.persist_path is not None:
            # Imported lazily: the store layer sits above the engine.
            from repro.store.catalog import Catalog

            Catalog(query.persist_path).save_view(query.view_name, view)
        return view

    def close(self) -> None:
        """Close the bound service, if any (idempotent)."""
        if self.service is not None:
            self.service.close()

    def __repr__(self) -> str:
        return (
            f"Database(tables={self.list_tables()}, views={self.list_views()})"
        )
