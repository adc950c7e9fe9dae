"""Database engine: executes the SQL-like view-generation language.

Ties the whole framework together (paper Fig. 2): raw-value tables go in,
``CREATE VIEW ... AS DENSITY ...`` statements run the selected dynamic
density metric over the matching rows, the Omega-view builder (optionally
backed by a sigma-cache) turns the inferred densities into probability
rows, and the result is registered as a named
:class:`~repro.db.prob_view.ProbabilisticView`.  A ``PERSIST INTO
'<path>'`` clause additionally stores the created view in the durable
catalog at that path (:mod:`repro.store`).

``SELECT <aggregate> FROM CATALOG '<path>' ...`` statements route to the
catalog-wide query service (:mod:`repro.service`) and return a
:class:`~repro.service.executor.SelectResult` instead of a view — one
``execute`` entry point, two statement kinds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.db.prob_view import ProbabilisticView
from repro.db.table import Table
from repro.exceptions import QueryError
from repro.metrics.registry import create_metric
from repro.obs.trace import QueryTrace
from repro.view.builder import ViewBuilder
from repro.view.sql import (
    SelectQuery,
    SimulateQuery,
    ViewQuery,
    parse_statement,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> db).
    from repro.service.executor import CatalogQueryService, SelectResult

__all__ = ["Database"]

#: Window size used when a query omits the WINDOW clause.
DEFAULT_WINDOW = 60


class Database:
    """An in-memory database of raw tables and probabilistic views.

    Examples
    --------
    >>> import numpy as np
    >>> db = Database()
    >>> table = Table("raw_values", ["t", "r"])
    >>> rng = np.random.default_rng(1)
    >>> table.insert_many((float(i), 20 + 0.01 * i + rng.normal(0, 0.1))
    ...                   for i in range(200))
    >>> db.register_table(table)
    >>> view = db.execute(
    ...     "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=4 "
    ...     "METRIC arma_garch (p=1) WINDOW 40 FROM raw_values")
    >>> view.name
    'pv'
    """

    def __init__(
        self, *, select_service: "CatalogQueryService | None" = None
    ) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, ProbabilisticView] = {}
        self._select_service = select_service

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
    def execute(
        self, sql: str, *, trace: QueryTrace | None = None
    ) -> "ProbabilisticView | SelectResult":
        """Parse and execute one statement (CREATE VIEW, SELECT, SIMULATE).

        ``CREATE VIEW`` statements return the created
        :class:`ProbabilisticView`; catalog-wide ``SELECT`` / ``SIMULATE``
        statements return the service layer's result objects
        (:class:`~repro.service.executor.SelectResult`,
        :class:`~repro.service.executor.MultiSelectResult`,
        :class:`~repro.service.executor.SimulateResult`).  ``trace``
        (optional) collects the statement's stage spans; the caller that
        created it owns its wall clock.
        """
        if trace is None:
            statement = parse_statement(sql)
            if isinstance(statement, (SelectQuery, SimulateQuery)):
                return self.execute_select(statement)
            return self.execute_query(statement)
        if trace.statement is None:
            trace.statement = sql
        with trace.stage("parse"):
            statement = parse_statement(sql)
        if isinstance(statement, (SelectQuery, SimulateQuery)):
            return self.execute_select(statement, trace=trace)
        with trace.stage("compute"):
            return self.execute_query(statement)

    def bind_select_service(
        self, service: "CatalogQueryService | None"
    ) -> None:
        """Route catalog SELECTs for the service's catalog through it.

        A long-lived executor (the query server binds one per process)
        brings its executor backend and warm matrix cache to every
        statement this database executes; statements addressing *other*
        catalogs still fall back to the one-shot path.  Pass ``None`` to
        unbind.
        """
        self._select_service = service

    def execute_select(
        self,
        query: "str | SelectQuery | SimulateQuery",
        *,
        trace: QueryTrace | None = None,
    ) -> "SelectResult":
        """Run a catalog-wide SELECT/SIMULATE through :mod:`repro.service`.

        A bound service (see :meth:`bind_select_service`) carries its own
        executor backend and warm cache; statements addressing other
        catalogs take the one-shot path (a throwaway default service).
        """
        # Imported lazily: the service layer sits above the engine.
        from repro.service.executor import execute_select

        if isinstance(query, str):
            parsed = parse_statement(query)
            if not isinstance(parsed, (SelectQuery, SimulateQuery)):
                raise QueryError(
                    "execute_select handles SELECT and SIMULATE "
                    "statements; use execute_query for CREATE VIEW"
                )
            query = parsed
        service = self._select_service
        if service is not None and service.accepts(query):
            return service.execute(query, trace=trace)
        return execute_select(query, trace=trace)

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
        forecasts = metric.run(series, window)
        grid = query.grid()
        builder = ViewBuilder(grid)
        if query.uses_cache:
            builder = builder.with_cache_for(
                forecasts,
                distance_constraint=query.cache_distance,
                memory_constraint=query.cache_memory,
            )
        matrix = builder.build_matrix(forecasts)
        view = ProbabilisticView.from_matrix(query.view_name, matrix, grid)
        self._views[query.view_name] = view
        if query.persist_path is not None:
            # Imported lazily: the store layer sits above the engine.
            from repro.store.catalog import Catalog

            Catalog(query.persist_path).save_view(query.view_name, view)
        return view

    def __repr__(self) -> str:
        return (
            f"Database(tables={self.list_tables()}, views={self.list_views()})"
        )
