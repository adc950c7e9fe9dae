"""One front door for every query route: ``repro.connect()``.

A :class:`Connection` holds either a local engine — a
:class:`~repro.db.engine.Database`, unbound or bound to a catalog's
:class:`~repro.service.executor.CatalogQueryService` — or a network
:class:`~repro.server.client.Client` onto a server running the same
engine:

>>> # conn = repro.connect()                      # in-memory engine
>>> # conn = repro.connect("/data/catalogs/main") # local catalog service
>>> # conn = repro.connect("tcp://db-host:7411")  # a running query server
>>> # result = conn.execute(
>>> #     "SELECT exceedance(21.0) FROM CATALOG '/data/catalogs/main'",
>>> #     as_of=3)
>>> # result.kind, result.to_dict(), result.json()

Every route answers ``execute`` with a uniform result object exposing
``.kind`` (``"select"`` / ``"approx"`` / ``"simulate"`` /
``"multi_select"`` / ``"view"``), ``.to_dict()`` (the JSON-ready payload
the wire protocol sends), ``.json()`` (canonical bytes) and ``.trace`` —
and every route runs every statement kind (``CREATE VIEW``, ``SELECT``,
``SIMULATE``), so the same statement is *bit-identical* whichever route
served it, which the route-matrix tests pin.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.exceptions import InvalidParameterError
from repro.util.jsonio import canonical_dumps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.engine import Database
    from repro.server.client import Client
    from repro.service.executor import CatalogQueryService

__all__ = ["Connection", "RemoteResult", "connect"]

_TCP_URL = re.compile(r"^tcp://(?P<host>[^:/]+)(?::(?P<port>\d+))?/?$")


class RemoteResult:
    """A server-answered statement in the uniform result shape.

    The wire already speaks the canonical payload dialect, so this is a
    view over the received dict: ``to_dict`` returns it as-is (minus
    nothing), ``kind`` folds the ``approx`` flag into the discriminator
    exactly like :attr:`StatementResult.kind` does, and ``trace`` surfaces
    the server's stage breakdown when one was requested.
    """

    def __init__(self, payload: dict[str, Any]) -> None:
        self._payload = payload

    @property
    def kind(self) -> str:
        if self._payload.get("approx"):
            return "approx"
        return str(self._payload.get("kind", "select"))

    @property
    def trace(self) -> dict[str, Any] | None:
        return self._payload.get("trace")

    def to_dict(self) -> dict[str, Any]:
        payload = dict(self._payload)
        # The trace block is timing, not result: two runs of the same
        # statement must serialize identically, exactly as the local
        # result objects exclude their trace from to_dict().
        payload.pop("trace", None)
        return payload

    def json(self) -> str:
        return canonical_dumps(self.to_dict())

    def __repr__(self) -> str:
        return f"RemoteResult(kind={self.kind!r})"


class Connection:
    """One query connection, whatever sits behind it.

    Construct via :func:`connect`.  Exactly one of ``database`` and
    ``client`` is set; :attr:`route` names what serves the statements
    (``"memory"``: an unbound engine, ``"service"``: an engine bound to
    a catalog's query service, ``"server"``: a remote one).
    """

    def __init__(
        self,
        *,
        database: "Database | None" = None,
        client: "Client | None" = None,
    ) -> None:
        if (database is None) == (client is None):
            raise InvalidParameterError(
                "Connection needs exactly one of database/client"
            )
        self.database = database
        self.client = client

    @property
    def service(self) -> "CatalogQueryService | None":
        """The local engine's bound query service, if any (read-only)."""
        return None if self.database is None else self.database.service

    @property
    def route(self) -> str:
        if self.client is not None:
            return "server"
        return "memory" if self.service is None else "service"

    def execute(
        self,
        statement: str,
        *,
        trace: bool = False,
        as_of: int | None = None,
    ) -> Any:
        """Run one statement; a uniform result object on every route.

        ``as_of`` rewrites the statement with an ``AS OF
        <knowledge_time>`` clause (SELECT / SIMULATE only) before
        routing — the one place that rewrite happens — so all three
        routes answer from the same revision frontier, and a server (and
        its coalescing, which keys on statement text) sees a plain
        dialect statement.  A statement that already carries a
        *different* ``AS OF`` clause is rejected rather than silently
        overridden.  ``trace=True`` asks a server for the per-stage
        latency breakdown (``result.trace`` is its serialized trace
        block, ending with the client's ``client_decode`` stage); local
        results always carry their
        :class:`~repro.obs.trace.QueryTrace` on ``result.trace``.
        Traces never enter ``to_dict()`` / ``.json()`` — two runs of one
        statement serialize identically.
        """
        if as_of is not None:
            from repro.view.sql import with_as_of

            statement = with_as_of(statement, as_of)
        if self.client is not None:
            return RemoteResult(
                self.client.query(statement, trace=bool(trace))
            )
        return self.database.execute(statement)

    def close(self) -> None:
        backend = self.client if self.database is None else self.database
        backend.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Connection(route={self.route!r})"


def connect(
    target: "str | Path | None" = None,
    *,
    backend: str = "sequential",
    max_workers: int | None = None,
    cache_budget_bytes: int = 64 << 20,
    timeout: float = 30.0,
) -> Connection:
    """Open a :class:`Connection` to ``target``.

    ``None`` or ``":memory:"`` builds an unbound
    :class:`~repro.db.engine.Database` (statements addressing a catalog
    run on a throw-away default service); a local path binds the engine
    to a :class:`~repro.service.executor.CatalogQueryService` over that
    catalog (warm matrix cache; ``backend``, ``max_workers`` and
    ``cache_budget_bytes`` apply here: ``"sequential"``, the default,
    runs each statement inline on the calling thread, ``"process"`` on a
    persistent pool of ``max_workers`` worker processes — ``None``: one
    per core; validated ``>= 1``, otherwise unused); a
    ``tcp://host[:port]`` URL connects a
    :class:`~repro.server.client.Client` to a running query server
    (``timeout`` applies there).  Close the connection (or use it as a
    context manager) to release pools and sockets.
    """
    from repro.db.engine import Database

    if target is None or target == ":memory:":
        return Connection(database=Database())
    if isinstance(target, str):
        match = _TCP_URL.match(target)
        if match:
            from repro.server.app import DEFAULT_PORT
            from repro.server.client import Client

            port = match.group("port")
            return Connection(client=Client(
                match.group("host"),
                int(port) if port else DEFAULT_PORT,
                timeout=timeout,
            ))
        if "://" in target:
            raise InvalidParameterError(
                f"unsupported connection URL {target!r}; expected "
                "'tcp://host[:port]', a catalog path, or ':memory:'"
            )
    from repro.service.executor import CatalogQueryService

    return Connection(database=Database(CatalogQueryService(
        target,
        backend=backend,
        max_workers=max_workers,
        cache_budget_bytes=cache_budget_bytes,
    )))
