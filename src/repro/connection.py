"""One front door for every query route: ``repro.connect()``.

The library grew three overlapping query entry points — an in-memory
:class:`~repro.db.engine.Database`, the catalog-bound
:class:`~repro.service.executor.CatalogQueryService`, and the network
:class:`~repro.server.client.Client` — each with its own signature.
:func:`connect` consolidates them behind one :class:`Connection` façade:

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
the wire protocol sends), and ``.json()`` (canonical bytes) — so the
same statement is *bit-identical* whichever route served it, which the
property tests pin.  The old entry points remain as the thin layers this
façade delegates to.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.exceptions import InvalidParameterError
from repro.util.jsonio import canonical_dumps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.engine import Database
    from repro.db.prob_view import ProbabilisticView
    from repro.server.client import Client
    from repro.service.executor import CatalogQueryService

__all__ = ["Connection", "RemoteResult", "ViewResult", "connect"]

_TCP_URL = re.compile(r"^tcp://(?P<host>[^:/]+)(?::(?P<port>\d+))?/?$")


class ViewResult:
    """A created :class:`ProbabilisticView` in the uniform result shape.

    ``CREATE VIEW`` returns the view object itself from the engine; this
    wrapper gives it the same ``.kind`` / ``.to_dict()`` / ``.json()``
    surface the SELECT-family results carry, with the underlying view on
    ``.view``.
    """

    kind = "view"

    def __init__(self, view: "ProbabilisticView") -> None:
        self.view = view

    def to_dict(self) -> dict[str, Any]:
        from repro.server.protocol import serialize_view

        return serialize_view(self.view)

    def json(self) -> str:
        return canonical_dumps(self.to_dict())

    def __repr__(self) -> str:
        return f"ViewResult(name={self.view.name!r})"


class RemoteResult:
    """A server-answered statement in the uniform result shape.

    The wire already speaks the canonical payload dialect, so this is a
    view over the received dict: ``to_dict`` returns it as-is (minus
    nothing), ``kind`` folds the ``approx`` flag into the discriminator
    exactly like :attr:`SelectResult.kind` does, and ``trace`` surfaces
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

    Construct via :func:`connect`.  Exactly one of ``database``,
    ``service``, ``client`` is set; :attr:`route` names it
    (``"memory"`` / ``"service"`` / ``"server"``).
    """

    def __init__(
        self,
        *,
        database: "Database | None" = None,
        service: "CatalogQueryService | None" = None,
        client: "Client | None" = None,
    ) -> None:
        backends = [database, service, client]
        if sum(x is not None for x in backends) != 1:
            raise InvalidParameterError(
                "Connection needs exactly one of database/service/client"
            )
        self.database = database
        self.service = service
        self.client = client

    @property
    def route(self) -> str:
        if self.database is not None:
            return "memory"
        if self.service is not None:
            return "service"
        return "server"

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
        routing, so all three routes answer from the same revision
        frontier.  ``trace=True`` asks for the per-stage latency
        breakdown: local results carry a
        :class:`~repro.obs.trace.QueryTrace` on ``result.trace``, remote
        results the server's serialized trace block.  Traces never enter
        ``to_dict()`` / ``.json()`` — two runs of one statement
        serialize identically.
        """
        if as_of is not None:
            from repro.view.sql import with_as_of

            statement = with_as_of(statement, as_of)
        if self.client is not None:
            return RemoteResult(
                self.client.query(statement, trace=bool(trace))
            )
        if self.service is not None:
            return self.service.execute(statement)
        result = self.database.execute(statement)
        from repro.db.prob_view import ProbabilisticView

        if isinstance(result, ProbabilisticView):
            return ViewResult(result)
        return result

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        if self.client is not None:
            self.client.close()

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
    pruning: bool = True,
    timeout: float = 30.0,
) -> Connection:
    """Open a :class:`Connection` to ``target``.

    ``None`` or ``":memory:"`` builds an in-memory
    :class:`~repro.db.engine.Database` (CREATE VIEW plus one-shot
    catalog SELECTs); a local path opens a
    :class:`~repro.service.executor.CatalogQueryService` over that
    catalog (warm matrix cache; ``backend``, ``cache_budget_bytes``,
    ``pruning`` apply here: ``"sequential"``, the default, runs each
    statement inline on the calling thread, ``"process"`` on a
    persistent pool of ``max_workers`` worker processes — ``None``: one
    per core; validated ``>= 1``, otherwise unused); a
    ``tcp://host[:port]`` URL connects a
    :class:`~repro.server.client.Client` to a running query server
    (``timeout`` applies there).  Close the connection (or use it as a
    context manager) to release pools and sockets.
    """
    if target is None or target == ":memory:":
        from repro.db.engine import Database

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

    return Connection(service=CatalogQueryService(
        target,
        backend=backend,
        max_workers=max_workers,
        cache_budget_bytes=cache_budget_bytes,
        pruning=pruning,
    ))
