"""Asyncio query server over a persistent catalog.

One :class:`QueryServer` owns a :class:`~repro.db.engine.Database` bound
to a shared :class:`~repro.service.executor.CatalogQueryService`
(executor backend + byte-budgeted matrix cache) over the served catalog
— the same engine ``repro.connect(path)`` builds.
Connections speak the NDJSON protocol of
:mod:`repro.server.protocol`; statements execute *and render* on a bounded
thread pool, so the event loop only ever parses frames and shuttles bytes:
a statement's result reaches it as finished JSON bytes, which it frames
with the request id.

Four service-grade behaviours live here rather than in the engine:

* **Reply cache** — a catalog ``SELECT`` / ``SIMULATE`` reply is rendered
  once per catalog state (:meth:`Database.reply
  <repro.db.engine.Database.reply>`): a dashboard re-polling an unchanged
  catalog gets the cached bytes after a parse, a plan and a lookup, while
  every counter, histogram and slow-log entry records it as it would an
  execution.  Any change the plan would see (append, revise, re-create,
  a new matching series, another ``AS OF`` frontier) misses.  Replies
  share the matrix cache's budget; ``{"op": "stats"}`` reports them
  under ``reply_cache``.
* **Request coalescing** — concurrent identical statements (whitespace-
  normalised) share one execution: the first arrival runs, later arrivals
  await the same future and receive the same rendered body.  With many
  dashboards polling the same SELECT, the catalog does the work once.
* **Admission control** — at most ``max_inflight`` statements execute at
  once; beyond that, new queries get an immediate ``saturated`` error (the
  429 analogue) instead of queueing without bound.  Coalesced arrivals
  attach to in-flight work and are never rejected.
* **Graceful shutdown** — :meth:`shutdown` stops accepting connections,
  rejects new statements with ``shutting_down``, *drains* every in-flight
  execution so its response is written, then closes connections and the
  underlying service.

:class:`ServerThread` runs a server on a background event-loop thread —
what the tests, the benchmark, and embedding applications use.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from repro.db.engine import Database
from repro.exceptions import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import DEFAULT_SLOW_QUERY_MS
from repro.obs.trace import QueryTrace
from repro.server import protocol
from repro.service.executor import CatalogQueryService
from repro.store.catalog import Catalog

__all__ = ["QueryServer", "ServerStats", "ServerThread"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7411


class ServerStats:
    """Lifetime counters, exposed over the wire via ``{"op": "stats"}``.

    All mutation goes through :meth:`increment` and every read copies
    under one lock, so a stats payload assembled mid-burst is internally
    consistent (``executed + coalesced + rejected`` can never be caught
    between two increments of one arrival).  Counters read as plain
    attributes (``stats.executed``) for ergonomic assertions; writing
    them directly raises — the increment path is the only writer.
    """

    _FIELDS = (
        "connections",
        "requests",
        "executed",
        "coalesced",
        "rejected",
        "errors",
    )

    def __init__(self) -> None:
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_counts", dict.fromkeys(self._FIELDS, 0))

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def __getattr__(self, name: str) -> int:
        if name in type(self)._FIELDS:
            with self._lock:
                return self._counts[name]
        raise AttributeError(name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in type(self)._FIELDS:
            raise AttributeError(
                f"ServerStats.{name} is read-only; use increment({name!r})"
            )
        object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        counts = self.as_dict()
        inner = ", ".join(f"{k}={v}" for k, v in counts.items())
        return f"ServerStats({inner})"


class QueryServer:
    """NDJSON query server fronting one catalog.

    Parameters
    ----------
    catalog:
        The served :class:`Catalog` or its path (must exist).
    host, port:
        Bind address; port ``0`` picks a free port (see :attr:`address`).
    max_inflight:
        Concurrent statement executions admitted before new queries are
        rejected with ``saturated``.
    max_workers, cache_budget_bytes, backend:
        Forwarded to the shared :class:`CatalogQueryService`; ``backend``
        selects the per-statement executor: ``"sequential"`` (default)
        runs each statement inline on the server worker thread that
        admitted it, so this server's ``max_inflight`` pool is the only
        one; ``"process"`` adds ``max_workers`` worker processes
        (``None``: one per core; validated ``>= 1``, otherwise unused)
        for true multi-core aggregate execution.
    registry:
        Forwarded to the service; the server's own request counters are
        exported into the same registry, and ``{"op": "metrics"}``
        scrapes it (``None``: the process-wide default registry).
    slow_query_ms:
        Forwarded to the service's slow-query log (``server serve
        --slow-query-ms``); entries come back via ``{"op": "slowlog"}``.

    The wire limits are fixed: a statement over
    :data:`~repro.server.protocol.MAX_STATEMENT_CHARS` characters is
    answered ``statement_too_large``, a frame over
    :data:`~repro.server.protocol.DEFAULT_FRAME_LIMIT` bytes
    ``frame_too_large`` (and its connection closed).  :meth:`shutdown`
    gives lingering clients two seconds after the drain.

    Register raw tables on :attr:`database` before ``start()`` so
    ``CREATE VIEW`` statements have data to run over.

    Examples
    --------
    >>> # server = QueryServer("/data/catalogs/main", port=7411)
    >>> # asyncio.run(server.run())
    """

    def __init__(
        self,
        catalog: Catalog | str | Path,
        *,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        max_inflight: int = 8,
        max_workers: int | None = None,
        cache_budget_bytes: int = 64 << 20,
        backend: str = "sequential",
        registry: MetricsRegistry | None = None,
        slow_query_ms: float = DEFAULT_SLOW_QUERY_MS,
    ) -> None:
        self.service = CatalogQueryService(
            catalog,
            max_workers=max_workers,
            cache_budget_bytes=cache_budget_bytes,
            backend=backend,
            registry=registry,
            slow_query_ms=slow_query_ms,
        )
        self.registry = self.service.registry
        self.database = Database(self.service)
        self.host = host
        self.port = int(port)
        self.max_inflight = int(max_inflight)
        self.stats = ServerStats()
        # Statement execution happens here, never on the event loop; the
        # pool is exactly max_inflight wide so admission control and real
        # concurrency agree.
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="repro-server"
        )
        self._server: asyncio.AbstractServer | None = None
        # Keyed by (stripped statement, trace flag).
        self._inflight: dict[tuple[str, bool], asyncio.Future] = {}
        self._active = 0
        self._draining = False
        self._tasks: set[asyncio.Future] = set()
        self._handlers: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._server_collector = self._register_server_metrics()

    def _register_server_metrics(self):
        """Bridge :class:`ServerStats` into the registry at scrape time.

        The stats object stays the single source of truth (one locked
        dict); the collector copies it into ``repro_server_*`` gauges
        right before each snapshot/exposition, so a scrape never reads a
        half-updated burst.
        """
        gauges = {
            name: self.registry.gauge(
                f"repro_server_{name}", f"Server lifetime {name} count"
            )
            for name in ServerStats._FIELDS
        }
        active = self.registry.gauge(
            "repro_server_active", "Statements executing right now"
        )

        def collect() -> None:
            for name, value in self.stats.as_dict().items():
                gauges[name].set(value)
            active.set(self._active)

        self.registry.register_collector(collect)
        return collect

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        if self._server is not None and self._server.sockets:
            name = self._server.sockets[0].getsockname()
            return str(name[0]), int(name[1])
        return self.host, self.port

    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._on_connection,
            self.host,
            self.port,
            limit=protocol.DEFAULT_FRAME_LIMIT,
        )

    async def run(self) -> None:
        """Serve until cancelled, then drain and shut down."""
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.shutdown()

    async def shutdown(self) -> None:
        """Drain in-flight work, then close connections and the service.

        New statements arriving during the drain are rejected with
        ``shutting_down``; every execution already admitted completes and
        its response is written before the connection is closed.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self._handlers:
            # In-flight responses are being written now; clients that hang
            # around for two seconds more are disconnected.
            _, pending = await asyncio.wait(
                list(self._handlers), timeout=2.0
            )
            for writer in list(self._writers):
                writer.close()
            if pending:
                await asyncio.wait(list(pending), timeout=1.0)
        self._executor.shutdown(wait=True)
        self.registry.unregister_collector(self._server_collector)
        self.database.close()

    # ------------------------------------------------------------------
    # Connection handling (event-loop side).
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.increment("connections")
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self._writers.add(writer)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # Client went away mid-write: their call, not an error.
        except asyncio.CancelledError:
            raise
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # The line outgrew the read buffer: it can be neither
                # parsed nor reliably skipped.  Answer, then hang up.
                await self._send(
                    writer,
                    protocol.error_frame(
                        None,
                        "frame_too_large",
                        f"frame exceeds {protocol.DEFAULT_FRAME_LIMIT} bytes",
                    ),
                )
                return
            if not line:
                return  # Clean EOF.
            if not line.strip():
                continue
            response = await self._respond(line)
            await self._send(writer, response)

    async def _send(
        self, writer: asyncio.StreamWriter, response: dict[str, Any] | bytes
    ) -> None:
        """Write one response: a statement result's finished frame bytes,
        or a small op/error frame encoded here."""
        if isinstance(response, dict):
            response = protocol.encode_frame(response)
        writer.write(response)
        await writer.drain()

    # ------------------------------------------------------------------
    # Request dispatch.
    # ------------------------------------------------------------------
    async def _respond(self, line: bytes) -> dict[str, Any] | bytes:
        self.stats.increment("requests")
        try:
            payload = protocol.loads_frame(line)
        except (UnicodeDecodeError, ValueError) as exc:
            self.stats.increment("errors")
            return protocol.error_frame(
                None, "bad_request", f"malformed JSON frame: {exc}"
            )
        if not isinstance(payload, dict):
            self.stats.increment("errors")
            return protocol.error_frame(
                None, "bad_request", "frame must be a JSON object"
            )
        request_id = payload.get("id")
        try:
            protocol.canonical_dumps(request_id)
        except ValueError:
            # "1e999" parses to inf without tripping loads_frame; an id
            # that cannot be echoed canonically is dropped, not fatal.
            request_id = None
        op = payload.get("op", "query")
        if op == "ping":
            return protocol.result_frame(request_id, {"kind": "pong"})
        if op == "stats":
            return protocol.result_frame(request_id, self._stats_payload())
        if op == "metrics":
            return protocol.result_frame(request_id, self._metrics_payload())
        if op == "slowlog":
            try:
                slowlog = self._slowlog_payload(payload.get("limit"))
            except ValueError as exc:
                self.stats.increment("errors")
                return protocol.error_frame(
                    request_id, "bad_request", str(exc)
                )
            return protocol.result_frame(request_id, slowlog)
        if op != "query":
            self.stats.increment("errors")
            return protocol.error_frame(
                request_id, "bad_request", f"unknown op {op!r}"
            )
        statement = payload.get("statement")
        if not isinstance(statement, str) or not statement.strip():
            self.stats.increment("errors")
            return protocol.error_frame(
                request_id, "bad_request", "frame is missing a statement"
            )
        if len(statement) > protocol.MAX_STATEMENT_CHARS:
            self.stats.increment("errors")
            return protocol.error_frame(
                request_id,
                "statement_too_large",
                f"statement has {len(statement)} characters "
                f"(limit {protocol.MAX_STATEMENT_CHARS})",
            )
        want_trace = bool(payload.get("trace", False))
        return await self._execute_admitted(
            request_id, statement, want_trace
        )

    async def _execute_admitted(
        self, request_id: Any, statement: str, want_trace: bool = False
    ) -> dict[str, Any] | bytes:
        # All bookkeeping below runs on the event-loop thread, so the
        # coalescing map needs no lock.  The key is the statement text
        # verbatim (modulo outer whitespace): collapsing inner whitespace
        # would conflate statements that differ only inside a quoted glob
        # or path — silent wrong results.  Polling fleets repeat
        # byte-identical statements, which is the case coalescing exists
        # for.  The trace flag is part of the key: a traced and an
        # untraced arrival of the same statement must not share a
        # response payload.
        key = (statement.strip(), want_trace)
        future = self._inflight.get(key)
        if future is not None:
            self.stats.increment("coalesced")
        elif self._draining:
            self.stats.increment("rejected")
            return protocol.error_frame(
                request_id, "shutting_down", "server is draining; retry "
                "against another instance"
            )
        elif self._active >= self.max_inflight:
            self.stats.increment("rejected")
            return protocol.error_frame(
                request_id,
                "saturated",
                f"{self._active} statements in flight (limit "
                f"{self.max_inflight}); retry after a backoff",
            )
        else:
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(
                self._executor, self._execute, statement, want_trace
            )
            self._active += 1
            self.stats.increment("executed")
            self._tasks.add(future)
            self._inflight[key] = future
            future.add_done_callback(
                lambda fut, key=key: self._on_done(key, fut)
            )
        try:
            body = await asyncio.shield(future)
        except ReproError as exc:
            self.stats.increment("errors")
            return protocol.error_frame(
                request_id, protocol.error_type(exc), str(exc)
            )
        except OSError as exc:
            self.stats.increment("errors")
            return protocol.error_frame(request_id, "io_error", str(exc))
        except Exception as exc:  # noqa: BLE001 - wire boundary.
            self.stats.increment("errors")
            return protocol.error_frame(
                request_id,
                "internal",
                f"{type(exc).__name__}: {exc}",
            )
        return protocol.encode_result(request_id, body)

    def _on_done(
        self, key: tuple[str, bool], future: asyncio.Future
    ) -> None:
        self._active -= 1
        self._tasks.discard(future)
        if self._inflight.get(key) is future:
            del self._inflight[key]

    def _stats_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": "stats",
            "active": self._active,
            "backend": self.service.backend_name,
        }
        # One atomic copy per component: the request counters come out of
        # a single locked snapshot (never caught between the increments
        # of one arrival), and the cache/pruning blocks are each copied
        # under their own lock by their owners.
        payload.update(self.stats.as_dict())
        cache = self.service.cache.stats
        payload["cache"] = {
            # The process backend keeps one private cache per worker;
            # those counters are invisible here, so the shared-cache
            # numbers below legitimately stay at zero.  ``scope`` tells
            # an operator which situation they are reading.
            "scope": (
                "per-worker"
                if self.service.backend_name == "process"
                else "shared"
            ),
            "hits": cache.hits,
            "misses": cache.misses,
            "entries": cache.entries,
            "bytes": cache.current_bytes,
        }
        # Rendered replies, in the same budget but counted apart; always
        # this process's, whatever the backend.
        payload["reply_cache"] = cache.replies()
        # Zone-map effectiveness: how many segments the synopses let the
        # service skip, and how many statements ran as APPROX.
        payload["pruning"] = self.service.execution_stats()
        # How results travel from workers: "inline" for same-process
        # backends, "pickle" for the process backend.
        payload["transport"] = self.service.backend.transport_stats()
        return payload

    def _metrics_payload(self) -> dict[str, Any]:
        """Both read formats of the registry in one frame.

        ``text`` is the Prometheus exposition (scrapers pass it through
        verbatim); ``metrics`` the JSON snapshot with p50/p95/p99 per
        histogram, which the CLI renders without a PromQL engine.
        """
        return {
            "kind": "metrics",
            "text": self.registry.exposition(),
            "metrics": self.registry.snapshot(),
        }

    def _slowlog_payload(self, limit: Any = None) -> dict[str, Any]:
        log = self.service.slow_log
        if not isinstance(limit, int) or isinstance(limit, bool):
            limit = None
        observed, recorded = log.counts()
        return {
            "kind": "slowlog",
            "threshold_ms": log.threshold_ms,
            "observed": observed,
            "recorded": recorded,
            "entries": log.entries(limit),
        }

    # ------------------------------------------------------------------
    # Statement execution (worker-thread side).
    # ------------------------------------------------------------------
    def _execute(self, statement: str, want_trace: bool = False) -> bytes:
        """Run one statement; answer its result object as JSON bytes.

        Runs on the executor pool: the engine work is numpy-heavy and the
        rendering allocates, neither belongs on the event loop.  A
        non-finite number in the result raises
        :class:`~repro.exceptions.EncodingError` here, before anything
        is cached.

        The server owns the statement's
        :class:`~repro.obs.trace.QueryTrace`, spanning parse through
        serialize (or the cached-reply lookup) — created here, finished
        here, so the ``trace`` block sent with ``want_trace`` accounts for
        the full server-side wall time.  It goes in at its canonical key
        position.
        """
        trace = QueryTrace(statement)
        rendered = self.database.reply(statement, trace=trace)
        trace.finish()
        if want_trace:
            return rendered.with_member("trace", trace.as_dict())
        return rendered.body


class ServerThread:
    """A :class:`QueryServer` on a dedicated event-loop thread.

    ``start()`` returns the bound address once the server is accepting
    (waiting up to ten seconds); ``stop()`` runs the graceful shutdown and
    joins the thread (again up to ten seconds).  Usable as
    a context manager.

    Examples
    --------
    >>> # with ServerThread(QueryServer(catalog, port=0)) as (host, port):
    >>> #     Client(host, port).query("SELECT ...")
    """

    def __init__(self, server: QueryServer) -> None:
        self.server = server
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-server-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(10.0):
            raise TimeoutError("server did not start in time")
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self.server.address

    def stop(self) -> None:
        if self._thread is None or self._loop is None or self._stop is None:
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10.0)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - reported to start().
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
