"""Blocking client for the catalog query server.

A thin, dependency-free wrapper over one TCP connection speaking the
NDJSON protocol (:mod:`repro.server.protocol`).  Engine-side failures
surface as :class:`ServerError` carrying the structured ``error.type``;
transport failures surface as :class:`ServerConnectionError`.  The client
is deliberately synchronous — it is what scripts, the CLI, and the load
generator use; async callers can speak the one-line protocol directly.
"""

from __future__ import annotations

import json
import socket
from typing import Any

from repro.exceptions import ReproError
from repro.server import protocol
from repro.server.app import DEFAULT_HOST, DEFAULT_PORT

__all__ = ["Client", "ServerConnectionError", "ServerError"]


class ServerError(ReproError):
    """The server answered ``ok: false``; mirrors the wire error object."""

    def __init__(self, error: dict[str, Any]) -> None:
        self.type = str(error.get("type", "internal"))
        self.message = str(error.get("message", ""))
        super().__init__(f"{self.type}: {self.message}")

    @property
    def retryable(self) -> bool:
        """Whether backing off and retrying can succeed."""
        return self.type in ("saturated", "shutting_down")


class ServerConnectionError(ReproError, ConnectionError):
    """The connection failed or closed before a response arrived."""


class Client:
    """One blocking connection to a :class:`~repro.server.app.QueryServer`.

    Examples
    --------
    >>> # with Client("127.0.0.1", 7411) as client:
    >>> #     result = client.query(
    >>> #         "SELECT exceedance(21.0) FROM CATALOG '/data/cat'")
    >>> #     result["results"][0]["series"]
    >>> #     worlds = client.query(
    >>> #         "SIMULATE 8 SEED 42 FROM CATALOG '/data/cat'")
    >>> #     worlds["results"][0]["worlds"][0][:3]   # kind: "simulate"
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        timeout: float = 30.0,
    ) -> None:
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout
            )
        except OSError as exc:
            raise ServerConnectionError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # ------------------------------------------------------------------
    # Wire round-trips.
    # ------------------------------------------------------------------
    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one frame, read one response frame (low-level)."""
        try:
            self._file.write(protocol.encode_frame(payload))
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            raise ServerConnectionError(
                f"connection lost mid-request: {exc}"
            ) from exc
        if not line:
            raise ServerConnectionError(
                "server closed the connection before responding"
            )
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServerConnectionError(
                f"unparseable response frame: {exc}"
            ) from exc
        if not isinstance(response, dict):
            raise ServerConnectionError("response frame is not an object")
        return response

    def _roundtrip(self, payload: dict[str, Any]) -> dict[str, Any]:
        self._next_id += 1
        payload.setdefault("id", self._next_id)
        response = self.request(payload)
        if not response.get("ok"):
            raise ServerError(response.get("error") or {})
        result = response.get("result")
        return result if isinstance(result, dict) else {}

    def query(self, statement: str, *, trace: bool = False) -> dict[str, Any]:
        """Execute one statement; the serialized result on success.

        ``trace=True`` asks the server to attach its per-stage trace
        block (parse → plan → prune → fan-out → serialize, plus the
        slowest per-series spans) to the result under ``"trace"``.

        The statement goes on the wire as written; to pin a revision
        frontier, write its ``AS OF <knowledge_time>`` clause or use
        :meth:`repro.connection.Connection.execute`'s ``as_of``.

        Raises :class:`ServerError` (with the structured ``type``) when
        the server rejects or fails the statement.
        """
        payload: dict[str, Any] = {"statement": statement}
        if trace:
            payload["trace"] = True
        return self._roundtrip(payload)

    def ping(self) -> bool:
        return self._roundtrip({"op": "ping"}).get("kind") == "pong"

    def stats(self) -> dict[str, Any]:
        """The server's lifetime counters (admissions, coalescing, cache).

        Protocol framing (the ``kind`` discriminator) is stripped: the
        returned dict holds only the counters and blocks themselves.
        """
        payload = self._roundtrip({"op": "stats"})
        payload.pop("kind", None)
        return payload

    def metrics(self) -> dict[str, Any]:
        """The server's metrics registry: Prometheus text + JSON snapshot.

        Returns ``{"text": <exposition>, "metrics": {<name>: ...}}`` —
        ``text`` is ready to re-serve to a Prometheus scraper; the JSON
        snapshot carries streaming p50/p95/p99 per histogram.
        """
        payload = self._roundtrip({"op": "metrics"})
        payload.pop("kind", None)
        return payload

    def slowlog(self, limit: int | None = None) -> dict[str, Any]:
        """The server's slow-query log, newest first.

        Returns the threshold, lifetime observed/recorded counts, and up
        to ``limit`` entries (each with statement, wall time, stage
        breakdown, and cache hit/miss counts).
        """
        payload: dict[str, Any] = {"op": "slowlog"}
        if limit is not None:
            payload["limit"] = int(limit)
        response = self._roundtrip(payload)
        response.pop("kind", None)
        return response

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
