"""Blocking client for the catalog query server.

A thin wrapper over one TCP connection speaking the NDJSON protocol
(:mod:`repro.server.protocol`).  Engine-side failures surface as
:class:`ServerError` carrying the structured ``error.type``; transport
failures (including a reply frame that is not UTF-8 JSON) surface as
:class:`ServerConnectionError`.  The client is deliberately synchronous —
it is what scripts, the CLI, and the load generator use; async callers
can speak the one-line protocol directly.

Reply frames are decoded with ``orjson``, and the decoded object is
exactly what ``json.loads`` returns for the frame.  orjson refuses some
frames ``json.loads`` accepts (a lone-surrogate escape that an error
message echoed from a statement can carry); those are decoded again with
``json.loads``.  orjson turns an integer outside ``[-2**63, 2**64)`` into
a float; the only reply integer a caller controls without a bound is the
echoed request ``id``, so a frame answering such an id is decoded with
``json.loads`` (a ``SIMULATE`` seed is at most ``2**53``, every other
integer is a count or an int64 column).
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any

import orjson

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


def _orjson_exact(request_id: Any) -> bool:
    """Whether orjson decodes a reply echoing ``request_id`` as json would."""
    if isinstance(request_id, int):  # bool included: always in range.
        return -(1 << 63) <= request_id < 1 << 64
    return request_id is None or isinstance(request_id, (str, float))


def _loads_reply(line: bytes, request_id: Any) -> Any:
    """One reply frame decoded to exactly ``json.loads(line)``."""
    if _orjson_exact(request_id):
        try:
            return orjson.loads(line)
        except orjson.JSONDecodeError:
            pass  # Refused, where json.loads may still accept it.
    return json.loads(line)


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
        #: Milliseconds the last :meth:`request` spent decoding its reply.
        self.decode_ms = 0.0

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
        started = time.perf_counter()
        try:
            response = _loads_reply(line, payload.get("id"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError.
            raise ServerConnectionError(
                f"unparseable response frame: {exc}"
            ) from exc
        self.decode_ms = (time.perf_counter() - started) * 1e3
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
        slowest per-series spans) to the result under ``"trace"``; the
        client appends its own ``client_decode`` stage (the reply's
        decode, which happens after the server's wall ends) and adds its
        milliseconds to ``wall_ms``, so the stages still sum within the
        block's wall.  Socket and queue time are in neither.

        The statement goes on the wire as written; to pin a revision
        frontier, write its ``AS OF <knowledge_time>`` clause or use
        :meth:`repro.connection.Connection.execute`'s ``as_of``.

        Raises :class:`ServerError` (with the structured ``type``) when
        the server rejects or fails the statement.
        """
        payload: dict[str, Any] = {"statement": statement}
        if trace:
            payload["trace"] = True
        result = self._roundtrip(payload)
        block = result.get("trace")
        if trace and isinstance(block, dict):
            decode_ms = round(self.decode_ms, 4)
            wall_ms = block.get("wall_ms", 0.0)
            block.setdefault("stages", []).append(
                {"name": "client_decode", "start_ms": wall_ms, "ms": decode_ms}
            )
            block["wall_ms"] = round(wall_ms + decode_ms, 4)
        return result

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
