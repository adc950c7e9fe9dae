"""Wire protocol of the catalog query server.

The server speaks **newline-delimited JSON** (NDJSON): every request and
every response is one JSON object on one line, UTF-8 encoded, terminated
by ``\\n``.  The format is deliberately transport-trivial — ``nc`` and
three lines of any language's socket code are full clients.

Request frames::

    {"id": 1, "statement": "SELECT exceedance(21.0) FROM CATALOG '...'"}
    {"id": 2, "op": "ping"}
    {"id": 3, "op": "stats"}

``id`` is echoed back verbatim (any JSON scalar; optional).  ``op``
defaults to ``"query"``, which requires ``statement``.

Response frames::

    {"id": 1, "ok": true, "result": {...}}
    {"id": 1, "ok": false, "error": {"type": "query_error", "message": "..."}}

Responses are rendered **canonically** (sorted keys, compact separators),
so the bytes for a given result are deterministic: the benchmark asserts
that a statement served over the wire is *bit-identical* to the same
statement run through :meth:`repro.db.engine.Database.execute` — the
server sends that result's ``to_dict()``.

A statement's result bytes are rendered once per catalog state: the
server's worker thread renders the ``result`` object
(:meth:`repro.db.engine.Database.reply`), catalog ``SELECT`` /
``SIMULATE`` replies are kept until the catalog state their plan read
changes, and :func:`encode_result` frames the rendered bytes.  Because
``"id"`` < ``"ok"`` < ``"result"``, that frame is byte for byte
``encode_frame(result_frame(id, result))``.

Error taxonomy (``error.type``):

``bad_request``
    The frame is not a JSON object, or lacks a usable ``statement``.
``statement_too_large``
    The statement exceeds :data:`MAX_STATEMENT_CHARS`.
``frame_too_large``
    The raw line exceeded the server's read buffer; the connection is
    closed after this response because the stream cannot be resynced.
``saturated``
    Admission control rejected the query (too many in flight) — the
    429-equivalent; retry after a backoff.
``shutting_down``
    The server is draining; no new queries are admitted.
``parse_error`` / ``invalid_parameter`` / ``store_error`` / ``query_error``
    The statement failed in the engine; the message says why.
``io_error`` / ``internal``
    Filesystem trouble / an unexpected server-side failure (including a
    result holding non-finite numbers, which canonical JSON cannot carry).
    Never a traceback on the wire, never a dropped connection.
"""

from __future__ import annotations

import json
from typing import Any

from repro.exceptions import (
    EncodingError,
    InvalidParameterError,
    ParseError,
    QueryError,
    ReproError,
    StoreError,
)
from repro.util.jsonio import canonical_dumps

__all__ = [
    "MAX_STATEMENT_CHARS",
    "DEFAULT_FRAME_LIMIT",
    "canonical_dumps",
    "encode_frame",
    "encode_result",
    "error_frame",
    "error_type",
    "loads_frame",
    "result_frame",
]

#: Hard cap on one statement's character count; longer statements are
#: rejected with ``statement_too_large`` (the frame itself was readable,
#: so the connection stays usable).
MAX_STATEMENT_CHARS = 64_000

#: Read-buffer limit per frame.  A line that exceeds it cannot be
#: parsed *or skipped* reliably, so the server answers ``frame_too_large``
#: and closes that connection.
DEFAULT_FRAME_LIMIT = 1 << 20


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite JSON constant {name} is not allowed")


def loads_frame(line: bytes | str) -> Any:
    """Parse one request frame, rejecting ``NaN``/``Infinity`` constants.

    Python's ``json.loads`` accepts them by default, but they could never
    be encoded back by :func:`canonical_dumps` (``allow_nan=False``) — a
    frame carrying one must fail *here*, as a ``bad_request``, not later
    while writing the response.
    """
    return json.loads(line, parse_constant=_reject_constant)


def encode_frame(payload: dict[str, Any]) -> bytes:
    """One response/request as wire bytes (canonical JSON + newline)."""
    return canonical_dumps(payload).encode("utf-8") + b"\n"


def encode_result(request_id: Any, body: bytes) -> bytes:
    """The wire bytes of a result frame whose ``result`` is already rendered.

    ``body`` is the canonical JSON of the result object; the frame equals
    ``encode_frame(result_frame(request_id, result))`` because the frame's
    keys are already in sorted order.
    """
    head = '{"id":%s,"ok":true,"result":' % canonical_dumps(request_id)
    return head.encode("utf-8") + body + b"}\n"


def result_frame(request_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_frame(
    request_id: Any, kind: str, message: str
) -> dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": kind, "message": message},
    }


def error_type(exc: BaseException) -> str:
    """The wire ``error.type`` for an engine/runtime exception."""
    if isinstance(exc, EncodingError):
        return "internal"
    if isinstance(exc, ParseError):
        return "parse_error"
    if isinstance(exc, InvalidParameterError):
        return "invalid_parameter"
    if isinstance(exc, StoreError):
        return "store_error"
    if isinstance(exc, QueryError):
        return "query_error"
    if isinstance(exc, ReproError):
        return "repro_error"
    if isinstance(exc, OSError):
        return "io_error"
    return "internal"
