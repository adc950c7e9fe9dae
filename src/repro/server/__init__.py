"""Network query serving for persistent catalogs.

The layer that turns the catalog-wide query engine (:mod:`repro.service`)
into a long-running *server*: an asyncio TCP front speaking a newline-
delimited JSON protocol, with request coalescing, admission control, and
graceful draining shutdown — plus the blocking :class:`Client` and the
:class:`ServerThread` embedding helper.

* :mod:`repro.server.protocol` — wire frames, error taxonomy, canonical
  (bit-deterministic) result serialisation;
* :mod:`repro.server.app` — the :class:`QueryServer` event loop;
* :mod:`repro.server.client` — the blocking client.
"""

from repro.server.app import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    QueryServer,
    ServerStats,
    ServerThread,
)
from repro.server.client import Client, ServerConnectionError, ServerError
from repro.server.protocol import MAX_STATEMENT_CHARS, canonical_dumps

__all__ = [
    "Client",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "MAX_STATEMENT_CHARS",
    "QueryServer",
    "ServerConnectionError",
    "ServerError",
    "ServerStats",
    "ServerThread",
    "canonical_dumps",
]
