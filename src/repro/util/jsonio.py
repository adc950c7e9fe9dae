"""Canonical JSON rendering shared by results, the wire, and benchmarks.

One serializer, used everywhere bytes must be deterministic: result
objects' ``.json()``, the NDJSON wire protocol, and the benchmarks that
assert a statement answered in-process is *bit-identical* to the same
statement served over a socket.  Canonical means sorted keys, compact
separators, and no ``NaN``/``Infinity`` constants (they could never be
round-tripped by a strict JSON peer).
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["canonical_dumps", "scalar_time"]


def canonical_dumps(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def scalar_time(value: Any) -> int | float:
    """JSON-safe time key: integral times stay ints, others floats."""
    number = float(value)
    integral = int(number)
    return integral if number == integral else number
