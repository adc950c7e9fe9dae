"""Canonical JSON rendering shared by results, the wire, and benchmarks.

One serializer, used everywhere bytes must be deterministic: result
objects' ``.json()``, the NDJSON wire protocol, and the benchmarks that
assert a statement answered in-process is *bit-identical* to the same
statement served over a socket.  Canonical means sorted keys, compact
separators, and no ``NaN``/``Infinity`` constants (they could never be
round-tripped by a strict JSON peer).

:class:`RenderedObject` is a JSON object rendered this way once and kept
as bytes, for a server that sends the same payload many times and
sometimes with one more field (a per-request ``trace`` block).
"""

from __future__ import annotations

import bisect
import json
from typing import Any

from repro.exceptions import EncodingError

__all__ = ["RenderedObject", "canonical_dumps"]


def canonical_dumps(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN.

    Raises :class:`~repro.exceptions.EncodingError` (a ``ValueError``)
    when ``payload`` holds a non-finite float.
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as exc:
        raise EncodingError(
            f"response contained non-finite numbers ({exc})"
        ) from exc


def _member(key: str, value: Any) -> str:
    """One ``"key":value`` member exactly as :func:`canonical_dumps` writes it."""
    return f"{json.dumps(key)}:{canonical_dumps(value)}"


class RenderedObject:
    """A JSON object rendered canonically once, kept as ASCII bytes.

    ``body`` equals ``canonical_dumps(payload).encode()``: members are
    rendered one by one in sorted-key order and joined with the same
    separators, which is what ``sort_keys`` does.  The start offset of
    each top-level member is kept, so :meth:`with_member` can add one
    more key at its canonical position without encoding the rest again.
    """

    __slots__ = ("body", "_keys", "_starts")

    def __init__(self, payload: dict[str, Any]) -> None:
        self._keys = sorted(payload)
        members = [_member(key, payload[key]) for key in self._keys]
        starts = []
        offset = 1  # Past the opening brace.
        for member in members:
            starts.append(offset)
            offset += len(member) + 1  # The member and its comma.
        self._starts = starts
        self.body = ("{" + ",".join(members) + "}").encode("ascii")

    def with_member(self, key: str, value: Any) -> bytes:
        """``body`` with ``key: value`` added (``key`` must be new)."""
        if key in self._keys:
            raise ValueError(f"rendered object already has key {key!r}")
        member = _member(key, value).encode("ascii")
        index = bisect.bisect(self._keys, key)
        if index < len(self._keys):
            at = self._starts[index]
            return self.body[:at] + member + b"," + self.body[at:]
        at = len(self.body) - 1  # Before the closing brace.
        separator = b"," if self._keys else b""
        return self.body[:at] + separator + member + self.body[at:]

    @property
    def nbytes(self) -> int:
        """Resident size: the body plus the per-member offsets."""
        return len(self.body) + 64 * (len(self._keys) + 1)

