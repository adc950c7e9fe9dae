"""Shared-memory result transport for the process backend.

The numeric kernels are vectorised; pickling their answers through the
pool's result pipe is not.  This module moves the numeric payload of a
worker's :class:`~repro.service.kernels.ArrayResult` list out of the
pickle stream:

* each chunk's arrays land in **one**
  :class:`multiprocessing.shared_memory.SharedMemory` block
  (:func:`pack_chunk`), and only a small :class:`ChunkDescriptor` (block
  name, the results with per-array dtype/shape/offset
  :class:`ArraySpec` slices in place of the arrays) crosses the pipe;
* the parent copies every array back out of the block
  (:meth:`ShmArena.unpack` — one ``memcpy`` per array) and unlinks it, so
  no array ever outlives the block it came from.

No kernel arithmetic lives here: what is packed is whatever
:func:`~repro.service.kernels.compute_chunk` produced, and what is
unpacked is value-identical to it — which is why the pickle fallback and
the shm path answer with the same bytes.

Lifecycle is crash-proof by construction: the **parent** names every
block before submitting the chunk (:class:`ShmArena`), so even when a
worker dies mid-chunk the parent can unlink the orphan by name.  Workers
unregister freshly created blocks from their resource tracker (the
parent owns the unlink), which keeps ``resource_tracker`` leak warnings
out of worker shutdown.  When shared memory is unavailable — platform
without POSIX shm, ``/dev/shm`` full, or ``REPRO_SHM_TRANSPORT=0`` —
everything degrades to the plain-pickle transport with identical
results; the fallback is recorded in the backend's transport stats,
never silent.
"""

from __future__ import annotations

import os
import secrets
import threading
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.service.kernels import ArrayResult

__all__ = [
    "ArraySpec",
    "ChunkDescriptor",
    "ShmArena",
    "pack_chunk",
    "shm_available",
]

#: Kill switch: ``REPRO_SHM_TRANSPORT=0`` forces the pickle transport.
_SHM_ENV = "REPRO_SHM_TRANSPORT"

#: Array offsets inside a block are aligned to this many bytes so every
#: ``np.frombuffer`` view is safely aligned for its dtype.
_ALIGN = 16


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


_AVAILABLE: bool | None = None


def shm_available() -> bool:
    """Whether this process can create POSIX shared-memory blocks.

    Probed once per process with a tiny create/unlink round-trip (the
    import alone does not prove ``/dev/shm`` is writable); the
    ``REPRO_SHM_TRANSPORT=0`` kill switch is consulted on every call.  A
    :class:`~repro.service.backends.ProcessBackend` asks once, when it
    is constructed, and keeps that answer for its lifetime.
    """
    if os.environ.get(_SHM_ENV, "").strip() == "0":
        return False
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            # Created and unlinked by this same process, so the default
            # resource-tracker flow (register on create, unregister on
            # unlink) is exactly right here — no _untrack.
            probe = shared_memory.SharedMemory(
                name=f"repro-probe-{os.getpid()}-{secrets.token_hex(4)}",
                create=True,
                size=_ALIGN,
            )
            probe.close()
            probe.unlink()
        except (ImportError, OSError):
            _AVAILABLE = False
        else:
            _AVAILABLE = True
    return _AVAILABLE


def _untrack(shm: Any) -> None:
    """Drop a block from this process's resource tracker.

    Creating a block registers it with the resource tracker; here the
    creating process is never the one that unlinks (workers create, the
    parent unlinks), so the registration must be withdrawn or the
    tracker prints "leaked shared_memory" warnings — and unlinks blocks
    out from under the parent — when the creator exits.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary.
        pass


# ----------------------------------------------------------------------
# Descriptors: what actually crosses the pipe.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArraySpec:
    """One array's slice of a chunk's block: offset, dtype, shape."""

    offset: int
    dtype: str
    shape: tuple[int, ...]

    @property
    def count(self) -> int:
        total = 1
        for dim in self.shape:
            total *= dim
        return total


@dataclass(frozen=True)
class ChunkDescriptor:
    """Everything the parent needs to rehydrate one chunk's results.

    ``results`` are the worker's :class:`ArrayResult` objects with every
    array replaced by its :class:`ArraySpec` slice of the block.
    """

    shm_name: str
    nbytes: int
    results: tuple[ArrayResult, ...]


# ----------------------------------------------------------------------
# Packing: one block per chunk.
# ----------------------------------------------------------------------
def pack_chunk(results: list[ArrayResult], shm_name: str) -> ChunkDescriptor:
    """Copy one chunk's arrays into a named block; return its descriptor.

    Creates the block under the parent-chosen ``shm_name`` (collisions
    are impossible: the parent numbers names from a per-backend arena),
    unregisters it from this process's resource tracker (the parent owns
    the unlink), and closes the local handle.  On any failure after
    creation the block is unlinked here and the error propagates — the
    caller falls back to the pickle transport.
    """
    from multiprocessing import shared_memory

    offset = 0
    placed: list[list[tuple[str, np.ndarray, ArraySpec]]] = []
    for result in results:
        entry = []
        for name, array in result.arrays.items():
            array = np.ascontiguousarray(array)
            spec = ArraySpec(
                offset=offset, dtype=array.dtype.str, shape=array.shape
            )
            entry.append((name, array, spec))
            offset = _aligned(offset + array.nbytes)
        placed.append(entry)
    nbytes = max(offset, _ALIGN)
    shm = shared_memory.SharedMemory(name=shm_name, create=True, size=nbytes)
    try:
        for entry in placed:
            for _name, array, spec in entry:
                if not array.size:
                    continue
                target = np.frombuffer(
                    shm.buf,
                    dtype=array.dtype,
                    count=array.size,
                    offset=spec.offset,
                ).reshape(array.shape)
                target[...] = array
                del target
    except BaseException:
        shm.close()
        try:
            shm.unlink()
        except OSError:  # pragma: no cover - already gone.
            pass
        raise
    _untrack(shm)
    shm.close()
    packed = tuple(
        replace(result, arrays={name: spec for name, _array, spec in entry})
        for result, entry in zip(results, placed)
    )
    return ChunkDescriptor(shm_name=shm_name, nbytes=nbytes, results=packed)


class ShmArena:
    """Parent-side block lifecycle: naming, rehydration, reaping.

    Names are generated *before* chunks are submitted, so every block a
    worker might create is known to the parent up front — the invariant
    that makes cleanup total: on success :meth:`unpack` unlinks inside
    its ``finally``; on worker crash or fallback :meth:`reap` unlinks by
    name, tolerating blocks that were never created.
    """

    def __init__(self) -> None:
        self._prefix = f"repro-{os.getpid()}-{secrets.token_hex(4)}"
        self._lock = threading.Lock()
        self._counter = 0

    def next_name(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{self._prefix}-{self._counter}"

    def unpack(self, descriptor: ChunkDescriptor) -> list[ArrayResult]:
        """Attach, copy every array out, and always close + unlink.

        The returned results own their arrays: each is copied out of
        ``shm.buf`` before the block goes away, because an
        ``np.frombuffer`` view must never outlive its block.
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=descriptor.shm_name)
        try:
            return [
                replace(
                    packed,
                    arrays={
                        name: np.frombuffer(
                            shm.buf,
                            dtype=np.dtype(spec.dtype),
                            count=spec.count,
                            offset=spec.offset,
                        )
                        .reshape(spec.shape)
                        .copy()
                        for name, spec in packed.arrays.items()
                    },
                )
                for packed in descriptor.results
            ]
        finally:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - stray array view.
                pass
            try:
                shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass

    def reap(self, name: str) -> None:
        """Unlink a block that may or may not exist (idempotent)."""
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - defensive.
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass
