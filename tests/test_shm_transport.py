"""Shared-memory result-transport suite (:mod:`repro.service.shm`).

Four contracts:

1. **Descriptor round-trip**: any array set packed into a block
   rehydrates bit-identically through its :class:`ArraySpec` slices —
   property-tested over random dtypes, shapes (including empty), and
   raw bit patterns (NaNs and all) — and the arrays
   :meth:`ShmArena.unpack` returns own their bytes: they stay readable
   after the block is unlinked.
2. **Arena lifecycle**: blocks are unlinked on success, on unpack
   errors, on pack failures, and :meth:`ShmArena.reap` is idempotent —
   no path leaks a ``/dev/shm`` segment.
3. **Fallback parity**: the pickle transport (``REPRO_SHM_TRANSPORT=0``
   or a per-chunk pack failure) hands the parent the same results as
   the shm path, and the fallback is counted in the backend's transport
   stats, never silent.
4. **Bit-identity**: canonical result bytes match across the
   sequential and process backends — cold and warm, shm on and off —
   including ``SIMULATE`` (seeded) and multi-aggregate selects.
"""

from __future__ import annotations

import dataclasses
import os
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.protocol import canonical_dumps
from repro.service import (
    CatalogQueryService,
    ProcessBackend,
    ShmArena,
    shm_available,
)
from repro.service.kernels import ArrayResult
from repro.service.shm import ArraySpec, pack_chunk
from repro.store import Catalog
from repro.view.omega import OmegaGrid

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

_SHM_DIR = Path("/dev/shm")


def _leaked_blocks() -> list[str]:
    """This process's leftover transport blocks (Linux-visible only)."""
    if not _SHM_DIR.is_dir():
        return []
    return sorted(
        entry.name
        for entry in _SHM_DIR.iterdir()
        if entry.name.startswith(f"repro-{os.getpid()}-")
    )


# ----------------------------------------------------------------------
# 1. Descriptor round-trip (property).
# ----------------------------------------------------------------------
_DTYPES = ("<i8", "<f8", "<f4", "<i4", "<u2", "|u1")


@st.composite
def _random_arrays(draw) -> dict[str, np.ndarray]:
    """A slot-name -> array dict with arbitrary dtypes/shapes/bits."""
    arrays: dict[str, np.ndarray] = {}
    for index in range(draw(st.integers(min_value=0, max_value=3))):
        dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
        ndim = draw(st.integers(min_value=1, max_value=2))
        shape = tuple(
            draw(st.integers(min_value=0, max_value=6)) for _ in range(ndim)
        )
        count = 1
        for dim in shape:
            count *= dim
        raw = draw(
            st.binary(
                min_size=count * dtype.itemsize,
                max_size=count * dtype.itemsize,
            )
        )
        arrays[f"slot-{index}"] = np.frombuffer(raw, dtype=dtype).reshape(
            shape
        )
    return arrays


@needs_shm
@settings(max_examples=30, deadline=None)
@given(chunk=st.lists(_random_arrays(), min_size=1, max_size=3))
def test_descriptor_roundtrip_bit_identical(chunk):
    """Random arrays come back byte-for-byte, aligned, and self-owned.

    ``unpack`` copies out of the block before unlinking it, so the
    arrays are read here *after* the block is gone.
    """
    arena = ShmArena()
    results = [
        ArrayResult(
            series_id=f"s-{index}",
            kind="raw",
            arrays=arrays,
            score=float(index),
        )
        for index, arrays in enumerate(chunk)
    ]
    descriptor = pack_chunk(results, arena.next_name())
    for packed in descriptor.results:
        for spec in packed.arrays.values():
            assert spec.offset % np.dtype(spec.dtype).itemsize == 0
    unpacked = arena.unpack(descriptor)
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=descriptor.shm_name)
    assert not _leaked_blocks()
    for before, after in zip(results, unpacked):
        assert dataclasses.replace(after, arrays={}) == dataclasses.replace(
            before, arrays={}
        )
        assert after.arrays.keys() == before.arrays.keys()
        for name, source in before.arrays.items():
            array = after.arrays[name]
            assert array.flags.owndata
            assert array.dtype == source.dtype
            assert array.shape == source.shape
            assert array.tobytes() == source.tobytes()


# ----------------------------------------------------------------------
# 2. Arena lifecycle under exceptions.
# ----------------------------------------------------------------------
@needs_shm
def test_unpack_unlinks_even_when_a_slice_is_bogus():
    arena = ShmArena()
    result = ArrayResult(
        series_id="s-0",
        kind="mapping",
        arrays={"times": np.arange(3, dtype=np.int64)},
    )
    descriptor = pack_chunk([result], arena.next_name())
    beyond = ArraySpec(offset=1 << 24, dtype="<i8", shape=(3,))
    corrupt = dataclasses.replace(
        descriptor,
        results=(
            dataclasses.replace(
                descriptor.results[0], arrays={"times": beyond}
            ),
        ),
    )
    with pytest.raises(ValueError):
        arena.unpack(corrupt)
    # The finally branch unlinked the block despite the failed copy.
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=descriptor.shm_name)
    assert not _leaked_blocks()


@needs_shm
def test_pack_failure_unlinks_its_own_block():
    arena = ShmArena()
    name = arena.next_name()
    # Object arrays cannot be written into a raw buffer: pack_chunk
    # creates the block, fails mid-copy, and must unlink before raising.
    poison = ArrayResult(
        series_id="s-0",
        kind="mapping",
        arrays={"values": np.array([object()], dtype=object)},
    )
    with pytest.raises((TypeError, ValueError)):
        pack_chunk([poison], name)
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    assert not _leaked_blocks()


@needs_shm
def test_reap_is_idempotent_and_tolerates_absent_blocks():
    arena = ShmArena()
    name = arena.next_name()
    arena.reap(name)  # Never created: silently nothing.
    result = ArrayResult(
        series_id="s-0",
        kind="raw",
        arrays={"x": np.arange(4.0)},
    )
    pack_chunk([result], name)
    arena.reap(name)  # Live block: unlinked.
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    arena.reap(name)  # Already gone: still silent.
    assert not _leaked_blocks()


# ----------------------------------------------------------------------
# 3. Fallback-to-pickle parity and accounting.
# ----------------------------------------------------------------------
def test_pickle_fallback_counted_and_results_identical():
    times = np.array([1, 2, 3], dtype=np.int64)
    values = np.array([0.25, 0.5, 1.0], dtype=np.float64)

    def results() -> list[ArrayResult]:
        return [
            ArrayResult(
                series_id="s-0",
                kind="mapping",
                arrays={"times": times.copy(), "values": values.copy()},
            )
        ]

    backend = ProcessBackend(2)
    try:
        via_shm = None
        if backend.shm:
            descriptor = pack_chunk(results(), backend._arena.next_name())
            via_shm = backend._collect(descriptor, descriptor.shm_name)
        # A worker that had a block name assigned but shipped plain
        # ArrayResults anyway is exactly the per-chunk pack-failure
        # fallback; the backend must count it, not hide it.
        via_pickle = backend._collect(results(), backend._arena.next_name())
        stats = backend.transport_stats()
        assert stats["pickle_chunks"] == 1
        assert stats["shm_fallbacks"] == 1
        if via_shm is not None:
            assert stats["shm_chunks"] == 1
            first, second = via_shm[0], via_pickle[0]
            assert first.series_id == second.series_id
            assert first.kind == second.kind
            assert first.score == second.score
            assert first.error == second.error
            assert first.arrays.keys() == second.arrays.keys()
            for name, array in first.arrays.items():
                assert array.tobytes() == second.arrays[name].tobytes()
    finally:
        backend.close()
    assert not _leaked_blocks()


# ----------------------------------------------------------------------
# 4. End-to-end bit-identity, shm on and off, cold and warm.
# ----------------------------------------------------------------------
H = 16
GRID = OmegaGrid(delta=0.5, n=4)
SERIES = 6


@pytest.fixture(scope="module")
def catalog_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("shm-transport") / "cat"
    catalog = Catalog(root, segment_layout="v2")
    rng = np.random.default_rng(7)
    for index in range(SERIES):
        series_id = f"s-{index}"
        catalog.create_series(
            series_id, metric="variable_threshold", H=H, grid=GRID
        )
        values = 20.0 + 0.05 * index + np.cumsum(
            rng.normal(0.0, 0.05, size=48)
        )
        catalog.append(series_id, values[:30])
        catalog.append(series_id, values[30:])
    return root


def _statements(root) -> list[str]:
    return [
        f"SELECT expected_value FROM CATALOG '{root}'",
        f"SELECT exceedance(20.3) FROM CATALOG '{root}'",
        f"SELECT threshold(0.2) FROM CATALOG '{root}' TOP 3",
        f"SELECT time_above(20.3, 5) FROM CATALOG '{root}' "
        f"WHERE t BETWEEN 18 AND 60",
        f"SIMULATE 3 SEED 42 FROM CATALOG '{root}'",
        f"SELECT expected_value, exceedance(20.3) FROM CATALOG '{root}'",
    ]


def _canonical(result) -> str:
    return canonical_dumps(result.to_dict())


def test_bit_identity_across_backends_and_transports(
    catalog_root, monkeypatch
):
    with CatalogQueryService(catalog_root, backend="sequential") as service:
        reference = [_canonical(service.execute(s)) for s in _statements(
            catalog_root
        )]

    backend = ProcessBackend(2)
    with CatalogQueryService(catalog_root, backend=backend) as service:
        cold = [_canonical(service.execute(s)) for s in _statements(
            catalog_root
        )]
        warm = [_canonical(service.execute(s)) for s in _statements(
            catalog_root
        )]
        stats = backend.transport_stats()
    assert cold == reference
    assert warm == reference
    if shm_available():
        assert stats["mode"] == "shm"
        assert stats["shm_chunks"] > 0
        assert stats["shm_fallbacks"] == 0
        assert stats["shm_bytes"] > 0
    else:
        assert stats["mode"] == "pickle"

    monkeypatch.setenv("REPRO_SHM_TRANSPORT", "0")
    forced = ProcessBackend(2)
    assert forced.transport == "pickle"
    with CatalogQueryService(catalog_root, backend=forced) as service:
        pickled = [_canonical(service.execute(s)) for s in _statements(
            catalog_root
        )]
        pickle_stats = forced.transport_stats()
    assert pickled == reference
    assert pickle_stats["mode"] == "pickle"
    assert pickle_stats["shm_chunks"] == 0
    assert pickle_stats["pickle_chunks"] > 0
    assert not _leaked_blocks()


def test_transport_mode_surfaces_in_stats_payload(catalog_root):
    with CatalogQueryService(
        catalog_root, backend="process", max_workers=2
    ) as service:
        service.execute(_statements(catalog_root)[0])
        stats = service.backend.transport_stats()
    assert stats["mode"] in ("shm", "pickle")
    expected = "shm" if shm_available() else "pickle"
    assert stats["mode"] == expected
    assert not _leaked_blocks()
