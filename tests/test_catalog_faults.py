"""Fault-injection and concurrency tests for the persistent catalog.

The store subsystem promises two things its unit tests never exercised:

* **Reader/writer isolation** — a reader snapshotting the catalog while a
  single writer appends must always see a *consistent* view (some durable
  prefix of the series), never a torn one.
* **Crash atomicity** — a write (``append``, ``revise``, or ``save_view``
  replacing a series) that dies between the segment write and the
  ``series.json`` flush leaves the catalog at its last durable state:
  reopening resumes from it, the orphan segment is overwritten by the
  resumed write, and the recovered end state is bit-identical to a run
  that never crashed.  Standing queries ride through a failed append:
  the handle that replaces the poisoned one keeps them registered.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import repro.store.catalog as catalog_module
from repro.db.prob_view import ProbabilisticView
from repro.db.stream_queries import exceedance_probability, expected_time_above
from repro.exceptions import StoreError
from repro.store import Catalog, SeriesHandle, StandingQuery
from repro.store.binary import load_view_npz, save_view_npz
from repro.view.omega import OmegaGrid

H = 16
GRID = OmegaGrid(delta=0.5, n=4)


def _values(count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 20.0 + np.cumsum(rng.normal(0.0, 0.1, size=count))


def _assert_views_identical(left, right) -> None:
    cols_left, cols_right = left.columns, right.columns
    np.testing.assert_array_equal(cols_right.t, cols_left.t)
    np.testing.assert_array_equal(cols_right.low, cols_left.low)
    np.testing.assert_array_equal(cols_right.high, cols_left.high)
    np.testing.assert_array_equal(
        cols_right.probability, cols_left.probability
    )
    assert cols_right.labels == cols_left.labels


class TestConcurrentReaders:
    def test_readers_always_see_consistent_prefix(self, tmp_path):
        root = tmp_path / "cat"
        writer_catalog = Catalog(root)
        writer_catalog.create_series(
            "s", metric="variable_threshold", H=H, grid=GRID
        )
        values = _values(600)
        stop = threading.Event()
        errors: list[Exception] = []
        observed: list[int] = []

        def reader() -> None:
            # Fresh Catalog objects per read: exactly what a concurrent
            # query process would do.
            while not stop.is_set():
                try:
                    snapshot = Catalog(root, create=False).snapshot("s")
                    view = snapshot.load_view()  # Validates mass + ranges.
                    assert len(view) == snapshot.tuple_count
                    times = view.columns.times
                    if times.size:
                        # A consistent prefix: warm-up ends at t=H and
                        # emitted times are gapless from there.
                        assert times[0] == H
                        assert np.all(np.diff(times) == 1)
                    observed.append(len(view))
                except Exception as exc:  # noqa: BLE001 - collected below.
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for start in range(0, values.size, 25):
                writer_catalog.append("s", values[start : start + 25])
                time.sleep(0)  # Encourage interleaving.
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, errors[0]
        assert observed, "readers never completed a snapshot read"
        # Readers observed the series growing, and every observation was a
        # prefix of the final durable state.
        final = (values.size - H) * GRID.n
        assert max(observed) <= final
        assert all(count % GRID.n == 0 for count in observed)

    def test_snapshot_stays_loadable_while_writer_appends(self, tmp_path):
        root = tmp_path / "cat"
        catalog = Catalog(root)
        catalog.create_series(
            "s", metric="variable_threshold", H=H, grid=GRID
        )
        catalog.append("s", _values(80))
        snapshot = Catalog(root, create=False).snapshot("s")
        before = snapshot.load_view()
        catalog.append("s", _values(40, seed=1) + 1.0)
        after = snapshot.load_view()  # Same capture: same rows, still valid.
        _assert_views_identical(before, after)
        assert len(Catalog(root).view("s")) > len(after)


class _FlushCrash(RuntimeError):
    """Stands in for the process dying mid-append."""


def _halved(view: ProbabilisticView, lo: int, hi: int) -> ProbabilisticView:
    """``view``'s rows at times [lo, hi] with every probability halved."""
    cols = view.columns
    keep = (cols.t >= lo) & (cols.t <= hi)
    return ProbabilisticView.from_columns(
        "halved",
        cols.t[keep],
        cols.low[keep],
        cols.high[keep],
        cols.probability[keep] * 0.5,
    )


_BATCH1, _BATCH2 = _values(60), _values(30, seed=7) + 0.5

#: The three store writers, each as the write issued after ``_prepare``.
_WRITES: dict[str, Callable[[Catalog], object]] = {
    "append": lambda catalog: catalog.append("s", _BATCH2),
    "revise": lambda catalog: catalog.revise(
        "s", _halved(catalog.view("s"), 20, 29)
    ),
    "save_view": lambda catalog: catalog.save_view(
        "s", _halved(catalog.view("s"), 30, 59)
    ),
}


def _prepare(root: Path) -> Catalog:
    """A catalog at the durable prefix every scenario starts from."""
    catalog = Catalog(root)
    catalog.create_series("s", metric="variable_threshold", H=H, grid=GRID)
    catalog.append("s", _BATCH1)
    return catalog


@dataclass
class _Crashed:
    """One writer's crash scenario, the failure already injected.

    ``write`` died in ``catalog`` at its ``series.json`` flush; ``handle``
    is the series' live handle from before the crash and ``durable`` the
    view stored at that point.
    """

    catalog: Catalog
    handle: SeriesHandle
    durable: ProbabilisticView
    write: Callable[[Catalog], object]


@pytest.fixture(params=sorted(_WRITES))
def crashed_catalog(request, tmp_path, monkeypatch):
    """A catalog whose last write died between segment and meta flush."""
    write = _WRITES[request.param]
    catalog = _prepare(tmp_path / "cat")
    handle = catalog.series("s")
    durable = handle.view()

    real_write = catalog_module._write_json_atomic

    def failing_write(path, payload):
        if path.name == catalog_module._SERIES_FILE:
            raise _FlushCrash(f"simulated crash before flushing {path}")
        real_write(path, payload)

    monkeypatch.setattr(catalog_module, "_write_json_atomic", failing_write)
    with pytest.raises(_FlushCrash):
        write(catalog)
    monkeypatch.setattr(catalog_module, "_write_json_atomic", real_write)
    return _Crashed(catalog, handle, durable, write)


class TestCrashRecovery:
    def test_crash_leaves_orphan_segment_and_durable_prefix(
        self, crashed_catalog
    ):
        reopened = Catalog(crashed_catalog.catalog.root)
        handle = reopened.series("s")
        # Durable state is exactly the pre-crash prefix...
        assert handle.next_t == _BATCH1.size
        assert handle.tuple_count == (_BATCH1.size - H) * GRID.n
        _assert_views_identical(crashed_catalog.durable, handle.view())
        # ...while the crashed write's segment is an on-disk orphan the
        # metadata never admitted.
        on_disk = {
            path.name
            for path in (reopened.root / "s").glob("seg-*.seg")
        }
        assert set(handle.segment_names) < on_disk

    def test_recovered_run_bit_identical_to_uninterrupted(
        self, crashed_catalog, tmp_path
    ):
        reopened = Catalog(crashed_catalog.catalog.root)
        crashed_catalog.write(reopened)  # Resume: re-issue the lost write.

        control = _prepare(tmp_path / "control")
        crashed_catalog.write(control)

        recovered_handle = reopened.series("s")
        control_handle = control.series("s")
        assert recovered_handle.next_t == control_handle.next_t
        assert recovered_handle.segment_names == control_handle.segment_names
        _assert_views_identical(
            control_handle.view(), recovered_handle.view()
        )
        # Nothing but what the uninterrupted run holds: the orphan was
        # overwritten (append, revise) or swept with the series it
        # belonged to (save_view).
        assert sorted(
            path.name for path in (reopened.root / "s").iterdir()
        ) == sorted(path.name for path in (control.root / "s").iterdir())

    def test_poisoned_handle_refuses_further_use(self, crashed_catalog):
        # append / revise poison their handle mid-transaction; save_view
        # invalidates the one it is replacing before it writes anything.
        handle = crashed_catalog.handle
        with pytest.raises(StoreError, match="stale|dropped or replaced"):
            handle.append(_BATCH2)
        with pytest.raises(StoreError, match="stale|dropped or replaced"):
            handle.view()

    def test_in_process_recovery_via_fresh_handle(self, crashed_catalog):
        catalog = crashed_catalog.catalog
        fresh = catalog.series("s")
        assert fresh is not crashed_catalog.handle
        _assert_views_identical(crashed_catalog.durable, fresh.view())
        crashed_catalog.write(catalog)  # Works without reopening.
        # The durable file agrees with the in-memory handle again.
        recovered = catalog.series("s")
        reopened = Catalog(catalog.root).series("s")
        assert reopened.next_t == recovered.next_t
        assert reopened.segment_names == recovered.segment_names
        _assert_views_identical(recovered.view(), reopened.view())


#: Where an append can fail: writing its segment, or flushing series.json.
_APPEND_FAULTS = {
    "segment_write": "save_view_columns",
    "series_flush": "_write_json_atomic",
}


@pytest.mark.parametrize("point", sorted(_APPEND_FAULTS))
def test_standing_queries_survive_a_failed_append(tmp_path, monkeypatch, point):
    catalog = Catalog(tmp_path / "cat")
    catalog.create_series("s", metric="variable_threshold", H=H, grid=GRID)
    exceedance = catalog.register_query("s", StandingQuery.exceedance(20.0))
    above = catalog.register_query("s", StandingQuery("time_above", (20.0, 4)))
    values = _values(200)
    catalog.append("s", values[:80])

    name = _APPEND_FAULTS[point]
    real = getattr(catalog_module, name)

    def failing(path, *args, **kwargs):
        if point == "segment_write" or path.name == catalog_module._SERIES_FILE:
            raise OSError(f"simulated failure at {point}")
        return real(path, *args, **kwargs)

    monkeypatch.setattr(catalog_module, name, failing)
    with pytest.raises(OSError, match="simulated"):
        catalog.append("s", values[80:120])
    monkeypatch.setattr(catalog_module, name, real)
    catalog.append("s", values[80:120])  # The retry, on a fresh handle.
    catalog.append("s", values[120:])

    view = catalog.view("s")
    assert catalog.series("s").queries() == [exceedance, above]
    assert exceedance.result() == exceedance_probability(view, 20.0)
    assert above.result() == expected_time_above(view, 20.0, 4)
    assert len(exceedance.result()) == len(view.times) == 200 - H


class TestAtomicSegmentWrites:
    def test_failed_fresh_write_leaves_nothing(self, tmp_path, monkeypatch):
        catalog = Catalog(tmp_path / "cat")
        catalog.create_series(
            "s", metric="variable_threshold", H=H, grid=GRID
        )
        catalog.append("s", _values(40))
        view = catalog.view("s")
        target = tmp_path / "out.npz"

        def exploding_savez(handle, **arrays):
            handle.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", exploding_savez)
        with pytest.raises(OSError, match="disk full"):
            save_view_npz(view, target)
        assert not target.exists()
        assert list(tmp_path.glob(".out.npz.tmp")) == []

    def test_failed_overwrite_keeps_old_content(self, tmp_path, monkeypatch):
        catalog = Catalog(tmp_path / "cat")
        catalog.create_series(
            "s", metric="variable_threshold", H=H, grid=GRID
        )
        catalog.append("s", _values(40))
        view = catalog.view("s")
        target = tmp_path / "out.npz"
        save_view_npz(view, target)
        original_bytes = target.read_bytes()

        def exploding_savez(handle, **arrays):
            handle.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", exploding_savez)
        with pytest.raises(OSError, match="disk full"):
            save_view_npz(view, target)
        assert target.read_bytes() == original_bytes
        _assert_views_identical(view, load_view_npz(target))

    def test_failed_metadata_write_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        catalog = _prepare(tmp_path / "cat")
        series_dir = catalog.root / "s"
        original_bytes = (series_dir / "series.json").read_bytes()

        real_write_text = Path.write_text

        def exploding_write_text(path, text, *args, **kwargs):
            if "series.json" not in path.name:
                return real_write_text(path, text, *args, **kwargs)
            with open(path, "w") as handle:
                handle.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", exploding_write_text)
        with pytest.raises(OSError, match="disk full"):
            catalog.append("s", _BATCH2)
        monkeypatch.undo()
        assert (series_dir / "series.json").read_bytes() == original_bytes
        assert [p.name for p in series_dir.iterdir() if p.name[0] == "."] == []
        # The last durable state is what a fresh handle resumes from.
        assert catalog.series("s").next_t == _BATCH1.size
