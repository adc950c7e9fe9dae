"""Executor-backend suite: parity, selection, faults, mmap reads.

The contract under test: both backends — sequential (the default and
the reference) and process — produce **bit-identical** results for the
same statement over the same catalog, because both run the same
``compute_chunk`` kernel path.  Fault behaviour is part of the contract too:
a broken series names itself through any backend, a worker process dying
mid-query surfaces as a :class:`QueryError` naming the lost series (and
the pool rebuilds), and a deliberately closed service refuses further
statements with ``"service closed"`` instead of a pool-internal
traceback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, QueryError
from repro.server.protocol import canonical_dumps
from repro.service import (
    CatalogQueryService,
    MatrixCache,
    ProcessBackend,
    SequentialBackend,
    make_backend,
)
from repro.store import Catalog
from repro.view.omega import OmegaGrid

H = 16
GRID = OmegaGrid(delta=0.5, n=4)
SERIES = 6


def _build_catalog(root, layout: str) -> Catalog:
    catalog = Catalog(root, segment_layout=layout)
    rng = np.random.default_rng(7)
    for index in range(SERIES):
        series_id = f"s-{index}"
        catalog.create_series(
            series_id, metric="variable_threshold", H=H, grid=GRID
        )
        values = 20.0 + 0.05 * index + np.cumsum(
            rng.normal(0.0, 0.05, size=48)
        )
        # Two appends -> two segments, so concatenation paths run too.
        catalog.append(series_id, values[:30])
        catalog.append(series_id, values[30:])
    return catalog


@pytest.fixture(scope="module")
def v2_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("backends") / "cat-v2"
    _build_catalog(root, "v2")
    return root


@pytest.fixture(scope="module")
def npz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("backends-npz") / "cat-npz"
    _build_catalog(root, "npz")
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


class TestBackendParity:
    def test_process_bit_identical_and_warm_cache_stable(self, v2_root):
        statements = _statements(v2_root)
        with CatalogQueryService(v2_root, backend="sequential") as service:
            references = [_canonical(service.execute(s)) for s in statements]
        with CatalogQueryService(
            v2_root, backend="process", max_workers=2
        ) as service:
            for statement, reference in zip(statements, references):
                assert _canonical(service.execute(statement)) == reference
            # Second pass hits the per-worker warm caches: same bytes.
            for statement, reference in zip(statements, references):
                assert _canonical(service.execute(statement)) == reference

    def test_mmap_on_off_identical(self, v2_root):
        statement = _statements(v2_root)[1]
        with CatalogQueryService(
            v2_root, backend="sequential", mmap=False
        ) as service:
            plain = service.execute(statement)
        with CatalogQueryService(
            v2_root, backend="sequential", mmap=True
        ) as service:
            mapped = service.execute(statement)
        assert _canonical(plain) == _canonical(mapped)

    def test_npz_catalog_identical_to_v2(self, v2_root, npz_root):
        # Same data ingested under both layouts: the stored bytes differ,
        # the query results must not.
        seq_v2 = CatalogQueryService(v2_root, backend="sequential").execute(
            f"SELECT exceedance(20.3) FROM CATALOG '{v2_root}'"
        )
        seq_npz = CatalogQueryService(
            npz_root, backend="sequential", mmap=True  # npz: no-op fallback
        ).execute(f"SELECT exceedance(20.3) FROM CATALOG '{npz_root}'")
        assert [(e.series_id, e.score) for e in seq_v2.results] == [
            (e.series_id, e.score) for e in seq_npz.results
        ]


class TestPrunedPlanParity:
    """The bit-identity gate extended to synopsis-pruned plans.

    A WHERE range that drops whole segments (and a tau that drops whole
    series) must not change a single byte of the serialized result —
    across backends, and against the unpruned reference modulo the
    ``pruning`` stats block.
    """

    PRUNING_STATEMENTS = (
        "SELECT threshold(0.2) FROM CATALOG '{root}' "
        "WHERE t BETWEEN 20 AND 40",
        "SELECT threshold(0.999) FROM CATALOG '{root}'",
        "SELECT expected_value FROM CATALOG '{root}' "
        "WHERE t BETWEEN 35 AND 46",
        "SELECT exceedance(20.3) FROM CATALOG '{root}' "
        "WHERE t BETWEEN 16 AND 30 TOP 3",
        "SELECT time_above(20.3, 4) FROM CATALOG '{root}' "
        "WHERE t BETWEEN 20 AND 44",
    )

    def _pruning_statements(self, root) -> list[str]:
        return [s.format(root=root) for s in self.PRUNING_STATEMENTS]

    @staticmethod
    def _without_stats(result) -> str:
        payload = result.to_dict()
        payload.pop("pruning", None)
        return canonical_dumps(payload)

    def test_pruned_equals_unpruned_bitwise(self, v2_root):
        for statement in self._pruning_statements(v2_root):
            pruned = CatalogQueryService(
                v2_root, backend="sequential", pruning=True
            ).execute(statement)
            full = CatalogQueryService(
                v2_root, backend="sequential", pruning=False
            ).execute(statement)
            assert self._without_stats(pruned) == self._without_stats(full)

    def test_pruning_actually_prunes(self, v2_root):
        result = CatalogQueryService(
            v2_root, backend="sequential"
        ).execute(
            f"SELECT expected_value FROM CATALOG '{v2_root}' "
            f"WHERE t BETWEEN 35 AND 46"
        )
        assert result.stats is not None
        assert result.stats.segments_pruned > 0
        assert (
            result.stats.segments_scanned + result.stats.segments_pruned
            == result.stats.segments_total
        )

    def test_pruned_identical_across_backends(self, v2_root):
        statements = self._pruning_statements(v2_root)
        references = [
            _canonical(
                CatalogQueryService(v2_root, backend="sequential").execute(s)
            )
            for s in statements
        ]
        with CatalogQueryService(
            v2_root, backend="process", max_workers=2
        ) as service:
            for statement, reference in zip(statements, references):
                assert _canonical(service.execute(statement)) == reference

    def test_skipped_series_keep_their_result_slot(self, v2_root):
        # tau=0.999 prunes every segment of every series: all series are
        # skipped, yet each still answers with its exact empty result.
        result = CatalogQueryService(v2_root, backend="sequential").execute(
            f"SELECT threshold(0.999) FROM CATALOG '{v2_root}'"
        )
        assert result.stats is not None
        assert result.stats.series_skipped == SERIES
        assert len(result.results) == SERIES
        assert all(entry.result == [] for entry in result.results)
        assert all(entry.score == 0.0 for entry in result.results)


class TestBackendSelection:
    def test_unknown_backend_rejected(self, v2_root):
        for name in ("fiber", "thread"):
            with pytest.raises(
                InvalidParameterError,
                match=f"unknown executor backend '{name}'; "
                "one of sequential, process",
            ):
                CatalogQueryService(v2_root, backend=name)

    def test_named_backends_resolve(self, v2_root):
        cache = MatrixCache()
        sequential = make_backend("sequential", max_workers=3, cache=cache)
        assert isinstance(sequential, SequentialBackend)
        assert not sequential.mmap
        process = make_backend("process", max_workers=2, cache=cache)
        assert isinstance(process, ProcessBackend)
        assert process.mmap  # Zero-copy reads on by default for processes.
        with CatalogQueryService(v2_root) as service:
            assert service.backend_name == "sequential"  # The default.

    def test_transport_stats_name_the_mode_only(self):
        # Process workers answer through the pool's own pipe; the stats
        # block carries the mode and nothing else.
        assert ProcessBackend(2).transport_stats() == {"mode": "pickle"}
        backend = SequentialBackend(MatrixCache())
        assert backend.transport_stats() == {"mode": "inline"}

    def test_instance_passthrough(self, v2_root):
        backend = SequentialBackend(MatrixCache())
        service = CatalogQueryService(v2_root, backend=backend)
        assert service.backend is backend
        assert service.backend_name == "sequential"

    def test_invalid_max_workers(self, v2_root):
        with pytest.raises(InvalidParameterError, match="max_workers"):
            CatalogQueryService(v2_root, max_workers=0)
        with pytest.raises(InvalidParameterError, match="max_workers"):
            ProcessBackend(0)


class TestBackendFaults:
    def test_broken_series_named_through_process_backend(
        self, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("broken") / "cat"
        _build_catalog(root, "v2")
        # Corrupt one series' segment column so its load fails in a
        # worker process; the error must name the series, not the pool.
        victim = root / "s-2" / "seg-00000001.v2" / "low.npy"
        victim.write_bytes(b"garbage")
        with CatalogQueryService(
            root, backend="process", max_workers=2
        ) as service:
            with pytest.raises(QueryError, match="s-2"):
                service.execute(
                    f"SELECT expected_value FROM CATALOG '{root}'"
                )

    def test_worker_crash_names_series_and_pool_recovers(
        self, v2_root, monkeypatch
    ):
        statement = f"SELECT expected_value FROM CATALOG '{v2_root}'"
        monkeypatch.setenv("REPRO_FAULT_WORKER_CRASH", "s-3")
        with CatalogQueryService(
            v2_root, backend="process", max_workers=2
        ) as service:
            with pytest.raises(QueryError, match="s-3") as excinfo:
                service.execute(statement)
            assert "worker process died" in str(excinfo.value)
            # The dead pool was dropped; with the fault cleared the next
            # statement spawns a fresh pool and succeeds.
            monkeypatch.delenv("REPRO_FAULT_WORKER_CRASH")
            result = service.execute(statement)
            assert len(result.results) == SERIES

    def test_worker_crash_has_no_tracker_leak_warnings(
        self, tmp_path
    ):
        # The resource tracker reports leaked shared_memory blocks on
        # interpreter exit, so the whole crash/recover cycle runs in a
        # subprocess whose stderr must stay free of tracker complaints.
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        import repro

        script = tmp_path / "crash_cycle.py"
        script.write_text(textwrap.dedent(
            """
            import os
            import sys

            import numpy as np

            from repro.exceptions import QueryError
            from repro.service import CatalogQueryService
            from repro.store import Catalog
            from repro.view.omega import OmegaGrid


            def main(root: str) -> int:
                catalog = Catalog(root, segment_layout="v2")
                for index in range(4):
                    series_id = f"s-{index}"
                    catalog.create_series(
                        series_id,
                        metric="variable_threshold",
                        H=16,
                        grid=OmegaGrid(delta=0.5, n=4),
                    )
                    catalog.append(series_id, 20.0 + 0.01 * np.arange(48.0))
                statement = (
                    f"SELECT expected_value FROM CATALOG '{root}'"
                )
                with CatalogQueryService(
                    root, backend="process", max_workers=2
                ) as service:
                    try:
                        service.execute(statement)
                    except QueryError as exc:
                        print(f"CRASHED {exc}")
                    else:
                        return 1
                    os.environ.pop("REPRO_FAULT_WORKER_CRASH", None)
                    result = service.execute(statement)
                    print(f"RECOVERED {len(result.results)}")
                return 0


            if __name__ == "__main__":
                sys.exit(main(sys.argv[1]))
            """
        ))
        env = dict(
            __import__("os").environ,
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            REPRO_FAULT_WORKER_CRASH="s-1",
        )
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "cat")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CRASHED" in proc.stdout
        assert "RECOVERED 4" in proc.stdout
        assert "leaked shared_memory" not in proc.stderr
        assert "resource_tracker" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_closed_process_service_raises_service_closed(self, v2_root):
        service = CatalogQueryService(
            v2_root, backend="process", max_workers=2
        )
        service.close()
        with pytest.raises(QueryError, match="service closed"):
            service.execute(
                f"SELECT expected_value FROM CATALOG '{v2_root}'"
            )

    def test_runtime_error_in_a_task_is_not_reported_as_shutdown(
        self, v2_root, monkeypatch
    ):
        # Only a failed *scheduling* call means the pool is gone; a
        # RuntimeError raised while a chunk runs is that chunk's own
        # failure and must surface as itself.  A spawn-started worker
        # cannot be monkeypatched, so the process backend's pool runs
        # its ``_run_chunk`` tasks on in-process threads here.
        from concurrent.futures import ThreadPoolExecutor

        from repro.service import backends, kernels

        class InProcessPool(ThreadPoolExecutor):
            def __init__(self, *, mp_context, **kwargs):
                super().__init__(**kwargs)

        monkeypatch.setattr(backends, "ProcessPoolExecutor", InProcessPool)
        for state in ("_WORKER_CACHE", "_WORKER_MMAP"):
            # Set by _worker_init, here in this process: restore after.
            monkeypatch.setattr(backends, state, getattr(backends, state))
        statement = f"SELECT expected_value FROM CATALOG '{v2_root}'"

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        with CatalogQueryService(
            v2_root, backend="process", max_workers=2
        ) as service:
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "_load_view_from_segments", boom)
                with pytest.raises(RuntimeError, match="boom") as excinfo:
                    service.execute(statement)
                assert "shut down" not in str(excinfo.value)
            # The pool was never the problem: the backend stays usable.
            assert len(service.execute(statement).results) == SERIES

    def test_closed_thread_service_raises_service_closed(self, v2_root):
        # The default backend runs on the calling thread and holds no
        # pool; a closed service must refuse statements all the same.
        statement = f"SELECT expected_value FROM CATALOG '{v2_root}'"
        service = CatalogQueryService(v2_root)
        service.execute(statement)
        service.close()
        with pytest.raises(QueryError, match="service closed"):
            service.execute(statement)


class TestMixedLayoutFallback:
    def test_series_with_mixed_segment_layouts_loads(self, tmp_path):
        import json

        root = tmp_path / "cat"
        catalog = Catalog(root, segment_layout="npz")
        catalog.create_series(
            "mix", metric="variable_threshold", H=H, grid=GRID
        )
        values = 20.0 + np.cumsum(
            np.random.default_rng(3).normal(0.0, 0.05, size=60)
        )
        catalog.append("mix", values[:40])
        # Flip the series' write layout mid-life: old .npz segments stay,
        # new segments land as .v2 directories.
        meta_path = root / "mix" / "series.json"
        meta = json.loads(meta_path.read_text())
        meta["layout"] = "v2"
        meta_path.write_text(json.dumps(meta))
        reopened = Catalog(root)
        reopened.append("mix", values[40:])
        names = reopened.series("mix").segment_names
        assert any(name.endswith(".npz") for name in names)
        assert any(name.endswith(".v2") for name in names)
        view = Catalog(root).snapshot("mix").load_view(mmap=True)
        expected = reopened.view("mix")
        assert np.array_equal(view.columns.t, expected.columns.t)
        assert np.array_equal(
            view.columns.probability, expected.columns.probability
        )

    def test_drop_series_removes_v2_directories(self, tmp_path):
        root = tmp_path / "cat"
        catalog = Catalog(root, segment_layout="v2")
        catalog.create_series(
            "gone", metric="variable_threshold", H=H, grid=GRID
        )
        catalog.append(
            "gone", 20.0 + 0.01 * np.arange(40, dtype=float)
        )
        segment = root / "gone" / "seg-00000001.v2"
        assert segment.is_dir()
        catalog.drop_series("gone")
        assert not segment.exists()
        assert not (root / "gone").exists()

    def test_invalid_layout_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="segment_layout"):
            Catalog(tmp_path / "cat", segment_layout="parquet")

    def test_unknown_manifest_layout_fails_loudly(self, tmp_path):
        import json

        from repro.exceptions import StoreError

        root = tmp_path / "cat"
        Catalog(root, segment_layout="v2")
        manifest = root / "catalog.json"
        payload = json.loads(manifest.read_text())
        payload["segment_layout"] = "v3"
        manifest.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="segment_layout 'v3'"):
            Catalog(root)

    def test_layout_persists_across_reopen(self, tmp_path):
        root = tmp_path / "cat"
        Catalog(root, segment_layout="v2")
        # A plain reopen — no layout argument — must keep writing what
        # the catalog's creator chose, not silently revert to npz.
        reopened = Catalog(root)
        assert reopened.segment_layout == "v2"
        reopened.create_series(
            "later", metric="variable_threshold", H=H, grid=GRID
        )
        reopened.append(
            "later", 20.0 + 0.01 * np.arange(40, dtype=float)
        )
        names = reopened.series("later").segment_names
        assert names and all(name.endswith(".v2") for name in names)
        # An explicit argument still overrides for that instance.
        assert Catalog(root, segment_layout="npz").segment_layout == "npz"
