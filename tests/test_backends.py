"""Executor-backend suite: parity, selection, faults, legacy segments.

The contract under test: both backends — sequential (the default and
the reference) and process — produce **bit-identical** results for the
same statement over the same catalog, because both run the same
``compute_chunk`` kernel path; process workers hand their results back
through the pool's own pipe (the ``pickle`` transport).  Fault behaviour
is part of the contract too: a broken series names itself through any
backend, a worker process dying mid-query surfaces as a
:class:`QueryError` naming the lost series (and the pool rebuilds), and a
deliberately closed service refuses further statements with ``"service
closed"`` instead of a pool-internal traceback.  Catalogs written by
older builds, whose series hold ``.npz`` segment files or ``.v2``
segment directories, answer exactly like the same data stored as
``.seg``.
"""

from __future__ import annotations

import itertools
import json

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
from repro.service.cache import view_nbytes
from repro.store import Catalog
from repro.view.omega import OmegaGrid

H = 16
GRID = OmegaGrid(delta=0.5, n=4)
SERIES = 6


def _build_catalog(root, legacy=None) -> Catalog:
    """Six series of two appends each (two segments: concatenation runs).

    With ``legacy`` (the conftest ``legacy_v2`` or ``legacy_npz``) each
    series' first segment is rewritten in that legacy format before the
    second append, so the catalog is one an older build wrote and this
    build kept appending to.
    """
    catalog = Catalog(root)
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
        if legacy is not None:
            legacy(root / series_id)
            catalog = Catalog(root)  # No handle on the old metadata.
        catalog.append(series_id, values[30:])
    return catalog


@pytest.fixture(scope="module")
def seg_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("backends-seg") / "cat-seg"
    _build_catalog(root)
    return root


@pytest.fixture(scope="module")
def legacy_npz_root(tmp_path_factory, legacy_npz):
    root = tmp_path_factory.mktemp("backends-npz") / "cat-npz"
    _build_catalog(root, legacy_npz)
    return root


@pytest.fixture(scope="module")
def legacy_root(tmp_path_factory, legacy_v2):
    root = tmp_path_factory.mktemp("backends-legacy") / "cat-legacy"
    _build_catalog(root, legacy_v2)
    return root


def _statements(root) -> list[str]:
    return [
        f"SELECT expected_value FROM CATALOG '{root}'",
        f"SELECT exceedance(20.3) FROM CATALOG '{root}'",
        f"SELECT threshold(0.2) FROM CATALOG '{root}' TOP 3",
        f"SELECT time_above(20.3, 5) FROM CATALOG '{root}' "
        f"WHERE t BETWEEN 18 AND 60",
        f"SELECT sustained_exceedance(20.3, 5) FROM CATALOG '{root}'",
        f"SELECT windowed_expected_value(5) FROM CATALOG '{root}' TOP 2",
        f"SIMULATE 3 SEED 42 FROM CATALOG '{root}'",
        f"SELECT expected_value, exceedance(20.3) FROM CATALOG '{root}'",
    ]


def _canonical(result) -> str:
    return canonical_dumps(result.to_dict())


def test_bit_identity_across_backends_and_transports(seg_root):
    with CatalogQueryService(seg_root, backend="sequential") as service:
        reference = [_canonical(service.execute(s)) for s in _statements(
            seg_root
        )]

    backend = ProcessBackend(2)
    with CatalogQueryService(seg_root, backend=backend) as service:
        cold = [_canonical(service.execute(s)) for s in _statements(
            seg_root
        )]
        warm = [_canonical(service.execute(s)) for s in _statements(
            seg_root
        )]
        stats = backend.transport_stats()
    assert cold == reference
    assert warm == reference
    assert stats == {"mode": "pickle"}


class TestBackendParity:
    def test_process_bit_identical_and_warm_cache_stable(self, seg_root):
        statements = _statements(seg_root)
        with CatalogQueryService(seg_root, backend="sequential") as service:
            references = [_canonical(service.execute(s)) for s in statements]
        with CatalogQueryService(
            seg_root, backend="process", max_workers=2
        ) as service:
            for statement, reference in zip(statements, references):
                assert _canonical(service.execute(statement)) == reference
            # Second pass hits the per-worker warm caches: same bytes.
            for statement, reference in zip(statements, references):
                assert _canonical(service.execute(statement)) == reference

    def test_npz_catalog_identical_to_v2(
        self, seg_root, legacy_root, legacy_npz_root
    ):
        # Same data, legacy .v2 or .npz segments followed by .seg appends
        # against .seg throughout: the stored bytes differ, the answers
        # must not — pruning decisions and their stats block included.
        for backend, pruning in itertools.product(
            ("sequential", "process"), (True, False)
        ):
            answers = {}
            for root in (seg_root, legacy_root, legacy_npz_root):
                with CatalogQueryService(
                    root, backend=backend, max_workers=2, pruning=pruning
                ) as service:
                    answers[root] = [
                        _canonical(service.execute(s))
                        for s in _statements(root)
                    ]
            assert answers[legacy_root] == answers[seg_root]
            assert answers[legacy_npz_root] == answers[seg_root]


class TestWorkerCachePolicy:
    def test_over_budget_statement_keeps_worker_hits(self, seg_root):
        # One spawn-started worker whose cache holds three of the six
        # views: plain LRU scored no hit on any rerun of a statement over
        # all six; the worker now keeps k - 1 = 2 of them resident.
        catalog = Catalog(seg_root)
        size = max(
            view_nbytes(catalog.view(series_id))
            for series_id in catalog.list_series()
        )
        statement = f"SELECT expected_value FROM CATALOG '{seg_root}'"
        with CatalogQueryService(seg_root) as service:
            expected = service.execute(statement).json()
        hits = []
        with CatalogQueryService(
            seg_root, backend="process", max_workers=1,
            cache_budget_bytes=int(size * 3.5),
        ) as service:
            for _ in range(3):
                result = service.execute(statement)
                assert result.json() == expected
                hits.append(sum(entry.cache_hit for entry in result.results))
        assert hits == [0, 2, 2]


class TestPrunedPlanParity:
    """The bit-identity gate extended to synopsis-pruned plans.

    A WHERE range that drops whole segments (and a tau that drops whole
    series) must not change a single byte of the serialized result —
    across backends, and against the unpruned reference modulo the
    ``pruning`` stats block.
    """

    # A WHERE range outside every series' times: each kernel kind answers
    # every series from the evaluator over an empty view.
    OUTSIDE_STATEMENTS = tuple(
        f"{head} FROM CATALOG '{{root}}' WHERE t BETWEEN 100 AND 200"
        for head in (
            "SIMULATE 3 SEED 5",
            "SELECT probability_of(20.0, 20.5)",
            "SELECT sustained_exceedance(20.3, 4)",
            "SELECT windowed_expected_value(4)",
        )
    )

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
        *OUTSIDE_STATEMENTS,
    )

    def _pruning_statements(self, root) -> list[str]:
        return [s.format(root=root) for s in self.PRUNING_STATEMENTS]

    @staticmethod
    def _without_stats(result) -> str:
        payload = result.to_dict()
        payload.pop("pruning", None)
        return canonical_dumps(payload)

    def test_pruned_equals_unpruned_bitwise(self, seg_root):
        for statement in self._pruning_statements(seg_root):
            pruned = CatalogQueryService(
                seg_root, backend="sequential", pruning=True
            ).execute(statement)
            full = CatalogQueryService(
                seg_root, backend="sequential", pruning=False
            ).execute(statement)
            assert self._without_stats(pruned) == self._without_stats(full)

    def test_pruning_actually_prunes(self, seg_root):
        result = CatalogQueryService(
            seg_root, backend="sequential"
        ).execute(
            f"SELECT expected_value FROM CATALOG '{seg_root}' "
            f"WHERE t BETWEEN 35 AND 46"
        )
        assert result.stats is not None
        assert result.stats.segments_pruned > 0
        assert (
            result.stats.segments_scanned + result.stats.segments_pruned
            == result.stats.segments_total
        )

    def test_pruned_identical_across_backends(self, seg_root):
        statements = self._pruning_statements(seg_root)
        references = [
            _canonical(
                CatalogQueryService(seg_root, backend="sequential").execute(s)
            )
            for s in statements
        ]
        with CatalogQueryService(
            seg_root, backend="process", max_workers=2
        ) as service:
            for statement, reference in zip(statements, references):
                assert _canonical(service.execute(statement)) == reference

    @pytest.mark.parametrize(
        "statement, empty",
        [
            ("SELECT threshold(0.999) FROM CATALOG '{root}'", []),
            # SIMULATE 3 answers three worlds of no times.
            *zip(OUTSIDE_STATEMENTS, ([[], [], []], {}, {}, {})),
        ],
    )
    def test_skipped_series_keep_their_result_slot(
        self, seg_root, statement, empty
    ):
        # tau=0.999 prunes every segment of every series, and so does a
        # WHERE range outside every series' times: all series are
        # skipped, yet each still answers with its exact empty result.
        result = CatalogQueryService(seg_root, backend="sequential").execute(
            statement.format(root=seg_root)
        )
        assert result.stats is not None
        assert result.stats.series_skipped == SERIES
        assert [entry.series_id for entry in result.results] == [
            f"s-{index}" for index in range(SERIES)
        ]
        assert all(entry.result == empty for entry in result.results)
        assert all(entry.score == 0.0 for entry in result.results)


class TestBackendSelection:
    def test_unknown_backend_rejected(self, seg_root):
        for name in ("fiber", "thread"):
            with pytest.raises(
                InvalidParameterError,
                match=f"unknown executor backend '{name}'; "
                "one of sequential, process",
            ):
                CatalogQueryService(seg_root, backend=name)

    def test_named_backends_resolve(self, seg_root):
        cache = MatrixCache()
        sequential = make_backend("sequential", max_workers=3, cache=cache)
        assert isinstance(sequential, SequentialBackend)
        process = make_backend("process", max_workers=2, cache=cache)
        assert isinstance(process, ProcessBackend)
        with CatalogQueryService(seg_root) as service:
            assert service.backend_name == "sequential"  # The default.

    def test_transport_stats_name_the_mode_only(self):
        # Process workers answer through the pool's own pipe; the stats
        # block carries the mode and nothing else.
        assert ProcessBackend(2).transport_stats() == {"mode": "pickle"}
        backend = SequentialBackend(MatrixCache())
        assert backend.transport_stats() == {"mode": "inline"}

    def test_instance_passthrough(self, seg_root):
        backend = SequentialBackend(MatrixCache())
        service = CatalogQueryService(seg_root, backend=backend)
        assert service.backend is backend
        assert service.backend_name == "sequential"

    def test_invalid_max_workers(self, seg_root):
        with pytest.raises(InvalidParameterError, match="max_workers"):
            CatalogQueryService(seg_root, max_workers=0)
        with pytest.raises(InvalidParameterError, match="max_workers"):
            ProcessBackend(0)


class TestBackendFaults:
    def test_broken_series_named_through_process_backend(
        self, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("broken") / "cat"
        _build_catalog(root)
        # Corrupt one series' segment so its load fails in a worker
        # process; the error must name the series, not the pool.
        (root / "s-2" / "seg-00000001.seg").write_bytes(b"garbage")
        with CatalogQueryService(
            root, backend="process", max_workers=2
        ) as service:
            with pytest.raises(QueryError, match="s-2"):
                service.execute(
                    f"SELECT expected_value FROM CATALOG '{root}'"
                )

    def test_worker_crash_names_series_and_pool_recovers(
        self, seg_root, monkeypatch
    ):
        statement = f"SELECT expected_value FROM CATALOG '{seg_root}'"
        monkeypatch.setenv("REPRO_FAULT_WORKER_CRASH", "s-3")
        with CatalogQueryService(
            seg_root, backend="process", max_workers=2
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
        # A worker dying mid-statement must leave nothing behind that the
        # interpreter complains about on exit: the whole crash/recover
        # cycle runs in a subprocess whose stderr must stay free of
        # resource-tracker warnings and tracebacks.
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
                catalog = Catalog(root)
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
        assert "resource_tracker" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_closed_process_service_raises_service_closed(self, seg_root):
        service = CatalogQueryService(
            seg_root, backend="process", max_workers=2
        )
        service.close()
        with pytest.raises(QueryError, match="service closed"):
            service.execute(
                f"SELECT expected_value FROM CATALOG '{seg_root}'"
            )

    def test_runtime_error_in_a_task_is_not_reported_as_shutdown(
        self, seg_root, monkeypatch
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
        # Set by _worker_init, here in this process: restore after.
        monkeypatch.setattr(
            backends, "_WORKER_CACHE", backends._WORKER_CACHE
        )
        statement = f"SELECT expected_value FROM CATALOG '{seg_root}'"

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        with CatalogQueryService(
            seg_root, backend="process", max_workers=2
        ) as service:
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "_load_view_from_segments", boom)
                with pytest.raises(RuntimeError, match="boom") as excinfo:
                    service.execute(statement)
                assert "shut down" not in str(excinfo.value)
            # The pool was never the problem: the backend stays usable.
            assert len(service.execute(statement).results) == SERIES

    def test_closed_sequential_service_raises_service_closed(self, seg_root):
        # The default backend runs on the calling thread and holds no
        # pool; a closed service must refuse statements all the same.
        statement = f"SELECT expected_value FROM CATALOG '{seg_root}'"
        service = CatalogQueryService(seg_root)
        service.execute(statement)
        service.close()
        with pytest.raises(QueryError, match="service closed"):
            service.execute(statement)


class TestMixedLayoutFallback:
    """Series that still hold ``.v2`` or ``.npz`` segments of older builds."""

    def test_series_with_mixed_segment_layouts_loads(
        self, tmp_path, legacy_v2, legacy_npz
    ):
        values = 20.0 + np.cumsum(
            np.random.default_rng(3).normal(0.0, 0.05, size=60)
        )
        views = {}
        for label in ("seg", "mixed"):
            root = tmp_path / label
            Catalog(root).create_series(
                "mix", metric="variable_threshold", H=H, grid=GRID
            )
            Catalog(root).append("mix", values[:40])
            if label == "mixed":
                legacy_v2(root / "mix")
            Catalog(root).append("mix", values[40:50])
            if label == "mixed":
                legacy_npz(root / "mix")
            reopened = Catalog(root)
            reopened.append("mix", values[50:])
            views[label] = Catalog(root).snapshot("mix").load_view()
        # The legacy segments stay; the append after them wrote .seg.
        assert reopened.series("mix").segment_names == [
            "seg-00000001.v2", "seg-00000002.npz", "seg-00000003.seg"
        ]
        seg, mixed = views["seg"].columns, views["mixed"].columns
        for column in ("t", "low", "high", "probability"):
            assert np.array_equal(getattr(mixed, column), getattr(seg, column))
        assert [str(mixed.labels[code]) for code in mixed.label_code] == [
            str(seg.labels[code]) for code in seg.label_code
        ]

    def test_drop_series_removes_v2_directories(self, tmp_path, legacy_v2):
        root = tmp_path / "cat"
        catalog = Catalog(root)
        catalog.create_series(
            "gone", metric="variable_threshold", H=H, grid=GRID
        )
        catalog.append(
            "gone", 20.0 + 0.01 * np.arange(40, dtype=float)
        )
        legacy_v2(root / "gone")
        segment = root / "gone" / "seg-00000001.v2"
        assert segment.is_dir()
        Catalog(root).drop_series("gone")
        assert not segment.exists()
        assert not (root / "gone").exists()

    def test_recorded_layout_keys_are_ignored(self, tmp_path, legacy_v2):
        # Older builds recorded a write layout in catalog.json and in
        # every series.json.  Whatever they say, the catalog opens and
        # every new segment — append, revision, static save — is .seg.
        root = tmp_path / "cat"
        catalog = Catalog(root)
        catalog.create_series(
            "old", metric="variable_threshold", H=H, grid=GRID
        )
        catalog.append("old", 20.0 + 0.01 * np.arange(40, dtype=float))
        legacy_v2(root / "old")
        manifest = root / "catalog.json"
        payload = json.loads(manifest.read_text())
        payload["segment_layout"] = "v3"
        manifest.write_text(json.dumps(payload))
        reopened = Catalog(root)
        reopened.append("old", 20.4 + 0.01 * np.arange(10, dtype=float))
        reopened.revise("old", reopened.view("old"))
        reopened.create_series(
            "new", metric="variable_threshold", H=H, grid=GRID
        )
        reopened.append("new", 20.0 + 0.01 * np.arange(40, dtype=float))
        reopened.save_view("static", reopened.view("new"))
        assert reopened.series("old").segment_names == [
            "seg-00000001.v2", "seg-00000002.seg", "seg-00000003.seg"
        ]
        assert reopened.series("new").segment_names == ["seg-00000001.seg"]
        assert reopened.series("static").segment_names == [
            "seg-00000001.seg"
        ]
        new_meta = json.loads((root / "new" / "series.json").read_text())
        assert "layout" not in new_meta

    def test_synopsize_backfills_legacy_segments(self, tmp_path, legacy_v2):
        root = tmp_path / "cat"
        _build_catalog(root, legacy_v2)
        recorded = Catalog(root).snapshot("s-0").segment_synopses()
        for series_id in ("s-0", "s-1"):
            meta_path = root / series_id / "series.json"
            meta = json.loads(meta_path.read_text())
            del meta["synopses"]
            meta_path.write_text(json.dumps(meta))
        backfilled = Catalog(root).synopsize()
        assert backfilled == {
            f"s-{index}": 2 if index < 2 else 0 for index in range(SERIES)
        }
        snapshot = Catalog(root).snapshot("s-0")
        assert snapshot.segments[0] == "seg-00000001.v2"
        assert snapshot.segment_synopses() == recorded

    def test_corrupt_legacy_column_names_its_series(self, tmp_path, legacy_v2):
        root = tmp_path / "cat"
        _build_catalog(root, legacy_v2)
        (root / "s-2" / "seg-00000001.v2" / "low.npy").write_bytes(b"garbage")
        with CatalogQueryService(
            root, backend="process", max_workers=2
        ) as service:
            with pytest.raises(QueryError, match="s-2"):
                service.execute(f"SELECT expected_value FROM CATALOG '{root}'")

    def test_float_times_in_a_legacy_segment_raise(self, tmp_path, legacy_npz):
        # An .npz segment holds whatever dtype its writer chose; float
        # times must fail the statement, not be truncated into an answer.
        root = tmp_path / "cat"
        _build_catalog(root, legacy_npz)
        path = root / "s-2" / "seg-00000001.npz"
        with np.load(path) as payload:
            members = dict(payload)
        members["t"] = members["t"] + 0.5
        np.savez(path, **members)
        with CatalogQueryService(root) as service:
            with pytest.raises(QueryError, match=r"'s-2'.*'t'"):
                service.execute(f"SELECT expected_value FROM CATALOG '{root}'")
