"""Tests for the service batch entry point and shutdown-race hardening.

Covers the pieces the query server builds on: ``execute_many`` (dedup +
single-pass fan-out, result order preserved, parity with one-at-a-time
execution), the closed-pool race fix (a ``close()`` racing a late
statement surfaces as :class:`QueryError`, never a bare ``RuntimeError``
traceback), and the catalog's stat-token snapshot memoisation that lets
many connections re-plan against an unchanged series for free.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import QueryError, ReproError
from repro.service import CatalogQueryService
from repro.store import Catalog
from repro.view.omega import OmegaGrid

H = 16
GRID = OmegaGrid(delta=0.5, n=4)


@pytest.fixture(scope="module")
def catalog_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("service-batch") / "cat"
    catalog = Catalog(root)
    rng = np.random.default_rng(11)
    for index in range(6):
        series_id = f"sensor-{index}"
        catalog.create_series(
            series_id, metric="variable_threshold", H=H, grid=GRID
        )
        values = 20.0 + 0.1 * index + np.cumsum(
            rng.normal(0.0, 0.05, size=40)
        )
        catalog.append(series_id, values)
    return root


def _statements(root) -> list[str]:
    return [
        f"SELECT exceedance(20.5) FROM CATALOG '{root}'",
        f"SELECT expected_value FROM CATALOG '{root}' SERIES 'sensor-[0-2]'",
        f"SELECT exceedance(20.5) FROM CATALOG '{root}'",  # Duplicate.
        f"SELECT threshold(0.2) FROM CATALOG '{root}' TOP 2",
    ]


class TestExecuteMany:
    def test_matches_one_at_a_time_execution(self, catalog_root):
        with CatalogQueryService(catalog_root, max_workers=4) as service:
            batched = service.execute_many(_statements(catalog_root))
            singles = [
                service.execute(statement)
                for statement in _statements(catalog_root)
            ]
        assert len(batched) == 4
        for batch_result, single in zip(batched, singles):
            assert batch_result.aggregate == single.aggregate
            assert batch_result.matched == single.matched
            assert batch_result.scores() == single.scores()

    def test_duplicates_share_one_execution(self, catalog_root):
        with CatalogQueryService(catalog_root, max_workers=1) as service:
            results = service.execute_many(_statements(catalog_root))
            # Identical statements come back as the same result object —
            # planned and executed exactly once.
            assert results[0] is results[2]
            # The cache saw each matched series once, not once per copy.
            stats = service.cache.stats
            assert stats.misses == 6

    def test_sequential_and_parallel_agree(self, catalog_root):
        statements = _statements(catalog_root)
        with CatalogQueryService(catalog_root) as seq:
            sequential = seq.execute_many(statements)
        with CatalogQueryService(
            catalog_root, backend="process", max_workers=2
        ) as par:
            parallel = par.execute_many(statements)
        for left, right in zip(sequential, parallel):
            assert left.scores() == right.scores()

    def test_empty_batch(self, catalog_root):
        with CatalogQueryService(catalog_root) as service:
            assert service.execute_many([]) == []

    def test_foreign_catalog_rejected(self, catalog_root, tmp_path):
        with CatalogQueryService(catalog_root) as service:
            with pytest.raises(QueryError, match="bound to"):
                service.execute_many(
                    [f"SELECT expected_value FROM CATALOG '{tmp_path}'"]
                )


class TestClosedPoolRace:
    def test_shutdown_pool_maps_to_query_error(self, catalog_root):
        statement = f"SELECT expected_value FROM CATALOG '{catalog_root}'"
        with CatalogQueryService(
            catalog_root, backend="process", max_workers=2
        ) as service:
            service.execute(statement)  # Builds the persistent pool.
            assert service.backend._pool is not None
            # Simulate the shutdown race: the pool dies under a live
            # service reference (what a Ctrl-C teardown interleaved with
            # a late statement produces) without the service-level
            # closed flag.
            service.backend._pool.shutdown(wait=True)
            with pytest.raises(QueryError, match="shut down"):
                service.execute(statement)

    def test_close_makes_further_statements_fail_clearly(self, catalog_root):
        statement = f"SELECT expected_value FROM CATALOG '{catalog_root}'"
        service = CatalogQueryService(catalog_root, max_workers=4)
        assert service.execute(statement).results
        service.close()
        service.close()  # Idempotent.
        with pytest.raises(QueryError, match="service closed"):
            service.execute(statement)
        with pytest.raises(QueryError, match="service closed"):
            service.execute_many([statement])

    def test_concurrent_close_never_leaks_runtime_error(
        self, catalog_root, concurrent_callers
    ):
        # Caller threads share one default-backend service over a cold
        # cache, the way a server's workers do, while one of them closes
        # it: every statement either answers with a lone caller's bytes
        # or fails with the documented shutdown error.
        statement = f"SELECT exceedance(20.5) FROM CATALOG '{catalog_root}'"
        with CatalogQueryService(catalog_root) as lone:
            reference = lone.execute(statement).json()

        for _ in range(8):
            service = CatalogQueryService(catalog_root)

            def hammer(index: int, service=service) -> list[str]:
                answers = []
                for _ in range(5):
                    try:
                        answers.append(service.execute(statement).json())
                    except ReproError:
                        pass  # The documented shutdown outcome.
                    if index == 0:
                        service.close()
                return answers

            for outcome in concurrent_callers(hammer, callers=4):
                assert not isinstance(outcome, BaseException), outcome
                assert all(answer == reference for answer in outcome)


class TestSnapshotReuse:
    def test_unchanged_series_snapshot_is_cached(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.create_series(
            "s", metric="variable_threshold", H=H, grid=GRID
        )
        catalog.append("s", 20.0 + np.arange(30) * 0.01)
        first = catalog.snapshot("s")
        second = catalog.snapshot("s")
        assert second is first
        hits, misses = catalog.snapshot_cache_info()
        assert (hits, misses) == (1, 1)

    def test_append_invalidates_by_stat_token(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.create_series(
            "s", metric="variable_threshold", H=H, grid=GRID
        )
        catalog.append("s", 20.0 + np.arange(30) * 0.01)
        before = catalog.snapshot("s")
        catalog.append("s", np.full(5, 20.5))
        after = catalog.snapshot("s")
        assert after is not before
        assert after.generation != before.generation
        assert after.tuple_count > before.tuple_count

    def test_writer_and_reader_catalogs_stay_coherent(self, tmp_path):
        root = tmp_path / "cat"
        writer = Catalog(root)
        writer.create_series(
            "s", metric="variable_threshold", H=H, grid=GRID
        )
        writer.append("s", 20.0 + np.arange(40) * 0.01)
        reader = Catalog(root, create=False)
        stale = reader.snapshot("s")
        writer.append("s", np.full(8, 20.3))
        fresh = reader.snapshot("s")
        # The reader's memo must not survive the writer's atomic rewrite.
        assert fresh.tuple_count == writer.snapshot("s").tuple_count
        assert fresh.tuple_count > stale.tuple_count

    def test_open_many_reuses_snapshots(self, catalog_root):
        catalog = Catalog(catalog_root, create=False)
        catalog.open_many("sensor-*")
        hits_before, misses = catalog.snapshot_cache_info()
        catalog.open_many("sensor-*")
        hits_after, misses_after = catalog.snapshot_cache_info()
        assert misses_after == misses  # No re-reads...
        assert hits_after == hits_before + 6  # ... all six served cached.

    def test_drop_series_clears_memo(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.create_series(
            "s", metric="variable_threshold", H=H, grid=GRID
        )
        catalog.append("s", 20.0 + np.arange(30) * 0.01)
        catalog.snapshot("s")
        catalog.drop_series("s")
        with pytest.raises(QueryError):
            catalog.snapshot("s")
