"""Catalog lifecycle: CRUD, incremental appends, crash-and-reload, SQL persist."""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro.data.synthetic import campus_temperature
from repro.db.engine import Database
from repro.db.prob_view import ProbabilisticView
from repro.db.table import Table
from repro.exceptions import (
    DataError,
    InvalidParameterError,
    QueryError,
    SchemaVersionError,
    StoreError,
)
from repro.obs import default_registry
from repro.pipeline import OnlinePipeline, create_probabilistic_view
from repro.metrics.variable_threshold import VariableThresholdingMetric
from repro.store import Catalog
from repro.store.binary import (
    SCHEMA_VERSION,
    load_view_columns,
    save_view_columns,
)
from repro.store.catalog import _load_view_from_segments
from repro.view.omega import OmegaGrid

H = 30
GRID = OmegaGrid(delta=0.5, n=4)


@pytest.fixture()
def values() -> np.ndarray:
    return campus_temperature(200, rng=5).values


def _new_series(catalog: Catalog, series_id: str = "room"):
    return catalog.create_series(
        series_id, metric="variable_threshold", H=H, grid=GRID
    )


class TestCrud:
    def test_create_list_contains_drop(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        assert catalog.list_series() == []
        _new_series(catalog, "a")
        _new_series(catalog, "b")
        assert catalog.list_series() == ["a", "b"]
        assert "a" in catalog and "missing" not in catalog
        catalog.drop_series("a")
        assert catalog.list_series() == ["b"]
        assert not (tmp_path / "cat" / "a").exists()

    def test_duplicate_and_invalid_ids_rejected(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        _new_series(catalog)
        with pytest.raises(StoreError):
            _new_series(catalog)
        with pytest.raises(InvalidParameterError):
            _new_series(catalog, "no/slashes")
        with pytest.raises(InvalidParameterError):
            _new_series(catalog, "")

    def test_unknown_series_and_metric(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        with pytest.raises(QueryError):
            catalog.series("missing")
        with pytest.raises(InvalidParameterError):
            catalog.create_series("x", metric="nope", H=H, grid=GRID)
        assert "x" not in catalog  # Failed creation leaves no trace.

    def test_unrealisable_spec_never_lands_on_disk(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        with pytest.raises(InvalidParameterError):
            # H below the metric's minimum window.
            catalog.create_series(
                "small", metric="arma_garch", H=2, grid=GRID)
        with pytest.raises(InvalidParameterError):
            # Unusable cache bounds.
            catalog.create_series(
                "badcache", metric="variable_threshold", H=H, grid=GRID,
                cache_min_sigma=-1.0, cache_max_sigma=1.0,
                cache_distance=0.05)
        assert catalog.list_series() == []
        assert not (tmp_path / "cat" / "small").exists()
        # The catalog stays fully usable afterwards.
        _new_series(catalog)
        assert catalog.list_series() == ["room"]

    def test_reserved_series_id_rejected(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        with pytest.raises(InvalidParameterError, match="reserved"):
            _new_series(catalog, "catalog.json")
        # Must not collide with the manifest's atomic-write temp path.
        _new_series(catalog, "catalog.tmp")
        _new_series(catalog, "other")
        assert catalog.list_series() == ["catalog.tmp", "other"]

    def test_drop_survives_unrealisable_binding(self, tmp_path):
        """A series whose metric disappears can still be dropped."""
        from repro.metrics.registry import _REGISTRY, register_metric

        register_metric("ephemeral", VariableThresholdingMetric)
        try:
            catalog = Catalog(tmp_path / "cat")
            catalog.create_series("s", metric="ephemeral", H=H, grid=GRID)
        finally:
            _REGISTRY.pop("ephemeral", None)
        reopened = Catalog(tmp_path / "cat")
        # Read paths never realise the binding, so they still work...
        assert reopened.series("s").describe()["metric"] == "ephemeral"
        with pytest.raises(InvalidParameterError):
            reopened.append("s", [1.0, 2.0])  # ...ingestion fails...
        reopened.drop_series("s")  # ...and the data can still be removed.
        assert reopened.list_series() == []

    def test_open_missing_catalog_without_create(self, tmp_path):
        with pytest.raises(StoreError):
            Catalog(tmp_path / "absent", create=False)

    def test_two_instances_do_not_delist_each_other(self, tmp_path):
        """Mutations re-read the manifest, so a second instance on the
        same root (e.g. the one PERSIST INTO opens) is not clobbered."""
        root = tmp_path / "cat"
        first = Catalog(root)
        second = Catalog(root)
        _new_series(second, "from_second")
        _new_series(first, "from_first")
        assert "from_second" in Catalog(root).list_series()
        assert "from_first" in Catalog(root).list_series()
        # Creating a series another instance already registered fails
        # instead of silently overwriting its binding.
        with pytest.raises(StoreError):
            _new_series(first, "from_second")
        # And lazily fetching a series another instance created works.
        assert first.series("from_second").is_dynamic

    def test_stale_handle_rejected_after_drop_and_replace(self, tmp_path, values):
        catalog = Catalog(tmp_path / "cat")
        handle = _new_series(catalog)
        catalog.append("room", values[: H + 10])
        view = catalog.view("room")
        catalog.save_view("room", view)  # Replace dynamic with static.
        with pytest.raises(StoreError):
            handle.append(values[:5])
        with pytest.raises(StoreError):
            handle.view()
        fresh = catalog.series("room")
        assert not fresh.is_dynamic
        dropped = catalog.series("room")
        catalog.drop_series("room")
        with pytest.raises(StoreError):
            dropped.view()


class TestAppend:
    def test_incremental_view_matches_offline_build(self, tmp_path, values):
        """Micro-batched ingestion reproduces the one-shot offline view."""
        catalog = Catalog(tmp_path / "cat")
        _new_series(catalog)
        cursor = 0
        reads = default_registry().counter("repro_store_segment_reads_total")
        for batch in (17, 1, 50, 3, 80, 49):
            held = len(catalog.snapshot("room").segments)
            before = reads.total()
            result = catalog.append("room", values[cursor : cursor + batch])
            cursor += batch
            # Append cost is flat in stored size: whatever the series
            # already holds, no stored segment is read back and an
            # emitting batch adds exactly one.
            assert reads.total() == before
            assert len(catalog.snapshot("room").segments) == held + (
                result.emitted > 0
            )
        assert held == 3  # The last append landed on three segments.
        assert cursor == len(values)
        stored = catalog.view("room")

        series = campus_temperature(200, rng=5)
        offline = create_probabilistic_view(
            series, VariableThresholdingMetric(), H=H, grid=GRID
        )
        assert len(stored) == len(offline)
        a, b = stored.columns, offline.columns
        assert np.array_equal(a.t, b.t)
        np.testing.assert_allclose(a.low, b.low, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.high, b.high, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.probability, b.probability,
                                   rtol=0, atol=1e-12)

    def test_append_result_counts_warmup(self, tmp_path, values):
        catalog = Catalog(tmp_path / "cat")
        _new_series(catalog)
        first = catalog.append("room", values[: H - 5])
        assert (first.fed, first.emitted) == (H - 5, 0)
        second = catalog.append("room", values[H - 5 : H + 5])
        assert (second.fed, second.emitted) == (10, 5)
        assert second.times == list(range(H, H + 5))

    def test_sigma_cache_is_reused_across_appends(self, tmp_path, values):
        catalog = Catalog(tmp_path / "cat")
        catalog.create_series(
            "room", metric="variable_threshold", H=H, grid=GRID,
            cache_min_sigma=1e-3, cache_max_sigma=50.0, cache_distance=0.05,
        )
        handle = catalog.series("room")
        cache = handle.sigma_cache
        assert cache is not None
        catalog.append("room", values[:100])
        lookups = cache.stats.lookups
        assert lookups == 100 - H
        catalog.append("room", values[100:150])
        assert handle.sigma_cache is cache  # Same instance, no rebuild.
        assert cache.stats.lookups == lookups + 50

    def test_cache_config_validated(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        with pytest.raises(InvalidParameterError):
            catalog.create_series(
                "a", metric="variable_threshold", H=H, grid=GRID,
                cache_min_sigma=0.1,  # Missing max.
            )
        with pytest.raises(InvalidParameterError):
            catalog.create_series(
                "b", metric="variable_threshold", H=H, grid=GRID,
                cache_min_sigma=0.1, cache_max_sigma=10.0,  # No constraint.
            )

    def test_bad_append_shapes_rejected(self, tmp_path, values):
        catalog = Catalog(tmp_path / "cat")
        _new_series(catalog)
        with pytest.raises(InvalidParameterError):
            catalog.append("room", values.reshape(2, -1))

    @pytest.mark.parametrize("metric", ["variable_threshold", "ewma"])
    @pytest.mark.parametrize(
        ("held", "bad"),
        [
            # A NaN no emitted window contains: once accepted, it sat in
            # the stored window and failed every later append.
            (10, [20.0, np.nan]),
            (60, [20.0, 20.1, np.nan]),
            (60, [20.0, np.nan, 20.1]),
            (60, [20.0, np.inf]),
        ],
        ids=["warm-up", "end-of-warm-batch", "mid-batch", "inf"],
    )
    def test_non_finite_append_rejected_before_anything_moves(
        self, tmp_path, values, metric, held, bad
    ):
        catalog = Catalog(tmp_path / "cat")
        handle = catalog.create_series("room", metric=metric, H=H, grid=GRID)
        handle.append(values[:held])
        meta = tmp_path / "cat" / "room" / "series.json"
        before = meta.read_bytes()

        with pytest.raises(DataError, match="non-finite"):
            handle.append(np.array(bad))
        assert meta.read_bytes() == before
        assert handle.next_t == held

        # Not poisoned: the same handle takes the next finite batch, and
        # the series is what a writer that never saw the NaN stores.
        handle.append(values[held:100])
        reference = Catalog(tmp_path / "reference")
        reference.create_series("room", metric=metric, H=H, grid=GRID)
        reference.append("room", values[:100])
        stored, expected = catalog.view("room"), reference.view("room")
        assert np.array_equal(stored.columns.t, expected.columns.t)
        assert np.array_equal(
            stored.columns.probability, expected.columns.probability
        )


class TestReload:
    def test_appends_resume_after_reopen(self, tmp_path, values):
        root = tmp_path / "cat"
        catalog = Catalog(root)
        _new_series(catalog)
        catalog.append("room", values[:120])
        del catalog

        reopened = Catalog(root)
        handle = reopened.series("room")
        assert handle.next_t == 120
        result = reopened.append("room", values[120:])
        assert result.emitted == 80  # No re-warm-up: window was restored.

        stored = reopened.view("room")
        continuous = OnlinePipeline(VariableThresholdingMetric(), H, GRID)
        for value in values:
            continuous.feed_batch([value])
        reference = continuous.to_view("reference")
        assert len(stored) == len(reference)
        assert np.array_equal(
            stored.columns.probability, reference.columns.probability
        )

    def test_reload_mid_warmup(self, tmp_path, values):
        root = tmp_path / "cat"
        catalog = Catalog(root)
        _new_series(catalog)
        catalog.append("room", values[:10])  # Far below H.
        reopened = Catalog(root)
        result = reopened.append("room", values[10 : H + 1])
        assert result.emitted == 1
        assert result.times == [H]

    def test_schema_version_mismatch_on_reopen(self, tmp_path):
        root = tmp_path / "cat"
        Catalog(root)
        manifest = json.loads((root / "catalog.json").read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 7
        (root / "catalog.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaVersionError):
            Catalog(root)

    def test_orphan_segment_ignored(self, tmp_path, values):
        """A crash after the segment write but before the meta flush."""
        root = tmp_path / "cat"
        catalog = Catalog(root)
        _new_series(catalog)
        catalog.append("room", values[: H + 20])
        tuples_before = catalog.series("room").tuple_count
        # Simulate the torn write: a segment lands without a meta update.
        (root / "room" / "seg-99999999.seg").write_bytes(b"torn")
        reopened = Catalog(root)
        assert reopened.series("room").tuple_count == tuples_before
        assert len(reopened.view("room")) == tuples_before


class TestStaticViews:
    def test_save_view_round_trip_and_replace(self, tmp_path, values):
        catalog = Catalog(tmp_path / "cat")
        series = campus_temperature(200, rng=5)
        view = create_probabilistic_view(
            series, VariableThresholdingMetric(), H=H, grid=GRID,
            view_name="offline",
        )
        catalog.save_view("offline", view)
        loaded = Catalog(tmp_path / "cat").view("offline")
        assert np.array_equal(loaded.columns.probability,
                              view.columns.probability)
        # Same name again replaces, like Database view registration.
        catalog.save_view("offline", view)
        assert catalog.list_series() == ["offline"]
        handle = catalog.series("offline")
        assert len(handle.segment_names) == 1  # Old segment cleaned up.
        assert handle.tuple_count == len(view)
        assert len(catalog.view("offline")) == len(view)

    def test_replace_is_crash_safe(self, tmp_path):
        """New data lands before the cutover: a torn replace keeps the old
        view."""
        catalog = Catalog(tmp_path / "cat")
        view = create_probabilistic_view(
            campus_temperature(200, rng=5), VariableThresholdingMetric(),
            H=H, grid=GRID,
        )
        catalog.save_view("pv", view)
        # Simulate a crash after the replacement segment was written but
        # before series.json was swapped: the orphan is ignored.
        (tmp_path / "cat" / "pv" / "seg-00000002.seg").write_bytes(b"torn")
        reopened = Catalog(tmp_path / "cat")
        assert reopened.series("pv").segment_names == ["seg-00000001.seg"]
        assert len(reopened.view("pv")) == len(view)
        # A retried replace overwrites the orphan slot and completes.
        reopened.save_view("pv", view)
        assert reopened.series("pv").segment_names == ["seg-00000002.seg"]
        assert len(reopened.view("pv")) == len(view)

    def test_static_series_rejects_appends(self, tmp_path, values):
        catalog = Catalog(tmp_path / "cat")
        view = create_probabilistic_view(
            campus_temperature(200, rng=5), VariableThresholdingMetric(),
            H=H, grid=GRID,
        )
        catalog.save_view("frozen", view)
        with pytest.raises(QueryError):
            catalog.append("frozen", values[:10])


class TestSqlPersist:
    def _database(self) -> Database:
        series = campus_temperature(150, rng=3)
        table = Table("raw_values", ["t", "r"])
        table.insert_many(
            zip(series.timestamps.tolist(), series.values.tolist())
        )
        db = Database()
        db.register_table(table)
        return db

    def test_create_view_persists_into_catalog(self, tmp_path):
        db = self._database()
        root = tmp_path / "cat"
        view = db.execute(
            "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=4 "
            f"METRIC vt WINDOW {H} FROM raw_values "
            f"PERSIST INTO '{root}'"
        ).view
        stored = Catalog(root, create=False).view("pv")
        assert np.array_equal(stored.columns.probability,
                              view.columns.probability)
        assert np.array_equal(stored.columns.t, view.columns.t)

    def test_persist_clause_optional(self, tmp_path):
        db = self._database()
        view = db.execute(
            "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=4 "
            f"METRIC vt WINDOW {H} FROM raw_values"
        ).view
        assert len(view) > 0


def _snapshot_outcomes() -> tuple[float, float]:
    """``(hits, misses)`` so far of the snapshot memo's registry counter."""
    counter = default_registry().counter("repro_store_snapshots_total")
    return counter.value(outcome="hit"), counter.value(outcome="miss")


class TestSnapshotReuse:
    def test_unchanged_series_snapshot_is_cached(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.create_series(
            "s", metric="variable_threshold", H=H, grid=GRID
        )
        catalog.append("s", 20.0 + np.arange(30) * 0.01)
        hits, misses = _snapshot_outcomes()
        first = catalog.snapshot("s")
        second = catalog.snapshot("s")
        assert second is first
        assert _snapshot_outcomes() == (hits + 1, misses + 1)

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
        hits_before, misses = _snapshot_outcomes()
        catalog.open_many("sensor-*")
        hits_after, misses_after = _snapshot_outcomes()
        assert misses_after == misses  # No re-reads...
        assert hits_after == hits_before + 6  # ... all six served cached.

    def test_open_many_counts_one_outcome_per_series(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        ids = [f"s{index}" for index in range(4)]
        for series_id in ids:
            _new_series(catalog, series_id)
            catalog.append(series_id, 20.0 + np.arange(35) * 0.01)
        warm = catalog.open_many()
        hits, misses = _snapshot_outcomes()
        assert catalog.open_many() == warm
        assert _snapshot_outcomes() == (hits + 4, misses)
        catalog.append("s2", np.full(5, 20.5))
        fresh = catalog.open_many()
        assert _snapshot_outcomes() == (hits + 4 + 3, misses + 1)
        assert [a is b for a, b in zip(fresh, warm)] == [True, True, False, True]
        assert fresh[2].tuple_count > warm[2].tuple_count

    def test_concurrent_open_many_agree(self, tmp_path):
        writer = Catalog(tmp_path / "cat")
        for series_id in ("a", "b", "c"):
            _new_series(writer, series_id)
            writer.append(series_id, 20.0 + np.arange(35) * 0.01)
        expected = writer.open_many()
        reader = Catalog(tmp_path / "cat", create=False)  # Cold memo.
        barrier = threading.Barrier(4)
        passes: list[list] = [[] for _ in range(4)]

        def run(slot: int) -> None:
            barrier.wait()
            for _ in range(25):
                passes[slot].append(reader.open_many())

        hits, misses = _snapshot_outcomes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert all(snapshots == expected for own in passes for snapshots in own)
        assert sum(map(len, passes)) == 100
        now_hits, now_misses = _snapshot_outcomes()
        assert (now_hits - hits) + (now_misses - misses) == 100 * 3

    def test_dropped_and_recreated_series_is_never_stale(self, tmp_path):
        root = tmp_path / "cat"
        writer = Catalog(root)
        for series_id in ("a", "b"):
            _new_series(writer, series_id)
            writer.append(series_id, 20.0 + np.arange(40) * 0.01)
        reader = Catalog(root, create=False)
        before = reader.open_many()
        # Through another instance: the reader's memo sees only the files.
        writer.drop_series("b")
        assert [s.series_id for s in reader.open_many()] == ["a"]
        _new_series(writer, "b")
        writer.append("b", 20.0 + np.arange(33) * 0.01)
        after = reader.open_many()
        assert after[0] is before[0]
        assert after[1] == writer.snapshot("b") != before[1]
        # Through the same instance, with no pass in between.
        reader.drop_series("b")
        _new_series(reader, "b")
        (_, recreated) = reader.open_many()
        assert recreated.tuple_count == 0 and recreated.segments == ()

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


_VIEW_KEYS = ("t", "low", "high", "probability", "label_code")
_READS = default_registry().counter("repro_store_segment_reads_total")
_LOADS = default_registry().counter("repro_store_view_loads_total")


def _reference_load(directory, names, shadows=None) -> dict:
    """The concat-and-remap series load older builds ran, kept as the oracle.

    Every segment through ``load_view_columns``, shadowed rows dropped,
    and every segment's labels remapped into one merged pool; a single
    segment keeps its pool as it is.
    """
    chunks = []
    for name, shadow in zip(names, shadows or [()] * len(names)):
        columns = load_view_columns(directory / name)
        keep = np.ones(columns["t"].size, dtype=bool)
        for lo, hi in shadow:
            keep &= (columns["t"] < lo) | (columns["t"] > hi)
        chunk = {key: columns[key][keep] for key in _VIEW_KEYS}
        chunk["labels"] = [str(label) for label in columns["labels"]]
        chunks.append(chunk)
    if len(chunks) == 1:
        return {**chunks[0], "labels": tuple(chunks[0]["labels"])}
    pool: dict[str, int] = {}
    codes = []
    for chunk in chunks:
        remap = np.array(
            [pool.setdefault(label, len(pool)) for label in chunk["labels"]],
            dtype=np.int64,
        )
        codes.append(remap[chunk["label_code"]])
    merged = {
        key: np.concatenate([chunk[key] for chunk in chunks])
        for key in _VIEW_KEYS
    }
    merged["label_code"] = np.concatenate(codes)
    merged["labels"] = tuple(pool)
    return merged


def _segment_columns(times, labels, seed: int) -> dict:
    """One tuple per label at each of ``times``, ranges stacked upward."""
    rng = np.random.default_rng(seed)
    width = len(labels)
    low = np.repeat(rng.normal(20.0, 1.0, len(times)), width) + np.tile(
        np.arange(width, dtype=float), len(times)
    )
    return dict(
        t=np.repeat(np.asarray(times, dtype=np.int64), width),
        low=low,
        high=low + 1.0,
        probability=rng.uniform(0.0, 1.0 / width, width * len(times)),
        label_code=np.tile(np.arange(width, dtype=np.int64), len(times)),
        labels=tuple(labels),
    )


class TestSeriesLoadEquivalence:
    """Series loads off the identical-pool fast path equal the oracle."""

    @staticmethod
    def _assert_load_matches(directory, names, shadows=None):
        reads, loads = _READS.total(), _LOADS.total()
        view = _load_view_from_segments(
            directory, "s", names, shadows=shadows
        )
        assert _READS.total() - reads == len(names)
        assert _LOADS.total() - loads == 1
        expected = _reference_load(directory, names, shadows)
        columns = view.columns
        for key in _VIEW_KEYS:
            actual = getattr(columns, key)
            assert actual.dtype == expected[key].dtype, key
            assert np.array_equal(actual, expected[key]), key
        assert columns.labels == expected["labels"]
        return view

    @staticmethod
    def _write(directory, segments) -> list[str]:
        """Write ``{name: columns}`` as ``.seg`` files; return the names."""
        for name, columns in segments.items():
            save_view_columns(directory / name, **columns)
        return list(segments)

    def test_segments_with_different_label_pools(self, tmp_path):
        names = self._write(tmp_path, {
            "seg-00000001.seg": _segment_columns([0, 1], ("x", "y"), 1),
            "seg-00000002.seg": _segment_columns([2, 3], ("y", "z"), 2),
            "seg-00000003.seg": _segment_columns([4], ("x", "y"), 3),
        })
        view = self._assert_load_matches(tmp_path, names)
        assert view.columns.labels == ("x", "y", "z")

    def test_identical_pools_concatenate_codes_as_stored(self, tmp_path):
        names = self._write(tmp_path, {
            f"seg-0000000{index}.seg": _segment_columns(
                [2 * index, 2 * index + 1], ("lo", "hi", "top"), index
            )
            for index in range(1, 4)
        })
        view = self._assert_load_matches(tmp_path, names)
        assert view.columns.labels == ("lo", "hi", "top")

    def test_a_duplicated_label_pool_is_remapped(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        twins = ProbabilisticView.from_columns(
            "twins",
            np.array([0, 0, 1, 1]),
            np.array([0.0, 1.0, 0.0, 1.0]),
            np.array([1.0, 2.0, 1.0, 2.0]),
            np.array([0.5, 0.5, 0.25, 0.75]),
            label_code=np.array([0, 1, 0, 1]),
            label_pool=("a", "a"),
        )
        catalog.save_view("s", twins)
        snapshot = catalog.snapshot("s")
        single = self._assert_load_matches(
            snapshot.directory, snapshot.segments
        )
        assert single.columns.labels == ("a", "a")  # One segment: kept.
        later = ProbabilisticView.from_columns(
            "later",
            np.array([1, 1]),
            np.array([0.0, 1.0]),
            np.array([1.0, 2.0]),
            np.array([0.5, 0.5]),
            label_code=np.array([1, 0]),
            label_pool=("a", "a"),
        )
        catalog.series("s").revise(later)
        snapshot = Catalog(tmp_path / "cat").snapshot("s")
        frontier = snapshot.as_of(None)
        assert len(frontier.segments) == 2
        both = self._assert_load_matches(
            snapshot.directory, frontier.segments, frontier.shadows
        )
        assert both.columns.labels == ("a",)
        assert [item.label for item in both] == ["a"] * 4

    def test_mixed_npz_v2_and_seg_series(
        self, tmp_path, legacy_npz_segment, legacy_v2_segment
    ):
        legacy_npz_segment(
            tmp_path / "seg-00000001.npz",
            _segment_columns([0, 1], ("p", "q"), 4),
        )
        legacy_v2_segment(
            tmp_path / "seg-00000002.v2", _segment_columns([2], ("p", "q"), 5)
        )
        names = ["seg-00000001.npz", "seg-00000002.v2"] + self._write(
            tmp_path,
            {"seg-00000003.seg": _segment_columns([3, 4], ("p", "q"), 6)},
        )
        view = self._assert_load_matches(tmp_path, names)
        assert view.columns.labels == ("p", "q")

    def test_revision_shadows_mask_rows(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.create_series(
            "s", metric="variable_threshold", H=H, grid=GRID
        )
        catalog.append("s", 20.0 + 0.01 * np.arange(H + 12, dtype=float))
        catalog.append("s", 20.2 + 0.01 * np.arange(8, dtype=float))
        base = catalog.view("s")
        revised_times = np.array(base.times[5:9])
        rows = np.flatnonzero(np.isin(base.columns.t, revised_times))
        revision = ProbabilisticView.from_columns(
            "rev",
            base.columns.t[rows],
            base.columns.low[rows] + 0.25,
            base.columns.high[rows] + 0.25,
            base.columns.probability[rows],
            labels=[f"r{index % 3}" for index in range(rows.size)],
        )
        catalog.series("s").revise(revision)
        snapshot = Catalog(tmp_path / "cat").snapshot("s")
        frontier = snapshot.as_of(None)
        assert any(frontier.shadows)
        view = self._assert_load_matches(
            snapshot.directory, frontier.segments, frontier.shadows
        )
        assert len(view) == len(base)
        assert np.array_equal(np.unique(view.columns.t), base.columns.times)
