"""Tests for the catalog-wide query service (`repro.service`)."""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.db.aggregates import AGGREGATES, KERNELS
from repro.db.engine import Database
from repro.db.prob_view import ProbabilisticView
from repro.db.queries import expected_value_query, threshold_query
from repro.db.stream_queries import (
    exceedance_probability,
    expected_time_above,
    sustained_exceedance_probability,
    windowed_expected_value,
)
from repro.db.worlds import (
    WorldSampler,
    conjunctive_range_query,
    derive_series_seed,
)
from repro.exceptions import (
    InvalidParameterError,
    ParseError,
    QueryError,
    ReproError,
    StoreError,
)
from repro.obs import default_registry
from repro.obs.trace import QueryTrace
from repro.service import (
    CatalogQueryService,
    MatrixCache,
    StatementResult,
    plan_statement,
)
from repro.service.cache import view_nbytes
from repro.service.executor import restrict_time_range
from repro.service.kernels import compute_chunk
from repro.service.planner import TaskEnvelope
from repro.store import Catalog
from repro.view.omega import OmegaGrid
from repro.view.sql import CatalogQuery, parse_statement

H = 20
GRID = OmegaGrid(delta=0.5, n=4)


def _fill_catalog(root, series_count=5, length=90, seed=0) -> Catalog:
    catalog = Catalog(root)
    rng = np.random.default_rng(seed)
    for index in range(series_count):
        series_id = f"sensor-{index:02d}"
        catalog.create_series(
            series_id, metric="variable_threshold", H=H, grid=GRID
        )
        values = 20.0 + index * 0.5 + np.cumsum(
            rng.normal(0.0, 0.15, size=length)
        )
        catalog.append(series_id, values)
    return catalog


@pytest.fixture
def catalog(tmp_path) -> Catalog:
    return _fill_catalog(tmp_path / "catalog")


def _sql(catalog: Catalog, body: str) -> str:
    return f"SELECT {body} FROM CATALOG '{catalog.root}'"


def _one_shot_reference(view, series_id):
    """Each kernel's answer and score from the public one-shot API."""
    times = view.times

    def by_time(values):
        return max(values.values(), default=0.0)

    hits = threshold_query(view, 0.4)
    expected = expected_value_query(view)
    exceedance = exceedance_probability(view, 21.0)
    above = expected_time_above(view, 21.0, 5)
    sustained = sustained_exceedance_probability(view, 21.0, 5)
    windowed = windowed_expected_value(view, 5)
    in_range = {
        t: conjunctive_range_query(view, {t: (20.5, 22.0)}) for t in times
    }
    rng = np.random.default_rng(derive_series_seed(7, series_id))
    sampler = WorldSampler(view)
    worlds = [
        [[t, world.values[t]] for t in times]
        for world in (sampler.sample(rng) for _ in range(3))
    ]
    return {
        "threshold(0.4)": (hits, float(len(hits))),
        "expected_value": (
            expected,
            sum(expected.values()) / len(expected),
        ),
        "exceedance(21.0)": (exceedance, by_time(exceedance)),
        "time_above(21.0, 5)": (above, by_time(above)),
        "sustained_exceedance(21, 5)": (sustained, by_time(sustained)),
        "windowed_expected_value(5)": (windowed, by_time(windowed)),
        "PROBABILITY OF v BETWEEN 20.5 AND 22.0": (
            in_range,
            by_time(in_range),
        ),
        "SIMULATE 3 SEED 7": (worlds, float(len(times))),
    }


class TestParity:
    """The acceptance criterion: SELECT == the per-series sequential loop."""

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    @pytest.mark.parametrize(
        "where, lo, hi",
        [("", None, None), (" WHERE t BETWEEN 30 AND 60", 30, 60)],
        ids=["unbounded", "between"],
    )
    def test_every_kernel_matches_the_one_shot_queries(
        self, catalog, backend, where, lo, hi
    ):
        references = {
            series_id: _one_shot_reference(
                restrict_time_range(catalog.view(series_id), lo, hi),
                series_id,
            )
            for series_id in catalog.list_series()
        }
        with CatalogQueryService(
            catalog, backend=backend, max_workers=2
        ) as service:
            for body in next(iter(references.values())):
                statement = (
                    f"{body} FROM CATALOG '{catalog.root}'{where}"
                    if body.startswith("SIMULATE")
                    else _sql(catalog, body) + where
                )
                result = service.execute(statement)
                assert result.matched == tuple(catalog.list_series())
                for entry in result.results:
                    expected, score = references[entry.series_id][body]
                    assert entry.result == expected, (body, entry.series_id)
                    assert entry.score == score, (body, entry.series_id)
                    assert entry.size == len(expected)

    def test_json_never_builds_the_legacy_objects(self, catalog):
        # The hot path (server, result.json()) renders rows straight
        # from the arrays; entry.result is built only on request.
        with CatalogQueryService(catalog, max_workers=2) as service:
            for statement in (
                _sql(catalog, "threshold(0.4)"),
                _sql(catalog, "expected_value, exceedance(21.0)"),
                f"SIMULATE 2 SEED 7 FROM CATALOG '{catalog.root}'",
            ):
                result = service.execute(statement)
                rendered = result.json()
                items = getattr(result, "items", (result,))
                entries = [entry for item in items for entry in item.results]
                assert entries
                assert all(entry._result is None for entry in entries)
                assert entries[0].result is entries[0].result
                assert result.json() == rendered

    def test_parallel_equals_sequential(self, catalog):
        statement = _sql(catalog, "exceedance(20.5)") + " TOP 3"
        sequential = CatalogQueryService(catalog).execute(statement)
        with CatalogQueryService(
            catalog, backend="process", max_workers=2
        ) as service:
            parallel = service.execute(statement)
        assert sequential.results == parallel.results
        assert sequential.matched == parallel.matched

    def test_sequential_and_parallel_agree(self, catalog_root):
        statements = [
            f"SELECT exceedance(20.5) FROM CATALOG '{catalog_root}'",
            f"SELECT expected_value FROM CATALOG '{catalog_root}' "
            "SERIES 'sensor-[0-2]'",
            f"SELECT threshold(0.2) FROM CATALOG '{catalog_root}' TOP 2",
        ]
        with CatalogQueryService(catalog_root) as seq:
            sequential = [seq.execute(text) for text in statements]
        with CatalogQueryService(
            catalog_root, backend="process", max_workers=2
        ) as par:
            parallel = [par.execute(text) for text in statements]
        for left, right in zip(sequential, parallel):
            assert [(e.series_id, e.score) for e in left.results] == [
                (e.series_id, e.score) for e in right.results
            ]


class TestSelection:
    def test_series_glob_selects_subset(self, catalog):
        catalog.create_series(
            "other", metric="variable_threshold", H=H, grid=GRID
        )
        result = Database().execute(
            _sql(catalog, "expected_value") + " SERIES 'sensor-*'"
        )
        assert result.matched == tuple(
            s for s in catalog.list_series() if s.startswith("sensor-")
        )

    def test_top_k_ranks_by_score_descending(self, catalog):
        result = Database().execute(
            _sql(catalog, "exceedance(21.0)") + " TOP 2"
        )
        assert len(result.results) == 2
        scores = [entry.score for entry in result.results]
        assert scores == sorted(scores, reverse=True)
        # The dropped series all score at or below the kept ones.
        full = Database().execute(_sql(catalog, "exceedance(21.0)"))
        assert min(scores) >= sorted(
            (e.score for e in full.results), reverse=True
        )[1]

    def test_results_ordered_by_series_id_without_top(self, catalog):
        result = Database().execute(_sql(catalog, "expected_value"))
        ids = [entry.series_id for entry in result.results]
        assert ids == sorted(ids)

    def test_no_match_raises(self, catalog):
        with pytest.raises(QueryError, match="no series matches"):
            Database().execute(
                _sql(catalog, "expected_value") + " SERIES 'zzz-*'"
            )

    def test_missing_catalog_raises_store_error(self, tmp_path):
        with pytest.raises(StoreError, match="no catalog"):
            Database().execute(
                f"SELECT expected_value FROM CATALOG '{tmp_path / 'nope'}'"
            )


class TestPlannerValidation:
    def test_unknown_aggregate(self, catalog):
        with pytest.raises(QueryError, match="unknown aggregate"):
            Database().execute(_sql(catalog, "median"))

    def test_wrong_arity(self, catalog):
        with pytest.raises(InvalidParameterError, match="takes"):
            Database().execute(_sql(catalog, "exceedance"))
        with pytest.raises(InvalidParameterError, match="takes"):
            Database().execute(_sql(catalog, "expected_value(3)"))

    def test_approx_rejects_the_windowed_aggregates_it_cannot_bound(
        self, catalog
    ):
        for body in ("sustained_exceedance(21, 5)", "windowed_expected_value(5)"):
            with pytest.raises(QueryError, match="APPROX does not support"):
                Database().execute(_sql(catalog, f"APPROX {body}"))

    def test_tau_domain(self, catalog):
        with pytest.raises(InvalidParameterError, match="tau"):
            Database().execute(_sql(catalog, "threshold(1.5)"))

    def test_window_must_be_positive_integer(self, catalog):
        with pytest.raises(InvalidParameterError, match="window"):
            Database().execute(_sql(catalog, "time_above(21.0, 2.5)"))
        with pytest.raises(InvalidParameterError, match="window"):
            Database().execute(_sql(catalog, "time_above(21.0, 0)"))

    def test_empty_time_range_rejected_at_parse_time(self, catalog):
        # The parser now refuses inverted WHERE bounds outright ...
        with pytest.raises(ParseError, match="empty time range"):
            Database().execute(
                _sql(catalog, "expected_value") + " WHERE t BETWEEN 50 AND 10"
            )

    def test_empty_time_range_rejected_for_built_queries(self, catalog):
        # ... and the planner still guards programmatically built queries
        # that never went through the parser.
        query = parse_statement(_sql(catalog, "expected_value"))
        inverted = dataclasses.replace(query, time_lo=50.0, time_hi=10.0)
        with CatalogQueryService(catalog) as service:
            with pytest.raises(
                InvalidParameterError, match="empty time range"
            ):
                service.execute(inverted)

    def test_empty_select_list_rejected_for_built_queries(self, catalog):
        # The grammar cannot write one; a built query can.  It is a
        # QueryError like every other statement the planner refuses,
        # not an IndexError out of the executor.
        empty = CatalogQuery(items=(), catalog_path=str(catalog.root))
        with CatalogQueryService(catalog) as service:
            with pytest.raises(QueryError, match="at least one"):
                service.execute(empty)

    def test_per_series_failure_names_the_series(self, catalog):
        # A window longer than any series' stored times fails inside the
        # aggregate; the error must say which series broke.
        with pytest.raises(QueryError, match="sensor-00"):
            Database().execute(_sql(catalog, "time_above(21.0, 5000)"))

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_corrupt_segment_failure_names_the_series(
        self, catalog, backend, concurrent_callers
    ):
        # Load failures count too: truncate one series' segment and the
        # error must still say which of the five broke, to every one of
        # several callers sharing the service.
        segment = next((catalog.root / "sensor-02").glob("seg-*.seg"))
        intact = segment.read_bytes()
        statement = _sql(catalog, "expected_value")
        with CatalogQueryService(
            catalog, backend=backend, max_workers=2
        ) as service:
            segment.write_bytes(intact[: len(intact) // 2])
            for outcome in concurrent_callers(
                lambda _index: service.execute(statement), callers=4
            ):
                assert isinstance(outcome, QueryError), outcome
                assert "sensor-02" in str(outcome)
            # One bad series must not poison its chunk-mates or the
            # service: with the file restored the statement answers.
            segment.write_bytes(intact)
            result = service.execute(statement)
        for entry in result.results:
            assert entry.result == expected_value_query(
                catalog.view(entry.series_id)
            )


class _Views:
    """A stand-in matrix cache holding already-built views by series id."""

    def __init__(self, views):
        self._views = views

    def get(self, key, load):
        return self._views[key[0]]


class TestComputeChunk:
    """Every series of a chunk runs its own kernel, whatever its mates run."""

    # (kernel, arguments, time_lo, time_hi): every kind in KERNELS, a
    # bounded view, a view the WHERE range empties, and one series whose
    # window check fails (its view holds 70 times, not 5000).
    CASES = [
        ("threshold", (0.4,), None, None),
        ("expected_value", (), None, None),
        ("exceedance", (21.0,), 30.0, 60.0),
        ("time_above", (21.0, 5), None, None),
        ("time_above", (21.0, 5000), None, None),
        ("probability_of", (20.5, 22.0), None, None),
        ("sustained_exceedance", (21.0, 5), 30.0, 60.0),
        ("windowed_expected_value", (5,), None, None),
        ("expected_value", (), 1000.0, 2000.0),
        ("simulate", (3, 7), None, None),
    ]
    FAILING = 4
    EMPTIED = 8

    def test_mixed_chunk_equals_solo_runs_and_one_shots(self, catalog):
        assert {case[0] for case in self.CASES} == set(KERNELS)
        views = {
            series_id: catalog.view(series_id)
            for series_id in catalog.list_series()
        }
        ids = sorted(views)
        chunk = [
            TaskEnvelope(
                series_id=ids[index % len(ids)],
                directory="",
                segments=(),
                cache_key=(ids[index % len(ids)], "", (), (), ()),
                aggregate=name,
                arguments=KERNELS[name].bind(arguments),
                time_lo=lo,
                time_hi=hi,
            )
            for index, (name, arguments, lo, hi) in enumerate(self.CASES)
        ]
        cache = _Views(views)
        results = compute_chunk(chunk, cache)
        assert [entry.series_id for entry in results] == [
            envelope.series_id for envelope in chunk
        ]
        for index, (envelope, entry) in enumerate(zip(chunk, results)):
            (solo,) = compute_chunk([envelope], cache)
            if index == self.FAILING:
                assert entry.kind == "error"
                assert repr(envelope.series_id) in entry.error
                assert "window=5000" in entry.error
                assert solo.error == entry.error
                continue
            spec = KERNELS[envelope.aggregate]
            assert entry.kind == spec.kind, envelope
            assert entry.error is None, envelope
            assert entry == solo, envelope
            assert (entry.size == 0) == (index == self.EMPTIED), envelope
            if envelope.aggregate in AGGREGATES:
                view = restrict_time_range(
                    views[envelope.series_id], envelope.time_lo, envelope.time_hi
                )
                one_shot = spec.one_shot(view, *envelope.arguments)
                assert entry.result == one_shot, envelope

    def test_error_entry_has_no_result_and_compares_its_error(self, catalog):
        series_id = catalog.list_series()[0]
        envelope = TaskEnvelope(
            series_id=series_id,
            directory="",
            segments=(),
            cache_key=(series_id, "", (), (), ()),
            aggregate="time_above",
            arguments=(21.0, 5000.0),
            time_lo=None,
            time_hi=None,
        )
        cache = _Views({series_id: catalog.view(series_id)})
        (entry,) = compute_chunk([envelope], cache)
        assert entry.kind == "error"
        assert entry.result is None
        assert entry.size == 0
        assert entry == dataclasses.replace(entry)
        assert entry != dataclasses.replace(entry, error="another failure")
        empty = ProbabilisticView.from_columns(series_id, *[np.empty(0)] * 4)
        answer, _ = KERNELS["time_above"].evaluate(
            empty, (21.0, 5000.0), whole=True
        )
        assert entry != answer


class TestServiceWiring:
    def test_statement_must_address_bound_catalog(self, catalog, tmp_path):
        other = Catalog(tmp_path / "other")
        other.create_series(
            "x", metric="variable_threshold", H=H, grid=GRID
        )
        service = CatalogQueryService(catalog)
        with pytest.raises(QueryError, match="bound to"):
            service.execute(
                f"SELECT expected_value FROM CATALOG '{other.root}'"
            )

    def test_foreign_catalog_rejected(self, catalog_root, tmp_path):
        with CatalogQueryService(catalog_root) as service:
            with pytest.raises(QueryError, match="bound to"):
                service.execute(
                    f"SELECT expected_value FROM CATALOG '{tmp_path}'"
                )

    def test_other_spellings_of_the_root_bind(self, catalog, tmp_path, monkeypatch):
        link = tmp_path / "link"
        link.symlink_to(catalog.root, target_is_directory=True)
        monkeypatch.chdir(catalog.root.parent)
        service = CatalogQueryService(catalog)
        expected = service.execute(_sql(catalog, "expected_value")).json()
        for spelling in (f"{catalog.root}/", f"./{catalog.root.name}", str(link)):
            statement = f"SELECT expected_value FROM CATALOG '{spelling}'"
            assert service.accepts(parse_statement(statement)), spelling
            assert service.execute(statement).json() == expected, spelling

    def test_other_catalogs_stay_refused(self, catalog, tmp_path, monkeypatch):
        other = tmp_path / "elsewhere"
        other.mkdir()
        monkeypatch.chdir(other)
        service = CatalogQueryService(catalog)
        for spelling in (
            str(other),
            f"{catalog.root}-x",
            f"{catalog.root}/..",
            catalog.root.name,  # Relative: names elsewhere/catalog here.
        ):
            statement = f"SELECT expected_value FROM CATALOG '{spelling}'"
            assert not service.accepts(parse_statement(statement)), spelling
            with pytest.raises(QueryError, match="bound to"):
                service.execute(statement)

    def test_create_statement_rejected(self, catalog):
        service = CatalogQueryService(catalog)
        with pytest.raises(QueryError, match="SELECT"):
            service.execute(
                "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM x"
            )

    def test_max_workers_validated(self, catalog):
        with pytest.raises(InvalidParameterError, match="max_workers"):
            CatalogQueryService(catalog, max_workers=0)

    def test_engine_dispatches_select(self, catalog):
        result = Database().execute(_sql(catalog, "exceedance(21.0)"))
        assert isinstance(result, StatementResult)
        assert len(result.results) == 5

    def test_plan_describes_itself(self, catalog):
        plan = plan_statement(
            catalog, parse_statement(_sql(catalog, "exceedance(21.0)"))
        )
        description = plan.describe()
        assert "exceedance(21)" in description and "5 series" in description

    def test_plan_describes_each_item_own_pruning(self, catalog):
        # threshold prunes on probability, expected_value on time alone:
        # the statement's line reports each item's own counts, not the
        # first item's as if they were everyone's.
        body = "threshold(1.0), expected_value"
        plan = plan_statement(catalog, parse_statement(_sql(catalog, body)))
        strict, plain = (item.stats for item in plan.items)
        assert strict.segments_pruned > 0 and plain.segments_pruned == 0
        assert plan.describe() == (
            f"threshold(1) ({strict.segments_pruned} segments pruned, "
            f"{strict.series_skipped} series skipped), "
            f"expected_value (0 segments pruned, 0 series skipped) "
            f"over 5 series of {catalog.root}"
        )
        swapped = plan_statement(
            catalog,
            parse_statement(_sql(catalog, "expected_value, threshold(1.0)")),
        )
        assert swapped.describe().startswith(
            "expected_value (0 segments pruned, 0 series skipped), "
            f"threshold(1) ({strict.segments_pruned} segments pruned"
        )


class TestMatrixCache:
    def test_warm_query_skips_reloads(self, catalog):
        service = CatalogQueryService(catalog, max_workers=2)
        statement = _sql(catalog, "expected_value")
        service.execute(statement)
        cold = service.cache.stats
        assert cold.misses == 5 and cold.hits == 0
        service.execute(statement)
        warm = service.cache.stats
        assert warm.misses == 5 and warm.hits == 5

    def test_append_invalidates_generation(self, catalog):
        service = CatalogQueryService(catalog, max_workers=1)
        statement = _sql(catalog, "expected_value")
        before = service.execute(statement)
        catalog.append("sensor-00", 21.0 + 0.01 * np.arange(10))
        after = service.execute(statement)
        stats = service.cache.stats
        # Exactly one series was re-materialised...
        assert stats.misses == 6 and stats.hits == 4
        assert len(service.cache) == 5  # ...and its stale entry dropped.
        ev_before = before.results[0].result
        ev_after = after.results[0].result
        assert len(ev_after) == len(ev_before) + 10
        assert all(ev_after[t] == v for t, v in ev_before.items())

    def test_budget_evicts_lru(self, catalog):
        views = {
            series_id: catalog.view(series_id)
            for series_id in catalog.list_series()
        }
        one_view = view_nbytes(next(iter(views.values())))
        service = CatalogQueryService(
            catalog, max_workers=1, cache_budget_bytes=int(one_view * 2.5)
        )
        service.execute(_sql(catalog, "expected_value"))
        stats = service.cache.stats
        assert stats.entries == 2
        assert stats.evictions == 3
        assert stats.current_bytes <= service.cache.budget_bytes

    def test_oversize_entry_not_cached(self, catalog):
        service = CatalogQueryService(
            catalog, max_workers=1, cache_budget_bytes=128
        )
        result = service.execute(_sql(catalog, "expected_value"))
        assert len(result.results) == 5  # Still answered, just uncached.
        stats = service.cache.stats
        assert stats.entries == 0
        assert stats.oversize_skips == 5

    def test_clear_resets_bytes(self, catalog):
        service = CatalogQueryService(catalog, max_workers=1)
        service.execute(_sql(catalog, "expected_value"))
        service.cache.clear()
        stats = service.cache.stats
        assert stats.entries == 0 and stats.current_bytes == 0

    def test_budget_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            MatrixCache(0)

    def test_replies_share_the_budget_and_lru_with_views(self, catalog):
        view = catalog.view("sensor-00")
        size = view_nbytes(view)
        cache = MatrixCache(int(size * 2.5))
        cache.get(("/c", "a", (1,), (), ()), lambda: view)
        cache.put_reply("stmt-1", ("s",), "reply-1", size)
        assert cache.reply("stmt-1", ("s",)) == "reply-1"
        assert cache.reply("stmt-1", ("other",)) is None
        # A third entry evicts the least recently used one: the view.
        cache.put_reply("stmt-2", ("s",), "reply-2", size)
        stats = cache.stats
        assert (stats.entries, stats.current_bytes) == (0, 0)
        assert (stats.reply_entries, stats.reply_bytes) == (2, 2 * size)
        assert stats.evictions == 1
        # Reply lookups are counted apart from the matrix hits/misses.
        assert (stats.hits, stats.misses) == (0, 1)
        assert (stats.reply_hits, stats.reply_misses) == (1, 1)

    def test_reply_for_a_new_state_drops_the_old_one(self):
        cache = MatrixCache(1 << 20)
        cache.put_reply("stmt", ("gen-1",), "old", 100)
        cache.put_reply("other", ("gen-1",), "kept", 100)
        cache.put_reply("stmt", ("gen-2",), "new", 100)
        assert cache.reply("stmt", ("gen-1",)) is None
        assert cache.reply("stmt", ("gen-2",)) == "new"
        assert cache.reply("other", ("gen-1",)) == "kept"
        assert cache.stats.replies() == {
            "hits": 2, "misses": 1, "entries": 2, "bytes": 200,
        }

    def test_oversize_reply_not_cached(self):
        cache = MatrixCache(128)
        cache.put_reply("stmt", (), "huge", 129)
        assert cache.reply("stmt", ()) is None
        assert cache.stats.oversize_skips == 1
        cache.clear()
        assert cache.stats.replies()["entries"] == 0

    @staticmethod
    def _scan(cache, view, names):
        """Look ``names`` up once each, in order: (hits, misses, evictions)."""
        before = cache.stats
        for name in names:
            cache.get(("/c", name, (1,), (), ()), lambda: view)
        after = cache.stats
        return (
            after.hits - before.hits,
            after.misses - before.misses,
            after.evictions - before.evictions,
        )

    def test_repeated_over_budget_scan_keeps_k_minus_one(self, catalog):
        # A cyclic scan of 2k keys through room for k.  Plain LRU evicts
        # every key just before its next use, so each pass scores 0 hits;
        # admitting under pressure at the cold end keeps k - 1 entries
        # resident and recycles the one cold slot.
        view = catalog.view("sensor-00")
        k = 8
        cache = MatrixCache(view_nbytes(view) * k)
        names = [f"s{i}" for i in range(2 * k)]
        passes = [self._scan(cache, view, names) for _ in range(9)]
        assert passes[0] == (0, 2 * k, k)
        # Pressured admissions number k in the first pass and k + 1 in
        # each later one.  The 32nd (pass 3) and the 64th (pass 7) go to
        # the hot end and displace one resident entry; pass 7's was still
        # to be read in that pass, so it scores one hit fewer.
        hits = [hit for hit, _, _ in passes[1:]]
        assert hits == [k - 1] * 6 + [k - 2] + [k - 1]
        for hit, misses, evictions in passes[1:]:
            assert misses == evictions == 2 * k - hit

    def test_new_working_set_becomes_resident(self, catalog):
        view = catalog.view("sensor-00")
        k = 8
        cache = MatrixCache(view_nbytes(view) * k)
        scan = [f"s{i}" for i in range(2 * k)]
        for _ in range(3):
            self._scan(cache, view, scan)
        # The scan's resident entries are never read again.  The counter
        # stands at 26 pressured admissions when the set changes; each
        # 32nd one (32nd..192nd: six) lets one new key in for good, and
        # the seventh then survives in the cold slot until it is reread.
        fresh = [f"n{i}" for i in range(k - 1)]
        pressured = 0
        for _ in range(32 * k):
            hits, misses, _ = self._scan(cache, view, fresh)
            if not misses:
                break
            pressured += misses  # The cache is full: each miss evicts.
        assert hits == len(fresh)
        assert pressured == 167 <= 32 * k
        assert self._scan(cache, view, fresh + scan[:1]) == (k - 1, 1, 1)

    def test_under_budget_order_and_counts_are_plain_lru(self, catalog):
        view = catalog.view("sensor-00")
        cache = MatrixCache(view_nbytes(view) * 6)
        reference: dict = {}
        hits = misses = 0
        rng = np.random.default_rng(3)
        for index in rng.integers(0, 6, size=200):
            key = ("/c", f"s{index}", (1,), (), ())
            if key in reference:
                hits += 1
                reference[key] = reference.pop(key)
            else:
                misses += 1
                reference[key] = None
            cache.get(key, lambda: view)
            assert list(cache._entries) == list(reference)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (hits, misses, 0)

    def test_reply_admitted_under_pressure_follows_the_same_rule(
        self, catalog
    ):
        view = catalog.view("sensor-00")
        size = view_nbytes(view)
        cache = MatrixCache(size * 3)
        self._scan(cache, view, ["a", "b", "c"])
        # Pressured admission 1: room is made from the cold end ("a"),
        # then the reply goes in at the cold end...
        cache.put_reply("stmt", ("s",), "body", size)
        assert [key[1] for key in cache._entries] == ["stmt", "b", "c"]
        # ...so the next pressured admission (2) evicts it first.
        self._scan(cache, view, ["d"])
        assert cache.reply("stmt", ("s",)) is None
        assert [key[1] for key in cache._entries] == ["d", "b", "c"]
        # Admissions 3..31 recycle the cold slot; the 32nd is a reply
        # and goes in at the hot end, which leaves "b" coldest.
        self._scan(cache, view, [f"x{i}" for i in range(29)])
        cache.put_reply("stmt", ("s",), "body", size)
        assert [key[1] for key in cache._entries] == ["b", "c", "stmt"]
        assert cache.stats.evictions == 32

    def test_over_budget_statement_rereads_fewer_segments(self, catalog):
        # The budget holds two of the five series' views, so one
        # catalog-wide statement never fits.  Plain LRU reread all five
        # segments on every run; now one view stays resident.
        size = max(view_nbytes(catalog.view(s)) for s in catalog.list_series())
        statement = _sql(catalog, "expected_value")
        with CatalogQueryService(catalog, max_workers=1) as unbounded:
            expected = unbounded.execute(statement).json()
        reads = default_registry().counter("repro_store_segment_reads_total")
        deltas = []
        with CatalogQueryService(
            catalog, max_workers=1, cache_budget_bytes=int(size * 2.5)
        ) as service:
            for _ in range(3):
                before = reads.total()
                assert service.execute(statement).json() == expected
                deltas.append(reads.total() - before)
        assert deltas == [5, 4, 4]

    def test_concurrent_views_and_replies_lose_no_update(self, catalog):
        # Eight threads (more than cores) race lookups and inserts of both
        # kinds through one small budget with a shortened switch interval;
        # a lost update would leave the byte or entry totals unequal to
        # what is resident, or drop a lookup from the counters.
        view = catalog.view("sensor-00")
        size = view_nbytes(view)
        cache = MatrixCache(size * 6)
        rounds = 300

        def hammer(worker):
            for step in range(rounds):
                statement = f"stmt-{(worker + step) % 5}"
                if cache.reply(statement, (step % 3,)) is None:
                    cache.put_reply(statement, (step % 3,), "body", size // 3)
                cache.get(
                    ("/c", f"s{(worker * step) % 7}", (step % 2,), (), ()),
                    lambda: view,
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(worker,))
                for worker in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats
        assert stats.reply_hits + stats.reply_misses == 8 * rounds
        assert stats.hits + stats.misses == 8 * rounds
        resident = list(cache._entries.items())
        replies = [nbytes for key, (_, nbytes) in resident if key[0] == ("reply",)]
        views = [nbytes for key, (_, nbytes) in resident if key[0] != ("reply",)]
        assert (stats.reply_entries, stats.reply_bytes) == (
            len(replies), sum(replies)
        )
        assert (stats.entries, stats.current_bytes) == (len(views), sum(views))
        assert stats.current_bytes + stats.reply_bytes <= cache.budget_bytes

    def test_service_reply_renders_once_per_state(self, catalog):
        service = CatalogQueryService(catalog, max_workers=1)
        statement = parse_statement(_sql(catalog, "expected_value"))
        first = service.reply(statement, trace=QueryTrace())
        matrix = service.cache.stats
        trace = QueryTrace()
        second = service.reply(statement, trace=trace)
        assert second is first
        assert first.body == service.execute(statement).json().encode()
        names = [span.name for span in trace.stages]
        assert "cached_reply" in names and "fan_out" not in names
        assert service.cache.stats.hits == matrix.hits + 5  # execute only.
        catalog.append("sensor-01", 21.0 + 0.01 * np.arange(5))
        third = service.reply(statement, trace=QueryTrace())
        assert third.body == service.execute(statement).json().encode()
        assert third.body != first.body
        assert service.cache.stats.replies()["entries"] == 1

    def test_drop_and_recreate_never_serves_stale_data(self, catalog):
        # A recreated series restarts segment numbering, so segment names
        # repeat across incarnations; the per-creation nonce in the
        # generation token must keep the old entry unreachable.
        service = CatalogQueryService(catalog, max_workers=1)
        statement = _sql(catalog, "expected_value") + " SERIES 'sensor-00'"
        before = service.execute(statement).results[0]
        catalog.drop_series("sensor-00")
        catalog.create_series(
            "sensor-00", metric="variable_threshold", H=H, grid=GRID
        )
        catalog.append("sensor-00", 40.0 + 0.01 * np.arange(90))
        after = service.execute(statement).results[0]
        assert after.score > before.score + 15  # ~20 vs ~40: fresh data.
        assert after.result == expected_value_query(
            catalog.view("sensor-00")
        )


class TestRestrictTimeRange:
    def test_unbounded_returns_same_object(self, catalog):
        view = catalog.view("sensor-00")
        assert restrict_time_range(view, None, None) is view

    def test_covering_bounds_return_same_object(self, catalog):
        view = catalog.view("sensor-00")
        assert restrict_time_range(view, -1e9, 1e9) is view

    def test_slice_preserves_labels_and_mass(self, catalog):
        view = catalog.view("sensor-00")
        sliced = restrict_time_range(view, 25, 40)
        assert sliced.times == [t for t in view.times if 25 <= t <= 40]
        for t in sliced.times:
            assert sliced.tuples_at(t) == view.tuples_at(t)

    def test_empty_slice_is_empty_view(self, catalog):
        view = catalog.view("sensor-00")
        assert len(restrict_time_range(view, 1e6, 2e6)) == 0


class TestSnapshots:
    def test_snapshot_matches_handle_view(self, catalog):
        snapshot = catalog.snapshot("sensor-01")
        via_snapshot = snapshot.load_view()
        via_handle = catalog.view("sensor-01")
        cols_a, cols_b = via_snapshot.columns, via_handle.columns
        for a, b in zip(cols_a[:5], cols_b[:5]):
            np.testing.assert_array_equal(a, b)
        assert cols_a.labels == cols_b.labels

    def test_open_many_sorted(self, catalog):
        snapshots = catalog.open_many("sensor-*")
        assert [s.series_id for s in snapshots] == catalog.list_series()

    def test_snapshot_unknown_series(self, catalog):
        with pytest.raises(QueryError, match="unknown series"):
            catalog.snapshot("ghost")

    def test_generation_changes_on_append(self, catalog):
        before = catalog.snapshot("sensor-00").generation
        catalog.append("sensor-00", 21.0 + 0.01 * np.arange(5))
        after = catalog.snapshot("sensor-00").generation
        assert before != after

    def test_select_series_glob(self, catalog):
        assert catalog.select_series("sensor-0[01]") == [
            "sensor-00", "sensor-01",
        ]
        assert catalog.select_series("nope*") == []


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
        plan = plan_statement(service.catalog, parse_statement(statement))
        service.close()
        service.close()  # Idempotent.
        # Refused before parse and plan: statements that would fail to
        # plan still get the closed-service error.
        calls = [
            lambda: service.execute(statement),
            lambda: service.execute(statement + " SERIES 'nope*'"),
            lambda: service.execute(
                f"SELECT bogus(1) FROM CATALOG '{catalog_root}'"
            ),
            lambda: service.execute_plan(plan),
            lambda: service.reply(statement, trace=QueryTrace()),
        ]
        for call in calls:
            with pytest.raises(QueryError, match="service closed"):
                call()

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
