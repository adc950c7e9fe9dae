"""Tests for the observability stack (`repro.obs`).

Pins the PR's acceptance criteria:

* the registry is **exact under concurrency** — N threads hammering one
  counter/histogram lose no updates (and the server's request counters,
  rebuilt on a single lock, stay internally consistent);
* a traced query's contiguous top-level stage spans **sum to within 10%
  of its wall time** on both backends (sequential, process);
* ``{"op": "metrics"}`` serves **parseable Prometheus text** with a
  latency histogram per aggregate kind.
"""

from __future__ import annotations

import json
import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_SLOW_QUERY_MS,
    MAX_SERIES_SPANS,
    MetricsRegistry,
    QueryTrace,
    SlowQueryLog,
    default_registry,
)
from repro.db.engine import Database
from repro.exceptions import InvalidParameterError
from repro.obs.slowlog import CAPACITY
from repro.server import Client, QueryServer, ServerThread
from repro.server.app import ServerStats
from repro.service import CatalogQueryService, plan_statement
from repro.store import Catalog
from repro.util.jsonio import canonical_dumps
from repro.view.omega import OmegaGrid
from repro.view.sql import parse_statement, render_statement

H = 20
GRID = OmegaGrid(delta=0.5, n=4)


def _fill_catalog(root, series_count=6, length=120, seed=3) -> Catalog:
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


@pytest.fixture(scope="module")
def catalog(tmp_path_factory) -> Catalog:
    return _fill_catalog(tmp_path_factory.mktemp("obs-catalog") / "cat")


def _sql(catalog: Catalog, body: str = "exceedance(21.0)") -> str:
    return f"SELECT {body} FROM CATALOG '{catalog.root}'"


# ---------------------------------------------------------------------------
# Registry primitives.
# ---------------------------------------------------------------------------
class TestRegistryPrimitives:
    def test_counter_inc_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "help text")
        counter.inc()
        counter.inc(2.5)
        counter.inc(outcome="hit")
        assert counter.value() == 3.5
        assert counter.value(outcome="hit") == 1.0
        assert counter.total() == 4.5

    def test_counter_cannot_decrease(self):
        counter = MetricsRegistry().counter("t_total")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("t_bytes")
        gauge.set(100.0)
        gauge.inc(-25.0)
        assert gauge.value() == 75.0

    def test_histogram_quantiles_bracket_observations(self):
        histogram = MetricsRegistry().histogram("t_seconds")
        for _ in range(100):
            histogram.observe(0.05)
        assert histogram.count() == 100
        p50 = histogram.quantile(0.5)
        # Linear interpolation inside the (0.025, 0.05] bucket.
        assert 0.025 <= p50 <= 0.05

    def test_histogram_empty_quantile_is_nan(self):
        histogram = MetricsRegistry().histogram("t_seconds")
        assert math.isnan(histogram.quantile(0.5))

    @pytest.mark.parametrize(
        "kind, write, value",
        [
            ("counter", "inc", math.nan),
            ("counter", "inc", math.inf),
            ("gauge", "set", math.nan),
            ("gauge", "inc", -math.inf),
            ("histogram", "observe", math.nan),
            ("histogram", "observe", math.inf),
        ],
    )
    def test_non_finite_writes_raise_and_leave_the_registry_renderable(
        self, kind, write, value
    ):
        # One stored NaN/inf used to break every later scrape: the
        # exposition raised converting it to int, and canonical JSON
        # refused the snapshot.
        registry = MetricsRegistry()
        metric = getattr(registry, kind)("t_metric")
        getattr(metric, write)(0.5, op="ok")
        with pytest.raises(ValueError, match="non-finite"):
            getattr(metric, write)(value, op="bad")
        samples = _parse_exposition(registry.exposition())
        assert all(math.isfinite(sample) for sample in samples.values())
        assert "bad" not in registry.exposition()
        snapshot = json.loads(canonical_dumps(registry.snapshot()))
        assert list(snapshot["t_metric"]["values"]) == ['{op="ok"}']

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("t_total") is registry.counter("t_total")

    def test_type_morph_raises(self):
        registry = MetricsRegistry()
        registry.counter("t_total")
        with pytest.raises(ValueError):
            registry.gauge("t_total")
        with pytest.raises(ValueError):
            registry.histogram("t_total")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok_total").inc(**{"le": "x", "0bad": "y"})

    def test_collectors_run_before_scrape_and_unregister(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("t_entries")
        calls = []

        def collect():
            calls.append(1)
            gauge.set(float(len(calls)))

        registry.register_collector(collect)
        assert registry.snapshot()["t_entries"]["values"][""] == 1.0
        registry.unregister_collector(collect)
        registry.unregister_collector(collect)  # absent: no-op
        registry.snapshot()
        assert len(calls) == 1

    def test_default_registry_is_shared(self):
        assert default_registry() is default_registry()


# ---------------------------------------------------------------------------
# Exactness under concurrency (satellite: concurrent update coverage).
# ---------------------------------------------------------------------------
class TestConcurrency:
    THREADS = 8
    PER_THREAD = 2000

    def _hammer(self, work) -> None:
        threads = [
            threading.Thread(target=work, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_loses_no_increments(self):
        counter = MetricsRegistry().counter("t_total")

        def work(index):
            label = f"worker-{index % 2}"
            for _ in range(self.PER_THREAD):
                counter.inc(worker=label)

        self._hammer(work)
        assert counter.total() == self.THREADS * self.PER_THREAD
        assert counter.value(worker="worker-0") == (
            self.THREADS // 2 * self.PER_THREAD
        )

    def test_histogram_loses_no_observations(self):
        histogram = MetricsRegistry().histogram("t_seconds")

        def work(index):
            value = 0.005 * (1 + index % 3)
            for _ in range(self.PER_THREAD):
                histogram.observe(value)

        self._hammer(work)
        expected = self.THREADS * self.PER_THREAD
        assert histogram.total_count() == expected
        # The exposition's +Inf bucket must agree with the count.
        registry = MetricsRegistry()
        assert histogram.count() == expected

    def test_server_stats_single_lock_consistency(self):
        stats = ServerStats()

        def work(_index):
            for _ in range(self.PER_THREAD):
                stats.increment("requests")
                stats.increment("executed")

        self._hammer(work)
        snapshot = stats.as_dict()
        assert snapshot["requests"] == self.THREADS * self.PER_THREAD
        assert snapshot["executed"] == self.THREADS * self.PER_THREAD
        assert stats.requests == snapshot["requests"]

    def test_server_stats_rejects_direct_writes(self):
        stats = ServerStats()
        with pytest.raises(AttributeError):
            stats.requests = 5
        with pytest.raises(AttributeError):
            stats.executed += 1  # the old `+=` idiom must fail loudly


# ---------------------------------------------------------------------------
# Prometheus text exposition.
# ---------------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\+Inf|-Inf|[-+0-9.e]+)$"
)


def _parse_exposition(text: str) -> dict[str, float]:
    """Every sample line as ``name{labels} -> value``; raises on garbage."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match is not None, f"unparseable exposition line: {line!r}"
        name, labels, value = match.groups()
        samples[name + (labels or "")] = (
            math.inf if value == "+Inf" else float(value)
        )
    return samples


GOLDEN = Path(__file__).with_name("golden")


def _pinned_registry() -> MetricsRegistry:
    """One registry built from a fixed script of every kind of write.

    Its exposition and canonical snapshot are committed as
    ``golden/metrics.prom`` and ``golden/metrics_snapshot.json``.
    """
    registry = MetricsRegistry()
    requests = registry.counter("t_requests_total", "Requests served, by op")
    requests.inc()
    requests.inc(2.5)
    requests.inc(3, op="query")
    requests.inc(op="stats")
    registry.counter("t_idle_total", "Never incremented")
    registry.counter("t_plain_total").inc(4)
    registry.counter("t_statements_total", 'Text with "quotes"').inc(
        statement='say "hi"\nback\\slash'
    )
    gauge = registry.gauge("t_bytes", "Resident bytes")
    gauge.set(1024)
    gauge.inc(-24.5)
    gauge.set(3, pool="b")
    gauge.inc(0.25, pool="a")
    histogram = registry.histogram("t_seconds", "Latency in seconds")
    for value in (0.00005, 0.003, 0.003, 0.0125, 1.5):
        histogram.observe(value)
    for value in (0.07, 0.7, 45.0):
        histogram.observe(value, op="q")
    histogram.observe(100.0, op="s")
    registry.histogram("t_empty_seconds")
    entries = registry.gauge("t_entries", "Set by a collector")
    registry.register_collector(lambda: entries.set(7))
    return registry


class TestExposition:
    def test_counter_gauge_histogram_render(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "a counter").inc(3, kind="x")
        registry.gauge("t_bytes", "a gauge").set(12.0)
        histogram = registry.histogram("t_seconds", "a histogram")
        histogram.observe(0.05, op="q")
        text = registry.exposition()
        samples = _parse_exposition(text)
        assert samples['t_total{kind="x"}'] == 3.0
        assert samples["t_bytes"] == 12.0
        assert samples['t_seconds_bucket{op="q",le="0.025"}'] == 0.0
        assert samples['t_seconds_bucket{op="q",le="0.05"}'] == 1.0
        assert samples['t_seconds_bucket{op="q",le="+Inf"}'] == 1.0
        assert samples['t_seconds_count{op="q"}'] == 1.0
        assert samples['t_seconds_sum{op="q"}'] == pytest.approx(0.05)
        assert "# TYPE t_seconds histogram" in text
        assert "# HELP t_total a counter" in text

    def test_buckets_are_cumulative_and_agree_with_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t_seconds")
        for value in (0.0005, 0.005, 0.005, 0.05, 5.0):
            histogram.observe(value)
        samples = _parse_exposition(registry.exposition())
        buckets = [
            samples[f't_seconds_bucket{{le="{edge}"}}']
            for edge in ("0.001", "0.01", "0.1", "1", "10")
        ]
        assert buckets == sorted(buckets)  # cumulative: non-decreasing
        assert samples['t_seconds_bucket{le="+Inf"}'] == 5.0
        assert samples["t_seconds_count"] == 5.0

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("t_total").inc(statement='say "hi"\nplease')
        text = registry.exposition()
        assert '\\"hi\\"' in text
        assert "\\n" in text

    def test_exposition_and_snapshot_bytes_are_pinned(self):
        # Byte-exact: a changed HELP/TYPE line, line order or number
        # format fails here even where the parsed samples agree.
        registry = _pinned_registry()
        assert registry.exposition() == (GOLDEN / "metrics.prom").read_text()
        assert canonical_dumps(registry.snapshot()) + "\n" == (
            GOLDEN / "metrics_snapshot.json"
        ).read_text()


# ---------------------------------------------------------------------------
# Trace and slow-query log primitives.
# ---------------------------------------------------------------------------
class TestTrace:
    def test_stage_spans_are_relative_to_t0(self):
        trace = QueryTrace("SELECT 1")
        with trace.stage("parse"):
            pass
        with trace.stage("plan"):
            pass
        trace.finish()
        assert [span.name for span in trace.stages] == ["parse", "plan"]
        assert trace.stages[0].start_s <= trace.stages[1].start_s
        assert trace.elapsed() >= sum(
            span.duration_s for span in trace.stages
        )

    def test_finish_is_idempotent(self):
        trace = QueryTrace()
        first = trace.finish()
        assert trace.finish() == first
        assert trace.elapsed() == first

    def test_as_dict_caps_series_spans(self):
        trace = QueryTrace("SELECT 1")
        trace.backend = "sequential"
        for index in range(MAX_SERIES_SPANS + 5):
            trace.add_series(f"s-{index:03d}", index * 1e-4, 1e-5, False)
        trace.finish()
        block = trace.as_dict()
        assert len(block["series"]) == MAX_SERIES_SPANS
        assert block["series_truncated"] == 5
        # The slowest (largest load+compute) entries are the ones kept.
        assert block["series"][0]["series"] == f"s-{MAX_SERIES_SPANS + 4:03d}"
        assert block["backend"] == "sequential"
        assert block["statement"] == "SELECT 1"
        assert block["cache"] == {
            "hits": 0, "misses": MAX_SERIES_SPANS + 5,
        }

    def test_engine_gives_every_result_kind_its_own_finished_trace(
        self, catalog
    ):
        # No trace is shared between statements: each one the engine
        # runs gets a fresh trace, finished and naming its own text.
        from repro.db.table import Table

        database = Database()
        database.register_table(Table(
            "raw", ["t", "r"],
            {"t": list(range(80)),
             "r": [10.0 + (i % 7) for i in range(80)]},
        ))
        statements = [
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
            "WINDOW 40 FROM raw",
            _sql(catalog),
            f"SIMULATE 2 SEED 3 FROM CATALOG '{catalog.root}'",
        ]
        results = [database.execute(sql) for sql in statements]
        assert [result.kind for result in results] == [
            "view", "select", "simulate",
        ]
        traces = [result.trace for result in results]
        assert len({id(trace) for trace in traces}) == len(traces)
        for sql, trace in zip(statements, traces):
            assert isinstance(trace, QueryTrace)
            assert trace._wall_s is not None  # finished by the engine
            assert trace.statement == sql
            assert trace.stages[0].name == "parse"

    def test_engine_records_into_a_caller_trace_without_finishing_it(
        self, catalog
    ):
        database = Database()
        blank = QueryTrace()
        result = database.execute(_sql(catalog), trace=blank)
        assert result.trace is blank
        assert blank.statement == _sql(catalog)
        assert blank._wall_s is None  # the caller owns the wall clock
        assert "parse" in blank.stage_ms()
        # A statement the caller already named is kept as given.
        named = QueryTrace("named by the caller")
        database.execute(_sql(catalog), trace=named)
        assert named.statement == "named by the caller"
        assert named._wall_s is None


class TestSlowQueryLog:
    def _trace(self, statement="SELECT 1") -> QueryTrace:
        trace = QueryTrace(statement)
        with trace.stage("parse"):
            pass
        trace.finish()
        return trace

    def test_threshold_zero_records_everything(self):
        log = SlowQueryLog(threshold_ms=0.0)
        assert log.observe(self._trace())
        entry = log.entries()[0]
        assert entry["statement"] == "SELECT 1"
        assert entry["wall_ms"] >= 0.0
        assert "parse" in entry["stages"]

    def test_threshold_filters_and_counts(self):
        log = SlowQueryLog(threshold_ms=float("inf"))
        assert not log.observe(self._trace())
        assert log.counts() == (1, 0)
        assert log.entries() == []

    def test_ring_evicts_oldest_newest_first(self):
        log = SlowQueryLog(threshold_ms=0.0)
        observed = CAPACITY + 2
        for index in range(observed):
            log.observe(self._trace(f"q-{index}"))
        statements = [entry["statement"] for entry in log.entries()]
        assert len(statements) == len(log) == CAPACITY
        assert statements[0] == f"q-{observed - 1}"
        assert statements[-1] == "q-2"
        assert log.entries(limit=1)[0]["statement"] == f"q-{observed - 1}"
        assert log.counts() == (observed, observed)

    def test_extra_fields_land_in_record(self):
        log = SlowQueryLog(threshold_ms=0.0)
        log.observe(self._trace(), extra={"segments_pruned": 7})
        assert log.entries()[0]["segments_pruned"] == 7

    def test_default_threshold(self):
        assert SlowQueryLog().threshold_ms == DEFAULT_SLOW_QUERY_MS

    @pytest.mark.parametrize("threshold_ms", [math.nan, -1.0])
    def test_nan_or_negative_threshold_raises(self, threshold_ms):
        # A NaN threshold compared false with every wall time, so the
        # log recorded every statement.
        with pytest.raises(InvalidParameterError, match="threshold"):
            SlowQueryLog(threshold_ms=threshold_ms)


# ---------------------------------------------------------------------------
# Service-level tracing: the 10% stage-sum acceptance criterion.
# ---------------------------------------------------------------------------
class TestServiceTracing:
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_stage_sum_within_ten_percent_of_wall(self, catalog, backend):
        with CatalogQueryService(
            catalog, backend=backend, max_workers=2
        ) as service:
            result = service.execute(_sql(catalog))
        trace = result.trace
        assert trace is not None
        block = trace.as_dict()
        stage_sum = sum(span["ms"] for span in block["stages"])
        wall = block["wall_ms"]
        assert wall > 0
        # Contiguous top-level spans: their sum approximates the wall.
        assert stage_sum <= wall * 1.01
        assert stage_sum >= wall * 0.90, (
            f"stages cover only {stage_sum / wall:.1%} of wall on "
            f"{backend}: {block['stages']}"
        )
        names = {span["name"] for span in block["stages"]}
        assert {"parse", "plan", "fan_out", "finalize"} <= names
        assert block["backend"] == backend
        assert block["statement"] == _sql(catalog)

    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_worker_spans_cover_every_series(self, catalog, backend):
        with CatalogQueryService(
            catalog, backend=backend, max_workers=2
        ) as service:
            result = service.execute(_sql(catalog))
        spans = {entry[0]: entry for entry in result.trace.series}
        assert set(spans) == set(result.matched)
        for _series_id, load_s, compute_s, _hit in spans.values():
            assert load_s >= 0.0
            assert compute_s >= 0.0

    def test_warm_query_reports_cache_hits(self, catalog):
        with CatalogQueryService(catalog, backend="sequential") as service:
            service.execute(_sql(catalog))
            result = service.execute(_sql(catalog))
        trace = result.trace
        assert trace.cache_hits == len(result.matched)
        assert trace.cache_misses == 0

    def test_approx_query_traces_compute_stage(self, catalog):
        with CatalogQueryService(catalog, backend="sequential") as service:
            result = service.execute(
                _sql(catalog, "APPROX exceedance(21.0)")
            )
        names = {span["name"] for span in result.trace.as_dict()["stages"]}
        assert "compute" in names
        assert "finalize" in names

    def test_caller_supplied_trace_is_not_finished(self, catalog):
        trace = QueryTrace()
        with CatalogQueryService(catalog, backend="sequential") as service:
            result = service.execute(_sql(catalog), trace=trace)
        assert result.trace is trace
        assert trace._wall_s is None  # caller owns the wall clock
        trace.finish()

    def test_statement_text_reconstruction_round_trips(self, catalog):
        statements = [
            _sql(catalog),
            _sql(catalog, "threshold(0.4)") + " TOP 2",
            _sql(catalog) + " SERIES 'sensor-*' WHERE t BETWEEN 2 AND 9",
            _sql(catalog, "APPROX expected_value") + " WHERE t >= 3",
            _sql(catalog, "expected_value") + " WHERE t <= 7",
        ]
        for statement in statements:
            query = parse_statement(statement)
            assert parse_statement(render_statement(query)) == query


# ---------------------------------------------------------------------------
# Service-level metrics and slow log.
# ---------------------------------------------------------------------------
class TestServiceMetrics:
    def test_query_counters_and_histograms(self, catalog):
        """Every entry point lands once in every ledger: the execution
        counters, the registry's counter and histogram, the slow log."""
        registry = MetricsRegistry()
        sql = _sql(catalog)
        with CatalogQueryService(
            catalog, backend="sequential", registry=registry
        ) as service:
            results = [
                service.execute(sql),
                service.execute(_sql(catalog, "APPROX exceedance(21.0)")),
                Database(service).execute(sql),
                service.execute_plan(
                    plan_statement(service.catalog, parse_statement(sql))
                ),
            ]
            for _ in range(2):  # A reply miss, then a reply hit.
                trace = QueryTrace()
                service.reply(sql, trace=trace)
                trace.finish()
            statements = len(results) + 2
            assert service.cache.stats.reply_hits == 1
            assert service.execution_stats()["queries"] == statements
            assert service.slow_log.counts()[0] == statements
            snapshot = registry.snapshot()
        for result in results:
            assert isinstance(result.trace, QueryTrace)
            assert result.trace._wall_s is not None  # finished
        queries = snapshot["repro_queries_total"]["values"]
        assert sum(queries.values()) == statements
        assert queries['{aggregate="exceedance",mode="exact"}'] == 5.0
        assert queries['{aggregate="exceedance",mode="approx"}'] == 1.0
        latency = snapshot["repro_query_seconds"]["values"]
        assert latency['{aggregate="exceedance"}']["count"] == statements
        # Four exact executions fan out; APPROX and the reply hit do not.
        tasks = snapshot["repro_backend_tasks_total"]["values"]
        assert tasks['{backend="sequential"}'] == float(
            4 * len(catalog.list_series())
        )
        cache = snapshot["repro_cache_misses"]["values"]
        assert cache['{scope="service"}'] == float(
            len(catalog.list_series())
        )

    def test_cache_collector_unregistered_on_close(self, catalog):
        registry = MetricsRegistry()
        service = CatalogQueryService(
            catalog, backend="sequential", registry=registry
        )
        service.execute(_sql(catalog))
        before = registry.snapshot()["repro_cache_misses"]["values"]
        service.close()
        # A scrape after close still renders the last collected values
        # but no longer samples the dead cache.
        after = registry.snapshot()["repro_cache_misses"]["values"]
        assert after == before

    def test_slow_log_records_with_stage_breakdown(self, catalog):
        with CatalogQueryService(
            catalog, backend="sequential", slow_query_ms=0.0
        ) as service:
            service.execute(_sql(catalog))
            entries = service.slow_log.entries()
        assert entries
        entry = entries[0]
        assert entry["statement"] == _sql(catalog)
        assert "fan_out" in entry["stages"]
        assert entry["segments_scanned"] >= 1  # pruning extras merged in

    def test_execution_stats_compat_shim_survives(self, catalog):
        with CatalogQueryService(catalog, backend="sequential") as service:
            service.execute(_sql(catalog))
            stats = service.execution_stats()
        assert stats["queries"] == 1
        assert set(stats) >= {
            "queries", "approx_queries", "segments_scanned",
            "segments_pruned", "series_skipped",
        }

    def test_concurrent_queries_lose_no_counts(
        self, catalog, concurrent_callers
    ):
        """N caller threads × K statements, one default service, cold
        cache: a lone caller's bytes, and every ledger stays exact."""
        callers = 6
        statements = [
            _sql(catalog),
            _sql(catalog, "expected_value"),
            _sql(catalog, "time_above(21.0, 5)"),
            _sql(catalog),
        ]
        lone_registry = MetricsRegistry()
        with CatalogQueryService(catalog, registry=lone_registry) as lone:
            references = [lone.execute(sql).json() for sql in statements]
            lone_entries = len(lone.cache)
        lone_tasks = lone_registry.counter(
            "repro_backend_tasks_total"
        ).value(backend="sequential")
        registry = MetricsRegistry()
        with CatalogQueryService(catalog, registry=registry) as service:
            answers = concurrent_callers(
                lambda _index: [
                    service.execute(sql).json() for sql in statements
                ],
                callers,
            )
            stats = service.execution_stats()
            cache = service.cache.stats
            counter = registry.counter("repro_queries_total")
            histogram = registry.histogram("repro_query_seconds")
            tasks = registry.counter("repro_backend_tasks_total")
            observed, recorded = service.slow_log.counts()
        assert answers == [references] * callers
        executed = callers * len(statements)
        assert stats["queries"] == executed
        assert counter.total() == executed
        assert histogram.total_count() == executed
        assert observed == executed
        # One cache lookup per envelope, none lost; racing cold callers
        # may each load a view, but only one copy stays resident.
        lookups = callers * lone_tasks
        assert tasks.value(backend="sequential") == lookups
        assert cache.hits + cache.misses == lookups
        assert lone_entries <= cache.misses <= callers * lone_entries
        assert cache.entries == lone_entries
        assert cache.evictions == 0

    def test_process_backend_counts_are_exact(self, catalog):
        registry = MetricsRegistry()
        with CatalogQueryService(
            catalog, backend="process", max_workers=2, registry=registry
        ) as service:
            for _ in range(3):
                service.execute(_sql(catalog))
            stats = service.execution_stats()
            tasks = registry.counter("repro_backend_tasks_total")
        assert stats["queries"] == 3
        assert tasks.value(backend="process") == float(
            3 * len(catalog.list_series())
        )


# ---------------------------------------------------------------------------
# Wire surfaces: {"op": "metrics"}, {"op": "slowlog"}, trace over TCP.
# ---------------------------------------------------------------------------
class TestWireSurfaces:
    @pytest.fixture()
    def served(self, catalog):
        server = QueryServer(
            catalog.root, port=0, max_inflight=4, slow_query_ms=0.0
        )
        with ServerThread(server) as (host, port):
            with Client(host, port) as client:
                yield catalog, client

    def test_traced_query_over_wire(self, served):
        catalog, client = served
        result = client.query(_sql(catalog), trace=True)
        trace = result["trace"]
        names = [span["name"] for span in trace["stages"]]
        assert "serialize" in names
        stage_sum = sum(span["ms"] for span in trace["stages"])
        assert stage_sum >= trace["wall_ms"] * 0.90
        assert trace["statement"] == _sql(catalog)
        # The client's decode of the reply is the last stage.
        decode = trace["stages"][-1]
        assert decode["name"] == "client_decode"
        assert decode["ms"] >= 0
        assert names.count("client_decode") == 1

    def test_untraced_query_has_no_trace_block(self, served):
        catalog, client = served
        result = client.query(_sql(catalog))
        assert "trace" not in result

    def test_metrics_op_serves_parseable_prometheus_text(self, served):
        catalog, client = served
        client.query(_sql(catalog))
        client.query(_sql(catalog, "threshold(0.4)"))
        payload = client.metrics()
        assert "kind" not in payload
        samples = _parse_exposition(payload["text"])
        # A latency histogram per aggregate kind, plus server gauges.
        assert samples['repro_query_seconds_count{aggregate="exceedance"}'] >= 1
        assert samples['repro_query_seconds_count{aggregate="threshold"}'] >= 1
        assert samples["repro_server_executed"] >= 2
        snapshot = payload["metrics"]
        assert snapshot["repro_query_seconds"]["type"] == "histogram"

    def test_slowlog_op_round_trips(self, served):
        catalog, client = served
        client.query(_sql(catalog))
        payload = client.slowlog(limit=5)
        assert payload["threshold_ms"] == 0.0
        assert payload["recorded"] >= 1
        entry = payload["entries"][0]
        # Untraced statements reach the service already parsed, so the
        # slow log keeps a reconstruction — re-runnable, parse-equal.
        assert parse_statement(entry["statement"]) == parse_statement(
            _sql(catalog)
        )
        assert "stages" in entry

    def test_slowlog_op_rejects_a_negative_limit(self, served):
        catalog, client = served
        for _ in range(3):  # Two of them reply-cache hits, all observed.
            client.query(_sql(catalog))
        response = client.request({"id": 5, "op": "slowlog", "limit": -2})
        assert response["id"] == 5
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"
        assert "limit" in response["error"]["message"]
        assert client.ping()  # The connection stays usable.
        assert len(client.slowlog(limit=2)["entries"]) == 2
        assert len(client.slowlog()["entries"]) == 3
        assert client.stats()["errors"] == 1
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_ms=0.0).entries(-1)

    def test_stats_op_strips_kind_and_stays_consistent(self, served):
        catalog, client = served
        client.query(_sql(catalog))
        stats = client.stats()
        assert "kind" not in stats
        assert stats["executed"] >= 1
        assert stats["requests"] >= stats["executed"]
