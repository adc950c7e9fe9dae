"""Segment synopses: computation, persistence, pruning, and APPROX.

The contract under test, layer by layer:

* :func:`~repro.store.binary.compute_view_synopsis` records *sound*
  per-segment facts — bounds that brute force over the columns confirms;
* every write path (dynamic append, static ``save_view``) persists the
  synopsis and every read path surfaces it through
  :class:`~repro.store.catalog.SeriesSnapshot`;
* ``Catalog.synopsize`` backfills catalogs written before synopses
  existed, idempotently;
* pruned exact execution is bit-identical to unpruned execution, and the
  pruning counters account for every segment;
* ``SELECT APPROX`` answers from synopses alone, and every estimate's
  proven interval really contains the exact answer.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.db.queries import expected_value_query
from repro.db.prob_view import ProbabilisticView
from repro.db.stream_queries import exceedance_probability
from repro.obs import default_registry
from repro.server.app import QueryServer, ServerThread
from repro.server.client import Client
from repro.service import CatalogQueryService
from repro.service.kernels import restrict_time_range
from repro.service.planner import plan_statement
from repro.service.synopsis import estimate_series, prune_segments
from repro.store import Catalog
from repro.store.binary import (
    EXC_SKETCH_EDGES,
    PROB_HIST_BUCKETS,
    SYNOPSIS_VERSION,
    compute_view_synopsis,
)
from repro.view.omega import OmegaGrid
from repro.view.sql import CatalogQuery, parse_statement

H = 16
GRID = OmegaGrid(delta=0.5, n=4)


def _random_view(name: str, times: int, seed: int, base: float = 20.0):
    """A small multi-alternative view with known columns."""
    rng = np.random.default_rng(seed)
    t, low, high, prob, labels = [], [], [], [], []
    for time in range(times):
        k = int(rng.integers(1, 4))
        raw = rng.dirichlet(np.ones(k)) * rng.uniform(0.5, 0.98)
        edge = base + rng.uniform(-2.0, 2.0)
        for p in raw:
            width = rng.uniform(0.25, 2.0)
            t.append(time)
            low.append(edge)
            high.append(edge + width)
            edge += width
            prob.append(float(p))
            labels.append(f"w{time}")
    return ProbabilisticView.from_columns(
        name,
        np.array(t, dtype=np.int64),
        np.array(low),
        np.array(high),
        np.array(prob),
        labels,
    )


def _build_catalog(root, series=3, legacy=None) -> Catalog:
    """``series`` series of three appends each.

    ``legacy`` (the conftest ``legacy_v2`` or ``legacy_npz``) then
    rewrites every segment as the ``.v2`` directory or ``.npz`` file an
    older build would have written.
    """
    catalog = Catalog(root)
    rng = np.random.default_rng(11)
    for index in range(series):
        series_id = f"s-{index}"
        catalog.create_series(
            series_id, metric="variable_threshold", H=H, grid=GRID
        )
        values = 20.0 + 0.05 * index + np.cumsum(
            rng.normal(0.0, 0.05, size=60)
        )
        for chunk in np.array_split(values, 3):
            catalog.append(series_id, chunk)
        if legacy is not None:
            legacy(catalog.root / series_id)
    return Catalog(root)


#: The segment format a catalog's first appends are left in: today's
#: ``.seg``, or rewritten as an older build's ``.npz`` or ``.v2``.
LAYOUTS = ["seg", "npz", "v2"]


@pytest.fixture(scope="session")
def legacy_writers(legacy_npz, legacy_v2):
    return {"seg": None, "npz": legacy_npz, "v2": legacy_v2}


def _strip_synopses(root) -> None:
    """Simulate a catalog written before synopses existed."""
    for series_dir in root.iterdir():
        meta_path = series_dir / "series.json"
        if not meta_path.is_file():
            continue
        meta = json.loads(meta_path.read_text())
        meta.pop("synopses", None)
        meta_path.write_text(json.dumps(meta))
    manifest = root / "catalog.json"
    payload = json.loads(manifest.read_text())
    payload.pop("synopsis_version", None)
    manifest.write_text(json.dumps(payload))


def _plant_stale_copies(root) -> None:
    """Leave the second synopsis copy builds before the one-home rule wrote.

    A ``<segment>.synopsis.json`` sidecar beside every segment file, a
    ``synopsis`` key inside every ``.v2`` segment's ``meta.json`` — wrong
    on purpose (another view's facts, times 0..2), so a reader that still
    trusted either would prune every segment and estimate from nonsense.
    """
    cols = _random_view("bogus", times=3, seed=1, base=500.0).columns
    bogus = compute_view_synopsis(
        cols.t, cols.low, cols.high, cols.probability
    )
    for segment in root.glob("*/seg-*"):
        if segment.is_dir():
            meta_path = segment / "meta.json"
            meta = json.loads(meta_path.read_text())
            meta["synopsis"] = bogus
            meta_path.write_text(json.dumps(meta))
        else:
            sidecar = segment.with_name(segment.name + ".synopsis.json")
            sidecar.write_text(json.dumps(bogus))


class TestComputeSynopsis:
    def test_facts_match_brute_force(self):
        view = _random_view("facts", times=14, seed=5)
        cols = view.columns
        syn = compute_view_synopsis(
            cols.t, cols.low, cols.high, cols.probability
        )
        assert syn["version"] == SYNOPSIS_VERSION
        assert syn["rows"] == len(cols.t)
        assert syn["times"] == len(np.unique(cols.t))
        assert syn["t_min"] == int(cols.t.min())
        assert syn["t_max"] == int(cols.t.max())
        assert syn["prob_max"] == float(cols.probability.max())
        assert syn["low_min"] == float(cols.low.min())
        assert syn["high_max"] == float(cols.high.max())
        # Per-time mass bound.
        masses = [
            cols.probability[cols.t == time].sum()
            for time in np.unique(cols.t)
        ]
        assert syn["mass_max"] == pytest.approx(max(masses))

    def test_prob_hist_membership_is_exact(self):
        view = _random_view("hist", times=10, seed=6)
        probability = view.columns.probability
        syn = compute_view_synopsis(
            view.columns.t,
            view.columns.low,
            view.columns.high,
            probability,
        )
        hist = syn["prob_hist"]
        assert sum(hist) == syn["rows"]
        buckets = PROB_HIST_BUCKETS
        for j in range(buckets):
            lo = j / buckets
            hi = (j + 1) / buckets
            if j == buckets - 1:
                members = (probability >= lo) & (probability <= 1.0)
            else:
                members = (probability >= lo) & (probability < hi)
            assert hist[j] == int(members.sum())

    def test_exceedance_sketch_bounds_the_true_curve(self):
        view = _random_view("sketch", times=12, seed=7)
        syn = compute_view_synopsis(
            view.columns.t,
            view.columns.low,
            view.columns.high,
            view.columns.probability,
        )
        edges = syn["exc_edges"]
        values = syn["exc_max"]
        assert len(edges) == len(values) == EXC_SKETCH_EDGES
        # Non-increasing, and exact at the grid edges.
        assert all(b <= a for a, b in zip(values, values[1:]))
        for edge, value in zip(edges, values):
            assert value == pytest.approx(
                max(exceedance_probability(view, edge).values())
            )

    def test_ev_fields_match_expected_value_query(self):
        view = _random_view("ev", times=9, seed=8)
        syn = compute_view_synopsis(
            view.columns.t,
            view.columns.low,
            view.columns.high,
            view.columns.probability,
        )
        exact = expected_value_query(view)
        assert syn["ev_sum"] == pytest.approx(sum(exact.values()))
        assert syn["ev_min"] == pytest.approx(min(exact.values()))
        assert syn["ev_max"] == pytest.approx(max(exact.values()))

    def test_empty_view(self):
        empty = np.array([], dtype=np.int64)
        syn = compute_view_synopsis(
            empty, empty.astype(float), empty.astype(float),
            empty.astype(float),
        )
        assert syn["rows"] == 0
        assert syn["times"] == 0


class TestPersistence:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_appends_write_synopses(self, tmp_path, layout, legacy_writers):
        catalog = _build_catalog(
            tmp_path / "cat", series=1, legacy=legacy_writers[layout]
        )
        snapshot = Catalog(catalog.root).snapshot("s-0")
        synopses = snapshot.segment_synopses()
        assert len(synopses) == len(snapshot.segments) == 3
        assert all(s is not None for s in synopses)
        assert all(s["version"] == SYNOPSIS_VERSION for s in synopses)

    def test_save_view_writes_synopsis(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.save_view("static", _random_view("static", times=8, seed=9))
        synopses = catalog.snapshot("static").segment_synopses()
        assert len(synopses) == 1 and synopses[0] is not None
        assert synopses[0]["times"] == 8

    def test_manifest_records_synopsis_version(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        manifest = json.loads((catalog.root / "catalog.json").read_text())
        assert manifest["synopsis_version"] == SYNOPSIS_VERSION

    def test_unknown_synopsis_version_reads_as_none(self, tmp_path):
        catalog = _build_catalog(tmp_path / "cat", series=1)
        meta_path = catalog.root / "s-0" / "series.json"
        meta = json.loads(meta_path.read_text())
        for name in meta["synopses"]:
            meta["synopses"][name]["version"] = SYNOPSIS_VERSION + 1
        meta_path.write_text(json.dumps(meta))
        snapshot = Catalog(catalog.root).snapshot("s-0")
        assert all(s is None for s in snapshot.segment_synopses())


class TestOneHome:
    """A synopsis lives in ``series.json`` and nowhere else."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_catalog_holds_segments_and_metadata_only(
        self, tmp_path, layout, legacy_writers
    ):
        # Under "npz" / "v2" the first three segments are legacy; the
        # revision and the static save after them write .seg.
        catalog = _build_catalog(
            tmp_path / "cat", series=1, legacy=legacy_writers[layout]
        )
        catalog.revise(
            "s-0", restrict_time_range(catalog.view("s-0"), 20, 25)
        )
        catalog.save_view("static", _random_view("static", times=8, seed=9))
        root = catalog.root

        def names(directory):
            return sorted(path.name for path in directory.iterdir())

        assert names(root) == ["catalog.json", "s-0", "static"]
        assert names(root / "s-0") == [
            f"seg-{i:08d}.{layout}" for i in range(1, 4)
        ] + ["seg-00000004.seg", "series.json"]
        assert names(root / "static") == ["seg-00000001.seg", "series.json"]
        for segment in root.glob("*/seg-*.v2"):
            assert names(segment) == sorted(
                ["meta.json"]
                + [
                    f"{column}.npy"
                    for column in (
                        "t", "low", "high", "probability", "label_code"
                    )
                ]
            )
            meta = json.loads((segment / "meta.json").read_text())
            assert "synopsis" not in meta

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_stale_copies_are_inert_and_swept(
        self, tmp_path, layout, legacy_writers
    ):
        roots = {
            label: _build_catalog(
                tmp_path / label, series=2, legacy=legacy_writers[layout]
            ).root
            for label in ("clean", "stale")
        }
        _plant_stale_copies(roots["stale"])
        for root in roots.values():  # One entry missing from its home.
            meta_path = root / "s-0" / "series.json"
            meta = json.loads(meta_path.read_text())
            del meta["synopses"][meta["segments"][-1]]
            meta_path.write_text(json.dumps(meta))

        def observe(root):
            statements = [
                f"SELECT expected_value FROM CATALOG '{root}' "
                f"WHERE t BETWEEN 40 AND 50",
                f"SELECT APPROX expected_value FROM CATALOG '{root}'",
            ]

            def answers():
                with CatalogQueryService(
                    Catalog(root), backend="sequential"
                ) as service:
                    return [service.execute(s).json() for s in statements]

            before = answers()
            written = Catalog(root).synopsize()
            snapshots = Catalog(root).open_many()
            return (
                before,
                written,
                answers(),
                [snapshot.segment_synopses() for snapshot in snapshots],
            )

        assert observe(roots["stale"]) == observe(roots["clean"])
        stale = Catalog(roots["stale"])
        stale.save_view("s-1", _random_view("s-1", times=6, seed=3))
        stale.drop_series("s-0")

        def names(directory):
            return sorted(path.name for path in directory.iterdir())

        assert names(stale.root) == ["catalog.json", "s-1"]
        assert names(stale.root / "s-1") == [
            "seg-00000004.seg", "series.json"
        ]


class TestSynopsize:
    def test_backfill_restores_stripped_catalog(self, tmp_path):
        catalog = _build_catalog(tmp_path / "cat", series=2)
        before = {
            sid: Catalog(catalog.root).snapshot(sid).segment_synopses()
            for sid in ("s-0", "s-1")
        }
        _strip_synopses(catalog.root)
        stripped = Catalog(catalog.root)
        assert all(
            s is None
            for s in stripped.snapshot("s-0").segment_synopses()
        )
        written = stripped.synopsize()
        assert written == {"s-0": 3, "s-1": 3}
        after = Catalog(catalog.root)
        for sid, reference in before.items():
            assert after.snapshot(sid).segment_synopses() == reference
        manifest = json.loads((catalog.root / "catalog.json").read_text())
        assert manifest["synopsis_version"] == SYNOPSIS_VERSION

    def test_idempotent(self, tmp_path):
        catalog = _build_catalog(tmp_path / "cat", series=2)
        assert catalog.synopsize() == {"s-0": 0, "s-1": 0}

    def test_pattern_limits_backfill(self, tmp_path):
        catalog = _build_catalog(tmp_path / "cat", series=2)
        _strip_synopses(catalog.root)
        written = Catalog(catalog.root).synopsize("s-1")
        assert written == {"s-1": 3}

    def test_backfill_counts_every_segment_read(self, tmp_path):
        # The backfill and APPROX's lazy fallback read the same three
        # segments, and the store counts every read on both paths.
        catalog = _build_catalog(tmp_path / "cat", series=1)
        _strip_synopses(catalog.root)
        reads = default_registry().counter("repro_store_segment_reads_total")
        statement = (
            f"SELECT APPROX expected_value FROM CATALOG '{catalog.root}'"
        )
        before = reads.total()
        with CatalogQueryService(
            Catalog(catalog.root), backend="sequential"
        ) as service:
            assert service.execute(statement).stats.segments_scanned == 3
        assert reads.total() == before + 3
        before = reads.total()
        assert Catalog(catalog.root).synopsize() == {"s-0": 3}
        assert reads.total() == before + 3

    def test_append_after_backfill_keeps_synopses(self, tmp_path):
        catalog = _build_catalog(tmp_path / "cat", series=1)
        _strip_synopses(catalog.root)
        reopened = Catalog(catalog.root)
        reopened.synopsize()
        reopened.append("s-0", 20.0 + 0.01 * np.arange(30, dtype=float))
        synopses = Catalog(catalog.root).snapshot("s-0").segment_synopses()
        assert all(s is not None for s in synopses)
        assert len(synopses) == 4


class TestPruning:
    def test_prune_preserves_segment_order(self, tmp_path):
        catalog = _build_catalog(tmp_path / "cat", series=1)
        snapshot = catalog.snapshot("s-0")
        surviving = prune_segments(snapshot, "expected_value", (), None, None)
        assert surviving == snapshot.segments
        # A WHERE range inside the last segment drops the earlier ones
        # while keeping stored order.
        t_hi = max(
            s["t_max"] for s in snapshot.segment_synopses() if s
        )
        pruned = prune_segments(
            snapshot, "expected_value", (), float(t_hi), float(t_hi)
        )
        assert pruned and list(pruned) == [
            name
            for name in snapshot.segments
            if name in pruned
        ]
        assert len(pruned) < len(snapshot.segments)

    def test_unsynopsized_segment_always_survives(self, tmp_path):
        catalog = _build_catalog(tmp_path / "cat", series=1)
        _strip_synopses(catalog.root)
        snapshot = Catalog(catalog.root).snapshot("s-0")
        surviving = prune_segments(
            snapshot, "threshold", (0.999,), 1e9, 2e9
        )
        assert surviving == snapshot.segments

    def test_plan_stats_account_for_every_segment(self, tmp_path):
        catalog = _build_catalog(tmp_path / "cat", series=3)
        query = parse_statement(
            f"SELECT expected_value FROM CATALOG '{catalog.root}' "
            f"WHERE t BETWEEN 40 AND 50"
        )
        plan = plan_statement(catalog, query)
        stats = plan.items[0].stats
        assert stats.segments_total == 9
        assert (
            stats.segments_scanned + stats.segments_pruned
            == stats.segments_total
        )
        assert stats.segments_pruned > 0
        assert stats.series_matched == 3

    def test_executor_counters_accumulate(self, tmp_path):
        catalog = _build_catalog(tmp_path / "cat", series=2)
        statement = (
            f"SELECT expected_value FROM CATALOG '{catalog.root}' "
            f"WHERE t BETWEEN 40 AND 50"
        )
        with CatalogQueryService(catalog, backend="sequential") as service:
            first = service.execute(statement)
            service.execute(statement)
            service.execute(
                f"SELECT APPROX expected_value FROM CATALOG "
                f"'{catalog.root}'"
            )
            counters = service.execution_stats()
        assert counters["queries"] == 3
        assert counters["approx_queries"] == 1
        assert first.stats is not None
        assert (
            counters["segments_pruned"] == 2 * first.stats.segments_pruned
        )

    def test_pruning_off_scans_everything(self, tmp_path):
        catalog = _build_catalog(tmp_path / "cat", series=2)
        statement = (
            f"SELECT expected_value FROM CATALOG '{catalog.root}' "
            f"WHERE t BETWEEN 40 AND 50"
        )
        with CatalogQueryService(
            catalog, backend="sequential", pruning=False
        ) as service:
            result = service.execute(statement)
        assert result.stats is not None
        assert result.stats.segments_pruned == 0
        assert (
            result.stats.segments_scanned == result.stats.segments_total
        )


class TestApprox:
    def test_grammar_round_trip(self, tmp_path):
        statement = parse_statement(
            f"SELECT APPROX exceedance(21.0) FROM CATALOG "
            f"'{tmp_path}' SERIES 's*' TOP 2"
        )
        assert isinstance(statement, CatalogQuery)
        assert statement.approx is True
        assert statement.items[0].name == "exceedance"
        plain = parse_statement(
            f"SELECT exceedance(21.0) FROM CATALOG '{tmp_path}'"
        )
        assert plain.approx is False

    @pytest.mark.parametrize(
        "body",
        [
            "threshold(0.3)",
            "expected_value",
            "exceedance(20.5)",
            "time_above(20.5, 3)",
        ],
    )
    def test_estimate_interval_contains_exact_score(self, tmp_path, body):
        catalog = _build_catalog(tmp_path / "cat", series=3)
        suffix = " WHERE t BETWEEN 12 AND 44"
        with CatalogQueryService(catalog, backend="sequential") as service:
            exact = service.execute(
                f"SELECT {body} FROM CATALOG '{catalog.root}'" + suffix
            )
            approx = service.execute(
                f"SELECT APPROX {body} FROM CATALOG '{catalog.root}'"
                + suffix
            )
        assert approx.approx
        exact_scores = {e.series_id: e.score for e in exact.results}
        for entry in approx.results:
            payload = entry.result
            assert set(payload) == {
                "estimate", "error_bound", "lower", "upper",
            }
            assert payload["error_bound"] >= 0.0
            assert (
                payload["lower"] <= payload["estimate"] <= payload["upper"]
            )
            score = exact_scores[entry.series_id]
            assert payload["lower"] - 1e-9 <= score <= payload["upper"] + 1e-9
            assert abs(score - payload["estimate"]) <= (
                payload["error_bound"] + 1e-9
            )

    def test_approx_without_synopses_falls_back_lazily(self, tmp_path):
        catalog = _build_catalog(tmp_path / "cat", series=2)
        statement = (
            f"SELECT APPROX expected_value FROM CATALOG '{catalog.root}'"
        )
        reads = default_registry().counter("repro_store_segment_reads_total")
        # With synopses the estimator never opens a segment — that, not
        # a wall-clock ratio, is what makes APPROX cheap.
        before = reads.total()
        with CatalogQueryService(catalog, backend="sequential") as service:
            synopsized = service.execute(statement)
        assert synopsized.approx
        assert synopsized.stats.segments_scanned == 0
        assert reads.total() == before
        _strip_synopses(catalog.root)
        with CatalogQueryService(
            Catalog(catalog.root), backend="sequential"
        ) as service:
            result = service.execute(statement)
        assert result.approx
        assert result.stats is not None
        assert result.stats.segments_scanned == 6  # All lazily loaded.
        # The store's own counter sees the same six reads.
        assert reads.total() == before + 6
        assert all(
            entry.result["error_bound"] >= 0.0 for entry in result.results
        )

    def test_estimate_series_rejects_unknown_aggregate(self):
        with pytest.raises(ValueError, match="no APPROX estimator"):
            estimate_series("median", (), [], None, None)


class TestServerSurface:
    def test_wire_results_and_stats_counters(self, tmp_path):
        catalog = _build_catalog(tmp_path / "cat", series=2)
        server = QueryServer(catalog, port=0, backend="sequential")
        with ServerThread(server) as (host, port), Client(host, port) as client:
            statement = (
                f"SELECT exceedance(20.3) FROM CATALOG '{catalog.root}' "
                f"WHERE t BETWEEN 40 AND 55"
            )
            exact = client.query(statement)
            assert exact["pruning"]["segments_pruned"] > 0
            assert "approx" not in exact
            approx = client.query(
                statement.replace("SELECT ", "SELECT APPROX ", 1)
            )
            assert approx["approx"] is True
            for entry in approx["results"]:
                assert set(entry["approx"]) == {
                    "estimate", "error_bound", "lower", "upper",
                }
            stats = client.stats()
            assert stats["pruning"]["queries"] == 2
            assert stats["pruning"]["approx_queries"] == 1
            assert stats["pruning"]["segments_pruned"] > 0
