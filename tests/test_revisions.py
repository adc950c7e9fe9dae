"""Time-of-knowledge revisions, AS OF replay, and the connect() façade.

The bitemporal contract under test: a revision overlays new rows over an
already-covered valid-time range without touching the old segments, and
``AS OF <knowledge_time>`` replays the catalog exactly as it was known
then — bit-identically (canonical JSON) to a fresh catalog built only
from the segments known at that time, on every backend and every route.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.db.prob_view import ProbTuple
from repro.exceptions import InvalidParameterError, ParseError, QueryError
from repro.server.app import QueryServer, ServerThread
from repro.service import CatalogQueryService
from repro.store import Catalog
from repro.util.jsonio import canonical_dumps
from repro.view.sql import (
    parse_statement,
    render_statement,
    with_as_of,
)
from view_helpers import view_from_rows


def _view(series_id: str, times, low=20.0, p=0.9, label="ok"):
    return view_from_rows(series_id, [
        ProbTuple(t, low + 0.1 * t, low + 0.1 * t + 1.0, p, label)
        for t in times
    ])


def _build_base(root) -> Catalog:
    catalog = Catalog(root)
    catalog.save_view("alpha", _view("alpha", range(10)))
    catalog.save_view("beta", _view("beta", range(10), low=24.0))
    return catalog


@pytest.fixture()
def revised(tmp_path) -> Catalog:
    """Base catalog plus two revisions on ``alpha`` (k=1 then k=2)."""
    catalog = _build_base(tmp_path / "cat")
    catalog.revise(
        "alpha", _view("alpha", range(3, 6), low=30.0, label="rev1"),
        knowledge_time=1,
    )
    catalog.revise(
        "alpha", _view("alpha", range(5, 8), low=35.0, label="rev2"),
        knowledge_time=2,
    )
    return catalog


def _sql(catalog, body="exceedance(21.0)", suffix=""):
    return f"SELECT {body} FROM CATALOG '{catalog.root}'{suffix}"


def _answer_json(result) -> str:
    """Canonical JSON of the answer alone (pruning counters stripped)."""
    payload = result.to_dict()
    payload.pop("pruning", None)
    return canonical_dumps(payload)


class TestStoreRevisions:
    def test_revision_chain_recorded_and_reloaded(self, revised):
        snapshot = Catalog(revised.root).snapshot("alpha")
        assert snapshot.has_revisions
        assert snapshot.knowledge_times() == (0, 1, 2)
        assert [r["knowledge_time"] for r in snapshot.revisions] == [1, 2]

    def test_latest_wins_per_time_instant(self, revised):
        view = revised.snapshot("alpha").load_view()
        by_t = {}
        cols = view.columns
        for t, low, label in zip(
            cols.t.tolist(), cols.low.tolist(),
            (cols.labels[c] for c in cols.label_code.tolist()),
        ):
            by_t.setdefault(int(t), []).append((low, label))
        # t in [0,3): base; [3,5): rev1; [5,8): rev2; [8,10): base.
        assert all(lbl == "ok" for _, lbl in by_t[0] + by_t[8])
        assert all(lbl == "rev1" for _, lbl in by_t[3] + by_t[4])
        assert all(lbl == "rev2" for _, lbl in by_t[5] + by_t[7])

    def test_as_of_replays_what_was_known(self, revised, tmp_path):
        # AS OF 0 == a fresh catalog built from the base segments alone.
        base_only = _build_base(tmp_path / "base_only")
        replayed = revised.snapshot("alpha").load_view(as_of=0)
        fresh = base_only.snapshot("alpha").load_view()
        np.testing.assert_array_equal(
            replayed.columns.low, fresh.columns.low
        )
        np.testing.assert_array_equal(replayed.columns.t, fresh.columns.t)

    def test_as_of_latest_is_default(self, revised):
        snapshot = revised.snapshot("alpha")
        default = snapshot.load_view()
        pinned = snapshot.load_view(as_of=2)
        future = snapshot.load_view(as_of=99)
        for other in (pinned, future):
            np.testing.assert_array_equal(
                default.columns.low, other.columns.low
            )

    def test_unrevised_series_fast_path_token(self, revised):
        snapshot = revised.snapshot("beta")
        assert not snapshot.has_revisions
        # Every knowledge time resolves the constant frontier, so AS OF
        # on a never-revised series shares the default's cache entry.
        for knowledge_time in (None, 0, 7):
            frontier = snapshot.as_of(knowledge_time)
            assert frontier.token == ()
            assert frontier.segments == snapshot.segments
            assert not any(frontier.shadows)

    def test_intermediate_as_of_points_share_one_frontier(self, revised):
        snapshot = revised.snapshot("alpha")
        assert snapshot.as_of(1).token == ("k", 1)
        # Every AS OF between two revisions resolves the same frontier.
        assert snapshot.as_of(1).token == snapshot.as_of(1).token

    def test_knowledge_time_must_not_decrease(self, revised):
        with pytest.raises(InvalidParameterError):
            revised.revise(
                "alpha", _view("alpha", [0]), knowledge_time=1
            )
        with pytest.raises(InvalidParameterError):
            revised.revise(
                "alpha", _view("alpha", [0]), knowledge_time=0
            )

    def test_auto_knowledge_time_is_monotonic(self, tmp_path):
        catalog = _build_base(tmp_path / "cat")
        first = catalog.revise("alpha", _view("alpha", [1]))
        second = catalog.revise("alpha", _view("alpha", [2]))
        assert second["knowledge_time"] > first["knowledge_time"] >= 1

    def test_empty_revision_rejected(self, revised):
        with pytest.raises(InvalidParameterError):
            revised.revise("alpha", view_from_rows("alpha", []))

    def test_replay_iterates_knowledge_timeline(self, revised):
        steps = revised.replay("alpha")
        assert [k for k, _ in steps] == [0, 1, 2]
        # Each step equals querying AS OF that knowledge time.
        snapshot = revised.snapshot("alpha")
        for k, view in steps:
            np.testing.assert_array_equal(
                view.columns.low,
                snapshot.load_view(as_of=k).columns.low,
            )

    def test_replay_subset_of_knowledge_times(self, revised):
        steps = revised.replay("alpha", knowledge_times=[0, 2])
        assert [k for k, _ in steps] == [0, 2]


class TestAsOfGrammar:
    def test_select_parses_as_of(self):
        query = parse_statement(
            "SELECT exceedance(21.0) FROM CATALOG '/c' AS OF 3 TOP 2"
        )
        assert query.as_of == 3

    def test_simulate_parses_as_of(self):
        query = parse_statement(
            "SIMULATE 4 SEED 7 FROM CATALOG '/c' AS OF 1"
        )
        assert query.as_of == 1

    def test_default_is_none(self):
        assert parse_statement(
            "SELECT expected_value FROM CATALOG '/c'"
        ).as_of is None

    def test_negative_as_of_rejected(self):
        with pytest.raises(ParseError):
            parse_statement(
                "SELECT expected_value FROM CATALOG '/c' AS OF -1"
            )

    def test_render_round_trips(self):
        for text in (
            "SELECT APPROX exceedance(21.0) FROM CATALOG '/c' AS OF 2",
            "SELECT expected_value FROM CATALOG '/c' SERIES 'a*' "
            "WHERE t BETWEEN 1 AND 5 AS OF 0 TOP 3",
            "SIMULATE 8 SEED 42 FROM CATALOG '/c' AS OF 7",
        ):
            rendered = render_statement(parse_statement(text))
            reparsed = parse_statement(rendered)
            assert parse_statement(text) == reparsed

    def test_with_as_of_injects(self):
        statement = with_as_of(
            "SELECT expected_value FROM CATALOG '/c' TOP 2", 5
        )
        assert parse_statement(statement).as_of == 5
        assert parse_statement(statement).top_k == 2

    def test_with_as_of_keeps_matching_pin(self):
        pinned = "SELECT expected_value FROM CATALOG '/c' AS OF 5"
        assert parse_statement(with_as_of(pinned, 5)).as_of == 5

    def test_with_as_of_rejects_conflicting_pin(self):
        with pytest.raises(QueryError):
            with_as_of(
                "SELECT expected_value FROM CATALOG '/c' AS OF 5", 6
            )

    def test_with_as_of_rejects_create_view(self):
        with pytest.raises(QueryError):
            with_as_of(
                "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
                "FROM raw", 1
            )


class TestAsOfExecution:
    @pytest.mark.parametrize("backend", ["sequential"])
    def test_as_of_zero_matches_base_only_catalog(
        self, revised, tmp_path, backend
    ):
        base_only = _build_base(tmp_path / "base_only")
        service = CatalogQueryService(revised, backend=backend)
        fresh = CatalogQueryService(base_only, backend=backend)
        got = service.execute(_sql(revised, suffix=" AS OF 0"))
        want = fresh.execute(_sql(base_only))
        # The answers must be bit-identical; the pruning counters are
        # observability and legitimately differ (the revised catalog
        # holds more physical segments, all shadowed at AS OF 0).
        assert _answer_json(got) == _answer_json(want)

    def test_as_of_latest_bit_identical_to_default(self, revised):
        service = CatalogQueryService(revised)
        assert service.execute(
            _sql(revised, suffix=" AS OF 2")
        ).json() == service.execute(_sql(revised)).json()

    def test_pruning_off_same_answers(self, revised):
        pruned = CatalogQueryService(revised, pruning=True)
        unpruned = CatalogQueryService(revised, pruning=False)
        for suffix in ("", " AS OF 0", " AS OF 1"):
            assert pruned.execute(
                _sql(revised, suffix=suffix)
            ).json() == unpruned.execute(
                _sql(revised, suffix=suffix)
            ).json()

    def test_as_of_points_differ_when_knowledge_changed(self, revised):
        service = CatalogQueryService(revised)
        payloads = {
            k: service.execute(
                _sql(revised, "expected_value", f" AS OF {k}")
            ).json()
            for k in (0, 1, 2)
        }
        assert len(set(payloads.values())) == 3

    def test_approx_bounds_contain_exact_at_every_as_of(self, revised):
        service = CatalogQueryService(revised)
        for k in (0, 1, 2):
            exact = service.execute(
                _sql(revised, suffix=f" AS OF {k}")
            )
            approx = service.execute(
                _sql(revised, "APPROX exceedance(21.0)", f" AS OF {k}")
            )
            scores = {e.series_id: e.score for e in exact.results}
            for entry in approx.results:
                est = entry.result
                assert est["lower"] <= scores[entry.series_id] <= est["upper"]

    def test_stats_count_shadowed_segments_as_pruned(self, revised):
        service = CatalogQueryService(revised)
        stats = service.execute(_sql(revised, suffix=" AS OF 0")).stats
        assert (
            stats.segments_scanned + stats.segments_pruned
            == stats.segments_total
        )
        # alpha's two revision segments are invisible at AS OF 0.
        assert stats.segments_pruned >= 2

    def test_simulate_as_of_replays_and_stays_seeded(self, revised):
        service = CatalogQueryService(revised)
        sim = f"SIMULATE 3 SEED 11 FROM CATALOG '{revised.root}'"
        assert service.execute(sim + " AS OF 2").json() \
            == service.execute(sim).json()
        assert service.execute(sim + " AS OF 0").json() \
            != service.execute(sim).json()

    def test_matrix_cache_keyed_on_frontier(self, revised):
        service = CatalogQueryService(revised)
        default = service.execute(_sql(revised)).json()
        pinned = service.execute(_sql(revised, suffix=" AS OF 0")).json()
        # Re-running default after the pinned query must not read the
        # pinned frontier's cached matrices.
        assert service.execute(_sql(revised)).json() == default
        assert service.execute(
            _sql(revised, suffix=" AS OF 0")
        ).json() == pinned


class TestConnect:
    def test_routes(self, tmp_path):
        with repro.connect() as conn:
            assert conn.route == "memory"
        catalog = _build_base(tmp_path / "cat")
        with repro.connect(str(catalog.root)) as conn:
            assert conn.route == "service"

    def test_rejects_unknown_scheme(self):
        with pytest.raises(InvalidParameterError):
            repro.connect("http://somewhere")

    def test_as_of_rewrite_keeps_every_digit(self, tmp_path):
        # On a never-revised catalog AS OF 0 sees everything, so the
        # rewritten statement must be the same query, to the last digit
        # of every literal.
        catalog = _build_base(tmp_path / "cat")
        statement = _sql(
            catalog,
            "exceedance(20.123456789)",
            suffix=" WHERE t BETWEEN 0 AND 1234567",
        )
        with repro.connect(str(catalog.root)) as conn:
            assert (
                conn.execute(statement, as_of=0).json()
                == conn.execute(statement).json()
            )
        rewritten = with_as_of(statement, 0)
        assert "exceedance(20.123456789)" in rewritten
        assert "BETWEEN 0 AND 1234567" in rewritten

    def test_three_routes_bit_identical(self, revised):
        statement = _sql(revised, suffix=" TOP 2")
        simulate = f"SIMULATE 2 SEED 3 FROM CATALOG '{revised.root}'"
        server = ServerThread(
            QueryServer(str(revised.root), port=0)
        )
        host, port = server.start()
        try:
            routes = [
                repro.connect(),
                repro.connect(str(revised.root)),
                repro.connect(f"tcp://{host}:{port}"),
            ]
            try:
                for text in (statement, simulate):
                    for as_of in (None, 0, 2):
                        payloads = {
                            conn.execute(text, as_of=as_of).json()
                            for conn in routes
                        }
                        assert len(payloads) == 1, (text, as_of)
            finally:
                for conn in routes:
                    conn.close()
        finally:
            server.stop()

    @pytest.fixture()
    def routes(self, revised):
        """One connection per route, each engine holding the raw table."""
        from repro.db.table import Table

        table = Table(
            "raw", ["t", "r"],
            {"t": list(range(80)),
             "r": [10.0 + (i % 7) for i in range(80)]},
        )
        server = QueryServer(str(revised.root), port=0)
        server.database.register_table(table)
        thread = ServerThread(server)
        host, port = thread.start()
        conns = {
            "memory": repro.connect(),
            "service": repro.connect(str(revised.root)),
            "server": repro.connect(f"tcp://{host}:{port}"),
        }
        try:
            for conn in conns.values():
                assert conn.route in conns
                if conn.database is not None:
                    conn.database.register_table(table)
            yield conns
        finally:
            for conn in conns.values():
                conn.close()
            thread.stop()

    @pytest.mark.parametrize(
        "kind, body",
        [
            ("view", "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, "
                     "n=2 WINDOW 40 FROM raw"),
            ("select", "SELECT exceedance(21.0) {frm} TOP 2"),
            ("multi_select", "SELECT expected_value, threshold(0.4) {frm}"),
            ("approx", "SELECT APPROX expected_value {frm}"),
            ("simulate", "SIMULATE 2 SEED 3 {frm}"),
            ("select", "SELECT expected_value {frm} AS OF 1"),
        ],
        ids=["create_view", "select", "multi", "approx", "simulate",
             "as_of"],
    )
    def test_route_matrix(self, revised, routes, kind, body):
        # Every route runs every statement kind: same bytes, same kind,
        # and a trace whose stages fit inside its wall time.
        statement = body.format(frm=f"FROM CATALOG '{revised.root}'")
        payloads = set()
        for route, conn in routes.items():
            result = conn.execute(statement, trace=True)
            assert result.kind == kind, route
            payloads.add(result.json())
            trace = result.trace
            assert trace is not None, route
            block = trace if isinstance(trace, dict) else trace.as_dict()
            stages = block["stages"]
            assert stages and stages[0]["name"] == "parse", route
            # as_dict() rounds every figure to 1e-4 ms.
            assert sum(stage["ms"] for stage in stages) <= (
                block["wall_ms"] + 1e-4 * (len(stages) + 1)
            ), route
        assert len(payloads) == 1

    def test_uniform_result_protocol(self, revised):
        with repro.connect(str(revised.root)) as conn:
            select = conn.execute(_sql(revised))
            assert select.kind == "select"
            assert select.to_dict()["kind"] == "select"
            approx = conn.execute(
                _sql(revised, "APPROX expected_value")
            )
            assert approx.kind == "approx"
            assert approx.to_dict()["approx"] is True
            sim = conn.execute(
                f"SIMULATE 2 SEED 1 FROM CATALOG '{revised.root}'"
            )
            assert sim.kind == "simulate"
            multi = conn.execute(
                _sql(revised, "expected_value, exceedance(21.0)")
            )
            assert multi.kind == "multi_select"
            kinds = [
                item["kind"] for item in multi.to_dict()["statements"]
            ]
            assert kinds == ["select", "select"]
            unseeded = conn.execute(
                f"SIMULATE 2 FROM CATALOG '{revised.root}'"
            )
            assert unseeded.kind == "simulate"
            worlds = conn.execute(
                _sql(revised, "PROBABILITY OF v BETWEEN 20 AND 22")
            )
            truncated = conn.execute(_sql(revised, suffix=" TOP 1"))
            ranked = conn.execute(
                _sql(revised, "expected_value, threshold(0.5)", " TOP 1")
            )
        # One surface, one rule, whatever the statement: a result has
        # one item per select-list entry (a single-item result is its
        # own only item), and every statement-level accessor is the
        # items' put together in select-list order.
        cases = {
            "select": (select, 1, 2),
            "approx": (approx, 1, 2),
            "simulate": (sim, 1, 2),
            "simulate, default seed": (unseeded, 1, 2),
            "multi_select": (multi, 2, 4),
            "PROBABILITY OF": (worlds, 1, 2),
            "TOP k": (truncated, 1, 1),
            "multi_select TOP k": (ranked, 2, 2),
        }
        for name, (result, n_items, n_results) in cases.items():
            items = result.items
            assert len(items) == n_items, name
            if n_items == 1:
                assert items == (result,), name
            flat = tuple(e for item in items for e in item.results)
            assert result.results == flat, name
            assert len(result) == len(flat) == n_results, name
            assert list(result) == list(flat), name
            # TOP k truncates results, never what was matched.
            assert result.matched == ("alpha", "beta"), name
            assert all(i.matched == result.matched for i in items), name
            assert result.stats == reduce(
                add, (item.stats for item in items)
            ), name
            assert result.aggregate == ", ".join(
                item.aggregate for item in items
            ), name
            assert result.json() == canonical_dumps(result.to_dict()), name
            if n_items > 1:
                assert result.kind == "multi_select", name
                assert result.to_dict()["statements"] == [
                    item.to_dict() for item in items
                ], name
                assert all(i.kind == "select" for i in items), name
        assert sim.arguments == (2.0, 1.0)
        assert unseeded.arguments[0] == 2.0
        assert unseeded.to_dict()["seed"] == int(unseeded.arguments[1])
        assert [e.series_id for e in truncated] == [
            min(select, key=lambda e: (-e.score, e.series_id)).series_id
        ]

    def test_remote_trace_excluded_from_payload(self, revised):
        server = ServerThread(QueryServer(str(revised.root), port=0))
        host, port = server.start()
        try:
            with repro.connect(f"tcp://{host}:{port}") as conn:
                traced = conn.execute(_sql(revised), trace=True)
                plain = conn.execute(_sql(revised))
                assert traced.trace is not None
                assert plain.trace is None
                assert traced.json() == plain.json()
        finally:
            server.stop()

    def test_memory_route_wraps_views(self):
        from repro.db.table import Table

        with repro.connect(":memory:") as conn:
            conn.database.register_table(Table(
                "raw", ["t", "r"],
                {"t": list(range(80)),
                 "r": [10.0 + (i % 7) for i in range(80)]},
            ))
            result = conn.execute(
                "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 "
                "WINDOW 40 FROM raw"
            )
            assert result.kind == "view"
            assert result.to_dict()["name"] == "v"
            assert result.json().startswith('{"kind":"view"')

    def test_as_of_conflict_surfaces(self, revised):
        with repro.connect(str(revised.root)) as conn:
            with pytest.raises(QueryError):
                conn.execute(_sql(revised, suffix=" AS OF 1"), as_of=2)


class TestCliAsOf:
    def test_service_and_server_render_identically(
        self, revised, capsys
    ):
        server = ServerThread(QueryServer(str(revised.root), port=0))
        host, port = server.start()
        try:
            statement = _sql(revised, suffix=" TOP 2")
            assert main([
                "query", statement, "--target", str(revised.root),
                "--as-of", "0", "--stats",
            ]) == 0
            via_service = capsys.readouterr().out
            assert main([
                "query", statement, "--target", f"tcp://{host}:{port}",
                "--as-of", "0", "--stats",
            ]) == 0
            via_server = capsys.readouterr().out
            assert via_service == via_server
            assert "pruning: scanned" in via_service
        finally:
            server.stop()

    def test_server_query_backend_flag_is_noticed(self, revised, capsys):
        # The backend is fixed by the serving process: a tcp target
        # says so instead of ignoring the flag.
        server = ServerThread(QueryServer(str(revised.root), port=0))
        host, port = server.start()
        try:
            exit_code = main([
                "query", _sql(revised), "--target", f"tcp://{host}:{port}",
                "--backend", "process",
            ])
        finally:
            server.stop()
        assert exit_code == 1
        assert "fixed by 'server serve'" in capsys.readouterr().err

    def test_as_of_zero_changes_cli_answer(self, revised, capsys):
        statement = _sql(revised, "expected_value")
        assert main(["query", statement]) == 0
        default_out = capsys.readouterr().out
        assert main(["query", statement, "--as-of", "0"]) == 0
        pinned_out = capsys.readouterr().out
        assert default_out != pinned_out
