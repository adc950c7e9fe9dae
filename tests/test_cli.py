"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.store import Catalog


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["query", "CREATE ..."])
        assert args.sql == ["CREATE ..."]
        assert args.target is None
        assert args.data == "campus"
        assert args.head == 12


class TestCommands:
    def test_experiment_prints_table(self, capsys):
        exit_code = main(["experiment", "fig14b"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "max ratio Ds" in captured.out

    def test_generate_and_query_roundtrip(self, tmp_path, capsys):
        csv_path = str(tmp_path / "data.csv")
        assert main(["generate", "campus", csv_path, "--scale", "0.03"]) == 0
        capsys.readouterr()
        exit_code = main([
            "query",
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=0.5, n=4 "
            "METRIC vt WINDOW 40 FROM raw_values",
            "--data", csv_path,
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "created view 'v'" in captured.out
        assert "lambda=" in captured.out

    def test_query_reports_errors_cleanly(self, capsys):
        exit_code = main([
            "query", "CREATE GARBAGE", "--data", "campus", "--scale", "0.03",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error:" in captured.err

    def test_arch_test_runs(self, capsys):
        exit_code = main([
            "arch-test", "--data", "campus", "--scale", "0.03", "--max-lag", "2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Phi(m)" in captured.out

    def test_generate_humidity(self, tmp_path, capsys):
        csv_path = str(tmp_path / "humidity.csv")
        assert main(["generate", "humidity", csv_path, "--scale", "0.03"]) == 0
        captured = capsys.readouterr()
        assert "campus-humidity" in captured.out


class TestStoreCommands:
    def test_init_ingest_query_list(self, tmp_path, capsys):
        catalog = str(tmp_path / "catalog")
        assert main([
            "store", "init", catalog, "room",
            "--metric", "vt", "--window", "40", "--delta", "0.5", "--n", "4",
        ]) == 0
        assert "created SeriesHandle('room'" in capsys.readouterr().out

        assert main([
            "store", "ingest", catalog, "room",
            "--data", "campus", "--scale", "0.03", "--batch", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "micro-batches" in out and "tuples stored" in out

        # A stored series is queried through the one statement verb.
        assert main([
            "query", f"SELECT exceedance(21) FROM CATALOG '{catalog}' "
            "SERIES 'room'", "--target", catalog, "--head", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "exceedance over 1 matched series" in out and "room" in out

        assert main([
            "query", f"SELECT threshold(0.4) FROM CATALOG '{catalog}' "
            "SERIES 'room'", "--target", catalog, "--head", "3",
        ]) == 0
        assert "probability" in capsys.readouterr().out

        assert main([
            "query", f"SELECT sustained_exceedance(21, 5), "
            f"windowed_expected_value(5) FROM CATALOG '{catalog}'",
            "--target", catalog, "--head", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "max_p" in out and "max_window_ev" in out

        assert main(["store", "list", catalog]) == 0
        out = capsys.readouterr().out
        assert "room" in out and "dynamic" in out

    def test_ingest_into_missing_catalog_fails_cleanly(self, tmp_path, capsys):
        exit_code = main([
            "store", "ingest", str(tmp_path / "absent"), "room",
            "--data", "campus", "--scale", "0.03",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error:" in captured.err

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    def test_query_missing_series_fails_cleanly(self, tmp_path, capsys):
        catalog = str(tmp_path / "catalog")
        assert main([
            "store", "init", catalog, "room",
            "--metric", "vt", "--window", "40", "--n", "4",
        ]) == 0
        capsys.readouterr()
        exit_code = main([
            "query", f"SELECT exceedance(21) FROM CATALOG '{catalog}' "
            "SERIES 'ghost'", "--target", catalog,
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_query_over_a_damaged_npz_segment_fails_cleanly(
        self, tmp_path, capsys, old_npz_catalog
    ):
        # A segment an older build wrote as .npz, with a column missing.
        catalog = old_npz_catalog(tmp_path / "catalog")
        segment = catalog / "b" / "seg-00000001.npz"
        with np.load(segment) as payload:
            kept = {key: payload[key] for key in payload if key != "low"}
        with segment.open("wb") as handle:
            np.savez(handle, **kept)
        exit_code = main([
            "query", f"SELECT expected_value FROM CATALOG '{catalog}'",
            "--target", str(catalog),
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "seg-00000001.npz" in captured.err and "low" in captured.err

    @pytest.mark.parametrize(
        "option", [["--limit", "-5"], ["--batch", "0"]], ids=["limit", "batch"]
    )
    def test_ingest_rejects_bad_counts(self, tmp_path, capsys, option):
        # A negative --limit used to slice values[:-5] and silently ingest
        # all but the last five values.
        catalog = str(tmp_path / "catalog")
        assert main([
            "store", "init", catalog, "room",
            "--metric", "vt", "--window", "40", "--n", "4",
        ]) == 0
        capsys.readouterr()
        exit_code = main([
            "store", "ingest", catalog, "room",
            "--data", "campus", "--scale", "0.03", *option,
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith(f"error: {option[0]} must be >= ")
        assert captured.err.count("\n") == 1
        assert Catalog(catalog).series("room").next_t == 0  # Nothing fed.

    def test_query_rejects_negative_head(self, capsys):
        # A negative --head printed all but the last rows plus a negative
        # "more" count.
        exit_code = main([
            "query",
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=0.5, n=4 "
            "METRIC vt WINDOW 40 FROM raw_values",
            "--scale", "0.03", "--head", "-2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err == "error: --head must be >= 0, got -2\n"
        assert captured.out == ""

    def test_store_query_verb_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["store", "query", str(tmp_path / "catalog"), "room"]
            )

    def test_ingest_missing_csv_fails_cleanly(self, tmp_path, capsys):
        catalog = str(tmp_path / "catalog")
        assert main([
            "store", "init", catalog, "room",
            "--metric", "vt", "--window", "40", "--n", "4",
        ]) == 0
        capsys.readouterr()
        exit_code = main([
            "store", "ingest", catalog, "room",
            "--data", str(tmp_path / "absent.csv"),
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


class TestServiceCommands:
    @staticmethod
    def _make_catalog(tmp_path, capsys) -> str:
        catalog = str(tmp_path / "catalog")
        for series in ("room-a", "room-b"):
            assert main([
                "store", "init", catalog, series,
                "--metric", "vt", "--window", "30", "--n", "4",
            ]) == 0
            assert main([
                "store", "ingest", catalog, series,
                "--data", "campus", "--scale", "0.03", "--batch", "60",
            ]) == 0
        capsys.readouterr()
        return catalog

    def test_select_over_whole_catalog(self, tmp_path, capsys):
        catalog = self._make_catalog(tmp_path, capsys)
        exit_code = main([
            "query",
            f"SELECT exceedance(21.0) FROM CATALOG '{catalog}' "
            "SERIES 'room-*' TOP 2",
            "--head", "3",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "2 matched series" in out
        assert "room-a" in out and "room-b" in out
        assert "max_p" in out

    def test_select_threshold_prints_tuple_rows(self, tmp_path, capsys):
        catalog = self._make_catalog(tmp_path, capsys)
        exit_code = main([
            "query",
            f"SELECT threshold(0.4) FROM CATALOG '{catalog}'",
            "--head", "2",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "probability" in out and "label" in out

    def test_missing_catalog_fails_cleanly(self, tmp_path, capsys):
        exit_code = main([
            "query",
            f"SELECT exceedance(21.0) FROM CATALOG '{tmp_path / 'absent'}'",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_unmatched_series_fails_cleanly(self, tmp_path, capsys):
        catalog = self._make_catalog(tmp_path, capsys)
        exit_code = main([
            "query",
            f"SELECT exceedance(21.0) FROM CATALOG '{catalog}' SERIES 'z*'",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "no series matches" in captured.err

    def test_bad_statement_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(["query", "SELECT GARBAGE"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "verb", ["SELECT expected_value", "SIMULATE 2"],
        ids=["select", "simulate"],
    )
    def test_memory_target_missing_catalog_fails_cleanly(
        self, tmp_path, capsys, verb
    ):
        # The verb's old private dispatch knew SELECT queries only: SIMULATE
        # died with an AttributeError traceback.
        exit_code = main([
            "query", f"{verb} FROM CATALOG '{tmp_path / 'absent'}'",
            "--scale", "0.03",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_every_statement_kind_on_a_path_target(self, tmp_path, capsys):
        catalog = self._make_catalog(tmp_path, capsys)
        exit_code = main([
            "query",
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=0.5, n=4 "
            "METRIC vt WINDOW 40 FROM raw_values",
            f"SIMULATE 2 SEED 3 FROM CATALOG '{catalog}'",
            f"SELECT expected_value FROM CATALOG '{catalog}'",
            "--target", catalog, "--scale", "0.03", "--head", "2",
            "--stats", "--trace",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0, captured.err
        out = captured.out
        assert "created view 'v'" in out
        assert "simulate(2 worlds, seed 3)" in out
        assert "expected_value over 2 matched series" in out
        assert out.count("trace: wall") == 3
        assert "compute" in out and "fan_out" in out
        assert out.count("pruning: scanned") == 2
        assert "(pruning counters unavailable" in out

    def test_service_options_need_a_path_target(self, tmp_path, capsys):
        exit_code = main([
            "query", f"SELECT expected_value FROM CATALOG '{tmp_path}'",
            "--backend", "process",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "catalog-path --target" in captured.err

    def test_old_query_verbs_are_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["service", "query", "SELECT 1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["server", "query", "SELECT 1"])


class TestServerCommands:
    @staticmethod
    def _make_catalog(tmp_path, capsys) -> str:
        catalog = str(tmp_path / "catalog")
        assert main([
            "store", "init", catalog, "room-a",
            "--metric", "vt", "--window", "30", "--n", "4",
        ]) == 0
        assert main([
            "store", "ingest", catalog, "room-a",
            "--data", "campus", "--scale", "0.03", "--batch", "60",
        ]) == 0
        capsys.readouterr()
        return catalog

    def test_server_query_round_trip(self, tmp_path, capsys):
        from repro.server import QueryServer, ServerThread

        catalog = self._make_catalog(tmp_path, capsys)
        with ServerThread(QueryServer(catalog, port=0)) as (host, port):
            exit_code = main([
                "query",
                f"SELECT exceedance(21.0) FROM CATALOG '{catalog}'",
                "--target", f"tcp://{host}:{port}", "--head", "3",
            ])
            out = capsys.readouterr().out
            assert exit_code == 0
            assert "1 matched series" in out
            assert "room-a" in out

            exit_code = main([
                "query",
                f"SELECT expected_value FROM CATALOG '{catalog}'",
                "--target", f"tcp://{host}:{port}", "--json",
            ])
            out = capsys.readouterr().out
            assert exit_code == 0
            assert out.startswith('{"aggregate":"expected_value"')

    def test_server_query_structured_engine_error(self, tmp_path, capsys):
        from repro.server import QueryServer, ServerThread

        catalog = self._make_catalog(tmp_path, capsys)
        with ServerThread(QueryServer(catalog, port=0)) as (host, port):
            exit_code = main([
                "query",
                f"SELECT exceedance(21.0) FROM CATALOG '{catalog}' "
                "SERIES 'z*'",
                "--target", f"tcp://{host}:{port}",
            ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error: query_error")
        assert "Traceback" not in captured.err

    def test_server_slowlog_rejects_negative_limit(self, capsys):
        # A negative --limit sliced the two oldest entries away.
        exit_code = main([
            "server", "slowlog", "--port", "1", "--limit", "-2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err == "error: --limit must be >= 0, got -2\n"
        assert captured.out == ""

    def test_server_serve_rejects_a_negative_slow_query_threshold(
        self, tmp_path, capsys
    ):
        catalog = self._make_catalog(tmp_path, capsys)
        exit_code = main([
            "server", "serve", catalog, "--port", "0", "--slow-query-ms", "-1",
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err == (
            "error: slow-query threshold must be >= 0 ms, got -1.0\n"
        )
        assert captured.out == ""

    def test_server_stats_prints_the_reply_cache(self, tmp_path, capsys):
        from repro.server import Client, QueryServer, ServerThread

        catalog = self._make_catalog(tmp_path, capsys)
        statement = f"SELECT exceedance(21.0) FROM CATALOG '{catalog}'"
        with ServerThread(QueryServer(catalog, port=0)) as (host, port):
            with Client(host, port) as client:
                client.query(statement)
                client.query(statement)
            target = ["--host", host, "--port", str(port)]
            assert main(["server", "stats", *target]) == 0
            table = capsys.readouterr().out
            assert main(["server", "stats", *target, "--json"]) == 0
            stats = json.loads(capsys.readouterr().out)
        assert "reply cache" in table
        assert stats["reply_cache"]["hits"] == 1
        assert stats["reply_cache"]["misses"] == 1

    def test_server_query_without_server_fails_cleanly(self, capsys):
        exit_code = main([
            "query", "SELECT expected_value FROM CATALOG 'x'",
            "--target", "tcp://127.0.0.1:1",  # Nothing listens on port 1.
        ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_keyboard_interrupt_exits_cleanly(self, capsys, monkeypatch):
        from repro.db.engine import Database

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(Database, "execute", interrupted)
        exit_code = main([
            "query", "SELECT expected_value FROM CATALOG 'x'",
        ])
        captured = capsys.readouterr()
        assert exit_code == 130
        assert "interrupted" in captured.err
        assert "Traceback" not in captured.err

    def test_server_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["server"])
        # Coalescing is unconditional: the flag that disabled it is gone
        # (spelt in two halves so a grep for stale uses stays empty).
        serve = ["server", "serve", "cat"]
        assert build_parser().parse_args(serve).catalog == "cat"
        with pytest.raises(SystemExit):
            build_parser().parse_args([*serve, "--no-" + "coalesce"])

    def test_service_query_multi_statement_batch(self, tmp_path, capsys):
        catalog = self._make_catalog(tmp_path, capsys)
        exceedance = f"SELECT exceedance(21.0) FROM CATALOG '{catalog}'"
        exit_code = main([
            "query",
            exceedance,
            f"SELECT threshold(0.4) FROM CATALOG '{catalog}' TOP 1",
            exceedance,  # Served from the bound service's warm cache.
            "--target", catalog, "--head", "2",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out.count("matched series") == 3
        assert "max_p" in out and "hits" in out
