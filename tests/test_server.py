"""Tests for the asyncio query server (`repro.server`).

The protocol promises that every failure mode — malformed frames,
oversized statements, engine errors, saturation, shutdown — produces a
*structured* error response, never a dropped connection with a server-side
traceback.  These tests drive a real server over real sockets (the
:class:`ServerThread` embedding) and additionally pin the serialisation:
a statement served over the wire must be bit-identical to the same
statement run through ``Database.execute`` directly.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.db.engine import Database
from repro.db.table import Table
from repro.server import (
    Client,
    QueryServer,
    ServerConnectionError,
    ServerError,
    ServerThread,
    canonical_dumps,
)
from repro.store import Catalog
from repro.view.omega import OmegaGrid

H = 16
GRID = OmegaGrid(delta=0.5, n=4)
SERIES = ("room-0", "room-1", "plant-0")


def _build_catalog(root) -> Catalog:
    catalog = Catalog(root)
    rng = np.random.default_rng(7)
    for offset, series_id in enumerate(SERIES):
        catalog.create_series(
            series_id, metric="variable_threshold", H=H, grid=GRID
        )
        values = 20.0 + 0.2 * offset + np.cumsum(
            rng.normal(0.0, 0.05, size=48)
        )
        catalog.append(series_id, values)
    return catalog


@pytest.fixture(scope="module")
def catalog_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("server-catalog") / "cat"
    _build_catalog(root)
    return root


@pytest.fixture(scope="module")
def running_server(catalog_root):
    server = QueryServer(catalog_root, port=0, max_inflight=4)
    with ServerThread(server) as (host, port):
        yield server, host, port


@pytest.fixture
def client(running_server):
    _, host, port = running_server
    with Client(host, port) as client:
        yield client


def _select(root, aggregate="exceedance(20.5)", suffix="") -> str:
    return f"SELECT {aggregate} FROM CATALOG '{root}'{suffix}"


class _GatedServer(QueryServer):
    """A server whose statement execution blocks until a gate opens.

    Makes concurrency scenarios (saturation, coalescing, draining,
    mid-response disconnects) deterministic instead of timing-dependent.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.entered = threading.Event()

    def _execute(self, statement, want_trace=False):
        self.entered.set()
        if not self.gate.wait(timeout=15):
            raise RuntimeError("test gate never opened")
        return super()._execute(statement, want_trace)


class TestQueryRoundtrip:
    def test_ping_and_stats(self, client):
        assert client.ping()
        stats = client.stats()
        # Client.stats() strips the protocol framing discriminator.
        assert "kind" not in stats
        assert stats["connections"] >= 1
        assert "cache" in stats

    def test_select_over_wire(self, catalog_root, client):
        result = client.query(_select(catalog_root, suffix=" TOP 2"))
        assert result["kind"] == "select"
        assert result["aggregate"] == "exceedance"
        assert len(result["results"]) == 2
        assert sorted(result["matched"]) == sorted(SERIES)

    def test_wire_result_bit_identical_to_engine(
        self, catalog_root, client
    ):
        statements = [
            _select(catalog_root),
            _select(catalog_root, aggregate="threshold(0.2)"),
            _select(catalog_root, aggregate="expected_value",
                    suffix=" SERIES 'room-*'"),
            _select(catalog_root, aggregate="time_above(20.5, 4)",
                    suffix=" TOP 1"),
        ]
        for statement in statements:
            direct = Database().execute(statement).json()
            served = canonical_dumps(client.query(statement))
            assert served == direct

    def test_create_view_over_wire(self, catalog_root):
        table = Table("raw_values", ["t", "r"])
        rng = np.random.default_rng(3)
        table.insert_many(
            (float(i), 20.0 + 0.01 * i + rng.normal(0.0, 0.05))
            for i in range(80)
        )
        server = QueryServer(catalog_root, port=0)
        server.database.register_table(table)
        statement = (
            "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=4 "
            "METRIC variable_threshold WINDOW 20 FROM raw_values"
        )
        with ServerThread(server) as (host, port):
            with Client(host, port) as client:
                result = client.query(statement)
        assert result["kind"] == "view"
        assert result["name"] == "pv"
        assert len(result["tuples"]) == 60 * GRID.n

    def test_sequential_requests_reuse_connection(
        self, catalog_root, client
    ):
        first = client.query(_select(catalog_root))
        second = client.query(_select(catalog_root))
        assert first == second


class TestErrorPaths:
    def test_malformed_json_frame(self, running_server):
        _, host, port = running_server
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"this is not json\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "bad_request"
            # The connection survives: the next frame still answers.
            stream.write(b'{"op": "ping"}\n')
            stream.flush()
            assert json.loads(stream.readline())["ok"] is True

    def test_non_finite_json_constants_rejected(self, running_server):
        # json.loads accepts NaN/Infinity, but they can never be echoed
        # canonically — the frame must fail as a structured bad_request,
        # not crash response encoding and drop the connection.
        _, host, port = running_server
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = sock.makefile("rwb")
            for frame in (
                b'{"id": NaN, "op": "ping"}\n',
                b'{"id": Infinity, "op": "ping"}\n',
            ):
                stream.write(frame)
                stream.flush()
                response = json.loads(stream.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "bad_request"
            # An id that parses to inf without a constant token is
            # dropped rather than fatal; the op still answers.
            stream.write(b'{"id": 1e999, "op": "ping"}\n')
            stream.flush()
            response = json.loads(stream.readline())
            assert response["ok"] is True
            assert response["id"] is None
            stream.write(b'{"op": "ping"}\n')
            stream.flush()
            assert json.loads(stream.readline())["ok"] is True

    def test_non_object_frame(self, running_server):
        _, host, port = running_server
        with socket.create_connection((host, port), timeout=5) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"[1, 2, 3]\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["error"]["type"] == "bad_request"

    def test_missing_statement(self, client):
        response = client.request({"id": 9, "op": "query"})
        assert response["id"] == 9
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"

    def test_unknown_op(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._roundtrip({"op": "teleport"})
        assert excinfo.value.type == "bad_request"

    def test_oversized_statement(self, catalog_root):
        server = QueryServer(
            catalog_root, port=0, max_statement_chars=200
        )
        with ServerThread(server) as (host, port):
            with Client(host, port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query("SELECT " + "x" * 500)
                assert excinfo.value.type == "statement_too_large"
                assert client.ping()  # Connection stays usable.

    def test_frame_too_large_closes_connection(self, catalog_root):
        server = QueryServer(catalog_root, port=0, frame_limit_bytes=1024)
        with ServerThread(server) as (host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                stream = sock.makefile("rwb")
                stream.write(b'{"statement": "' + b"y" * 4096 + b'"}\n')
                stream.flush()
                response = json.loads(stream.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "frame_too_large"
                assert stream.readline() == b""  # Server hangs up.

    def test_query_against_missing_catalog(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.query(
                "SELECT exceedance(1.0) FROM CATALOG '/no/such/catalog'"
            )
        assert excinfo.value.type == "store_error"
        assert "no catalog" in excinfo.value.message

    def test_unknown_series_is_structured(self, catalog_root, client):
        with pytest.raises(ServerError) as excinfo:
            client.query(_select(catalog_root, suffix=" SERIES 'zzz-*'"))
        assert excinfo.value.type == "query_error"

    def test_bad_statement_is_structured(self, catalog_root, client):
        with pytest.raises(ServerError) as excinfo:
            client.query("SELEKT wat")
        assert excinfo.value.type in ("parse_error", "query_error")

    def test_overflowing_literal_is_a_parse_error(self, catalog_root, client):
        with pytest.raises(ServerError) as excinfo:
            client.query(
                f"SELECT time_above(20.3, 1e999) FROM CATALOG '{catalog_root}'"
            )
        assert excinfo.value.type == "parse_error"
        assert "finite" in excinfo.value.message

    def test_engine_errors_do_not_kill_the_server(
        self, catalog_root, client
    ):
        for _ in range(3):
            with pytest.raises(ServerError):
                client.query("SELECT nope(1) FROM CATALOG 'x'")
        assert client.ping()


class TestAdmissionAndCoalescing:
    def test_saturation_rejects_fast(self, catalog_root):
        server = _GatedServer(catalog_root, port=0, max_inflight=1)
        statement = _select(catalog_root)
        other = _select(catalog_root, aggregate="expected_value")
        outcome: dict = {}

        def blocked_query():
            with Client(*address) as blocked:
                outcome["result"] = blocked.query(statement)

        with ServerThread(server) as address:
            worker = threading.Thread(target=blocked_query)
            worker.start()
            assert server.entered.wait(timeout=10)
            with Client(*address) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query(other)
                assert excinfo.value.type == "saturated"
                assert excinfo.value.retryable
            server.gate.set()
            worker.join(timeout=10)
        assert outcome["result"]["kind"] == "select"
        assert server.stats.rejected == 1

    def test_identical_statements_coalesce(self, catalog_root):
        server = _GatedServer(catalog_root, port=0, max_inflight=1)
        statement = _select(catalog_root)
        results: list = []

        def issue():
            with Client(*address) as client:
                results.append(client.query(statement))

        with ServerThread(server) as address:
            first = threading.Thread(target=issue)
            first.start()
            assert server.entered.wait(timeout=10)
            second = threading.Thread(target=issue)
            second.start()
            # Deterministic: wait until the second request has attached
            # to the in-flight execution before opening the gate.
            with Client(*address) as observer:
                deadline = time.monotonic() + 10
                while observer.stats()["coalesced"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            server.gate.set()
            first.join(timeout=10)
            second.join(timeout=10)
        assert len(results) == 2
        assert results[0] == results[1]
        assert server.stats.executed == 1
        assert server.stats.coalesced == 1
        assert server.stats.rejected == 0

    def test_whitespace_inside_quotes_never_coalesces(self, catalog_root):
        # 'room-*' vs 'room- *' differ only by whitespace *inside* a
        # quoted glob: they are different statements and must never share
        # an execution (the second would silently get the first's rows).
        server = _GatedServer(catalog_root, port=0, max_inflight=2)
        base = f"SELECT exceedance(20.5) FROM CATALOG '{catalog_root}'"
        outcomes: list = []

        def issue(statement):
            with Client(*address) as client:
                try:
                    outcomes.append(client.query(statement))
                except ServerError as exc:
                    outcomes.append(exc)

        with ServerThread(server) as address:
            first = threading.Thread(
                target=issue, args=(base + " SERIES 'room-*'",)
            )
            first.start()
            assert server.entered.wait(timeout=10)
            second = threading.Thread(
                target=issue, args=(base + " SERIES 'room- *'",)
            )
            second.start()
            with Client(*address) as observer:
                deadline = time.monotonic() + 10
                while observer.stats()["executed"] < 2:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            server.gate.set()
            first.join(timeout=10)
            second.join(timeout=10)
        assert server.stats.executed == 2
        assert server.stats.coalesced == 0
        # One real result, one structured no-match error — never two
        # copies of the same rows.
        kinds = sorted(type(outcome).__name__ for outcome in outcomes)
        assert kinds == ["ServerError", "dict"]


class TestShutdown:
    def test_shutdown_drains_inflight_work(self, catalog_root):
        server = _GatedServer(catalog_root, port=0)
        statement = _select(catalog_root)
        outcome: dict = {}
        handle = ServerThread(server)
        address = handle.start()

        def blocked_query():
            with Client(*address) as client:
                outcome["result"] = client.query(statement)

        worker = threading.Thread(target=blocked_query)
        worker.start()
        assert server.entered.wait(timeout=10)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        time.sleep(0.05)  # Let the drain begin before opening the gate.
        server.gate.set()
        worker.join(timeout=10)
        stopper.join(timeout=10)
        # The in-flight query's full response was written before close.
        assert outcome["result"]["kind"] == "select"

    def test_client_disconnect_mid_response(self, catalog_root):
        server = _GatedServer(catalog_root, port=0)
        statement = _select(catalog_root)
        with ServerThread(server) as (host, port):
            sock = socket.create_connection((host, port), timeout=5)
            sock.sendall(
                json.dumps({"id": 1, "statement": statement}).encode()
                + b"\n"
            )
            assert server.entered.wait(timeout=10)
            sock.close()  # Vanish while the statement is executing.
            server.gate.set()
            # The server must absorb the failed write and keep serving.
            with Client(host, port) as client:
                assert client.ping()
                assert client.query(statement)["kind"] == "select"

    def test_connecting_after_stop_fails(self, catalog_root):
        server = QueryServer(catalog_root, port=0)
        handle = ServerThread(server)
        host, port = handle.start()
        handle.stop()
        with pytest.raises(ServerConnectionError):
            Client(host, port, timeout=2)
