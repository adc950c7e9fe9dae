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

import contextlib
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.db.engine import Database
from repro.db.prob_view import ProbTuple
from repro.db.table import Table
from repro.exceptions import ReproError
from repro.obs import MetricsRegistry
from repro.server import (
    Client,
    QueryServer,
    ServerConnectionError,
    ServerError,
    ServerThread,
    canonical_dumps,
)
from repro.server.protocol import (
    DEFAULT_FRAME_LIMIT,
    MAX_STATEMENT_CHARS,
    encode_frame,
    error_frame,
    error_type,
    result_frame,
)
from repro.service.executor import CatalogQueryService, StatementResult
from repro.store import Catalog
from repro.view.omega import OmegaGrid
from view_helpers import view_from_rows

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


VIEW_STATEMENT = (
    "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=4 "
    "METRIC variable_threshold WINDOW 20 FROM raw_values"
)


def _raw_table() -> Table:
    table = Table("raw_values", ["t", "r"])
    rng = np.random.default_rng(3)
    table.insert_many(
        (float(i), 20.0 + 0.01 * i + rng.normal(0.0, 0.05))
        for i in range(80)
    )
    return table


def _raw_frames(address, requests) -> list[bytes]:
    """Send request frames one by one on one connection; the reply lines."""
    with socket.create_connection(address, timeout=10) as sock:
        stream = sock.makefile("rwb")
        replies = []
        for request in requests:
            stream.write(json.dumps(request).encode() + b"\n")
            stream.flush()
            replies.append(stream.readline())
        return replies


def _engine_frame(database, request_id, statement) -> bytes:
    """The frame as the wire always wrote it, from a fresh in-process run:
    ``encode_frame(result_frame(id, result.to_dict()))``, or the error
    frame of the exception."""
    try:
        payload = database.execute(statement).to_dict()
    except ReproError as exc:
        return encode_frame(
            error_frame(request_id, error_type(exc), str(exc))
        )
    return encode_frame(result_frame(request_id, payload))


def _without_trace(frame: bytes) -> bytes:
    """A traced frame minus its trace block.

    Asserts first that the frame is canonical as sent — so the block sat
    at its sorted key position, wherever that is in the payload.
    """
    decoded = json.loads(frame)
    assert encode_frame(decoded) == frame
    if decoded["ok"]:
        assert "stages" in decoded["result"].pop("trace")
    return encode_frame(decoded)


def _grow(catalog, series_id, values) -> None:
    catalog.create_series(
        series_id, metric="variable_threshold", H=H, grid=GRID
    )
    catalog.append(series_id, values)


def _walk(seed, size, level=20.0):
    rng = np.random.default_rng(seed)
    return level + np.cumsum(rng.normal(0.0, 0.05, size=size))


def _strip_synopses(root, series_id) -> None:
    """Make one series look written before segment synopses existed."""
    path = root / series_id / "series.json"
    meta = json.loads(path.read_text())
    meta.pop("synopses", None)
    path.write_text(json.dumps(meta))


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

    def test_wire_result_bit_identical_to_engine(self, catalog_root):
        # Every kind, traced and untraced, first send and repeats (reply
        # cache hits): the frame is what encode_frame(result_frame(...))
        # of a fresh in-process execution gives, byte for byte.
        root = catalog_root
        statements = [
            _select(root),
            _select(root, aggregate="threshold(0.2)"),
            _select(root, aggregate="expected_value",
                    suffix=" SERIES 'room-*'"),
            _select(root, aggregate="time_above(20.5, 4)", suffix=" TOP 1"),
            f"SELECT APPROX exceedance(20.5) FROM CATALOG '{root}'",
            f"SIMULATE 2 FROM CATALOG '{root}'",
            f"SIMULATE 2 SEED 11 FROM CATALOG '{root}' SERIES 'room-*'",
            _select(root, aggregate="exceedance(20.5), expected_value"),
            VIEW_STATEMENT,
            _select(root, suffix=" SERIES 'zzz-*'"),
            "SELEKT wat",
        ]
        direct = Database()
        direct.register_table(_raw_table())
        for traced_first in (False, True):
            server = QueryServer(root, port=0)
            server.database.register_table(_raw_table())
            with ServerThread(server) as address:
                for statement in statements:
                    ids = [7, "s-1", None, 2.5]
                    traced = [traced_first] * 2 + [not traced_first] * 2
                    replies = _raw_frames(address, [
                        {"id": request_id, "statement": statement,
                         "trace": trace}
                        for request_id, trace in zip(ids, traced)
                    ])
                    for request_id, trace, reply in zip(
                        ids, traced, replies
                    ):
                        expected = _engine_frame(
                            direct, request_id, statement
                        )
                        got = _without_trace(reply) if trace else reply
                        assert got == expected, statement
                replies = server.service.cache.stats.replies()
            # CREATE VIEW and failed statements are never cached; each
            # cacheable statement missed once and hit three times.
            assert replies["entries"] == 8
            assert (replies["misses"], replies["hits"]) == (8, 24)

    def test_coalesced_arrivals_share_one_rendered_body(self, catalog_root):
        server = _GatedServer(catalog_root, port=0, max_inflight=1)
        statement = _select(catalog_root, aggregate="expected_value")
        direct = Database()
        with ServerThread(server) as address:
            for trace in (False, True):
                server.gate.clear()
                server.entered.clear()
                replies: dict = {}

                def issue(request_id, trace=trace):
                    replies[request_id] = _raw_frames(address, [
                        {"id": request_id, "statement": statement,
                         "trace": trace}
                    ])[0]

                first = threading.Thread(target=issue, args=(1,))
                first.start()
                assert server.entered.wait(timeout=10)
                coalesced = server.stats.coalesced
                second = threading.Thread(target=issue, args=("b",))
                second.start()
                deadline = time.monotonic() + 10
                while server.stats.coalesced == coalesced:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                server.gate.set()
                first.join(timeout=10)
                second.join(timeout=10)
                for request_id, reply in replies.items():
                    got = _without_trace(reply) if trace else reply
                    assert got == _engine_frame(
                        direct, request_id, statement
                    )
                if trace:  # One body: the same trace block in both.
                    assert replies[1][8:] == replies["b"][10:]
        assert server.stats.coalesced == 2

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
            for frame in (
                b'{"id": 1e999, "op": "ping"}\n',
                b'{"id": [1, -1e999], "op": "ping"}\n',
            ):
                stream.write(frame)
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
        with ServerThread(QueryServer(catalog_root, port=0)) as (host, port):
            with Client(host, port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.query("SELECT " + "x" * MAX_STATEMENT_CHARS)
                assert excinfo.value.type == "statement_too_large"
                assert client.ping()  # Connection stays usable.

    def test_frame_too_large_closes_connection(self, catalog_root):
        with ServerThread(QueryServer(catalog_root, port=0)) as (host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                stream = sock.makefile("rwb")
                filler = b"y" * DEFAULT_FRAME_LIMIT
                stream.write(b'{"statement": "' + filler + b'"}\n')
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


@contextlib.contextmanager
def _answering(reply: bytes):
    """A listening socket that answers one request line with ``reply``."""
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def answer_once() -> None:
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                stream.readline()
                stream.write(reply)
                stream.flush()

        thread = threading.Thread(target=answer_once, daemon=True)
        thread.start()
        yield listener.getsockname()[:2]
        thread.join(timeout=5)


def _decoded_and_frame(address, payload) -> tuple[bytes, bytes]:
    """Canonical text of the client's decode and of ``json.loads`` of the
    same reply frame, read raw on a second connection."""
    (frame,) = _raw_frames(address, [payload])
    with Client(*address) as client:
        decoded = client.request(dict(payload))
    return canonical_dumps(decoded), canonical_dumps(json.loads(frame))


class TestReplyDecoding:
    """The client decodes every reply to exactly what ``json.loads`` gives.

    Canonical text is compared, not objects: ``1 == 1.0`` and
    ``-0.0 == 0.0`` would let a float stand in for an int.
    """

    @pytest.mark.parametrize(
        "request_id",
        [2**70, -(2**64), 2**64, -(2**63) - 1, 2**64 - 1, -(2**63)],
    )
    def test_echoed_integer_ids(self, running_server, request_id):
        _, host, port = running_server
        decoded, reference = _decoded_and_frame(
            (host, port), {"id": request_id, "op": "ping"}
        )
        assert decoded == reference
        assert json.loads(decoded)["id"] == request_id

    def test_error_echoing_a_lone_surrogate(self, running_server):
        # The request frame carries the escape "\ud800"; the store error
        # names the path, so the reply carries it back (orjson refuses it).
        _, host, port = running_server
        statement = "SELECT exceedance(1) FROM CATALOG '/no/\ud800'"
        decoded, reference = _decoded_and_frame(
            (host, port), {"id": 4, "statement": statement}
        )
        assert decoded == reference
        error = json.loads(reference)["error"]
        assert error == {
            "type": "store_error", "message": "no catalog at /no/\ud800"
        }

    @pytest.mark.parametrize(
        "frame",
        [
            b'\xef\xbb\xbf{"id":1,"ok":true,"result":{"kind":"pong"}}\n',
            b'{"id":1,"ok":true,"result":{"kind":"pong","x":1e400}}\n',
            b'{"id":1,"ok":true,"result":{"kind":"pong","x":-0.0}}\n',
        ],
        ids=["bom", "overflowing-float", "negative-zero"],
    )
    def test_frames_no_server_writes(self, frame):
        with _answering(frame) as address:
            with Client(*address) as client:
                decoded = client.request({"id": 1, "op": "ping"})
        assert repr(decoded) == repr(json.loads(frame))

    def test_simulate_seed_two_to_the_53(self, catalog_root, running_server):
        _, host, port = running_server
        statement = (
            f"SIMULATE 2 SEED 9007199254740992 FROM CATALOG '{catalog_root}'"
        )
        decoded, reference = _decoded_and_frame(
            (host, port), {"id": 5, "statement": statement}
        )
        assert decoded == reference
        result = json.loads(decoded)["result"]
        assert result["seed"] == 2**53
        in_process = Database().execute(statement).to_dict()
        assert canonical_dumps(result) == canonical_dumps(in_process)

    def test_large_exceedance_reply(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        for index in range(16):
            _grow(catalog, f"s{index:02d}", _walk(index, 1000))
        statement = _select(catalog.root, "exceedance(20.0)")
        with ServerThread(QueryServer(catalog.root, port=0)) as address:
            decoded, reference = _decoded_and_frame(
                address, {"id": 6, "statement": statement}
            )
        assert len(reference) > 200_000
        assert decoded == reference

    def test_a_reply_that_is_not_utf8_is_a_connection_error(self):
        with _answering(b"\xff\n") as address:
            with Client(*address) as client:
                with pytest.raises(ServerConnectionError, match="unparseable"):
                    client.ping()


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


class TestReplyCache:
    """Replies are rendered once per catalog state and never outlive it."""

    def test_repeats_are_admissions_not_executions(self, catalog_root):
        server = QueryServer(
            catalog_root, port=0, registry=MetricsRegistry()
        )
        statement = _select(catalog_root, aggregate="expected_value")
        with ServerThread(server) as address:
            with Client(*address) as client:
                answers = [client.query(statement) for _ in range(3)]
                stats = client.stats()
                gauges = client.metrics()["metrics"]
        assert answers[0] == answers[1] == answers[2]
        assert (stats["executed"], stats["coalesced"]) == (3, 0)
        assert stats["reply_cache"]["hits"] == 2
        assert stats["reply_cache"]["misses"] == 1
        assert stats["reply_cache"]["entries"] == 1
        assert stats["reply_cache"]["bytes"] > len(canonical_dumps(answers[0]))
        # Only the first arrival touched the matrix cache.
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (
            0, len(SERIES)
        )
        hits = gauges["repro_reply_cache_hits"]["values"]
        assert hits == {'{scope="service"}': 2.0}

    def test_traced_repeat_shows_a_cached_reply_stage(self, catalog_root):
        server = QueryServer(catalog_root, port=0)
        statement = _select(catalog_root)
        with ServerThread(server) as address:
            with Client(*address) as client:
                miss = client.query(statement, trace=True)["trace"]
                hit = client.query(statement, trace=True)["trace"]
        miss_stages = {span["name"] for span in miss["stages"]}
        hit_stages = {span["name"] for span in hit["stages"]}
        assert {"fan_out", "serialize"} <= miss_stages
        assert "cached_reply" not in miss_stages
        assert "cached_reply" in hit_stages
        assert not {"fan_out", "serialize"} & hit_stages

    def test_non_finite_result_keeps_the_request_id(
        self, catalog_root, monkeypatch
    ):
        real = StatementResult.to_dict

        def poisoned(self):
            payload = real(self)
            payload["results"][0]["score"] = float("nan")
            return payload

        monkeypatch.setattr(StatementResult, "to_dict", poisoned)
        statement = _select(catalog_root)
        server = QueryServer(catalog_root, port=0)
        with ServerThread(server) as (host, port):
            with socket.create_connection((host, port), timeout=10) as sock:
                stream = sock.makefile("rwb")
                stream.write(
                    json.dumps({"id": 41, "statement": statement}).encode()
                    + b"\n"
                )
                stream.flush()
                response = json.loads(stream.readline())
                assert response["id"] == 41
                assert response["ok"] is False
                assert response["error"]["type"] == "internal"
                assert "non-finite" in response["error"]["message"]
                assert server.stats.errors == 1
                assert server.service.cache.stats.reply_entries == 0
                monkeypatch.undo()
                stream.write(
                    json.dumps({"id": 42, "statement": statement}).encode()
                    + b"\n"
                )
                stream.flush()
                assert stream.readline() == _engine_frame(
                    Database(), 42, statement
                )
        assert server.stats.errors == 1

    def test_every_catalog_change_misses(self, tmp_path):
        root = tmp_path / "cat"
        catalog = Catalog(root)
        for index, series_id in enumerate(SERIES):
            _grow(catalog, series_id, _walk(index, 48))
        for index, series_id in enumerate(("room-0", "room-1")):
            catalog.append(series_id, _walk(10 + index, 24))
        late = _select(
            root, aggregate="expected_value", suffix=" WHERE t BETWEEN 50 AND 70"
        )
        statements = [
            _select(root),
            late,
            f"SELECT APPROX exceedance(20.5) FROM CATALOG '{root}'",
            f"SIMULATE 2 SEED 5 FROM CATALOG '{root}' SERIES 'room-*'",
            *(_select(root, suffix=f" AS OF {k}") for k in range(5)),
        ]
        # plant-0 ends at t = 47: the late window skips it.
        assert Database().execute(late).stats.series_skipped == 1
        server = QueryServer(root, port=0)
        with ServerThread(server) as address:
            with Client(*address) as client:

                steps = []

                def check(step):
                    steps.append(step)
                    for statement in statements:
                        fresh = Database().execute(statement).json()
                        for _ in range(2):
                            served = canonical_dumps(client.query(statement))
                            assert served == fresh, (step, statement)

                def revision(low):
                    return view_from_rows("room-1", [
                        ProbTuple(t, low, low + 1.0, 0.9, "rev")
                        for t in range(20, 26)
                    ])

                check("initial")
                catalog.append("room-0", _walk(20, 8))
                check("append to a matched series")
                catalog.append("plant-0", _walk(21, 8))
                check("append to a skipped series")
                catalog.revise("room-1", revision(19.0), knowledge_time=1)
                check("revise")
                catalog.revise("room-1", revision(21.0), knowledge_time=3)
                check("second revise")
                catalog.drop_series("plant-0")
                check("drop")
                _grow(catalog, "plant-0", _walk(2, 48))
                catalog.append("plant-0", _walk(21, 8))
                check("re-create with identical values")
                _grow(catalog, "room-2", _walk(30, 48))
                check("new series matching the glob")
                _strip_synopses(root, "room-0")
                check("synopses lost")
                catalog.synopsize()
                check("synopsize")
            replies = server.service.cache.stats.replies()
        # Every second send hits; every step changed the state every
        # statement over '*' read, so its first send missed.
        assert replies["hits"] >= len(steps) * len(statements)
        assert replies["misses"] >= len(steps) * (len(statements) - 1)

    def test_repeats_racing_a_writer_see_only_real_states(self, tmp_path):
        root = tmp_path / "cat"
        catalog = Catalog(root)
        for index, series_id in enumerate(SERIES):
            _grow(catalog, series_id, _walk(index, 48))
        statement = _select(root, aggregate="expected_value")
        fresh = {Database().execute(statement).json()}
        done = threading.Event()

        def writer():
            try:
                writer_catalog = Catalog(root)
                for batch in range(6):
                    writer_catalog.append("room-0", _walk(40 + batch, 8))
                    fresh.add(Database().execute(statement).json())
                    time.sleep(0.02)
            finally:
                done.set()

        answers = []
        server = QueryServer(root, port=0)
        with ServerThread(server) as address:
            with Client(*address) as client:
                thread = threading.Thread(target=writer)
                thread.start()
                while not done.is_set():
                    answers.append(canonical_dumps(client.query(statement)))
                thread.join(timeout=30)
                final = canonical_dumps(client.query(statement))
        assert len(fresh) == 7
        assert set(answers) <= fresh
        assert final == Database().execute(statement).json()

    def test_hits_record_what_executions_record(self, tmp_path):
        root = tmp_path / "cat"
        catalog = Catalog(root)
        for index, series_id in enumerate(SERIES):
            _grow(catalog, series_id, _walk(index, 48))
        # APPROX loads this series' segment to compute its synopsis: the
        # final segments_scanned is only known after execution.
        _strip_synopses(root, "room-1")
        statements = [
            _select(root),
            f"SELECT APPROX exceedance(20.5) FROM CATALOG '{root}'",
            _select(root, aggregate="exceedance(20.5), threshold(0.6)"),
            f"SIMULATE 2 FROM CATALOG '{root}'",
            _select(root, aggregate="threshold(0.6)"),
        ]
        sequence = statements * 3
        served = MetricsRegistry()
        server = QueryServer(
            root, port=0, registry=served, slow_query_ms=0.0
        )
        reference = MetricsRegistry()
        uncached = CatalogQueryService(
            root, registry=reference, slow_query_ms=0.0
        )
        database = Database(uncached)
        with ServerThread(server) as address:
            with Client(*address) as client:
                for statement in sequence:
                    client.query(statement)
                    database.execute(statement)
        database.close()
        assert server.service.cache.stats.reply_hits == 2 * len(statements)
        assert server.service.execution_stats() == uncached.execution_stats()
        assert server.service.execution_stats()["segments_scanned"] > 0
        for name in (
            "repro_queries_total",
            "repro_segments_scanned_total",
            "repro_segments_pruned_total",
            "repro_series_skipped_total",
        ):
            assert (
                served.snapshot()[name]["values"]
                == reference.snapshot()[name]["values"]
            ), name
        counts = {
            registry: {
                labels: sample["count"]
                for labels, sample in registry.snapshot()[
                    "repro_query_seconds"
                ]["values"].items()
            }
            for registry in (served, reference)
        }
        assert counts[served] == counts[reference]

        def slow_entries(service):
            keys = ("statement", "segments_scanned", "segments_pruned",
                    "series_skipped", "segments_total", "approx")
            return [
                tuple(entry[key] for key in keys)
                for entry in service.slow_log.entries()
            ]

        assert server.service.slow_log.counts() == uncached.slow_log.counts()
        assert slow_entries(server.service) == slow_entries(uncached)
