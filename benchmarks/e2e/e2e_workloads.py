"""The five end-to-end workloads (see README.md for why these five).

Each workload is a fixed op list generated from the seed.  ``build()``
creates its inputs through the public API (timed by the runner as
``setup_s``), ``reference()`` computes the answers the ops must give,
``epoch()`` runs the op list once with tracing off, and
``traced_epoch()`` replays a third of it stepwise under a
:class:`~e2e_trace.Tracer`.  The runner repeats whole epochs until the
measuring time is used up, so every run is a whole number of identical op
lists whatever the host's speed.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

import e2e_common as common
from e2e_common import Epoch, check, digest, timed
from e2e_trace import Tracer, clock

#: Workload sizes per ``--scale``.  ``full`` is what BENCHMARK.json's
#: numbers mean; ``smoke`` keeps every code path and shrinks every count.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "serve_warm": dict(
            series=64, times=300, H=40, n=8, clients=2, literals=2, repeats=1
        ),
        "scan_cold": dict(
            series=16, segments=10, segment_times=100, H=40, n=8,
            cache_budget_bytes=4 << 20,
        ),
        "ingest_live": dict(
            series=16, rounds=8, batch=20, H=40, n=8, poll_every=8
        ),
        "create_view": dict(
            values=2200, slices=12, slice_len=160, kalman_len=80,
            window=60, n=20,
        ),
        "worlds_exact": dict(
            series=24, times=120, H=16, n=4, n_worlds=8, variants=2
        ),
    },
    "smoke": {
        "serve_warm": dict(
            series=6, times=40, H=10, n=4, clients=2, literals=1, repeats=1
        ),
        "scan_cold": dict(
            series=16, segments=2, segment_times=20, H=10, n=4,
            cache_budget_bytes=40 << 10,
        ),
        "ingest_live": dict(
            series=4, rounds=3, batch=10, H=10, n=4, poll_every=4
        ),
        "create_view": dict(
            values=160, slices=2, slice_len=40, kalman_len=36,
            window=30, n=6,
        ),
        "worlds_exact": dict(
            series=4, times=20, H=8, n=4, n_worlds=2, variants=2
        ),
    },
}


def _segment_reads() -> float:
    """Segments materialised so far in this process (the store's counter)."""
    from repro.obs import default_registry

    return default_registry().counter(
        "repro_store_segment_reads_total"
    ).total()


def _item_stats(result: Any) -> list[Any]:
    """The PlanStats of a result, one per select-list item."""
    items = getattr(result, "items", None)
    if items is not None:
        return [item.stats for item in items if item.stats is not None]
    stats = getattr(result, "stats", None)
    return [stats] if stats is not None else []


class Workload:
    name = ""
    #: Statement classes of similar cost that feed ``stmt_p50_ms``.
    primary: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = int(seed)
        self.size = SIZES[scale][self.name]
        self.workdir = workdir
        self.rng = np.random.default_rng(self.seed)
        self.epochs_run = 0
        self._replay: ServiceReplay | None = None

    def build(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def epoch(self) -> Epoch:
        raise NotImplementedError

    def traced_epoch(self, tracer: Tracer) -> Epoch:
        raise NotImplementedError

    def replay_through(
        self, service: Any, tracer: Tracer, *, warm: bool, budget: int
    ) -> "ServiceReplay":
        """This run's replay, pointed at ``service``.

        One per run, so the costly attributed probes (a process pool, the
        other backends) happen once per statement class, not per epoch.
        """
        if self._replay is None:
            self._replay = ServiceReplay(tracer, warm=warm, budget=budget)
        self._replay.service = service
        return self._replay

    def teardown(self) -> None:
        if self._replay is not None:
            self._replay.close()
            self._replay = None

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb()

    def extras(self, epochs: list[Epoch]) -> dict[str, float]:
        """Workload-specific named metrics, each a median over epochs."""
        return {}


# ----------------------------------------------------------------------
# Stepwise replay of one service-route statement.
# ----------------------------------------------------------------------
class ServiceReplay:
    """Replays statements through the public planner/executor calls.

    ``Connection.execute`` on the service route is parse → plan →
    execute_plan; the replay makes the same three calls itself so each
    gets a span.  Calls ``execute_plan`` makes internally are repeated
    once per statement class on the same inputs and attributed.
    """

    def __init__(self, tracer: Tracer, *, warm: bool, budget: int) -> None:
        #: The service to replay through; set before each epoch (a
        #: workload that reconnects gets a new one).
        self.service: Any = None
        self.tracer = tracer
        self.warm = warm
        self.budget = budget
        self._probed: set[str] = set()
        self._others: dict[str, Any] = {}
        #: Span id of the most recent replayed op.
        self.last_op = -1

    def replay(self, op_class: str, text: str, *, wire: bool = False) -> Any:
        """Replay one statement; ``wire`` adds what a server does after it.

        With ``wire`` the service is a stand-in for a remote one, so its
        cache and planner counts are not this workload's and are skipped.
        """
        from repro.service import plan_statement
        from repro.view.sql import parse_statement

        tracer = self.tracer
        service = self.service
        before = service.cache.stats
        reads = _segment_reads()
        with tracer.span(op_class) as self.last_op:
            with tracer.span("view.sql.parse"):
                query = parse_statement(text)
            with tracer.span("service.planner.plan") as plan_span:
                plan = plan_statement(
                    service.catalog, query, pruning=service.pruning
                )
            with tracer.span("service.executor.execute_plan") as exec_span:
                result = service.execute_plan(plan)
            if wire:
                self._serialize(result)
        if not wire:
            after = service.cache.stats
            tracer.count(
                "store.catalog.segments_loaded", _segment_reads() - reads
            )
            tracer.count("cache.hits", after.hits - before.hits)
            tracer.count("cache.misses", after.misses - before.misses)
            tracer.count(
                "service.cache.evictions", after.evictions - before.evictions
            )
            tracer.sample("service.cache.bytes", after.current_bytes)
            for stats in _item_stats(result):
                tracer.count(
                    "service.planner.segments_scanned", stats.segments_scanned
                )
                tracer.count(
                    "service.planner.segments_pruned", stats.segments_pruned
                )
                tracer.count(
                    "service.planner.series_skipped", stats.series_skipped
                )
        if op_class not in self._probed:
            self._probed.add(op_class)
            self._attribute(query, plan, plan_span, exec_span)
        return result

    def replay_into(self, epoch: Epoch, op_class: str, text: str) -> Any:
        """Replay one statement as an op of ``epoch`` (its span is its time)."""
        epoch.attempted += 1
        epoch.statements += 1
        result = self.replay(op_class, text)
        epoch.record(op_class, self.tracer.duration_ms(self.last_op) / 1e3)
        return result

    def _serialize(self, result: Any) -> None:
        """What the server does to a result after executing it."""
        from repro.server.protocol import (
            encode_frame,
            loads_frame,
            result_frame,
        )
        from repro.util.jsonio import canonical_dumps

        tracer = self.tracer
        with tracer.span("service.executor.to_dict"):
            payload = result.to_dict()
        with tracer.span("server.protocol.encode") as encode_span:
            frame = encode_frame(result_frame(1, payload))
        with tracer.span("server.protocol.loads"):
            loads_frame(frame)
        # encode_frame renders the payload with canonical_dumps.
        text = tracer.attribute(
            "util.jsonio.dumps", encode_span, canonical_dumps, payload
        )
        tracer.sample("util.jsonio.result_bytes", len(text))

    def _attribute(
        self, query: Any, plan: Any, plan_span: int, exec_span: int
    ) -> None:
        from repro.store.binary import load_view_columns

        tracer = self.tracer
        tracer.attribute(
            "store.catalog.open_many",
            plan_span,
            self.service.catalog.open_many,
            query.series_pattern,
        )
        jobs = [(item, task) for item in plan.items for task in item.tasks]
        if not jobs:
            return
        envelopes = [item.envelope(task) for item, task in jobs]
        tracer.attribute(
            "service.backends.map",
            exec_span,
            self.service.backend.map,
            envelopes,
        )
        map_span = tracer.last_id()
        for _, task in jobs[:4]:
            tracer.attribute(
                "store.catalog.load_view", map_span, task.snapshot.load_view
            )
            view_span = tracer.last_id()
            for segment in task.snapshot.segments:
                tracer.attribute(
                    "store.binary.load_segment",
                    view_span,
                    load_view_columns,
                    task.snapshot.directory / segment,
                )
        # The other two backends on the same envelope list: not children
        # of anything, so they are samples, not spans.
        for name in ("sequential", "process"):
            backend = self._other(name)
            # Spawned workers import on first use; a warm workload's
            # default backend also already holds every view.
            backend.map(envelopes if self.warm else envelopes[:1])
            before = backend.transport_stats()
            _, elapsed_ms = clock(backend.map, envelopes)
            tracer.sample(f"service.backends.{name}_map_ms", elapsed_ms)
            after = backend.transport_stats()
            if "shm_bytes" in after:
                tracer.sample(
                    "service.shm.bytes", after["shm_bytes"] - before["shm_bytes"]
                )
                tracer.sample(
                    "service.shm.fallbacks",
                    after["shm_fallbacks"] - before["shm_fallbacks"],
                )

    def _other(self, name: str) -> Any:
        from repro.service import MatrixCache, make_backend

        if name not in self._others:
            self._others[name] = make_backend(
                name,
                cache=MatrixCache(self.budget),
                cache_budget_bytes=self.budget,
            )
        return self._others[name]

    def close(self) -> None:
        for backend in self._others.values():
            backend.close()
        self._others.clear()


def _stage_coverage(tracer: Tracer, conn: Any, text: str) -> None:
    """Σ stage_ms ÷ client-observed wall of ``execute(text, trace=True)``."""
    result, wall_ms = clock(lambda: conn.execute(text, trace=True))
    trace = result.trace
    if isinstance(trace, dict):  # tcp route: the server's trace block.
        stage_ms = sum(stage["ms"] for stage in trace.get("stages", []))
    else:
        stage_ms = sum(trace.stage_ms().values())
    tracer.sample("obs.trace.stage_coverage", stage_ms / wall_ms)


def _coverage_check(epoch: Epoch, tracer: Tracer) -> None:
    """Service route: nested children must explain ≥ 90% of each op."""
    coverage = tracer.op_coverage()
    median = statistics.median(coverage) if coverage else 0.0
    check(epoch, median >= 0.9, f"stepwise replay covers {median:.2f} of op")


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------
class ServeWarm(Workload):
    """The tcp route with everything cached.

    Server, protocol and result serialisation do the work; kernels and
    store do almost none (the catalog fits the server's default 64 MiB
    matrix cache and is warmed in set-up).
    """

    name = "serve_warm"
    primary = ("exceedance", "expected_value", "threshold", "time_above")

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        size = self.size
        self.walks = common.random_walks(
            self.rng, size["series"], size["H"] + size["times"]
        )
        self.root = workdir / "serve_warm"
        self.server: subprocess.Popen | None = None
        self.conns: list[Any] = []
        self.expected: dict[str, str] = {}
        self.replay_service: Any = None

    def _statements(self, client: int) -> list[tuple[str, str]]:
        """One client's op list: four classes × its own literals.

        The per-client literal offset means no two clients ever send the
        same text, so the server never coalesces and ``executed`` equals
        the requests sent.
        """
        root = self.root
        out = []
        for variant in range(self.size["literals"]):
            offset = client * self.size["literals"] + variant
            shift = 0.01 * offset
            out += [
                (
                    "exceedance",
                    f"SELECT exceedance({21.0 + shift:.2f}) "
                    f"FROM CATALOG '{root}'",
                ),
                (
                    "expected_value",
                    f"SELECT expected_value FROM CATALOG '{root}' "
                    f"SERIES 'sensor-0*' TOP {self.size['series'] - offset}",
                ),
                (
                    "threshold",
                    f"SELECT threshold({0.3 + shift:.2f}) "
                    f"FROM CATALOG '{root}' TOP 5",
                ),
                (
                    "time_above",
                    f"SELECT time_above({21.0 + shift:.2f}, 5) "
                    f"FROM CATALOG '{root}' TOP 3",
                ),
            ]
        return out

    def build(self) -> None:
        import repro
        from repro.view.omega import OmegaGrid

        size = self.size
        shutil.rmtree(self.root, ignore_errors=True)
        common.build_catalog(
            self.root,
            self.walks,
            H=size["H"],
            grid=OmegaGrid(delta=0.5, n=size["n"]),
            segment_times=size["times"],
        )
        port = self._start_server()
        self.conns = [
            repro.connect(f"tcp://127.0.0.1:{port}")
            for _ in range(size["clients"])
        ]
        for _, text in self._statements(0)[:4]:
            self.conns[0].execute(text)  # Fill the server's matrix cache.

    def _start_server(self) -> int:
        """``python -m repro server serve <root>``; returns the bound port.

        All serving defaults; ``--port 0`` only so that two checkouts can
        run side by side.  The child sees the generated catalog and the
        library path, nothing that names this benchmark.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(common.SRC)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "server", "serve",
                str(self.root), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            preexec_fn=common.die_with_parent,
        )
        ready, _, _ = select.select([self.server.stdout], [], [], 120.0)
        line = self.server.stdout.readline() if ready else ""
        if " on " not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split(" on ", 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def reference(self) -> None:
        texts = [
            text
            for client in range(self.size["clients"])
            for _, text in self._statements(client)
        ]
        self.expected = common.reference_digests(self.root, texts)

    def _client_loop(
        self, client: int, epoch: Epoch, last: dict[str, Any], stop: Any
    ) -> None:
        conn = self.conns[client]
        for _ in range(self.size["repeats"]):
            for op_class, text in self._statements(client):
                if stop.is_set():
                    return
                result = timed(epoch, op_class, conn.execute, text)
                epoch.statements += 1
                if result is not None:
                    last[text] = result

    def _verify(self, epoch: Epoch, last: dict[str, Any]) -> None:
        for text, result in last.items():
            check(epoch, digest(result) == self.expected[text], text)

    def epoch(self) -> Epoch:
        """Closed loop: each client waits for a reply before its next send."""
        clients = self.size["clients"]
        parts = [Epoch() for _ in range(clients)]
        lasts: list[dict[str, Any]] = [{} for _ in range(clients)]
        barrier = threading.Barrier(clients + 1)
        never = threading.Event()

        def run(client: int) -> None:
            barrier.wait()
            self._client_loop(client, parts[client], lasts[client], never)

        threads = [
            threading.Thread(target=run, args=(client,))
            for client in range(clients)
        ]
        before = self.conns[0].client.stats()
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        total = Epoch(wall_s=time.perf_counter() - start, epochs=1)
        after = self.conns[0].client.stats()
        for part, last in zip(parts, lasts):
            total.merge(part)
            self._verify(total, last)
        self._server_counts(total, before, after)
        self.epochs_run += 1
        return total

    def _server_counts(self, epoch: Epoch, before: dict, after: dict) -> None:
        """The server's own counters across one fixed op list."""
        units = epoch.units
        for key in ("executed", "coalesced", "rejected", "errors"):
            units[f"server.app.{key}"] = after[key] - before[key]
        for key in ("hits", "misses"):
            units[f"cache.{key}"] = after["cache"][key] - before["cache"][key]
        for key in ("segments_scanned", "segments_pruned", "series_skipped"):
            units[f"service.planner.{key}"] = (
                after["pruning"][key] - before["pruning"][key]
            )
        units["service.cache.bytes"] = after["cache"]["bytes"]
        check(
            epoch,
            units["server.app.executed"] == epoch.statements
            and not units["server.app.coalesced"]
            and not units["server.app.rejected"],
            "server executed exactly the statements sent",
        )

    def traced_epoch(self, tracer: Tracer) -> Epoch:
        """Client 0 alternates tcp round trip and in-process replay.

        The other clients keep sending, so the round trips queue behind
        the same load as in the untraced run.  ``server.app.wire_ms`` is
        what the round trip costs beyond the replay of the same statement
        (execute, to_dict, encode with its dumps, loads): socket, event
        loop, executor hop and queueing.
        """
        from repro.service import CatalogQueryService

        if self.replay_service is None:
            self.replay_service = CatalogQueryService(self.root)
            for _, text in self._statements(0):
                self.replay_service.execute(text)  # Warm, like the server.
        replay = self.replay_through(
            self.replay_service, tracer, warm=True, budget=64 << 20
        )
        stop = threading.Event()
        background = [
            threading.Thread(
                target=self._background, args=(client, stop)
            )
            for client in range(1, self.size["clients"])
        ]
        for thread in background:
            thread.start()
        epoch = Epoch(epochs=1)
        last: dict[str, Any] = {}
        start = time.perf_counter()
        try:
            for op_class, text in self._statements(0):
                result = timed(epoch, op_class, self.conns[0].execute, text)
                epoch.statements += 1
                if result is not None:
                    last[text] = result
                round_trip_ms = epoch.latencies_ms[op_class][-1]
                replay.replay(op_class, text, wire=True)
                tracer.sample("server.app.round_trip_ms", round_trip_ms)
                tracer.sample(
                    "server.app.wire_ms",
                    max(round_trip_ms - tracer.duration_ms(replay.last_op), 0.0),
                )
            _stage_coverage(tracer, self.conns[0], self._statements(0)[0][1])
        finally:
            stop.set()
            for thread in background:
                thread.join()
        epoch.wall_s = time.perf_counter() - start
        self._verify(epoch, last)
        self.epochs_run += 1
        return epoch

    def _background(self, client: int, stop: Any) -> None:
        scratch = Epoch()
        while not stop.is_set():
            self._client_loop(client, scratch, {}, stop)

    def peak_rss_mb(self) -> float:
        """The server's high-water mark: work moved into caches shows here."""
        assert self.server is not None
        return common.process_peak_rss_mb(self.server.pid)

    def teardown(self) -> None:
        try:
            super().teardown()
            for conn in self.conns:
                conn.close()
            self.conns = []
            if self.replay_service is not None:
                self.replay_service.close()
                self.replay_service = None
        finally:
            # Whatever failed above, the server must not outlive the run.
            server, self.server = self.server, None
            if server is not None:
                server.send_signal(signal.SIGINT)  # Drain, then exit.
                try:
                    server.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    server.kill()
                    server.wait()
                server.stdout.close()


# ----------------------------------------------------------------------
# scan_cold
# ----------------------------------------------------------------------
class ScanCold(Workload):
    """Working set about twice the matrix cache, on the service route.

    Store segment loads, ``MatrixCache`` eviction and backend fan-out do
    the work; the wire does none.  The cache budget is the dimension this
    workload varies against ``serve_warm`` — everything else is a default.
    """

    name = "scan_cold"
    primary = ("exceedance", "time_above", "expected_value")

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        size = self.size
        self.walks = common.random_walks(
            self.rng,
            size["series"],
            size["H"] + size["segments"] * size["segment_times"],
        )
        self.root = workdir / "scan_cold"
        self.conn: Any = None
        self.expected: dict[str, str] = {}

    def _statements(self) -> list[tuple[str, str]]:
        size = self.size
        root = self.root
        last = size["H"] + size["segments"] * size["segment_times"] - 1
        first = last - size["segment_times"] + 1
        return [
            ("exceedance", f"SELECT exceedance(21.0) FROM CATALOG '{root}'"),
            (
                "time_above",
                f"SELECT time_above(21.0, 8) FROM CATALOG '{root}' TOP 10",
            ),
            ("expected_value", f"SELECT expected_value FROM CATALOG '{root}'"),
            (
                "threshold_recent",
                f"SELECT threshold(0.5) FROM CATALOG '{root}' "
                f"WHERE t BETWEEN {first} AND {last}",
            ),
        ]

    def build(self) -> None:
        import repro
        from repro.view.omega import OmegaGrid

        size = self.size
        shutil.rmtree(self.root, ignore_errors=True)
        common.build_catalog(
            self.root,
            self.walks,
            H=size["H"],
            grid=OmegaGrid(delta=0.5, n=size["n"]),
            segment_times=size["segment_times"],
        )
        self.conn = repro.connect(
            self.root, cache_budget_bytes=size["cache_budget_bytes"]
        )

    def reference(self) -> None:
        self.expected = common.reference_digests(
            self.root, [text for _, text in self._statements()]
        )

    def _verify(self, epoch: Epoch, results: dict[str, Any]) -> None:
        for op_class, text in self._statements():
            result = results.get(text)
            if result is None:
                continue
            check(epoch, digest(result) == self.expected[text], text)
            pruned = sum(s.segments_pruned for s in _item_stats(result))
            if op_class in self.primary:
                check(epoch, pruned == 0, f"{op_class} pruned {pruned}")

    def epoch(self) -> Epoch:
        epoch = Epoch(epochs=1)
        results = {}
        reads = _segment_reads()
        for op_class, text in self._statements():
            results[text] = timed(epoch, op_class, self.conn.execute, text)
            epoch.statements += 1
        epoch.units["store.catalog.segments_loaded"] = _segment_reads() - reads
        epoch.wall_from_latencies()
        self._verify(epoch, results)
        self.epochs_run += 1
        return epoch

    def traced_epoch(self, tracer: Tracer) -> Epoch:
        import repro

        size = self.size
        replay = self.replay_through(
            self.conn.service,
            tracer,
            warm=False,
            budget=size["cache_budget_bytes"],
        )
        epoch = Epoch(epochs=1)
        results = {}
        # One third of the op list per traced epoch, rotating.
        statements = self._statements()
        index = self.epochs_run % (len(statements) - 1)
        for op_class, text in (statements[index], statements[-1]):
            results[text] = replay.replay_into(epoch, op_class, text)
        epoch.wall_from_latencies()
        if "connection.connect_ms" not in tracer.samples:
            def first_statement() -> None:
                with repro.connect(
                    self.root, cache_budget_bytes=size["cache_budget_bytes"]
                ) as conn:
                    conn.execute(statements[-1][1])

            tracer.sample("connection.connect_ms", clock(first_statement)[1])
            _stage_coverage(tracer, self.conn, statements[-1][1])
        self._verify(epoch, results)
        _coverage_check(epoch, tracer)
        self.epochs_run += 1
        return epoch

    def teardown(self) -> None:
        super().teardown()
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# ----------------------------------------------------------------------
# ingest_live
# ----------------------------------------------------------------------
class IngestLive(Workload):
    """Writes beside reads on one catalog, interleaved in one thread.

    The store's write path and what it costs readers: every append adds a
    segment, every full poll reloads each series appended since the last
    one.  A change that makes appends cheaper by pushing work onto readers
    (or the reverse) shows as one metric up and the other down.
    """

    name = "ingest_live"
    primary = ("poll_full",)
    THRESHOLD = 21.0
    WINDOW = 5

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        size = self.size
        self.walks = common.random_walks(
            self.rng, size["series"], size["H"] + size["rounds"] * size["batch"]
        )
        self.root = workdir / "ingest_live"
        self.catalog: Any = None
        self.conn: Any = None
        self.handles: dict[str, tuple[Any, Any]] = {}
        self.dirty = True
        self.expected: dict[int, str] = {}
        if size["series"] % size["poll_every"]:
            raise ValueError("series must be a multiple of poll_every, so "
                             "that every round ends on a full poll")

    def _ops(self) -> list[tuple[str, Any]]:
        """The op list: appends round-robin, a poll after every few.

        ``poll_full`` follows every ``poll_every``-th append and
        ``poll_recent`` (the newest two batches, which zone maps cut down
        to a few segments) follows the same cadence offset by half.
        """
        size = self.size
        root = self.root
        every = size["poll_every"]
        ops: list[tuple[str, Any]] = []
        appended = 0
        for round_index in range(size["rounds"]):
            lo = size["H"] + max(round_index - 1, 0) * size["batch"]
            hi = size["H"] + (round_index + 1) * size["batch"] - 1
            for series_id in self.walks:
                ops.append(("append", (series_id, round_index)))
                appended += 1
                if appended % every == 0:
                    ops.append((
                        "poll_full",
                        f"SELECT exceedance({self.THRESHOLD}) "
                        f"FROM CATALOG '{root}' TOP 5",
                    ))
                elif appended % every == every // 2:
                    ops.append((
                        "poll_recent",
                        f"SELECT threshold(0.5) FROM CATALOG '{root}' "
                        f"WHERE t BETWEEN {lo} AND {hi}",
                    ))
        return ops

    def _batch(self, series_id: str, round_index: int) -> np.ndarray:
        size = self.size
        start = size["H"] + round_index * size["batch"]
        return self.walks[series_id][start : start + size["batch"]]

    def _reset(self, *, standing: bool) -> None:
        """A fresh catalog: series created, windows warmed, nothing stored."""
        import repro
        from repro.store import Catalog, StandingQuery
        from repro.view.omega import OmegaGrid

        size = self.size
        if self.conn is not None:
            self.conn.close()
        shutil.rmtree(self.root, ignore_errors=True)
        self.catalog = Catalog(self.root)
        self.handles = {}
        grid = OmegaGrid(delta=0.5, n=size["n"])
        for series_id, values in self.walks.items():
            self.catalog.create_series(
                series_id, metric="variable_threshold", H=size["H"], grid=grid
            )
            if standing:
                self.handles[series_id] = (
                    self.catalog.register_query(
                        series_id, StandingQuery.exceedance(self.THRESHOLD)
                    ),
                    self.catalog.register_query(
                        series_id,
                        StandingQuery.sustained_exceedance(
                            self.THRESHOLD, window=self.WINDOW
                        ),
                    ),
                )
            self.catalog.append(series_id, values[: size["H"]])
        # The sequential backend is this workload's one non-default.  Its
        # process is single-threaded between polls, and whether the
        # default pool's threads then share the main thread's core or
        # spread over both decides a 2.5x in poll latency that holds for
        # whole runs and flips with the host's mood; fan-out under load
        # is scan_cold's subject, the store's read cost is this one's.
        self.conn = repro.connect(self.root, backend="sequential")
        self.dirty = False

    def build(self) -> None:
        self._reset(standing=True)

    def reference(self) -> None:
        """Replay the op list once; polls answered by the reference service."""
        from repro.service import CatalogQueryService

        self._reset(standing=False)
        self.expected = {}
        with CatalogQueryService(
            self.root, backend="sequential", pruning=False
        ) as service:
            for index, (op_class, payload) in enumerate(self._ops()):
                if op_class == "append":
                    self.catalog.append(payload[0], self._batch(*payload))
                else:
                    self.expected[index] = digest(service.execute(payload))
        self.dirty = True

    def _fresh(self) -> None:
        """Every epoch starts from an empty catalog (untimed)."""
        if self.dirty:
            self._reset(standing=True)

    def _run_ops(self, append: Any, poll: Any) -> Epoch:
        self._fresh()
        self.dirty = True
        epoch = Epoch(epochs=1)
        acknowledged: dict[str, list[int]] = {sid: [] for sid in self.walks}
        polls: list[tuple[int, Any]] = []
        last_full = None
        reads = _segment_reads()
        for index, (op_class, payload) in enumerate(self._ops()):
            if op_class == "append":
                result = append(epoch, *payload)
                if result is not None:
                    acknowledged[payload[0]].extend(result.times)
                    epoch.units["values"] = (
                        epoch.units.get("values", 0.0) + result.fed
                    )
            else:
                result = poll(epoch, op_class, payload)
                polls.append((index, result))
                last_full = (payload, result) if result is not None else None
        epoch.units["store.catalog.segments_loaded"] = _segment_reads() - reads
        epoch.wall_from_latencies()
        for index, result in polls:
            if result is not None:
                check(
                    epoch,
                    digest(result) == self.expected[index],
                    f"poll at op {index}",
                )
        self._verify_store(epoch, acknowledged, last_full)
        self.epochs_run += 1
        return epoch

    def _verify_store(
        self, epoch: Epoch, acknowledged: dict[str, list[int]], last_full: Any
    ) -> None:
        """A fresh reader must find every acknowledged tuple."""
        from repro.db.stream_queries import (
            exceedance_probability,
            sustained_exceedance_probability,
        )
        from repro.store import Catalog

        fresh = Catalog(self.root, create=False)
        tuples = 0
        for series_id, times in acknowledged.items():
            view = fresh.view(series_id)
            tuples += len(view)
            check(
                epoch,
                [int(t) for t in view.times] == times
                and len(view) == len(times) * self.size["n"],
                f"{series_id} holds every acknowledged tuple",
            )
            exceedance, sustained = self.handles[series_id]
            check(
                epoch,
                exceedance.result()
                == exceedance_probability(view, self.THRESHOLD)
                and sustained.result()
                == sustained_exceedance_probability(
                    view, self.THRESHOLD, self.WINDOW
                ),
                f"{series_id} standing queries equal the one-shot queries",
            )
        if last_full is not None:
            # The op list ends on a full poll, so the reopened catalog
            # must give the reference service the same answer.
            text, result = last_full
            reopened = common.reference_digests(self.root, [text])[text]
            check(epoch, digest(result) == reopened, "last poll, reopened")
        stored = sum(
            path.stat().st_size for path in self.root.rglob("*") if path.is_file()
        )
        epoch.units["stored_bytes"] = float(stored)
        epoch.units["stored_tuples"] = float(tuples)

    def epoch(self) -> Epoch:
        def append(epoch: Epoch, series_id: str, round_index: int) -> Any:
            return timed(
                epoch,
                "append",
                self.catalog.append,
                series_id,
                self._batch(series_id, round_index),
            )

        def poll(epoch: Epoch, op_class: str, text: str) -> Any:
            epoch.statements += 1
            return timed(epoch, op_class, self.conn.execute, text)

        return self._run_ops(append, poll)

    def traced_epoch(self, tracer: Tracer) -> Epoch:
        """The whole op list again, each op with its layer spans.

        Polls get slower as segments pile up, so a shorter list would not
        compare with the untraced run.
        ``Catalog.append`` cannot be entered from outside, so each batch
        is also fed through a shadow pipeline, segment writer and
        standing-query handles of the same configuration; their timings
        are attributed to the append they mirror.
        """
        from repro.db.prob_view import ProbabilisticView
        from repro.metrics.registry import create_metric
        from repro.pipeline import OnlinePipeline
        from repro.store import StandingQuery
        from repro.store.binary import compute_view_synopsis, save_view_columns
        from repro.store.standing import StandingQueryHandle
        from repro.timeseries.series import TimeSeries
        from repro.view.omega import OmegaGrid

        size = self.size
        grid = OmegaGrid(delta=0.5, n=size["n"])
        shadows = {}
        for series_id, values in self.walks.items():
            pipeline = OnlinePipeline(
                create_metric("variable_threshold"),
                size["H"],
                grid,
                retain_history=False,
            )
            pipeline.feed_batch(values[: size["H"]])
            shadows[series_id] = (
                pipeline,
                [
                    StandingQueryHandle(
                        StandingQuery.exceedance(self.THRESHOLD)
                    ),
                    StandingQueryHandle(
                        StandingQuery.sustained_exceedance(
                            self.THRESHOLD, window=self.WINDOW
                        )
                    ),
                ],
            )
        scratch = self.workdir / "shadow-segment.npz"

        def append(epoch: Epoch, series_id: str, round_index: int) -> Any:
            batch = self._batch(series_id, round_index)
            with tracer.span("append"):
                with tracer.span("store.catalog.append") as span:
                    result = timed(
                        epoch, "append", self.catalog.append, series_id, batch
                    )
            pipeline, handles = shadows[series_id]
            matrix = tracer.attribute(
                "pipeline.feed_batch", span, pipeline.feed_batch, batch
            )
            suffix = tracer.attribute(
                "db.prob_view.from_matrix",
                span,
                ProbabilisticView.from_matrix,
                f"{series_id}@shadow",
                matrix,
                grid,
            )
            cols = suffix.columns
            tracer.attribute(
                "store.binary.save_segment",
                span,
                lambda: save_view_columns(
                    scratch,
                    t=cols.t,
                    low=cols.low,
                    high=cols.high,
                    probability=cols.probability,
                    label_code=cols.label_code,
                    labels=cols.labels,
                ),
            )
            save_span = tracer.last_id()
            tracer.attribute(
                "store.binary.synopsis",
                save_span,
                compute_view_synopsis,
                cols.t,
                cols.low,
                cols.high,
                cols.probability,
            )
            tracer.sample("store.binary.segment_bytes", scratch.stat().st_size)
            for handle in handles:
                tracer.attribute(
                    "store.standing.update", span, handle.update, suffix
                )
            return result

        self._fresh()
        replay = self.replay_through(
            self.conn.service, tracer, warm=False, budget=64 << 20
        )
        try:
            epoch = self._run_ops(append, replay.replay_into)
        finally:
            scratch.unlink(missing_ok=True)
        if "metrics.variable_threshold.infer_ms_per_value" not in tracer.samples:
            values = next(iter(self.walks.values()))
            metric = create_metric("variable_threshold")
            forecasts, elapsed_ms = clock(
                metric.run, TimeSeries(values), size["H"]
            )
            tracer.sample(
                "metrics.variable_threshold.infer_ms_per_value",
                elapsed_ms / len(forecasts),
            )
        return epoch

    def extras(self, epochs: list[Epoch]) -> dict[str, float]:
        last = epochs[-1]
        return {
            "append_p50_ms": statistics.median(
                common.class_mean(e, ("append",), 50) for e in epochs
            ),
            "append_p95_ms": statistics.median(
                common.class_mean(e, ("append",), 95) for e in epochs
            ),
            "values_per_s": statistics.median(
                e.units["values"] / e.wall_s for e in epochs
            ),
            "stored_bytes_per_tuple": last.units["stored_bytes"]
            / last.units["stored_tuples"],
        }

    def teardown(self) -> None:
        super().teardown()
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# ----------------------------------------------------------------------
# create_view
# ----------------------------------------------------------------------
class CreateView(Workload):
    """The paper's offline pipeline on the memory route.

    ``metrics`` + ``timeseries`` (GARCH/ARMA/Kalman fits) +
    ``view.builder``/``view.sigma_cache`` do the work; store and service
    do none.
    """

    name = "create_view"
    primary = ("arma_garch_cached", "arma_garch", "cgarch")
    CLASSES = (
        ("arma_garch_cached", "arma_garch (p=1, kappa=3.0)", True),
        ("arma_garch", "arma_garch (p=1, kappa=3.0)", False),
        ("cgarch", "cgarch", False),
        ("kalman_garch", "kalman_garch", False),
    )

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        from repro.data.synthetic import campus_temperature

        self.series = campus_temperature(self.size["values"], rng=self.seed)
        self.conn: Any = None

    def build(self) -> None:
        import repro
        from repro.db.table import Table

        values = self.series.values
        table = Table(
            "raw_values",
            ["t", "r"],
            data={"t": np.arange(len(values), dtype=float), "r": values},
        )
        self.conn = repro.connect()
        self.conn.database.register_table(table)

    def reference(self) -> None:
        """No stored answers: each created view is checked on its own."""

    def _statements(self, slice_index: int) -> list[tuple[str, str, int]]:
        size = self.size
        lo = slice_index * size["slice_len"]
        out = []
        for op_class, metric, cached in self.CLASSES:
            length = (
                size["kalman_len"]
                if op_class == "kalman_garch"
                else size["slice_len"]
            )
            cache = " CACHE (distance=0.01)" if cached else ""
            out.append((
                op_class,
                f"CREATE VIEW pv_{op_class}_{slice_index} AS DENSITY r OVER t "
                f"OMEGA delta=0.25, n={size['n']} METRIC {metric} "
                f"WINDOW {size['window']}{cache} FROM raw_values "
                f"WHERE t >= {lo} AND t <= {lo + length - 1}",
                length - size["window"],
            ))
        return out

    def _verify(self, epoch: Epoch, result: Any, inferred: int, what: str) -> None:
        """Expected row count, and per-time mass in ``(0, 1]``."""
        cols = result.view.columns
        mass = np.add.reduceat(cols.probability[cols.order], cols.starts)
        check(
            epoch,
            len(result.view) == inferred * self.size["n"]
            and bool(np.all(mass > 0.0))
            and bool(np.all(mass <= 1.0 + 1e-9)),
            what,
        )

    def epoch(self) -> Epoch:
        epoch = Epoch(epochs=1)
        slice_index = self.epochs_run % self.size["slices"]
        for op_class, text, inferred in self._statements(slice_index):
            result = timed(epoch, op_class, self.conn.execute, text)
            epoch.statements += 1
            if result is not None:
                epoch.units["values"] = epoch.units.get("values", 0.0) + inferred
                self._verify(epoch, result, inferred, text)
        epoch.wall_from_latencies()
        self.epochs_run += 1
        return epoch

    def traced_epoch(self, tracer: Tracer) -> Epoch:
        """Each statement, then its pipeline stage by stage on the same slice."""
        from repro.db.prob_view import ProbabilisticView
        from repro.metrics.registry import create_metric
        from repro.timeseries.arma import ARMAModel
        from repro.timeseries.garch import GARCHModel
        from repro.timeseries.series import TimeSeries
        from repro.view.builder import ViewBuilder
        from repro.view.omega import OmegaGrid

        size = self.size
        grid = OmegaGrid(delta=0.25, n=size["n"])
        epoch = Epoch(epochs=1)
        slice_index = self.epochs_run % size["slices"]
        lo = slice_index * size["slice_len"]
        for op_class, text, inferred in self._statements(slice_index):
            with tracer.span(op_class):
                with tracer.span("db.engine.execute") as span:
                    result = timed(epoch, op_class, self.conn.execute, text)
            epoch.statements += 1
            if result is None:
                continue
            epoch.units["values"] = epoch.units.get("values", 0.0) + inferred
            self._verify(epoch, result, inferred, text)
            sliced = TimeSeries(
                self.series.values[lo : lo + inferred + size["window"]]
            )
            metric_name = op_class.removesuffix("_cached")
            params = (
                dict(p=1, kappa=3.0) if metric_name == "arma_garch" else {}
            )
            metric = create_metric(metric_name, **params)
            forecasts = tracer.attribute(
                f"metrics.{metric_name}.infer",
                span,
                metric.run,
                sliced,
                size["window"],
            )
            tracer.sample(
                f"metrics.{metric_name}.infer_ms_per_value",
                tracer.duration_ms(tracer.last_id()) / len(forecasts),
            )
            if op_class == "arma_garch_cached":
                def cached_build() -> Any:
                    builder = ViewBuilder(grid).with_cache_for(
                        forecasts, distance_constraint=0.01
                    )
                    matrix = builder.build_matrix(forecasts)
                    tracer.sample(
                        "view.sigma_cache.hit_rate", builder.cache.stats.hit_rate
                    )
                    return matrix

                matrix = tracer.attribute(
                    "view.sigma_cache.build_matrix", span, cached_build
                )
            else:
                matrix = tracer.attribute(
                    "view.builder.build_matrix",
                    span,
                    ViewBuilder(grid).build_matrix,
                    forecasts,
                )
            tracer.attribute(
                "db.prob_view.from_matrix",
                span,
                ProbabilisticView.from_matrix,
                "replayed",
                matrix,
                grid,
            )
            if op_class == "arma_garch":
                window = sliced.values[: size["window"]]
                arma = ARMAModel(1, 0)
                with tracer.span("timeseries.arma.fit"):
                    arma.fit(window)
                # As the metric fits every window but its first: started
                # from the previous window's parameters.
                previous = GARCHModel(1, 1).fit(arma.residuals_[1:]).params_
                with tracer.span("timeseries.garch.fit"):
                    GARCHModel(1, 1).fit(
                        arma.residuals_[1:], warm_start=previous
                    )
                # arma_garch fits one GARCH model per inferred value.
                tracer.sample("timeseries.garch.fits", inferred)
        epoch.wall_from_latencies()
        self.epochs_run += 1
        return epoch

    def extras(self, epochs: list[Epoch]) -> dict[str, float]:
        return {
            "values_per_s": statistics.median(
                e.units["values"] / e.wall_s for e in epochs
            )
        }

    def teardown(self) -> None:
        super().teardown()
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# ----------------------------------------------------------------------
# worlds_exact
# ----------------------------------------------------------------------
class WorldsExact(Workload):
    """The python-loop kernels ROADMAP wants vectorised, warm, in process.

    ``db.worlds`` sampling and the planner's exact range-probability
    kernel do the work; the store is read once and the wire not at all.
    """

    name = "worlds_exact"
    primary = ("probability_of",)

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        size = self.size
        self.walks = common.random_walks(
            self.rng, size["series"], size["H"] + size["times"]
        )
        self.sampled = list(self.rng.choice(sorted(self.walks), 2, replace=False))
        self.root = workdir / "worlds_exact"
        self.conn: Any = None
        self.expected: dict[str, str] = {}
        self.kernel_ok = True

    @staticmethod
    def _ranges(variant: int) -> list[tuple[float, float]]:
        return [
            (round(19.0 + 0.5 * index + 0.1 * variant, 1),
             round(20.0 + 0.5 * index + 0.1 * variant, 1))
            for index in range(3)
        ]

    def _statements(self, variant: int) -> list[tuple[str, str]]:
        """One round; literals depend on the variant so rounds differ."""
        root = self.root
        out = [(
            "simulate",
            f"SIMULATE {self.size['n_worlds']} SEED {variant + 1} "
            f"FROM CATALOG '{root}'",
        )]
        for low, high in self._ranges(variant):
            out.append((
                "probability_of",
                f"SELECT PROBABILITY OF v BETWEEN {low} AND {high} "
                f"FROM CATALOG '{root}'",
            ))
        out.append((
            "multi_aggregate",
            f"SELECT threshold(0.4), expected_value, "
            f"exceedance({20.5 + 0.1 * variant:.1f}) FROM CATALOG '{root}'",
        ))
        return out

    def build(self) -> None:
        import repro
        from repro.view.omega import OmegaGrid

        size = self.size
        shutil.rmtree(self.root, ignore_errors=True)
        common.build_catalog(
            self.root,
            self.walks,
            H=size["H"],
            grid=OmegaGrid(delta=0.5, n=size["n"]),
            segment_times=size["times"],
        )
        self.conn = repro.connect(self.root)
        self.conn.execute(f"SELECT expected_value FROM CATALOG '{self.root}'")

    def reference(self) -> None:
        """Reference digests, and PROBABILITY OF against the exact kernel."""
        from repro.db.worlds import conjunctive_range_query
        from repro.service import CatalogQueryService
        from repro.store import Catalog

        self.expected = {}
        self.kernel_ok = True
        views = {
            series_id: Catalog(self.root, create=False).view(series_id)
            for series_id in self.sampled
        }
        with CatalogQueryService(
            self.root, backend="sequential", pruning=False
        ) as service:
            for variant in range(self.size["variants"]):
                ranges = iter(self._ranges(variant))
                for op_class, text in self._statements(variant):
                    result = service.execute(text)
                    self.expected[text] = digest(result)
                    if op_class != "probability_of":
                        continue
                    low, high = next(ranges)
                    for entry in result.results:
                        view = views.get(entry.series_id)
                        if view is None:
                            continue
                        for t, probability in entry.result.items():
                            exact = conjunctive_range_query(
                                view, {t: (low, high)}
                            )
                            if abs(exact - probability) > 1e-12:
                                self.kernel_ok = False

    def _verify(self, epoch: Epoch, results: dict[str, Any]) -> None:
        for text, result in results.items():
            if result is not None:
                check(epoch, digest(result) == self.expected[text], text)
        check(epoch, self.kernel_ok, "PROBABILITY OF equals the exact kernel")

    def epoch(self) -> Epoch:
        epoch = Epoch(epochs=1)
        results = {}
        variant = self.epochs_run % self.size["variants"]
        for op_class, text in self._statements(variant):
            results[text] = timed(epoch, op_class, self.conn.execute, text)
            epoch.statements += 1
        epoch.wall_from_latencies()
        self._verify(epoch, results)
        self.epochs_run += 1
        return epoch

    def traced_epoch(self, tracer: Tracer) -> Epoch:
        from repro.db.worlds import WorldSampler, conjunctive_range_query
        from repro.store import Catalog

        replay = self.replay_through(
            self.conn.service, tracer, warm=True, budget=64 << 20
        )
        epoch = Epoch(epochs=1)
        results = {}
        variant = self.epochs_run % self.size["variants"]
        statements = self._statements(variant)
        # A third of the round: SIMULATE and one PROBABILITY OF.
        for op_class, text in (statements[0], statements[1 + variant % 3]):
            results[text] = replay.replay_into(epoch, op_class, text)
        epoch.wall_from_latencies()
        if "db.worlds.sample_ms" not in tracer.samples:
            view = Catalog(self.root, create=False).view(self.sampled[0])
            sampler, elapsed_ms = clock(WorldSampler, view)
            tracer.sample("db.worlds.sampler_init_ms", elapsed_ms)
            rng = np.random.default_rng(self.seed)
            for _ in range(self.size["n_worlds"]):
                tracer.sample(
                    "db.worlds.sample_ms", clock(sampler.sample, rng)[1]
                )
            for t in view.times:
                tracer.sample(
                    "db.worlds.range_probability_ms",
                    clock(conjunctive_range_query, view, {t: (19.5, 20.5)})[1],
                )
        self._verify(epoch, results)
        _coverage_check(epoch, tracer)
        self.epochs_run += 1
        return epoch

    def extras(self, epochs: list[Epoch]) -> dict[str, float]:
        """Median, not sum: one slow SIMULATE must not move the rate."""
        simulate = [e.latencies_ms["simulate"][0] for e in epochs]
        return {
            "worlds_per_s": self.size["n_worlds"] * self.size["series"]
            / (statistics.median(simulate) / 1e3)
        }

    def teardown(self) -> None:
        super().teardown()
        if self.conn is not None:
            self.conn.close()
            self.conn = None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ServeWarm, ScanCold, IngestLive, CreateView, WorldsExact)
}
