"""Command-line interface: ``python -m repro <command>``.

Six subcommands cover the workflows a user reaches for first:

* ``experiment`` — run one reproduced paper experiment and print its table
  (``python -m repro experiment fig14 --scale 0.1``);
* ``query`` — execute statements (``CREATE VIEW``, ``SELECT``,
  ``SIMULATE``) through ``repro.connect(--target)``: no target runs an
  in-memory engine, a catalog path binds a warm query service to that
  catalog, ``tcp://host:port`` sends the statements to a running
  server; a local engine gets the ``--data`` dataset registered as
  table ``--table`` for ``CREATE VIEW`` to run over;
* ``generate`` — write a synthetic dataset to CSV;
* ``arch-test`` — run the Fig. 15 volatility check on a dataset;
* ``store`` — manage a persistent view catalog: ``store init`` binds a new
  series to a metric, ``store ingest`` streams values in micro-batches,
  ``store list`` shows what the catalog holds, and ``store synopsize``
  backfills segment synopses (zone maps) on catalogs written before
  pruning existed (query a stored series with ``query --target
  <catalog> "SELECT ... SERIES '<id>'"``);
* ``server`` — the network layer: ``server serve`` runs the asyncio NDJSON
  query server over a catalog (request coalescing, admission control,
  draining shutdown); ``server stats`` / ``metrics`` / ``slowlog`` read a
  running server's counters.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from repro.data.loaders import load_series_csv, save_series_csv
from repro.data.synthetic import campus_humidity, make_dataset
from repro.db.table import Table
from repro.evaluation.volatility_test import rolling_arch_test
from repro.exceptions import InvalidParameterError, ReproError
from repro.experiments import (
    run_fig04,
    run_fig05,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14a,
    run_fig14b,
    run_fig15,
    run_table02,
)
from repro.experiments.ablation import run_ablation
from repro.timeseries.series import TimeSeries
from repro.util.tables import format_table, render_pruning, render_result

__all__ = ["main", "build_parser"]

_EXPERIMENTS: dict[str, Callable] = {
    "table2": run_table02,
    "fig4": run_fig04,
    "fig5": run_fig05,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14a": run_fig14a,
    "fig14b": run_fig14b,
    "fig15": run_fig15,
    "ablation": run_ablation,
}

_DATASETS = ("campus", "car", "humidity")


def _load_dataset(name: str, scale: float, seed: int) -> TimeSeries:
    if name.endswith(".csv"):
        return load_series_csv(name)
    if name == "humidity":
        n = max(int(18031 * scale), 400)
        return campus_humidity(n, rng=seed)
    return make_dataset(name, scale=scale, rng=seed)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Probabilistic databases from imprecise time-series data "
            "(ICDE 2011 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run one reproduced experiment")
    exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    exp.add_argument("--scale", type=float, default=None,
                     help="workload scale in (0, 1]; default REPRO_SCALE or 0.08")

    query = sub.add_parser(
        "query", help="execute statements on any repro.connect() target"
    )
    query.add_argument(
        "sql",
        nargs="+",
        help="one or more CREATE VIEW ... AS DENSITY ... / SELECT "
             "<aggregates> FROM CATALOG '<path>' ... / SIMULATE n FROM "
             "CATALOG '<path>' ... statements, run in order on one "
             "connection",
    )
    query.add_argument("--target", default=None,
                       help="what repro.connect() opens: omitted for an "
                            "in-memory engine, a catalog path for a warm "
                            "query service over it, tcp://host[:port] "
                            "for a running server")
    query.add_argument("--data", default="campus",
                       help="dataset (campus/car/humidity) or CSV path "
                            "registered on a local engine")
    query.add_argument("--table", default="raw_values",
                       help="name to register the data under")
    query.add_argument("--scale", type=float, default=0.08)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--head", type=int, default=12,
                       help="result rows to print per section")
    query.add_argument("--workers", type=int, default=None,
                       help="path target: worker processes for --backend "
                            "process (default: one per core; must be "
                            ">= 1, otherwise unused)")
    query.add_argument("--backend", default=None,
                       choices=["sequential", "process"],
                       help="path target: executor backend; 'sequential' "
                            "(default) runs inline, 'process' sidesteps "
                            "the GIL for CPU-bound aggregates on "
                            "multi-core hosts")
    query.add_argument("--cache-mb", type=float, default=None,
                       help="path target: matrix-cache byte budget in MiB "
                            "(default 64)")
    query.add_argument("--json", action="store_true",
                       help="print each result as canonical JSON")
    query.add_argument("--stats", action="store_true",
                       help="print the per-query pruning counters")
    query.add_argument("--trace", action="store_true",
                       help="print the per-stage latency breakdown "
                            "(parse/plan/prune/fan-out/finalize/...) and "
                            "the slowest per-series load/compute spans")
    query.add_argument("--as-of", type=int, default=None, metavar="K",
                       help="answer from what was known at knowledge "
                            "time K (rewrites each statement with an "
                            "AS OF clause)")

    gen = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    gen.add_argument("name", choices=_DATASETS)
    gen.add_argument("output", help="destination CSV path")
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)

    arch = sub.add_parser("arch-test", help="Engle ARCH test (Fig. 15 protocol)")
    arch.add_argument("--data", default="campus")
    arch.add_argument("--scale", type=float, default=0.08)
    arch.add_argument("--seed", type=int, default=0)
    arch.add_argument("--max-lag", type=int, default=8)
    arch.add_argument("--window", type=int, default=180)

    store = sub.add_parser("store", help="persistent view catalog operations")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    init = store_sub.add_parser("init", help="create a series in a catalog")
    init.add_argument("catalog", help="catalog directory (created if missing)")
    init.add_argument("series", help="series id")
    init.add_argument("--metric", default="arma_garch",
                      help="dynamic density metric registry name")
    init.add_argument("--window", type=int, default=60,
                      help="sliding-window size H")
    init.add_argument("--delta", type=float, default=0.5,
                      help="omega range width")
    init.add_argument("--n", type=int, default=8, help="omega range count")
    init.add_argument("--cache-min-sigma", type=float, default=None)
    init.add_argument("--cache-max-sigma", type=float, default=None)
    init.add_argument("--cache-distance", type=float, default=None,
                      help="sigma-cache Hellinger distance constraint")
    init.add_argument("--cache-memory", type=int, default=None,
                      help="sigma-cache stored-distribution bound")

    ingest = store_sub.add_parser("ingest", help="stream values into a series")
    ingest.add_argument("catalog")
    ingest.add_argument("series")
    ingest.add_argument("--data", default="campus",
                        help="dataset name (campus/car/humidity) or a CSV path")
    ingest.add_argument("--batch", type=int, default=64,
                        help="micro-batch size per append")
    ingest.add_argument("--limit", type=int, default=None,
                        help="ingest at most this many values")
    ingest.add_argument("--scale", type=float, default=0.08)
    ingest.add_argument("--seed", type=int, default=0)

    slist = store_sub.add_parser("list", help="list the series of a catalog")
    slist.add_argument("catalog")

    synopsize = store_sub.add_parser(
        "synopsize",
        help="backfill segment synopses (zone maps) on an existing catalog",
    )
    synopsize.add_argument("catalog")
    synopsize.add_argument("--series", default="*",
                           help="glob of series ids to backfill (default all)")

    server = sub.add_parser(
        "server", help="network query server over a catalog"
    )
    server_sub = server.add_subparsers(dest="server_command", required=True)
    serve = server_sub.add_parser(
        "serve", help="run the asyncio NDJSON query server"
    )
    serve.add_argument("catalog", help="catalog directory to serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7411,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="statements admitted concurrently before "
                            "new queries get a 'saturated' rejection")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker processes for --backend process "
                            "(default: one per core; must be >= 1, "
                            "otherwise unused)")
    serve.add_argument("--backend", default="sequential",
                       choices=["sequential", "process"],
                       help="per-statement executor backend: "
                            "'sequential' runs each statement inline on "
                            "the --max-inflight pool, 'process' adds a "
                            "worker-process pool")
    serve.add_argument("--cache-mb", type=float, default=64.0,
                       help="matrix-cache byte budget in MiB")
    serve.add_argument("--slow-query-ms", type=float, default=None,
                       help="slow-query log threshold in milliseconds "
                            "(default 500; statements slower than this "
                            "are kept in the in-memory slow log)")

    sstats = server_sub.add_parser(
        "stats", help="print a running server's lifetime counters"
    )
    sstats.add_argument("--host", default="127.0.0.1")
    sstats.add_argument("--port", type=int, default=7411)
    sstats.add_argument("--json", action="store_true",
                        help="print the raw stats payload as JSON")

    smetrics = server_sub.add_parser(
        "metrics",
        help="print a running server's metrics registry "
             "(Prometheus text by default)",
    )
    smetrics.add_argument("--host", default="127.0.0.1")
    smetrics.add_argument("--port", type=int, default=7411)
    smetrics.add_argument("--json", action="store_true",
                          help="print the JSON snapshot (with streaming "
                               "p50/p95/p99) instead of Prometheus text")

    slowlog = server_sub.add_parser(
        "slowlog", help="print a running server's slow-query log"
    )
    slowlog.add_argument("--host", default="127.0.0.1")
    slowlog.add_argument("--port", type=int, default=7411)
    slowlog.add_argument("--limit", type=int, default=None,
                         help="newest entries to fetch (default all kept)")
    slowlog.add_argument("--json", action="store_true",
                         help="print the raw slowlog payload as JSON")
    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    table = _EXPERIMENTS[args.name](args.scale)
    print(table.render())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.connection import connect

    if args.head < 0:
        raise InvalidParameterError(f"--head must be >= 0, got {args.head}")
    # Only what the user set: connect()'s own defaults cover the rest.
    service_options = {}
    if args.backend is not None:
        service_options["backend"] = args.backend
    if args.workers is not None:
        service_options["max_workers"] = args.workers
    if args.cache_mb is not None:
        service_options["cache_budget_bytes"] = max(
            int(args.cache_mb * (1 << 20)), 1
        )
    with connect(args.target, **service_options) as conn:
        if service_options and conn.service is None:
            raise InvalidParameterError(
                "--backend/--workers/--cache-mb configure the query "
                "service of a catalog-path --target; a server's are fixed "
                "by 'server serve'"
            )
        if conn.database is not None:
            series = _load_dataset(args.data, args.scale, args.seed)
            conn.database.register_table(Table(
                args.table, ["t", "r"],
                data={"t": series.timestamps, "r": series.values},
            ))
        for index, sql in enumerate(args.sql):
            result = conn.execute(sql, trace=args.trace, as_of=args.as_of)
            if index:
                print()
            _print_result(result, args)
    return 0


def _print_result(result, args: argparse.Namespace) -> None:
    """One statement's result, whichever route answered it."""
    if args.json:
        print(result.json())
        return
    payload = result.to_dict()
    print(render_result(payload, args.head))
    if args.stats:
        print()
        if payload.get("pruning"):
            print(render_pruning(payload["pruning"]))
        else:
            print("(pruning counters unavailable for this result kind)")
    if args.trace:
        trace = result.trace
        print()
        _print_trace(trace if isinstance(trace, dict) else trace.as_dict())


def _cmd_generate(args: argparse.Namespace) -> int:
    series = _load_dataset(args.name, args.scale, args.seed)
    save_series_csv(series, args.output)
    print(f"wrote {len(series)} samples of {series.name!r} to {args.output}")
    return 0


def _cmd_arch_test(args: argparse.Namespace) -> int:
    series = _load_dataset(args.data, args.scale, args.seed)
    rows = []
    for m in range(1, args.max_lag + 1):
        result = rolling_arch_test(series, m, H=args.window,
                                   n_windows=max(int(1800 * args.scale), 40))
        rows.append([
            m, round(result.statistic, 3), round(result.critical_value, 3),
            result.reject_iid,
        ])
    print(format_table(
        ["m", "Phi(m)", "chi2_m(0.05)", "reject iid"], rows,
        title=f"ARCH test on {series.name} (H={args.window})",
    ))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import Catalog
    from repro.view.omega import OmegaGrid

    if args.store_command == "init":
        catalog = Catalog(args.catalog)
        handle = catalog.create_series(
            args.series,
            metric=args.metric,
            H=args.window,
            grid=OmegaGrid(delta=args.delta, n=args.n),
            cache_min_sigma=args.cache_min_sigma,
            cache_max_sigma=args.cache_max_sigma,
            cache_distance=args.cache_distance,
            cache_memory=args.cache_memory,
        )
        print(f"created {handle!r} in {args.catalog}")
        return 0

    if args.store_command == "ingest":
        if args.batch < 1:
            raise InvalidParameterError(f"--batch must be >= 1, got {args.batch}")
        if args.limit is not None and args.limit < 0:
            raise InvalidParameterError(f"--limit must be >= 0, got {args.limit}")
        series = _load_dataset(args.data, args.scale, args.seed)
        values = series.values[: args.limit]
        catalog = Catalog(args.catalog, create=False)
        fed = emitted = batches = 0
        for start in range(0, values.size, args.batch):
            result = catalog.append(args.series, values[start : start + args.batch])
            fed += result.fed
            emitted += result.emitted
            batches += 1
        handle = catalog.series(args.series)
        print(
            f"ingested {fed} values in {batches} micro-batches; emitted "
            f"{emitted} view times ({handle.tuple_count} tuples stored, "
            f"next t={handle.next_t})"
        )
        return 0

    if args.store_command == "synopsize":
        catalog = Catalog(args.catalog, create=False)
        written = catalog.synopsize(args.series)
        total = sum(written.values())
        for series_id in sorted(written):
            print(f"{series_id}: {written[series_id]} synopses written")
        print(
            f"backfilled {total} segment synopses across "
            f"{len(written)} series"
        )
        return 0

    catalog = Catalog(args.catalog, create=False)
    rows = [
        [
            info.get("series"), info.get("kind"), info.get("tuples"),
            info.get("segments"), info.get("metric", "-"),
            info.get("next_t", "-"),
        ]
        for info in (
            catalog.series(series_id).describe()
            for series_id in catalog.list_series()
        )
    ]
    print(format_table(
        ["series", "kind", "tuples", "segments", "metric", "next_t"], rows,
        title=f"catalog {args.catalog}",
    ))
    return 0


def _print_trace(trace: dict) -> None:
    """Render a trace block (local or server-side) as latency tables."""
    wall_ms = trace.get("wall_ms", 0.0)
    tags = [
        f"{key}={trace[key]}"
        for key in ("backend", "transport")
        if trace.get(key)
    ]
    suffix = f" ({', '.join(tags)})" if tags else ""
    print(f"trace: wall {wall_ms:.3f} ms{suffix}")
    stages = trace.get("stages", [])
    if stages:
        print(format_table(
            ["stage", "start_ms", "ms", "share"],
            [[span["name"], span["start_ms"], span["ms"],
              f"{span['ms'] / wall_ms:.1%}" if wall_ms else "-"]
             for span in stages],
        ))
    series = trace.get("series", [])
    if series:
        print("\nslowest series (load + compute):")
        print(format_table(
            ["series", "load_ms", "compute_ms", "cache"],
            [[span["series"], span["load_ms"], span["compute_ms"],
              "hit" if span["cache_hit"] else "miss"]
             for span in series],
        ))
        truncated = trace.get("series_truncated", 0)
        if truncated:
            print(f"... ({truncated} faster series not shown)")
    cache = trace.get("cache")
    if cache:
        print(
            f"cache: {cache.get('hits', 0)} hits, "
            f"{cache.get('misses', 0)} misses"
        )


def _cmd_server(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import Client, QueryServer

    if args.server_command == "serve":
        slow_kwargs = {}
        if args.slow_query_ms is not None:
            slow_kwargs["slow_query_ms"] = args.slow_query_ms
        server = QueryServer(
            args.catalog,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_workers=args.workers,
            backend=args.backend,
            cache_budget_bytes=max(int(args.cache_mb * (1 << 20)), 1),
            **slow_kwargs,
        )

        async def _serve() -> None:
            await server.start()
            host, port = server.address
            print(
                f"serving catalog {args.catalog} on {host}:{port} "
                f"(max_inflight={args.max_inflight}, "
                f"backend={args.backend}); Ctrl-C to drain and stop",
                flush=True,
            )
            await server.run()
            print("drained in-flight work; server stopped", flush=True)

        # Ctrl-C cancels the serve task (the asyncio runner's SIGINT
        # handling); QueryServer.run drains in-flight statements in its
        # finally block, so the first interrupt is a clean exit.
        asyncio.run(_serve())
        return 0

    if args.server_command == "stats":
        with Client(args.host, args.port) as client:
            stats = client.stats()
            metrics = client.metrics()["metrics"]
        if args.json:
            from repro.server import canonical_dumps

            print(canonical_dumps(stats))
            return 0
        _print_server_stats(stats, metrics)
        return 0

    if args.server_command == "metrics":
        with Client(args.host, args.port) as client:
            payload = client.metrics()
        if args.json:
            from repro.server import canonical_dumps

            print(canonical_dumps(payload["metrics"]))
        else:
            print(payload["text"], end="")
        return 0

    if args.limit is not None and args.limit < 0:
        raise InvalidParameterError(f"--limit must be >= 0, got {args.limit}")
    with Client(args.host, args.port) as client:
        payload = client.slowlog(args.limit)
    if args.json:
        from repro.server import canonical_dumps

        print(canonical_dumps(payload))
        return 0
    _print_server_slowlog(payload)
    return 0


def _print_server_stats(stats: dict, metrics: dict) -> None:
    """Render the stats payload plus latency histograms from metrics."""
    scalars = [
        [name, value] for name, value in sorted(stats.items())
        if not isinstance(value, dict)
    ]
    print(format_table(["counter", "value"], scalars, title="server"))
    for key, title in (
        ("pruning", "execution"),
        ("cache", "matrix cache"),
        ("reply_cache", "reply cache"),
        ("transport", "result transport"),
    ):
        block = stats.get(key, {})
        if block:
            print()
            print(format_table(
                ["counter", "value"],
                [[name, block[name]] for name in sorted(block)],
                title=title,
            ))
    rows = []
    for name, family in sorted(metrics.items()):
        if family.get("type") != "histogram":
            continue
        for label_text, sample in family.get("values", {}).items():
            rows.append([
                name, label_text or "-", sample.get("count", 0),
                _fmt_quantile(sample.get("p50")),
                _fmt_quantile(sample.get("p95")),
                _fmt_quantile(sample.get("p99")),
            ])
    if rows:
        print()
        print(format_table(
            ["histogram", "labels", "count", "p50_ms", "p95_ms", "p99_ms"],
            rows, title="latency histograms",
        ))


def _fmt_quantile(seconds) -> str:
    """A histogram quantile (seconds or None) as milliseconds text."""
    if seconds is None:
        return "-"
    return f"{seconds * 1e3:.3f}"


def _print_server_slowlog(payload: dict) -> None:
    print(
        f"slow-query log: threshold {payload.get('threshold_ms')} ms, "
        f"{payload.get('recorded', 0)}/{payload.get('observed', 0)} "
        f"queries recorded"
    )
    entries = payload.get("entries", [])
    if not entries:
        print("(no queries over the threshold)")
        return
    print(format_table(
        ["wall_ms", "statement", "stages"],
        [[entry.get("wall_ms"),
          (entry.get("statement") or "<unknown>")[:60],
          ", ".join(
              f"{name}={ms:.1f}"
              for name, ms in sorted(
                  entry.get("stages", {}).items(),
                  key=lambda item: -item[1],
              )[:4]
          )]
         for entry in entries],
    ))


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "query": _cmd_query,
        "generate": _cmd_generate,
        "arch-test": _cmd_arch_test,
        "store": _cmd_store,
        "server": _cmd_server,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        # Ctrl-C mid-query or while serving: the asyncio runner / executor
        # has already unwound (draining in-flight work on the way out);
        # exit with the conventional 130, never a traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Missing CSV paths, unwritable outputs, unreadable catalogs...
        # one-line diagnostics, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py.
    sys.exit(main())
