"""End-to-end benchmark of the probabilistic time-series database.

Two ways to call it, one program:

* **One workload, this interpreter** — what ``BENCHMARK.json``'s command
  runs: ``run.py --workload W --seed N --seconds S --trace 0|1``.  The
  last line of standard output is one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
  ``--trace 0``, the per-layer metrics with ``--trace 1``).
* **Every workload, each in a fresh interpreter** — no ``--workload``:
  ``run.py [--seed N] [--scale full|smoke] [--trace] [--runs R] [--out
  FILE]`` prints every metric by name with its unit and writes a result
  file that ``compare.py`` reads.

See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import e2e_common as common
from e2e_common import Epoch

sys.path.insert(0, str(common.SRC))

SPEC = json.loads((common.REPO / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: The issue's end-to-end metrics that only some workloads can report.
#: BENCHMARK.json's ``end_to_end`` list admits only metrics every
#: workload emits, so these are printed with the per-layer set; their
#: direction and bound live here for ``compare.py``.
WORKLOAD_SPECIFIC = {
    "stmt_p95_ms": ("lower", 0.25),
    "append_p50_ms": ("lower", 0.25),
    "append_p95_ms": ("lower", 0.25),
    "values_per_s": ("higher", 0.25),
    "worlds_per_s": ("higher", 0.25),
    "stored_bytes_per_tuple": ("lower", 0.01),
    "failed_share": ("lower", 0.0),
}


def end_to_end(
    workload: Any, epochs: list[Epoch], setup_s: float
) -> dict[str, float]:
    """The metrics every workload reports, each a median over epochs.

    This sandbox's speed shifts for seconds at a time, and an epoch is one
    identical op list, so the median *epoch* is steadier than any
    statistic pooled over the run.
    """
    return {
        "setup_s": setup_s,
        "stmt_p50_ms": statistics.median(
            common.class_mean(epoch, workload.primary, 50) for epoch in epochs
        ),
        "stmts_per_s": statistics.median(
            epoch.statements / epoch.wall_s for epoch in epochs
        ),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def at_reference_speed(
    metrics: dict[str, float], probes: list[float]
) -> dict[str, float]:
    """End-to-end timings and rates, scaled to the reference host speed.

    ``probes`` are the :func:`e2e_common.host_probe` readings taken
    through this run; their median over ``REFERENCE_PROBE_MS`` says how
    much slower than the reference the host was while the run measured.
    Only end-to-end metrics are scaled; layer spans stay as timed.
    """
    slowdown = statistics.median(probes) / common.REFERENCE_PROBE_MS
    scaled = dict(metrics)
    for name in set(metrics) & (set(END_TO_END) | set(WORKLOAD_SPECIFIC)):
        unit = (END_TO_END.get(name) or PER_LAYER[name])["unit"]
        if unit in ("ms", "s"):
            scaled[name] = metrics[name] / slowdown
        elif unit == "1/s":
            scaled[name] = metrics[name] * slowdown
    return scaled


def overhead_ratio(untraced: Epoch, traced: Epoch) -> float:
    """Traced ÷ untraced median latency, class by class, then the median."""
    ratios = [
        statistics.median(values)
        / statistics.median(untraced.latencies_ms[op_class])
        for op_class, values in traced.latencies_ms.items()
        if untraced.latencies_ms.get(op_class)
    ]
    return statistics.median(ratios) if ratios else 0.0


def per_layer(
    workload: Any, tracer: Any, epochs: list[Epoch], traced: Epoch
) -> dict[str, float]:
    """Every per-layer metric; 0 for a layer this workload bypasses.

    Counts are per epoch (one pass over the op list), so they repeat
    exactly however many epochs a run had time for.  A count the workload
    took itself over its untraced epochs wins over the tracer's.
    """
    untraced = merged(epochs)
    attempted = untraced.attempted + traced.attempted
    counts = {
        name: total / traced.epochs for name, total in tracer.counts.items()
    }
    counts.update(
        (name, total / untraced.epochs)
        for name, total in untraced.units.items()
    )
    lookups = counts.get("cache.hits", 0.0) + counts.get("cache.misses", 0.0)
    explicit = {
        "stmt_p95_ms": common.class_mean(untraced, workload.primary, 95),
        "failed_share": (untraced.failed + traced.failed) / attempted,
        "service.cache.hit_rate": (
            counts.get("cache.hits", 0.0) / lookups if lookups else 0.0
        ),
        "host.calib_gauss_cdf_ms": common.calibrate_gauss_cdf_ms(),
        "host.nproc": float(os.cpu_count() or 1),
        "trace_overhead_ratio": overhead_ratio(untraced, traced),
        **workload.extras(epochs),
    }
    out = {}
    for name in PER_LAYER:
        if name in explicit:
            out[name] = explicit[name]
        elif name in counts:
            out[name] = counts[name]
        elif name in tracer.samples:
            out[name] = tracer.median_sample(name)
        elif name.endswith("_ms"):
            out[name] = tracer.median_ms(name[: -len("_ms")], workload.primary)
        else:
            out[name] = 0.0
    return out


def measure(
    run_epoch: Any, seconds: float, after_epoch: Any = lambda: None
) -> list[Epoch]:
    """Whole epochs for about ``seconds``: at least one, never a part.

    Every run is then a whole number of identical op lists.  Another
    epoch starts only while more than half of one fits in the time left,
    so runs end near ``seconds`` on either side, not always after it.
    """
    epochs: list[Epoch] = []
    start = time.perf_counter()
    while True:
        epochs.append(run_epoch())
        after_epoch()
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(epochs) >= seconds:
            return epochs


def merged(epochs: list[Epoch]) -> Epoch:
    total = Epoch()
    for epoch in epochs:
        total.merge(epoch)
    return total


def sweep_shared_memory() -> int:
    """Unlink result-transport blocks this process's backends left behind."""
    leaked = glob.glob(f"/dev/shm/repro-{os.getpid()}-*") + glob.glob(
        f"/dev/shm/repro-probe-{os.getpid()}-*"
    )
    for path in leaked:
        try:
            os.unlink(path)
        except OSError:
            pass
    return len(leaked)


def run_workload(
    name: str,
    seed: int,
    scale: str,
    seconds: float,
    trace: bool,
    report: Path | None = None,
) -> dict[str, Any]:
    """Set up, measure and check one workload; the contract's result object."""
    from e2e_trace import Tracer
    from e2e_workloads import WORKLOADS

    start = time.perf_counter()
    import repro  # noqa: F401 - a user's first cost: loading the library.

    import_s = time.perf_counter() - start
    repeats = common.REPEATS[scale]
    probes: list[float] = []

    def probe() -> None:
        probes.append(common.host_probe(repeats))

    probe()
    workdir = common.OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, scale, workdir)
    try:
        builds = []
        for repeat in range(repeats):
            if repeat:
                workload.teardown()
            start = time.perf_counter()
            workload.build()
            builds.append(time.perf_counter() - start)
        start = time.perf_counter()
        workload.reference()
        reference_s = time.perf_counter() - start
        setup_s = import_s + statistics.median(builds) + reference_s
        probe()

        # One discarded epoch: thread pools grow and the scheduler settles
        # into the state a long-lived process stays in (on a 2-core host
        # the first seconds of a thread fan-out can run ~3x faster than
        # every second after them).  Its answers are still checked.
        warm_up = workload.epoch()
        budget = seconds / 2 if trace else seconds
        epochs = measure(workload.epoch, budget, probe)
        raw = end_to_end(workload, epochs, setup_s)
        metrics = at_reference_speed(raw, probes)
        attempted = warm_up.attempted + sum(e.attempted for e in epochs)
        failed = warm_up.failed + sum(e.failed for e in epochs)
        detail: dict[str, Any] = {
            "end_to_end": dict(metrics),
            "as_timed": raw,
            "host_probe_ms": list(probes),
            "epochs": [
                {"wall_s": e.wall_s, "statements": e.statements,
                 "latencies_ms": e.latencies_ms}
                for e in epochs
            ],
            # Per epoch, so they repeat exactly whatever the epoch count.
            "counts": {
                key: total / len(epochs)
                for key, total in merged(epochs).units.items()
            },
        }

        if trace:
            tracer = Tracer()
            try:
                traced = merged(
                    measure(lambda: workload.traced_epoch(tracer), budget)
                )
            finally:
                tracer.write(common.OUT / f"trace-{name}.jsonl")
            raw = per_layer(workload, tracer, epochs, traced)
            raw["host.slowdown"] = (
                statistics.median(probes) / common.REFERENCE_PROBE_MS
            )
            metrics = at_reference_speed(raw, probes)
            attempted += traced.attempted
            failed += traced.failed
            detail["per_layer"] = dict(metrics)
            detail["rollup"] = tracer.rollup()
            detail["samples"] = {
                key: tracer.median_sample(key) for key in tracer.samples
            }
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        leaked = sweep_shared_memory()
        if leaked:
            print(f"swept {leaked} leaked /dev/shm blocks", file=sys.stderr)

    units = {**END_TO_END, **PER_LAYER}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]["unit"]}
            for key, value in metrics.items()
        },
    }
    if report is not None:
        report.parent.mkdir(parents=True, exist_ok=True)
        report.write_text(json.dumps({**result, **detail}, indent=1))
    return result


# ----------------------------------------------------------------------
# Every workload, each in a fresh interpreter.
# ----------------------------------------------------------------------
def run_suite(args: argparse.Namespace) -> int:
    fingerprint = common.host_fingerprint()
    runs: dict[str, list[dict[str, Any]]] = {}
    for name in args.workloads:
        for index in range(args.runs):
            combined: dict[str, Any] = {"metrics": {}, "attempted": 0, "failed": 0}
            for trace in (0, 1) if args.trace else (0,):
                report = common.OUT / f"report-{os.getpid()}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--scale", args.scale, "--trace", str(trace),
                    "--report", str(report),
                ]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                if done.returncode != 0:
                    print(f"{name}: run failed ({done.returncode})")
                    return done.returncode
                detail = json.loads(report.read_text())
                report.unlink()
                combined["metrics"].update(detail["metrics"])
                combined["attempted"] += detail["attempted"]
                combined["failed"] += detail["failed"]
                if trace:
                    combined["rollup"] = detail["rollup"]
            runs.setdefault(name, []).append(combined)
            print_run(name, index, combined)

    failed = sum(run["failed"] for group in runs.values() for run in group)
    if args.out:
        payload = {
            "host": fingerprint,
            "seed": args.seed,
            "scale": args.scale,
            "seconds": args.seconds,
            "workloads": runs,
        }
        Path(args.out).write_text(json.dumps(payload, indent=1))
        print(f"wrote {args.out}")
    print(f"failed ops: {failed}")
    return 1 if failed else 0


def print_run(name: str, index: int, combined: dict[str, Any]) -> None:
    share = combined["failed"] / combined["attempted"]
    print(f"== {name} (run {index}) — {combined['attempted']} ops, "
          f"failed_share {share:.4f}")
    for key, metric in combined["metrics"].items():
        print(f"  {key:<46} {metric['value']:>14.4f} {metric['unit']}")
    rollup = combined.get("rollup")
    if rollup:
        print(f"  {'span':<40} {'calls':>6} {'total ms':>10} {'self ms':>10}")
        for span, row in sorted(rollup.items()):
            print(f"  {span:<40} {row['calls']:>6} "
                  f"{row['total_ms']:>10.3f} {row['self_ms']:>10.3f}")


def interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per run (default: BENCHMARK.json's "
             "run_seconds at full scale, one epoch at smoke scale)",
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload (all workloads mode)")
    parser.add_argument("--out", help="result file (all workloads mode)")
    parser.add_argument("--report", type=Path,
                        help="also write this run's full detail here")
    args = parser.parse_args(argv)
    # SIGTERM must unwind like Ctrl-C, so the server and the temporary
    # catalogs are removed on the way out.
    signal.signal(signal.SIGTERM, interrupt)
    if args.workload is None:
        args.workloads = WORKLOAD_NAMES
        return run_suite(args)
    seconds = args.seconds
    if seconds is None:
        seconds = SPEC["run_seconds"] if args.scale == "full" else 0.0
    # Orphans (the spawn pool's resource tracker, anything the server
    # forked) are handed to this process, so that no process this run
    # started is still there, even as a zombie, once it has exited.
    common.adopt_orphans()
    try:
        result = run_workload(
            args.workload, args.seed, args.scale, seconds, bool(args.trace),
            args.report,
        )
    finally:
        leftovers = common.stop_descendants()
        if leftovers:
            # A traced run always has one: the spawn pool's resource
            # tracker, which ends only once its parent has.
            print(f"stopped {leftovers} process(es) that outlived teardown",
                  file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
