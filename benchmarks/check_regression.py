"""CI benchmark-regression gate.

Every perf claim this repo has recorded — columnar speedups (PR 1), binary
store round-trip and flat appends (PR 2), service cache gap (PR 3),
server batching parity (PR 4), synopsis pruning and
APPROX speedups (PR 6), observability overhead (PR 7) — lives in a
``BENCH_*.json``
at the repo root.  Until now CI only *uploaded* those files; this gate
makes it *defend* them: after a bench job refreshes its JSON, the gate
compares the fresh values against the committed baselines under
``benchmarks/baselines/`` and fails the job when a tracked metric falls
out of its tolerance band.

Design notes:

* Only **machine-relative** metrics are gated (speedup ratios, parity
  ratios, boolean invariants) — absolute wall times differ wildly between
  the committing host and CI runners, so they are recorded but never
  compared.
* Bands are deliberately wide (benchmarks are noisy; a gate that cries
  wolf gets deleted).  Each metric also carries an absolute **floor**
  (or cap, for lower-is-better metrics): even if the baseline drifts low
  over time, the floor pins the qualitative claim itself.
* Hardware-conditional metrics (a claim that needs >= 2 cores) declare
  ``min_cpus`` and are skipped — loudly — on smaller machines.

Usage::

    python benchmarks/check_regression.py                  # gate everything
    python benchmarks/check_regression.py BENCH_store.json # one file
    python benchmarks/check_regression.py --write-baselines

Exit status 0 when every gated metric holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"


@dataclass(frozen=True)
class Metric:
    """One gated value inside a benchmark JSON.

    ``path`` is a dotted lookup (``headline.warm_speedup``).  For
    ``direction="higher"`` the fresh value must stay above both
    ``baseline * (1 - tolerance)`` and the absolute ``floor``; for
    ``direction="lower"`` it must stay below ``baseline * (1 + tolerance)``
    and below ``floor`` (a cap).  ``direction="true"`` gates a boolean
    invariant.  ``min_cpus`` skips the check on hosts too small to
    exhibit the claim.
    """

    path: str
    direction: str = "higher"  # "higher" | "lower" | "true"
    tolerance: float = 0.5
    floor: float | None = None
    min_cpus: int | None = None


SPECS: dict[str, tuple[Metric, ...]] = {
    "BENCH_columnar.json": (
        Metric("sizes.100000.view_build.speedup", tolerance=0.6, floor=20.0),
        Metric(
            "sizes.100000.threshold_query.speedup",
            tolerance=0.8,
            floor=20.0,
        ),
        Metric(
            "sizes.100000.expected_value_query.speedup",
            tolerance=0.6,
            floor=4.0,
        ),
    ),
    "BENCH_store.json": (
        Metric(
            "headline.roundtrip_speedup_at_max_T", tolerance=0.6, floor=8.0
        ),
        Metric(
            "headline.append_latency_ratio_max_vs_min_T",
            direction="lower",
            tolerance=2.0,
            floor=4.0,  # Appends must stay ~flat in stored size.
        ),
    ),
    "BENCH_service.json": (
        Metric("cache_gap.warm_speedup", tolerance=0.75, floor=1.5),
    ),
    "BENCH_backends.json": (
        # Which scheduler wins depends on the host's cores, so the
        # sequential-vs-process wall times are recorded ungated; what
        # must hold everywhere is that both return the same bytes.
        Metric("bit_identical", direction="true"),
        # The shm and pickle transports must agree byte-for-byte on any
        # host, including single-core ones.
        Metric("shm_transport.pickle_parity", direction="true"),
    ),
    "BENCH_synopsis.json": (
        # Zone-map pruning on a selective query: the 10x acceptance
        # floor carries the claim; the band only catches collapses.
        Metric("headline.prune_speedup", tolerance=0.6, floor=10.0),
        # APPROX answers from synopses alone — if this nears 1x the
        # estimator started scanning segments.  The measured ratio is
        # hundreds-of-x and swings with catalog size, so the band is
        # nearly open and the floor carries the claim.
        Metric("headline.approx_speedup", tolerance=0.95, floor=5.0),
        Metric("bit_identical", direction="true"),
        Metric("within_bound", direction="true"),
    ),
    "BENCH_server.json": (
        # The qualitative claim is *parity* ("batched is no slower"); the
        # measured 1.7x win is load-shape dependent, so the absolute floor
        # carries this gate and the band is deliberately slack.
        Metric(
            "headline.batched_vs_unbatched", tolerance=0.6, floor=0.85
        ),
        Metric("bit_identical", direction="true"),
    ),
    "BENCH_worlds.json": (
        # Possible-worlds work (PR 8).  SIMULATE determinism is the hard
        # claim — seeded sampling must serialise identically on every
        # backend — and so is multi == singles bit-identity.  The
        # shared-scan speedup swings with catalog size and cache-clear
        # cost, so the band is slack and the modest floor ("a select
        # list beats cold singles at all") carries the claim.  The
        # recorded worlds/sec throughput is machine-absolute: never
        # gated.
        Metric("bit_identical", direction="true"),
        Metric("multi_identical", direction="true"),
        Metric("headline.shared_scan_speedup", tolerance=0.6, floor=1.1),
    ),
    "BENCH_revisions.json": (
        # Time-of-knowledge revisions (PR 9): the revision-free default
        # path must stay free — AS OF on a never-revised catalog resolves
        # constant frontiers, so its cost is capped at 5% over the plain
        # statement.  The measured ratio hovers around 1.0, so the
        # absolute cap carries the claim and the relative band is slack.
        Metric(
            "headline.asof_overhead_ratio",
            direction="lower",
            tolerance=0.10,
            floor=1.05,
        ),
        # AS OF replay must serialize bit-identically to its reference
        # run (default == AS OF latest; AS OF 0 == a base-only catalog).
        Metric("bit_identical", direction="true"),
    ),
    "BENCH_obs.json": (
        # Always-on instrumentation (PR 7): warm-path cost versus
        # NullRegistry must stay under the 2% cap.  The measured ratio
        # hovers around 1.0 (noise pushes it both ways), so the absolute
        # cap carries the claim and the relative band is slack.
        Metric(
            "headline.overhead_ratio",
            direction="lower",
            tolerance=0.05,
            floor=1.02,
        ),
    ),
}


def _lookup(payload: dict[str, Any], dotted: str) -> Any:
    value: Any = payload
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError(dotted)
        value = value[part]
    return value


def check_payloads(
    name: str, fresh: dict[str, Any], baseline: dict[str, Any]
) -> tuple[list[str], list[str]]:
    """Gate one benchmark file; returns ``(failures, notes)``."""
    failures: list[str] = []
    notes: list[str] = []
    cpus = fresh.get("cpu_count") or 1
    for metric in SPECS[name]:
        if metric.min_cpus is not None and cpus < metric.min_cpus:
            notes.append(
                f"SKIP {name}:{metric.path} (needs >= {metric.min_cpus} "
                f"cpus, host has {cpus})"
            )
            continue
        try:
            fresh_value = _lookup(fresh, metric.path)
        except KeyError:
            failures.append(f"{name}:{metric.path} missing from fresh run")
            continue
        if metric.direction == "true":
            if fresh_value is not True:
                failures.append(
                    f"{name}:{metric.path} = {fresh_value!r}, expected true"
                )
            else:
                notes.append(f"ok   {name}:{metric.path} = true")
            continue
        try:
            base_value = float(_lookup(baseline, metric.path))
        except KeyError:
            failures.append(f"{name}:{metric.path} missing from baseline")
            continue
        fresh_value = float(fresh_value)
        if metric.direction == "higher":
            band = base_value * (1.0 - metric.tolerance)
            bound = max(
                band,
                metric.floor if metric.floor is not None else band,
            )
            ok = fresh_value >= bound
            relation = ">="
        else:
            band = base_value * (1.0 + metric.tolerance)
            bound = min(
                band,
                metric.floor if metric.floor is not None else band,
            )
            ok = fresh_value <= bound
            relation = "<="
        line = (
            f"{name}:{metric.path} = {fresh_value:.3f} "
            f"(needs {relation} {bound:.3f}; baseline {base_value:.3f})"
        )
        if ok:
            notes.append(f"ok   {line}")
        else:
            failures.append(line)
    return failures, notes


def check_files(
    names: list[str], *, fresh_dir: Path, baseline_dir: Path
) -> tuple[list[str], list[str]]:
    """Gate several benchmark files from disk."""
    failures: list[str] = []
    notes: list[str] = []
    for name in names:
        if name not in SPECS:
            failures.append(
                f"{name}: no regression spec (known: {sorted(SPECS)})"
            )
            continue
        fresh_path = fresh_dir / name
        baseline_path = baseline_dir / name
        if not fresh_path.exists():
            failures.append(f"{name}: fresh results missing ({fresh_path})")
            continue
        if not baseline_path.exists():
            failures.append(
                f"{name}: committed baseline missing ({baseline_path})"
            )
            continue
        fresh = json.loads(fresh_path.read_text())
        baseline = json.loads(baseline_path.read_text())
        file_failures, file_notes = check_payloads(name, fresh, baseline)
        failures.extend(file_failures)
        notes.extend(file_notes)
    return failures, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        default=sorted(SPECS),
        help="benchmark JSON names to gate (default: all known)",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory holding the freshly produced BENCH_*.json",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=BASELINE_DIR,
        help="directory holding the committed baselines",
    )
    parser.add_argument(
        "--write-baselines",
        action="store_true",
        help="copy the fresh files over the baselines instead of gating",
    )
    args = parser.parse_args(argv)
    names = list(args.files)
    if args.write_baselines:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            source = args.fresh_dir / name
            shutil.copyfile(source, args.baseline_dir / name)
            print(f"baseline updated: {args.baseline_dir / name}")
        return 0
    failures, notes = check_files(
        names, fresh_dir=args.fresh_dir, baseline_dir=args.baseline_dir
    )
    for note in notes:
        print(note)
    if failures:
        print(f"\n{len(failures)} benchmark regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        return 1
    print(f"\nall gated metrics hold ({len(notes)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
