"""Compare two result files written by ``run.py --out``.

``compare.py A.json B.json`` prints one row per (metric, workload) that
has a regression bound: both medians, the ratio B ÷ A with A as its base,
the bound, and a verdict —

* ``within``      B is no worse than A by more than the bound;
* ``regressed``   B is worse than A by more than the bound;
* ``unresolved``  the run-to-run spread of either side (the distance
  between its quartiles over its median; needs ``--runs`` ≥ 2) is wider
  than the bound, so the pair of medians decides nothing.

Exits non-zero when any row regressed.  Bounds come from
``BENCHMARK.json`` (``end_to_end``) and from ``run.WORKLOAD_SPECIFIC``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any

import run


def bounds() -> dict[str, tuple[str, float]]:
    table = {
        name: (metric["better"], metric["bound"])
        for name, metric in run.END_TO_END.items()
    }
    table.update(run.WORKLOAD_SPECIFIC)
    return table


def series(result: dict[str, Any], workload: str, metric: str) -> list[float]:
    """One metric's value in every run of one workload."""
    if metric == "failed_share":
        return [r["failed"] / r["attempted"] for r in result["workloads"][workload]]
    return [
        r["metrics"][metric]["value"]
        for r in result["workloads"][workload]
        if metric in r["metrics"]
    ]


def spread(values: list[float]) -> float:
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``within`` / ``regressed`` / ``unresolved`` for B's median against A's."""
    base, other = statistics.median(a), statistics.median(b)
    if not base:
        # A zero base has no ratio: any move in the bad direction counts.
        worse = float(other > base if better == "lower" else other < base)
    elif better == "lower":
        worse = (other - base) / base
    else:
        worse = (base - other) / base
    if max(spread(a), spread(b)) > bound and bound > 0:
        return "unresolved"
    return "regressed" if worse > bound else "within"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    first, second = (json.loads(open(path).read()) for path in argv)
    regressed = 0
    print(f"{'workload':<13} {'metric':<24} {'A':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict")
    for workload in first["workloads"]:
        if workload not in second["workloads"]:
            continue
        for metric, (better, bound) in bounds().items():
            a = series(first, workload, metric)
            b = series(second, workload, metric)
            # A workload-specific metric reads 0 where it does not apply.
            if not a or not b or (not any(a) and not any(b)
                                  and metric != "failed_share"):
                continue
            what = verdict(a, b, better, bound)
            base, other = statistics.median(a), statistics.median(b)
            ratio = f"{other / base:7.3f}" if base else "      -"
            print(f"{workload:<13} {metric:<24} {base:>12.4f} {other:>12.4f} "
                  f"{ratio} {bound:>6.2f} {max(spread(a), spread(b)):>7.3f}  "
                  f"{what}")
            regressed += what == "regressed"
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
