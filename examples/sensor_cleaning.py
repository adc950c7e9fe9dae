"""Sensor cleaning: C-GARCH vs plain ARMA-GARCH on erroneous values.

Reproduces the story of the paper's Section V / Fig. 5 on a corrupted
temperature stream: plain ARMA-GARCH's inferred bounds explode after a
spike enters its training window, while C-GARCH detects the spikes online,
replaces them with inferred values, and re-adjusts through genuine trend
changes.

Run:  python examples/sensor_cleaning.py
"""

import numpy as np

from repro import (
    ARMAGARCHMetric,
    CGARCHMetric,
    campus_temperature,
    inject_errors,
    learn_sv_max,
)

H = 50


def main() -> None:
    clean = campus_temperature(n=900, rng=3)
    injection = inject_errors(
        clean, count=8, magnitude=10.0, max_burst=3, rng=4,
        protect_prefix=H + 1,
    )
    corrupted = injection.series
    print(
        f"injected {injection.error_indices.size} erroneous values "
        f"(bursts up to 3) at indices {injection.error_indices.tolist()}"
    )

    # Plain ARMA-GARCH: no cleaning, volatility blows up (Fig. 5a).
    plain = ARMAGARCHMetric(kappa=3.0).run(corrupted, H)
    plain_widths = np.array([f.upper - f.lower for f in plain])

    # C-GARCH: online detection + replacement + trend handling (Fig. 5b).
    # SVmax is learned from a clean sample, exactly as the paper
    # prescribes ("using a sample of size T of clean data").
    oc_max = 8
    sv_max = learn_sv_max(clean.values[:300], oc_max)
    cgarch = CGARCHMetric(kappa=3.0, oc_max=oc_max, sv_max=sv_max)
    cg_forecasts, report = cgarch.run_with_report(corrupted, H)
    cg_widths = np.array([f.upper - f.lower for f in cg_forecasts])

    print("\ninferred 3-sigma bound widths (deg C):")
    print(f"  {'model':12} {'median':>8} {'p99':>8} {'max':>9}")
    for name, widths in (("ARMA-GARCH", plain_widths), ("C-GARCH", cg_widths)):
        print(
            f"  {name:12} {np.median(widths):8.2f} "
            f"{np.percentile(widths, 99):8.2f} {np.max(widths):9.2f}"
        )

    detected = set(report.flagged) & set(injection.error_indices.tolist())
    rate = 100.0 * len(detected) / injection.error_indices.size
    print(f"\nC-GARCH detected {len(detected)}/{injection.error_indices.size} "
          f"injected errors ({rate:.0f}%)")
    print(f"trend changes recognised: {len(report.trend_changes)}")

    # Cleaning quality: the cleaned values at spike positions are close to
    # the uncorrupted truth.
    errors_before = np.abs(
        corrupted.values[injection.error_indices]
        - clean.values[injection.error_indices]
    )
    errors_after = np.abs(
        report.cleaned[injection.error_indices]
        - clean.values[injection.error_indices]
    )
    print(
        f"mean |error| at spike positions: {errors_before.mean():.2f} deg C "
        f"before cleaning -> {errors_after.mean():.2f} deg C after"
    )


if __name__ == "__main__":
    main()
