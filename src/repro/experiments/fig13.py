"""Fig. 13 — C-GARCH vs plain GARCH on synthetically injected errors.

Paper protocol (Section VII-B): insert a pre-specified number of very
high/low spikes uniformly at random into campus-data, learn ``SVmax`` from
clean data, run C-GARCH with ``oc_max = 8`` and compare against plain
ARMA-GARCH on (a) the percentage of injected errors detected and (b) the
average processing time per value.  Expected shape: C-GARCH captures about
twice as many errors at comparable cost — the plain model's variance
explodes after the first spike, hiding later spikes inside its inflated
bounds.

The paper injects {5, 25, 125, 625} errors into 18 031 samples; at reduced
``scale`` the counts shrink proportionally so the corruption *rate* matches
the paper's.
"""

from __future__ import annotations

import time

from repro.cleaning.svr_filter import learn_sv_max
from repro.data.errors import inject_errors
from repro.data.synthetic import CAMPUS_SAMPLES, campus_temperature
from repro.experiments.common import ExperimentTable, get_scale
from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.metrics.cgarch import CGARCHMetric
from repro.timeseries.series import TimeSeries

__all__ = ["run_fig13", "plain_garch_detection"]

PAPER_ERROR_COUNTS = (5, 25, 125, 625)


def plain_garch_detection(
    series: TimeSeries, H: int, kappa: float = 3.0
) -> tuple[set[int], float]:
    """Detection-only baseline: flag values outside plain ARMA-GARCH bounds.

    No replacement happens — erroneous values stay in the window, so the
    inferred volatility blows up exactly as in the paper's Fig. 5(a) and
    later spikes escape detection.  Returns the flagged indices and the
    average seconds per processed value.
    """
    values = series.values
    start = time.perf_counter()
    forecasts = ARMAGARCHMetric(kappa=kappa).run(series, H)
    actual = values[forecasts.times]
    inside = (forecasts.lowers <= actual) & (actual <= forecasts.uppers)
    elapsed = time.perf_counter() - start
    flagged = set(forecasts.times[~inside].tolist())
    return flagged, elapsed / max(len(series) - H, 1)


def run_fig13(
    scale: float | None = None,
    H: int = 40,
    oc_max: int = 8,
    rng_seed: int = 0,
) -> ExperimentTable:
    """Percent of injected errors captured + time per value, both models."""
    scale = get_scale(scale)
    n = max(1200, int(CAMPUS_SAMPLES * scale))
    clean = campus_temperature(n, rng=rng_seed)
    sv_max = learn_sv_max(clean.values[: max(H, 200)], oc_max)
    table = ExperimentTable(
        experiment_id="Fig. 13",
        title="C-GARCH vs GARCH: error detection rate and per-value cost",
        headers=[
            "errors (paper)", "errors (injected)",
            "C-GARCH % captured", "GARCH % captured",
            "C-GARCH ms/value", "GARCH ms/value",
        ],
        notes=(
            f"n={n} samples (scale={scale:g}), H={H}, oc_max={oc_max}, "
            "kappa=3, error bursts of 1-4 values (oc_max = 2x max burst, "
            "the paper's guideline); error counts scaled to preserve the "
            "paper's corruption rates"
        ),
    )
    for paper_count in PAPER_ERROR_COUNTS:
        count = max(2, round(paper_count * n / CAMPUS_SAMPLES))
        injection = inject_errors(
            clean, count, magnitude=8.0, max_burst=4,
            rng=rng_seed + paper_count, protect_prefix=H + 1,
        )
        series = injection.series
        truth = injection.error_indices

        cgarch = CGARCHMetric(oc_max=oc_max, sv_max=sv_max)
        start = time.perf_counter()
        _forecasts, report = cgarch.run_with_report(series, H)
        cg_seconds = (time.perf_counter() - start) / max(len(series) - H, 1)
        cg_captured = 100.0 * report.capture_rate(truth)

        plain_flagged, plain_seconds = plain_garch_detection(series, H)
        plain_captured = (
            100.0 * len(plain_flagged & set(truth.tolist())) / len(truth)
        )

        table.add_row(
            paper_count,
            count,
            round(cg_captured, 1),
            round(plain_captured, 1),
            round(1000.0 * cg_seconds, 3),
            round(1000.0 * plain_seconds, 3),
        )
    return table
