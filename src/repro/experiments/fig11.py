"""Fig. 11 — average time per density inference vs window size H.

Paper protocol: the average wall-clock time of one inference iteration for
each metric, on both datasets, H in {30 .. 180} (log-scale y axis).
Expected shape: Kalman-GARCH slowest by 5-19x (EM estimation), UT/VT
cheapest, ARMA-GARCH close behind the naive metrics.  Absolute times are
hardware-specific; the *ratios* are what the reproduction checks.
"""

from __future__ import annotations

import copy
import time

from repro.data.synthetic import CAMPUS_ACCURACY, CAR_ACCURACY, make_dataset
from repro.experiments.common import ExperimentTable, get_scale
from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.metrics.base import DynamicDensityMetric
from repro.metrics.kalman_garch import KalmanGARCHMetric
from repro.metrics.uniform_threshold import UniformThresholdingMetric
from repro.metrics.variable_threshold import VariableThresholdingMetric
from repro.timeseries.series import TimeSeries

__all__ = ["run_fig11"]

DEFAULT_WINDOW_SIZES = (30, 60, 90, 120, 150, 180)


def run_fig11(
    scale: float | None = None,
    window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES,
    datasets: tuple[str, ...] = ("campus", "car"),
    rng_seed: int = 0,
) -> ExperimentTable:
    """Milliseconds per inference per (dataset, H, metric)."""
    scale = get_scale(scale)
    repeats = max(5, int(60 * scale))
    table = ExperimentTable(
        experiment_id="Fig. 11",
        title="Efficiency of the dynamic density metrics (ms per inference)",
        headers=[
            "dataset", "H", "UT", "VT", "ARMA-GARCH", "Kalman-GARCH",
            "KG/AG slowdown",
        ],
        notes=(
            f"scale={scale:g}; each cell averages {repeats} inferences; the "
            "paper reports a 5.1-18.6x Kalman-GARCH slowdown over ARMA-GARCH"
        ),
    )
    for index, dataset in enumerate(datasets):
        series = make_dataset(dataset, scale=scale, rng=rng_seed + index)
        threshold = CAMPUS_ACCURACY if dataset == "campus" else CAR_ACCURACY
        metrics: list[DynamicDensityMetric] = [
            UniformThresholdingMetric(threshold=threshold),
            VariableThresholdingMetric(),
            ARMAGARCHMetric(),
            KalmanGARCHMetric(em_max_iter=15),
        ]
        # One untimed inference per metric, on copies so the timed cells
        # do the same work: a fresh process's first model fits run several
        # times slower, and that would decide the ordering.
        for metric in copy.deepcopy(metrics):
            metric.infer(series.values[: window_sizes[0]], t=window_sizes[0])
        for H in window_sizes:
            cells = [
                round(_ms_per_inference(metric, series, H, repeats), 4)
                for metric in metrics
            ]
            slowdown = round(cells[3] / max(cells[2], 1e-9), 2)
            table.add_row(series.name, H, *cells, slowdown)
    return table


def _ms_per_inference(
    metric: DynamicDensityMetric,
    series: TimeSeries,
    H: int,
    repeats: int,
) -> float:
    available = len(series) - H
    count = min(repeats, available)
    step = max(1, available // count)
    start = time.perf_counter()
    forecasts = metric.run(series, H, step=step, stop=H + step * count)
    elapsed = time.perf_counter() - start
    return 1000.0 * elapsed / max(len(forecasts), 1)
