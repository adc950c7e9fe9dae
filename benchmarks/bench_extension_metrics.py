"""Extension study: where does EWMA sit between the naive and GARCH metrics?

Not a paper figure — an extension experiment quantifying the cost/quality
trade-off the paper's metric ladder implies: UT/VT (no volatility model),
EWMA (fixed-parameter recursion), ARMA-GARCH (per-window MLE).
"""

import time


from repro.data.synthetic import make_dataset
from repro.evaluation.density_distance import density_distance
from repro.experiments.common import ExperimentTable, get_scale, steps_for
from repro.metrics.arma_garch import ARMAGARCHMetric
from repro.metrics.ewma import EWMAMetric
from repro.metrics.variable_threshold import VariableThresholdingMetric


def _run_extension_study(scale=None, H=60, rng_seed=0):
    scale = get_scale(scale)
    series = make_dataset("campus", scale=scale, rng=rng_seed)
    budget = max(80, int(1200 * scale))
    step = steps_for(len(series) - H, budget)
    table = ExperimentTable(
        experiment_id="Ext. metrics",
        title="Metric ladder: quality vs cost (campus-data)",
        headers=["metric", "density distance", "ms/inference"],
        notes=f"H={H}, scale={scale:g}; EWMA = fixed-parameter GARCH limit",
    )
    for metric in (
        VariableThresholdingMetric(),
        EWMAMetric(),
        ARMAGARCHMetric(),
    ):
        start = time.perf_counter()
        forecasts = metric.run(series, H, step=step)
        elapsed = time.perf_counter() - start
        table.add_row(
            metric.name,
            round(density_distance(forecasts, series), 4),
            round(1000.0 * elapsed / len(forecasts), 3),
        )
    return table


def test_extension_metric_ladder(record_table):
    table = _run_extension_study()
    record_table(table)
    rows = {row[0]: row for row in table.rows}
    # EWMA must be far cheaper than ARMA-GARCH...
    assert rows["ewma"][2] < rows["arma_garch"][2] / 3.0
    # ...and its adaptive variance must beat the raw-window VT baseline.
    assert rows["ewma"][1] < rows["variable_threshold"][1]
    # The full MLE stays competitive on quality (density distance has a
    # sampling noise floor of ~0.3 at this inference budget, so only a
    # coarse comparison is stable here; Fig. 10 carries the precise one).
    assert rows["arma_garch"][1] <= rows["ewma"][1] * 1.6
