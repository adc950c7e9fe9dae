"""Fig. 10 — density distance of the four metrics vs window size."""

import numpy as np

from repro.experiments.fig10 import run_fig10


def test_fig10_density_distance(record_table):
    table = run_fig10()
    record_table(table)
    # Expected shape: averaged over window sizes, the GARCH metrics beat
    # the naive ones on both datasets; ARMA-GARCH is the best overall.
    for dataset in ("campus-data", "car-data"):
        rows = [row for row in table.rows if row[0] == dataset]
        ut = float(np.mean([row[2] for row in rows]))
        vt = float(np.mean([row[3] for row in rows]))
        ag = float(np.mean([row[4] for row in rows]))
        assert ag < max(ut, vt), (
            f"{dataset}: ARMA-GARCH ({ag:.3f}) should beat the worse naive "
            f"metric (UT={ut:.3f}, VT={vt:.3f})"
        )
    # Overall winner across both datasets must be a GARCH-family metric.
    all_means = {
        name: float(np.mean(table.column(name)))
        for name in ("UT", "VT", "ARMA-GARCH", "Kalman-GARCH")
    }
    assert min(all_means, key=all_means.get) in ("ARMA-GARCH", "Kalman-GARCH")
