"""Fig. 11 — per-inference cost of the four metrics."""

import numpy as np

from repro.experiments.fig11 import run_fig11


def test_fig11_metric_efficiency(record_table):
    table = run_fig11()
    record_table(table)
    ut = np.array(table.column("UT"))
    vt = np.array(table.column("VT"))
    ag = np.array(table.column("ARMA-GARCH"))
    kg = np.array(table.column("Kalman-GARCH"))
    # Paper shape: Kalman-GARCH is the slowest metric (EM estimation);
    # the naive metrics are the cheapest.
    assert np.mean(kg) > np.mean(ag)
    assert np.mean(ut) < np.mean(ag)
    assert np.mean(vt) < np.mean(ag)
    # The Kalman-GARCH slowdown factor over ARMA-GARCH is material
    # (paper: 5.1-18.6x; the floor here is deliberately conservative).
    assert float(np.mean(kg) / np.mean(ag)) > 1.5
