"""Fig. 13 — C-GARCH vs plain GARCH error detection and cost."""

import numpy as np

from repro.experiments.fig13 import run_fig13


def test_fig13_cgarch_detection(record_table):
    table = run_fig13()
    record_table(table)
    cgarch = np.array(table.column("C-GARCH % captured"))
    garch = np.array(table.column("GARCH % captured"))
    # C-GARCH never detects fewer errors than plain GARCH...
    assert np.all(cgarch >= garch - 1e-9)
    # ...and is strictly better at the highest corruption rate, where the
    # plain model's inflated variance masks subsequent spikes.
    assert cgarch[-1] > garch[-1]
    # Comparable per-value cost (paper: "does not require excessive
    # computational cost").
    cg_ms = np.array(table.column("C-GARCH ms/value"))
    g_ms = np.array(table.column("GARCH ms/value"))
    assert float(np.mean(cg_ms)) < 3.0 * float(np.mean(g_ms))
