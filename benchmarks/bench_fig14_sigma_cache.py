"""Fig. 14 — sigma-cache speedup and logarithmic size scaling."""

import numpy as np

from repro.experiments.fig14 import run_fig14a, run_fig14b


def test_fig14a_cache_speedup(record_table):
    table = run_fig14a()
    record_table(table)
    speedups = table.column("speedup")
    # The cache must win at every database size, and decisively at 18k
    # tuples (paper: 9.6x; we accept anything clearly multi-fold).
    assert all(s > 1.5 for s in speedups)
    assert speedups[-1] > 3.0


def test_fig14b_cache_size_scaling(record_table):
    table = run_fig14b()
    record_table(table)
    counts = np.array(table.column("distributions"), dtype=float)
    # Doubling Ds must add a roughly constant number of distributions
    # (logarithmic growth): increments between consecutive doublings agree.
    increments = np.diff(counts)
    assert np.all(increments > 0)
    assert float(increments.max() - increments.min()) <= 2.0
    # Size in kilobytes mirrors the paper's ~0.9-1.2 MB range for the same
    # view parameters (Delta=0.05, n=300, H'=0.01).
    sizes = table.column("cache size (kB)")
    assert 500 < sizes[0] < sizes[-1] < 2500
