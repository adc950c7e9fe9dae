"""Ablations of the implementation choices documented in DESIGN.md."""

from repro.experiments.ablation import run_ablation


def test_ablations(record_table):
    table = run_ablation()
    record_table(table)
    rows = {(row[0], row[1]): row for row in table.rows}

    # Warm-starting must be cheaper and quality-neutral.  Cost is counted
    # in likelihood evaluations per fit (column 4), not read off a clock:
    # the first fits of a process on a host that sat idle run several
    # times slow.
    warm = rows[("garch estimation", "warm-start")]
    cold = rows[("garch estimation", "cold multi-start")]
    assert warm[4] < cold[4]
    assert abs(warm[3] - cold[3]) < 0.4

    # The analytic gradient must need fewer objective calls than finite
    # differences.
    analytic = rows[("garch(1,1) mle", "analytic gradient")]
    numeric = rows[("garch(1,1) mle", "finite differences")]
    assert analytic[4] < numeric[4]

    # Serving stored rows must beat recomputing the CDF at lookup time.
    stored = rows[("sigma-cache payload", "stored rho rows")]
    recompute = rows[("sigma-cache payload", "recompute CDF per hit")]
    assert stored[2] < recompute[2]
