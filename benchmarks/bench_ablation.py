"""Ablations of the implementation choices documented in DESIGN.md."""

from repro.experiments.ablation import run_ablation


def test_ablations(record_table):
    table = run_ablation()
    record_table(table)
    rows = {(row[0], row[1]): row for row in table.rows}

    # Warm-starting must be faster and quality-neutral.
    warm = rows[("garch estimation", "warm-start")]
    cold = rows[("garch estimation", "cold multi-start")]
    assert warm[2] < cold[2]
    assert abs(warm[3] - cold[3]) < 0.4

    # The analytic gradient must beat finite differences.
    analytic = rows[("garch(1,1) mle", "analytic gradient")]
    numeric = rows[("garch(1,1) mle", "finite differences")]
    assert analytic[2] < numeric[2]

    # Serving stored rows must beat recomputing the CDF at lookup time.
    stored = rows[("sigma-cache payload", "stored rho rows")]
    recompute = rows[("sigma-cache payload", "recompute CDF per hit")]
    assert stored[2] < recompute[2]
