"""Fig. 12 — effect of ARMA model order on density distance."""

from repro.experiments.fig12 import run_fig12


def test_fig12_model_order(record_table):
    table = run_fig12()
    record_table(table)
    dd = table.column("ARMA-GARCH")
    # Paper shape: the ARMA-GARCH density distance does not improve as the
    # model order grows — low orders are justified.
    assert dd[-1] >= dd[0] * 0.8
    assert all(d > 0 for d in dd)
