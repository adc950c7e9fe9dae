"""Fig. 4 — volatility regimes exist in both datasets."""

from repro.experiments.fig04 import run_fig04


def test_fig04_volatility_regimes(record_table):
    table = run_fig04()
    record_table(table)
    assert all(table.column("regimes present"))
    ratios = table.column("volatile/quiet ratio")
    # Both datasets must show clearly separated regimes (Region A vs B).
    assert min(ratios) > 3.0
