"""Fig. 15 — ARCH-effect verification on both datasets."""

import numpy as np

from repro.experiments.fig15 import run_fig15


def test_fig15_time_varying_volatility(record_table):
    table = run_fig15()
    record_table(table)
    by_dataset: dict[str, list[float]] = {}
    rejects: dict[str, list[bool]] = {}
    for row in table.rows:
        by_dataset.setdefault(row[0], []).append(row[5])
        rejects.setdefault(row[0], []).append(row[4])
    # Both datasets reject the i.i.d. null at small lags.
    assert rejects["campus-data"][0] and rejects["campus-data"][1]
    assert rejects["car-data"][0]
    # Campus-data shows a much stronger ARCH effect than car-data at every
    # lag (the paper's Fig. 15(a) vs 15(b) contrast).
    campus = np.array(by_dataset["campus-data"])
    car = np.array(by_dataset["car-data"])
    assert np.all(campus > car * 0.9)
    assert float(campus[0] / car[0]) > 2.0
