"""Table II — dataset generation and summary."""

from repro.experiments.table02 import run_table02


def test_table2_datasets(record_table):
    table = run_table02()
    record_table(table)
    datasets = table.column("dataset")
    assert datasets == ["campus-data", "car-data"]
    samples = table.column("samples")
    assert all(count >= 400 for count in samples)
    # Campus must be the larger dataset, as in the paper's Table II.
    assert samples[0] > samples[1]
