"""Smoke test of the end-to-end benchmark (collected by the tier-1 command).

Runs every workload at ``--scale smoke`` in this interpreter (only the
``serve_warm`` server is a subprocess) and checks the benchmark's own
contract: every metric ``BENCHMARK.json`` names is emitted, finite, with
the right unit; nothing fails; counts that must repeat exactly do.
"""

from __future__ import annotations

import json
import math
import re

import pytest

import e2e_common as common
import run
from e2e_workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")

#: Per workload, the per-epoch counts that must not vary between runs.
#: (``scan_cold`` has none: which views its LRU cache still holds depends
#: on the order pool threads finish in, so a few loads come and go.)
EXACT = {
    "serve_warm": ("server.app.executed", "server.app.coalesced"),
    "ingest_live": (
        "stored_bytes",
        "stored_tuples",
        "store.catalog.segments_loaded",
    ),
}


def detail(name: str, tmp_path, trace: bool) -> dict:
    report = tmp_path / f"{name}-{trace}.json"
    result = run.run_workload(name, 7, "smoke", 0.0, trace, report)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(report.read_text())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_emits_every_metric(name, tmp_path):
    first = detail(name, tmp_path, True)
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    for group, spec in (
        ("end_to_end", run.END_TO_END),
        ("per_layer", run.PER_LAYER),
    ):
        assert set(first[group]) == set(spec)
        for metric, value in first[group].items():
            assert math.isfinite(value), metric
    for metric, value in first["end_to_end"].items():
        assert value > 0, metric  # End-to-end metrics are never 0.
    for metric, entry in first["metrics"].items():
        assert entry["unit"] == run.PER_LAYER[metric]["unit"]
    assert first["per_layer"]["failed_share"] == 0
    assert first["per_layer"]["trace_overhead_ratio"] > 0
    assert (common.OUT / f"trace-{name}.jsonl").stat().st_size > 0
    if name in EXACT:
        second = detail(name, tmp_path, False)
        assert second["failed"] == 0
        for count in EXACT[name]:
            assert first["counts"][count] == second["counts"][count], count


def test_names_are_plain():
    names = list(run.END_TO_END) + list(run.PER_LAYER) + run.WORKLOAD_NAMES
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


def test_flipped_reference_digest_is_a_failure(tmp_path):
    workload = WORKLOADS["scan_cold"](7, "smoke", tmp_path)
    try:
        workload.build()
        workload.reference()
        assert workload.epoch().failed == 0
        text = next(iter(workload.expected))
        digest = workload.expected[text]
        workload.expected[text] = ("1" if digest[0] == "0" else "0") + digest[1:]
        assert workload.epoch().failed == 1
    finally:
        workload.teardown()


def test_compare_flags_a_regression(tmp_path, capsys):
    import compare

    def result(p50: float) -> dict:
        metrics = {"stmt_p50_ms": {"value": p50, "unit": "ms"}}
        return {"workloads": {"scan_cold": [
            {"metrics": metrics, "attempted": 10, "failed": 0}
        ]}}

    for label, p50 in (("a", 100.0), ("same", 105.0), ("slow", 140.0)):
        (tmp_path / f"{label}.json").write_text(json.dumps(result(p50)))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "same.json")]) == 0
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "slow.json")]) == 1
    assert "regressed" in capsys.readouterr().out
