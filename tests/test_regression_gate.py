"""Unit tests for the CI benchmark-regression gate.

The gate must (a) pass on the committed baselines — CI starts green —
and (b) demonstrably fail when a slowdown is injected into a fresh
result, which is the entire point of having it.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    # Registered before exec so the dataclass machinery can resolve the
    # module's (string) annotations.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate():
    return _load_gate()


@pytest.fixture(scope="module")
def baseline_dir(gate):
    return gate.BASELINE_DIR


class TestCommittedBaselines:
    def test_every_spec_has_a_committed_baseline(self, gate, baseline_dir):
        for name in gate.SPECS:
            assert (baseline_dir / name).exists(), name

    def test_committed_results_pass_their_own_gate(self, gate, baseline_dir):
        # Fresh = the repo-root BENCH files, baseline = the committed
        # copies; the tree must always gate green as committed.
        failures, notes = gate.check_files(
            sorted(gate.SPECS),
            fresh_dir=REPO_ROOT,
            baseline_dir=baseline_dir,
        )
        assert failures == []
        assert notes  # Something was actually checked.

    def test_main_exit_codes(self, gate):
        assert gate.main([]) == 0


class TestInjectedSlowdown:
    def _copy_tree(self, gate, tmp_path) -> Path:
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        for name in gate.SPECS:
            fresh_dir.joinpath(name).write_text(
                (REPO_ROOT / name).read_text()
            )
        return fresh_dir

    def _degrade(self, path: Path, dotted: str, factor: float) -> None:
        payload = json.loads(path.read_text())
        node = payload
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = node[parts[-1]] * factor
        path.write_text(json.dumps(payload))

    def test_store_slowdown_fails_the_gate(self, gate, tmp_path):
        fresh_dir = self._copy_tree(gate, tmp_path)
        self._degrade(
            fresh_dir / "BENCH_store.json",
            "headline.roundtrip_speedup_at_max_T",
            0.02,  # The binary-vs-CSV win collapses 50x.
        )
        failures, _ = gate.check_files(
            ["BENCH_store.json"],
            fresh_dir=fresh_dir,
            baseline_dir=gate.BASELINE_DIR,
        )
        assert len(failures) == 1
        assert "roundtrip_speedup_at_max_T" in failures[0]

    def test_append_latency_blowup_fails_the_gate(self, gate, tmp_path):
        fresh_dir = self._copy_tree(gate, tmp_path)
        self._degrade(
            fresh_dir / "BENCH_store.json",
            "headline.append_latency_ratio_max_vs_min_T",
            20.0,  # Appends now scale with stored size: a regression.
        )
        failures, _ = gate.check_files(
            ["BENCH_store.json"],
            fresh_dir=fresh_dir,
            baseline_dir=gate.BASELINE_DIR,
        )
        assert any(
            "append_latency_ratio_max_vs_min_T" in failure
            for failure in failures
        )

    def test_server_parity_loss_fails_the_gate(self, gate, tmp_path):
        fresh_dir = self._copy_tree(gate, tmp_path)
        payload = json.loads(
            (fresh_dir / "BENCH_server.json").read_text()
        )
        payload["headline"]["batched_vs_unbatched"] = 0.5  # Batched slower.
        payload["bit_identical"] = False
        (fresh_dir / "BENCH_server.json").write_text(json.dumps(payload))
        failures, _ = gate.check_files(
            ["BENCH_server.json"],
            fresh_dir=fresh_dir,
            baseline_dir=gate.BASELINE_DIR,
        )
        assert len(failures) == 2

    def test_main_exits_nonzero_on_regression(self, gate, tmp_path):
        fresh_dir = self._copy_tree(gate, tmp_path)
        self._degrade(
            fresh_dir / "BENCH_columnar.json",
            "sizes.100000.view_build.speedup",
            0.01,
        )
        assert gate.main(["--fresh-dir", str(fresh_dir)]) == 1

    def test_missing_fresh_file_fails(self, gate, tmp_path):
        failures, _ = gate.check_files(
            ["BENCH_service.json"],
            fresh_dir=tmp_path,
            baseline_dir=gate.BASELINE_DIR,
        )
        assert failures and "fresh results missing" in failures[0]

    def test_missing_metric_fails(self, gate, tmp_path):
        fresh_dir = self._copy_tree(gate, tmp_path)
        payload = json.loads(
            (fresh_dir / "BENCH_service.json").read_text()
        )
        del payload["cache_gap"]
        (fresh_dir / "BENCH_service.json").write_text(json.dumps(payload))
        failures, _ = gate.check_files(
            ["BENCH_service.json"],
            fresh_dir=fresh_dir,
            baseline_dir=gate.BASELINE_DIR,
        )
        assert any("missing from fresh" in failure for failure in failures)

    def test_unknown_file_fails(self, gate, tmp_path):
        failures, _ = gate.check_files(
            ["BENCH_wat.json"],
            fresh_dir=tmp_path,
            baseline_dir=gate.BASELINE_DIR,
        )
        assert failures and "no regression spec" in failures[0]

    def test_small_host_skips_cpu_gated_metric(self, gate, monkeypatch):
        # No committed spec is hardware-conditional at present: make the
        # cache-gap metric need two cores for the length of this test.
        monkeypatch.setitem(gate.SPECS, "BENCH_service.json", (
            gate.Metric("cache_gap.warm_speedup", floor=1.5, min_cpus=2),
        ))
        fresh = json.loads((REPO_ROOT / "BENCH_service.json").read_text())
        fresh["cpu_count"] = 1
        fresh["cache_gap"]["warm_speedup"] = 0.1  # Would fail if gated.
        baseline = json.loads(
            (gate.BASELINE_DIR / "BENCH_service.json").read_text()
        )
        failures, notes = gate.check_payloads(
            "BENCH_service.json", fresh, baseline
        )
        assert failures == []
        assert any("SKIP" in note for note in notes)

    def test_write_baselines_round_trip(self, gate, tmp_path):
        fresh_dir = self._copy_tree(gate, tmp_path)
        baseline_dir = tmp_path / "baselines"
        assert gate.main([
            "--fresh-dir", str(fresh_dir),
            "--baseline-dir", str(baseline_dir),
            "--write-baselines",
        ]) == 0
        assert gate.main([
            "--fresh-dir", str(fresh_dir),
            "--baseline-dir", str(baseline_dir),
        ]) == 0
