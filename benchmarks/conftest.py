"""Benchmark-suite plumbing.

Each bench runs one experiment from :mod:`repro.experiments`, records the
resulting table, and asserts the paper's qualitative shape.  Tables are
written to ``benchmarks/results/`` and replayed in the terminal summary, so
``pytest benchmarks/bench_*.py`` shows every reproduced figure even with
output capture enabled.  The explicit glob matters: the wrappers do not
match pytest's ``test_*.py`` pattern, so a bare ``pytest benchmarks/``
collects only ``e2e/test_e2e_smoke.py``.

Set ``REPRO_SCALE`` (default 0.08) to trade fidelity for runtime;
``REPRO_SCALE=1`` runs the paper-sized workloads.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.common import ExperimentTable

_RESULTS: list[ExperimentTable] = []
_RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def record_table():
    """Record an :class:`ExperimentTable` for the terminal summary + disk."""

    def _record(table: ExperimentTable) -> ExperimentTable:
        _RESULTS.append(table)
        _RESULTS_DIR.mkdir(exist_ok=True)
        slug = (
            table.experiment_id.lower()
            .replace(".", "")
            .replace(" ", "_")
        )
        (_RESULTS_DIR / f"{slug}.txt").write_text(table.render() + "\n")
        return table

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("reproduced paper tables/figures")
    for table in _RESULTS:
        terminalreporter.write_line("")
        for line in table.render().splitlines():
            terminalreporter.write_line(line)
