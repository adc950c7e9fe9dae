"""Alerting over a probabilistic view: stream queries + possible worlds.

A plant operator monitors a temperature sensor and wants principled alerts:

* "How likely is the temperature above 20 degC right now?"
* "How likely is it to stay above 20 degC for five consecutive readings?"
* "What is the expected number of exceedances in the next hour?"
* "What is the chance the *maximum* over the window exceeds 24 degC?"
  (a non-decomposable functional -> Monte Carlo over possible worlds)

The densities are inferred once, persisted as one ``.npz`` file, and every
question is answered from the view built off the *loaded* densities — no
access to the raw stream is needed, which is the paper's core promise.

Run:  python examples/alerting.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    ARMAGARCHMetric,
    OmegaGrid,
    ViewBuilder,
    campus_temperature,
    calibration_report,
    exceedance_probability,
    expected_time_above,
    load_density_series_npz,
    monte_carlo_query,
    save_density_series_npz,
    sustained_exceedance_probability,
)
from repro.db.prob_view import ProbabilisticView

H = 60
THRESHOLD = 20.0


def main() -> None:
    series = campus_temperature(n=1000, rng=13)

    # Infer once, persist the densities.
    metric = ARMAGARCHMetric()
    forecasts = metric.run(series, H)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plant_densities.npz"
        save_density_series_npz(forecasts, path)
        stored = load_density_series_npz(path)
        print(
            f"persisted {len(stored)} densities, "
            f"t=[{stored.times[0]}, {stored.times[-1]}], "
            f"{path.stat().st_size} bytes"
        )

    # Check the metric is calibrated before trusting its alerts.
    report = calibration_report(forecasts, series)
    print(
        f"calibration: density distance {report.density_distance:.3f}, "
        f"KS p-value {report.ks_p_value:.3f}, worst coverage gap "
        f"{report.worst_coverage_gap():.3f}"
    )

    # Build the view from the *stored* densities, not the stream.
    grid = OmegaGrid(delta=0.25, n=60)
    matrix = ViewBuilder(grid).build_matrix(stored)
    view = ProbabilisticView.from_matrix("plant_view", matrix, grid)
    print(f"view: {len(view)} tuples over {len(view.times)} times\n")

    # Q1: instantaneous exceedance probability (last five readings).
    exceed = exceedance_probability(view, THRESHOLD)
    print(f"P(temp > {THRESHOLD} degC) at the last five times:")
    for t in view.times[-5:]:
        print(f"  t={t:4d}  p={exceed[t]:.3f}")

    # Q2: sustained exceedance over five consecutive readings.
    sustained = sustained_exceedance_probability(view, THRESHOLD, window=5)
    worst_t = max(sustained, key=sustained.get)
    print(
        f"\nhighest P(5 consecutive readings > {THRESHOLD}): "
        f"{sustained[worst_t]:.3f} ending at t={worst_t}"
    )

    # Q3: expected exceedance count over a 30-reading (1 hour) window.
    counts = expected_time_above(view, THRESHOLD, window=30)
    last = view.times[-1]
    print(f"expected exceedances in the last hour: {counts[last]:.1f} of 30")

    # Q4: distributional max — not decomposable per time, so estimate it
    # by sampling possible worlds (MCDB style).
    estimate = monte_carlo_query(
        view,
        lambda world: float(
            max(
                (v for v in world.values.values() if v is not None),
                default=-np.inf,
            )
            > 22.0
        ),
        n_samples=2000,
        rng=1,
    )
    low, high = estimate.confidence_interval()
    print(
        f"P(max temperature over the window > 22 degC) = "
        f"{estimate.mean:.3f}  (95% CI [{low:.3f}, {high:.3f}])"
    )


if __name__ == "__main__":
    main()
