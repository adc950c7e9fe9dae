"""Indoor tracking: the paper's motivating Alice example (Fig. 1).

Alice walks through a 2x2 grid of rooms while an indoor-positioning system
records noisy (x, y) fixes.  Each axis gets its own dynamic density metric;
the per-room probability is the product of the axis range probabilities
(axis noise is independent), giving exactly the ``prob_view`` table of the
paper's Fig. 1: P(Alice in room k) per timestamp.

Run:  python examples/indoor_tracking.py
"""

import numpy as np

from repro import DensitySeries, TimeSeries, VariableThresholdingMetric

#: Rooms of Fig. 1: a 2x2 grid, four metres per side.
ROOMS = {
    "room 1": ((0.0, 2.0), (2.0, 4.0)),  # x-range, y-range (top-left).
    "room 2": ((2.0, 4.0), (2.0, 4.0)),
    "room 3": ((0.0, 2.0), (0.0, 2.0)),
    "room 4": ((2.0, 4.0), (0.0, 2.0)),
}


def simulate_walk(n: int, rng: np.random.Generator) -> tuple[TimeSeries, TimeSeries]:
    """Alice strolls from room 3 to room 2 with noisy position fixes."""
    path_x = np.linspace(0.8, 3.0, n)
    path_y = np.linspace(0.9, 3.2, n)
    noise = 0.18  # Indoor positioning error (metres).
    x = path_x + rng.normal(0.0, noise, n)
    y = path_y + rng.normal(0.0, noise, n)
    return TimeSeries(x, name="alice-x"), TimeSeries(y, name="alice-y")


def axis_probability(forecasts: DensitySeries, low: float, high: float) -> np.ndarray:
    """P(low <= X_t <= high) at every time: two CDF columns differenced."""
    size = len(forecasts)
    return forecasts.cdf(np.full(size, high)) - forecasts.cdf(np.full(size, low))


def room_probabilities(
    x_series: TimeSeries, y_series: TimeSeries, H: int = 30
) -> list[dict[str, float]]:
    """Per-time room probabilities from two independent axis metrics."""
    metric_x = VariableThresholdingMetric()
    metric_y = VariableThresholdingMetric()
    forecasts_x = metric_x.run(x_series, H)
    forecasts_y = metric_y.run(y_series, H)
    probabilities = {
        room: axis_probability(forecasts_x, x_lo, x_hi)
        * axis_probability(forecasts_y, y_lo, y_hi)  # Independent axis noise.
        for room, ((x_lo, x_hi), (y_lo, y_hi)) in ROOMS.items()
    }
    return [
        {"t": int(t), **{room: float(p[i]) for room, p in probabilities.items()}}
        for i, t in enumerate(forecasts_x.times)
    ]


def main() -> None:
    rng = np.random.default_rng(11)
    x_series, y_series = simulate_walk(200, rng)
    rows = room_probabilities(x_series, y_series)

    print("prob_view (every 30th timestamp):")
    print(f"{'t':>5}  " + "  ".join(f"{room:>7}" for room in ROOMS))
    for row in rows[::30]:
        cells = "  ".join(f"{row[room]:7.3f}" for room in ROOMS)
        print(f"{row['t']:5d}  {cells}")

    first, last = rows[0], rows[-1]
    start_room = max(ROOMS, key=lambda r: first[r])
    end_room = max(ROOMS, key=lambda r: last[r])
    print(f"\nAlice most likely started in {start_room} "
          f"(p={first[start_room]:.2f}) and ended in {end_room} "
          f"(p={last[end_room]:.2f})")


if __name__ == "__main__":
    main()
