"""Online mode: streaming density inference with a pre-sized sigma-cache.

The paper's online mode infers p_t(R_t) as each value arrives.  This
example streams car GPS data through an :class:`OnlinePipeline`, serving
probability rows from a sigma-cache sized in advance from expected
volatility extremes, and reports the cache hit statistics at the end.

Run:  python examples/streaming_online.py
"""

from repro import (
    ARMAGARCHMetric,
    OmegaGrid,
    OnlinePipeline,
    SigmaCache,
    car_gps,
)

H = 60


def main() -> None:
    series = car_gps(n=600, rng=9)
    grid = OmegaGrid(delta=2.0, n=30)  # 30 ranges x 2 m around r_hat.

    # Online mode cannot size the cache from a WHERE clause, so the
    # operator provides expected sigma extremes (here: from the sensor
    # spec and a generous headroom factor).
    cache = SigmaCache(
        grid, min_sigma=0.5, max_sigma=500.0, distance_constraint=0.02
    )
    print(f"pre-sized cache: {cache!r}")

    pipeline = OnlinePipeline(ARMAGARCHMetric(), H=H, grid=grid, cache=cache)

    emitted = 0
    for value in series.values:
        row = pipeline.feed_batch([value])  # One value in, one row out.
        if not len(row):
            continue  # Warm-up.
        emitted += 1
        if emitted % 100 == 1:
            print(
                f"t={int(row.t[0]):4d}  r={value:9.1f}  "
                f"r_hat={row.mean[0]:9.1f}  sigma={row.volatility[0]:7.2f}  "
                f"row mass={row.total_mass[0]:.3f}"
            )

    view = pipeline.to_view("car_online_view")
    print(f"\nmaterialised {view!r}")
    print(
        f"cache: {cache.stats.lookups} lookups, "
        f"hit rate {cache.stats.hit_rate:.1%}, "
        f"{len(cache)} stored distributions, "
        f"{cache.size_bytes() / 1024:.0f} kB"
    )
    print(f"guaranteed Hellinger error <= {cache.guaranteed_distance():.3f}")


if __name__ == "__main__":
    main()
