"""Persistent catalog walkthrough: ingest, standing queries, reload.

A plant operator stores two sensor series in one catalog, streams values
in micro-batches as they arrive, and keeps standing queries registered so
each append immediately reports the newly answerable results — then
"restarts" by reopening the catalog and continues exactly where ingestion
left off.  One catalog-wide SELECT then asks a question of *every*
stored series at once through ``repro.connect()``, and a late
re-forecast shows time-of-knowledge revisions: ``AS OF`` replays the
catalog exactly as it was known before the revision landed.

Run:  python examples/store_ingest.py
"""

import tempfile

import numpy as np

import repro
from repro import (
    Catalog,
    OmegaGrid,
    StandingQuery,
    campus_temperature,
    car_gps,
)
from repro.db.prob_view import ProbabilisticView

H = 40
THRESHOLD = 21.0


def main() -> None:
    root = tempfile.mkdtemp(prefix="repro_catalog_")
    catalog = Catalog(root)

    # One catalog, many series: each binds a metric + omega grid once and
    # the binding survives restarts (it lives in series.json).
    catalog.create_series(
        "plant_temp", metric="arma_garch", H=H,
        grid=OmegaGrid(delta=0.25, n=20),
        # The sigma-cache is sized from expected volatility extremes and
        # then reused across every append.
        cache_min_sigma=1e-3, cache_max_sigma=50.0, cache_distance=0.02,
    )
    catalog.create_series(
        "car_gps", metric="variable_threshold", H=H,
        grid=OmegaGrid(delta=2.0, n=30),
    )

    # Standing queries: registered once, updated incrementally per append.
    exceed = catalog.register_query(
        "plant_temp", StandingQuery.exceedance(THRESHOLD))
    sustained = catalog.register_query(
        "plant_temp", StandingQuery.sustained_exceedance(THRESHOLD, window=5))

    temperature = campus_temperature(400, rng=3).values
    gps = car_gps(300, rng=9).values

    # Values arrive in micro-batches (e.g. one flush per minute).
    for start in range(0, temperature.size, 64):
        result = catalog.append("plant_temp", temperature[start : start + 64])
        if result.emitted:
            worst = max(exceed.last_delta.values(), default=0.0)
            print(
                f"append [{start:3d}..{start + result.fed:3d}): "
                f"{result.emitted:2d} new times, "
                f"max new P(>{THRESHOLD}) = {worst:.3f}"
            )
    for start in range(0, gps.size, 50):
        catalog.append("car_gps", gps[start : start + 50])

    print(f"\ncatalog series: {catalog.list_series()}")
    handle = catalog.series("plant_temp")
    print(f"plant_temp: {handle.tuple_count} tuples in "
          f"{len(handle.segment_names)} segments, next t={handle.next_t}")
    cache = handle.sigma_cache
    print(f"sigma-cache: {cache.stats.lookups} lookups, "
          f"hit rate {cache.stats.hit_rate:.1%}")
    risky = max(sustained.result().values(), default=0.0)
    print(f"highest P(5 consecutive readings > {THRESHOLD}): {risky:.4f}")

    # --- process restart ------------------------------------------------
    # A fresh Catalog object sees everything: the views, the metric
    # bindings, and the resume position.  Appends continue at the right t
    # without re-warming the window.
    reopened = Catalog(root)
    more = 20.5 + 0.1 * np.sin(np.arange(30))
    result = reopened.append("plant_temp", more)
    print(
        f"\nafter reopen: fed {result.fed} values, emitted times "
        f"{result.times[0]}..{result.times[-1]}"
    )
    view = reopened.view("plant_temp")
    print(f"stored view: {view!r}")

    # --- one question over the whole catalog ----------------------------
    # repro.connect(<path>) opens the catalog query service behind the
    # unified Connection facade: it plans a SELECT across every matched
    # series, runs the per-series work inline, and caches the
    # materialised views so a repeated statement skips the segment reloads.
    conn = repro.connect(root, cache_budget_bytes=64 << 20)
    service = conn.service
    result = conn.execute(
        f"SELECT exceedance({THRESHOLD}) FROM CATALOG '{root}' TOP 2"
    )
    print(f"\ncatalog-wide P(value > {THRESHOLD}), hottest series first:")
    for entry in result.results:
        print(f"  {entry.series_id:12s} max_p={entry.score:.4f} "
              f"({entry.size} times)")
    warm = conn.execute(
        f"SELECT exceedance({THRESHOLD}) FROM CATALOG '{root}' TOP 2"
    )
    assert warm.results == result.results
    print(f"matrix cache after the warm re-run: {service.cache!r}")

    # --- bounded answers without touching segment data ------------------
    # SELECT APPROX reads only the per-segment synopses written at append
    # time: each series gets an interval guaranteed to contain its exact
    # score, at a fraction of the exact scan's cost.
    approx = conn.execute(
        f"SELECT APPROX exceedance({THRESHOLD}) FROM CATALOG '{root}' TOP 2"
    )
    print(f"\nAPPROX P(value > {THRESHOLD}) from synopses alone:")
    for entry in approx.results:
        est = entry.result
        print(f"  {entry.series_id:12s} estimate={est['estimate']:.4f} "
              f"+/-{est['error_bound']:.4f} "
              f"(in [{est['lower']:.4f}, {est['upper']:.4f}])")
    exact_scores = {e.series_id: e.score for e in result.results}
    for entry in approx.results:
        est = entry.result
        assert est["lower"] <= exact_scores[entry.series_id] <= est["upper"]

    # --- possible worlds -------------------------------------------------
    # The created views are block-independent-disjoint probabilistic
    # databases, so we can do more than aggregate them: SIMULATE samples
    # complete possible worlds, MCDB-style.  Each world picks one
    # concrete value per time (None = the residual off-grid alternative);
    # with a SEED the result is bit-identical on every backend.
    worlds = conn.execute(f"SIMULATE 3 SEED 7 FROM CATALOG '{root}'")
    n_worlds, seed = (int(argument) for argument in worlds.arguments)
    print(f"\n{n_worlds} sampled worlds per series (seed {seed}):")
    for entry in worlds.results:
        head = ", ".join(
            "outside" if v is None else f"{v:.2f}"
            for _t, v in entry.result[0][:4]
        )
        print(f"  {entry.series_id:12s} world 0 starts: {head}, ...")

    # A multi-aggregate select list shares one scan; each item's results
    # are bit-identical to running it alone.  PROBABILITY OF answers the
    # per-time range question exactly (half-open, no sampling).
    combo = conn.execute(
        f"SELECT expected_value, PROBABILITY OF v BETWEEN 20 AND 21 "
        f"FROM CATALOG '{root}'"
    )
    ev_item, prob_item = combo.items
    for entry in prob_item.results:
        peak_t = max(entry.result, key=entry.result.get)
        print(f"  {entry.series_id:12s} "
              f"max P(20 <= v < 21) = {entry.score:.4f} at t={peak_t}")

    # --- revisions: a better model re-forecasts history ------------------
    # Later knowledge often changes what we believe about *old* valid
    # times: sensor recalibration, a better model run, backfilled data.
    # revise() overlays a re-forecast over the already-covered range; the
    # original rows stay on disk, and every query resolves latest-wins.
    before = conn.execute(
        f"SELECT expected_value FROM CATALOG '{root}' SERIES 'plant_temp'"
    ).results[0].score
    times = sorted(reopened.view("plant_temp").times)[:6]
    recal = ProbabilisticView.from_columns(
        "plant_temp", times, [25.0] * len(times), [25.5] * len(times),
        [0.95] * len(times), labels=["recalibrated"] * len(times),
    )
    revision = reopened.revise("plant_temp", recal)
    print(f"\nrevised plant_temp at knowledge_time="
          f"{revision['knowledge_time']}: "
          f"{len(times)} early times re-forecast")

    # AS OF <knowledge_time> backtests against what was known *then*:
    # AS OF 0 ignores the revision entirely; the default sees it.
    backtest = conn.execute(
        f"SELECT expected_value FROM CATALOG '{root}' "
        f"SERIES 'plant_temp'", as_of=0
    ).results[0].score
    after = conn.execute(
        f"SELECT expected_value FROM CATALOG '{root}' SERIES 'plant_temp'"
    ).results[0].score
    assert backtest == before          # bit-identical replay
    print(f"max E[R_t] before revision (AS OF 0): {backtest:.3f}, "
          f"after: {after:.3f}")

    # replay() iterates the whole knowledge timeline.
    for k, view in reopened.replay("plant_temp"):
        lows = view.columns.low
        print(f"  knowledge_time {k}: min low = {lows.min():.2f}")
    print(f"(catalog left in {root})")


if __name__ == "__main__":
    main()
