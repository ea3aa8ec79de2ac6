"""Incremental dynamic-network updates vs rebuilding from scratch.

The dynamic-network acceptance workload: one station of a 200-station
deployment moves a short distance, and every derived structure must follow.

Three gates, each against the honest static-world baseline:

* **shard-selective rebuild** — ``ShardedLocator.updated(new_network,
  delta)`` rebuilds only the shards whose station sets the move touches
  (plus the cheap all-shard routing-box refresh), against a full
  ``build()`` of the same configuration on the mutated network.  With an
  expensive Theorem-3 inner the incremental path must win by at least
  **5x**, while staying bit-identical to the fresh build (asserted on a
  20k-point batch);
* **tile-granular raster invalidation** — after the move,
  ``invalidate_for_delta`` re-keys every warm tile outside the moved
  station's certified reach and drops only the overlapping ones, so
  re-serving the warm request set is mostly cache assembly.  That re-serve
  must beat the same re-serve after a whole-fingerprint flush by at least
  **3x**.  The same warm requests, re-served against the *old* network as
  a request straddling the move asks for them, must hit every re-keyed
  tile and compute only tiles inside the moved station's boxes, storing
  none of them (counts only, no timing floor);
* **moved reaches** — on the serving benchmark's network (3,200 stations,
  16 kd shards, ``sharded:voronoi``), each of 20 random-waypoint
  single-station moves recomputes only the reaches the move can change.
  The median ``updated()`` must beat the median full ``station_reaches``
  sweep of the same networks by at least **2.5x** (measured on a 2-vCPU
  VM: 3.5–3.8x over four runs of the whole module, 5.1–5.2x over three
  runs of this test alone), with every reach bit-identical to the
  sweep's.  Quick mode keeps the full network: at 800 stations the sweep
  is cheap enough that the ratio falls to about 1.4x, which would gate
  nothing.

``REPRO_BENCH_MIN_SPEEDUP=<float>`` overrides every floor on slow or noisy
runners (the CI smoke leg relaxes them), and ``REPRO_BENCH_QUICK=1``
shrinks the first two workloads.  Results are recorded into
``BENCH_engine.json`` via :mod:`persist`.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from persist import quick_mode, record_benchmark, speedup_floor
from repro import Point, SINRDiagram, TileCache
from repro.model import move_station
from repro.pointlocation import ShardedLocator, get_locator, station_reaches
from repro.raster import invalidate_for_delta
from repro.workloads import (
    random_query_array,
    random_waypoint_walk,
    uniform_random_network,
)

QUICK = quick_mode()
STATION_COUNT = 50 if QUICK else 200
QUERY_COUNT = 2_000 if QUICK else 20_000
SHARDS = 8 if QUICK else 16
RESOLUTION = 96 if QUICK else 192
DS_OPTIONS = {"epsilon": 0.5, "cover_method": "ray_sweep"}


def _moved_workload(station_count: int, seed: int = 23):
    """A deployment plus the same deployment with one station nudged."""
    side = 4.0 * station_count ** 0.5
    network = uniform_random_network(
        station_count,
        side=side,
        minimum_separation=1.5,
        noise=0.002,
        beta=3.0,
        seed=seed,
    )
    index = station_count // 2
    station = network.stations[index]
    moved, delta = move_station(
        network, index, Point(station.x + 0.6, station.y - 0.4)
    )
    return network, moved, delta, side


@pytest.mark.paper
def test_incremental_update_beats_full_rebuild():
    """The acceptance gate: ``updated()`` >= 5x a fresh ``build()``."""
    network, moved, delta, side = _moved_workload(STATION_COUNT)
    queries = random_query_array(
        QUERY_COUNT, Point(-2.0, -2.0), Point(side + 2.0, side + 2.0), seed=17
    )
    options = {"shards": SHARDS, "inner_options": DS_OPTIONS}

    start = time.perf_counter()
    locator = get_locator("sharded:theorem3").build(network, **options)
    initial_build = time.perf_counter() - start
    assert isinstance(locator, ShardedLocator)

    start = time.perf_counter()
    fresh = get_locator("sharded:theorem3").build(moved, **options)
    full_seconds = time.perf_counter() - start

    start = time.perf_counter()
    incremental = locator.updated(moved, delta)
    incremental_seconds = time.perf_counter() - start

    report = incremental.last_update
    assert report is not None and not report.full_rebuild
    assert 0 < report.rebuilt < SHARDS  # the move touched a strict subset

    truth = fresh.locate_batch(queries)
    np.testing.assert_array_equal(incremental.locate_batch(queries), truth)

    speedup = full_seconds / incremental_seconds
    print(
        f"\nstations={STATION_COUNT} shards={SHARDS} single move: "
        f"initial build {initial_build:.2f}s, full rebuild {full_seconds:.2f}s, "
        f"incremental {incremental_seconds * 1e3:.1f} ms "
        f"({report.describe()}) -> {speedup:.1f}x"
    )

    record_benchmark(
        "incremental_update",
        {
            "stations": STATION_COUNT,
            "shards": SHARDS,
            "full_rebuild_seconds": round(full_seconds, 4),
            "incremental_seconds": round(incremental_seconds, 4),
            "shards_rebuilt": report.rebuilt,
            "shards_reused": report.reused,
            "speedup_vs_full_rebuild": round(speedup, 2),
        },
    )

    # A single move must not pay for the whole deployment (default floor
    # the acceptance 5x; REPRO_BENCH_MIN_SPEEDUP overrides).
    assert speedup >= speedup_floor(5.0)


@pytest.mark.paper
def test_tile_invalidation_beats_full_flush():
    """The acceptance gate: delta invalidation re-serve >= 3x full flush."""
    network, moved, delta, side = _moved_workload(20, seed=31)
    lo, hi = -0.25 * side, 1.25 * side
    mid = 0.5 * (lo + hi)
    half = RESOLUTION // 2
    requests = [
        (Point(lo, lo), Point(hi, hi), RESOLUTION),
        (Point(lo, lo), Point(mid, mid), half),
        (Point(mid, lo), Point(hi, mid), half),
        (Point(lo, mid), Point(mid, hi), half),
        (Point(mid, mid), Point(hi, hi), half),
        (Point(lo, lo), Point(hi, hi), RESOLUTION),
    ]
    diagram = SINRDiagram(network)
    moved_diagram = SINRDiagram(moved)

    def warm_cache() -> TileCache:
        cache = TileCache(tile_size=32)
        for a, b, res in requests:
            diagram.rasterize(a, b, res, cache=cache)
        return cache

    def reserve_seconds(cache: TileCache) -> float:
        start = time.perf_counter()
        for a, b, res in requests:
            moved_diagram.rasterize(a, b, res, cache=cache)
        return time.perf_counter() - start

    flushed = warm_cache()
    flushed.invalidate_region(network.fingerprint, moved.fingerprint, None)
    flush_seconds = reserve_seconds(flushed)

    granular = warm_cache()
    rekeyed, dropped = invalidate_for_delta(granular, network, moved, delta)
    assert rekeyed > 0  # most warm tiles survive the move
    granular_seconds = reserve_seconds(granular)

    # A request that straddles the move still asks for the old network's
    # tiles: the re-keyed ones serve it, and it computes, without storing,
    # only tiles inside the moved station's boxes.
    before = granular.stats()
    for a, b, res in requests:
        diagram.rasterize(a, b, res, cache=granular)
    after = granular.stats()
    straddle_hits = after.hits - before.hits
    straddle_misses = after.misses - before.misses
    straddle_rejected = after.rejected - before.rejected

    speedup = flush_seconds / granular_seconds
    print(
        f"\nstations=20 resolution={RESOLUTION} requests={len(requests)}: "
        f"full-flush re-serve {flush_seconds * 1e3:.1f} ms, "
        f"delta re-serve {granular_seconds * 1e3:.1f} ms "
        f"({rekeyed} rekeyed / {dropped} dropped) -> {speedup:.1f}x; "
        f"old-network re-serve {straddle_hits} hits / {straddle_misses} "
        f"misses / {straddle_rejected} rejected"
    )
    assert straddle_misses == straddle_rejected
    assert straddle_misses <= dropped * len(requests)
    assert straddle_hits >= rekeyed

    record_benchmark(
        "incremental_raster",
        {
            "stations": 20,
            "resolution": RESOLUTION,
            "requests": len(requests),
            "full_flush_seconds": round(flush_seconds, 4),
            "granular_seconds": round(granular_seconds, 4),
            "tiles_rekeyed": rekeyed,
            "tiles_dropped": dropped,
            "speedup_vs_full_flush": round(speedup, 2),
        },
    )

    # Tile-granular invalidation must amortise (default floor the
    # acceptance 3x; REPRO_BENCH_MIN_SPEEDUP overrides).
    assert speedup >= speedup_floor(3.0)


@pytest.mark.paper
def test_moved_reaches_beat_the_sweep():
    """The gate: a one-station ``updated()`` >= 2.5x the full reach sweep."""
    stations, moves = 3_200, 20
    network, _, _, _ = _moved_workload(stations, seed=1)
    locator = ShardedLocator(network, inner="voronoi", shards=16)
    update_seconds, sweep_seconds = [], []
    for step in random_waypoint_walk(network, moves, movers=1, seed=5):
        start = time.perf_counter()
        locator = locator.updated(step.network, step.delta)
        update_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        reaches = station_reaches(step.network)
        sweep_seconds.append(time.perf_counter() - start)
        assert not locator.last_update.full_rebuild
        np.testing.assert_array_equal(
            locator._reaches.view(np.int64), reaches.view(np.int64)
        )

    update_ms = float(np.median(update_seconds)) * 1e3
    sweep_ms = float(np.median(sweep_seconds)) * 1e3
    speedup = sweep_ms / update_ms
    print(
        f"\nstations={stations} shards=16 moves={moves}: median updated() "
        f"{update_ms:.2f} ms, median station_reaches sweep {sweep_ms:.2f} ms "
        f"-> {speedup:.1f}x"
    )
    record_benchmark(
        "incremental_reaches",
        {
            "stations": stations,
            "shards": 16,
            "moves": moves,
            "updated_ms_p50": round(update_ms, 3),
            "sweep_ms_p50": round(sweep_ms, 3),
            "speedup_vs_sweep": round(speedup, 2),
        },
    )

    # A move must not pay for a nearest-neighbour sweep of every station
    # (default floor 2.5x; REPRO_BENCH_MIN_SPEEDUP overrides).
    assert speedup >= speedup_floor(2.5)
