"""Sharded point location vs. the flat Theorem 3 structure.

The acceptance workload: a 200-station uniform random deployment and a
20k-point query batch.  The flat (unsharded) ``theorem3`` structure answers
through one global nearest-station front-end over all n stations; the
sharded locator routes the batch to spatial shards first, so per-shard work
shrinks with the shard count while the final full-network verification keeps
every answer bit-identical to brute force.

The module sweeps shard counts and both partitioners, reports build and
query throughput, and gates on the best sharded configuration beating the
flat structure's query throughput.  Each configuration records whether it
certifies from the station grid: one 200-station shard does, more shards
keep their cheaper proposals.  An ungated stage ledger at the serving
benchmark's shape (3,200 stations, 16 kd shards, float32 screen, 1,024-point
batches) counts the points the grid certificate answers silent, proves and
leaves to the shard routing.

Set ``REPRO_BENCH_QUICK=1`` to shrink the workload (CI smoke mode) and
``REPRO_BENCH_MIN_SPEEDUP=<float>`` to override the speedup gate on slow or
noisy runners.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from persist import record_benchmark, speedup_floor
from repro.env import BENCH_QUICK, read_bool_knob
from repro import Point
from repro.engine import NO_RECEPTION, heard_station_batch, use_backend
from repro.pointlocation import get_locator, sharded
from repro.workloads import random_query_array, uniform_random_network

QUICK = read_bool_knob(BENCH_QUICK)
STATION_COUNT = 50 if QUICK else 200
QUERY_COUNT = 2_000 if QUICK else 20_000
SHARD_COUNTS = (1, 4, 8) if QUICK else (1, 2, 4, 8, 16)
#: The flat structure is built once with the cheap cover (the vectorised
#: ray sweep); epsilon is mid-range so the structure is realistic, not tiny.
DS_OPTIONS = {"epsilon": 0.5, "cover_method": "ray_sweep"}


@pytest.fixture(scope="module")
def workload():
    side = 4.0 * STATION_COUNT ** 0.5
    network = uniform_random_network(
        STATION_COUNT,
        side=side,
        minimum_separation=1.5,
        noise=0.002,
        beta=3.0,
        seed=23,
    )
    queries = random_query_array(
        QUERY_COUNT, Point(-2.0, -2.0), Point(side + 2.0, side + 2.0), seed=17
    )
    return network, queries


def _query_seconds(locator, queries, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        locator.locate_batch(queries)
        best = min(best, time.perf_counter() - start)
    return best / len(queries)


@pytest.mark.paper
def test_sharded_beats_flat_theorem3(workload):
    """The acceptance gate: best sharded config > flat DS query throughput."""
    network, queries = workload

    start = time.perf_counter()
    flat = get_locator("theorem3").build(network, **DS_OPTIONS)
    flat_build = time.perf_counter() - start
    flat_seconds = _query_seconds(flat, queries)

    truth = get_locator("brute-force").build(network).locate_batch(queries)
    np.testing.assert_array_equal(flat.locate_batch(queries), truth)

    print(
        f"\nstations={STATION_COUNT} queries={QUERY_COUNT}: flat theorem3 "
        f"build {flat_build:.2f}s, query {flat_seconds * 1e6:.2f} us "
        f"({1.0 / flat_seconds:,.0f} q/s), {flat.size_estimate()} cells"
    )
    print(f"{'configuration':>32} {'build s':>8} {'query us':>9} "
          f"{'q/s':>12} {'vs flat':>8} {'grid':>5}")

    best_speedup = 0.0
    sweep = [
        (f"sharded:voronoi kd x{k}", "sharded:voronoi",
         {"shards": k, "partitioner": "kd"})
        for k in SHARD_COUNTS
    ]
    sweep += [
        (f"sharded:voronoi uniform x{k}", "sharded:voronoi",
         {"shards": k, "partitioner": "uniform"})
        for k in SHARD_COUNTS[-2:]
    ]
    sweep.append(
        (
            f"sharded:theorem3 kd x{SHARD_COUNTS[-1]}",
            "sharded:theorem3",
            {"shards": SHARD_COUNTS[-1], "inner_options": DS_OPTIONS},
        )
    )
    rows = {}
    for label, name, options in sweep:
        start = time.perf_counter()
        locator = get_locator(name).build(network, **options)
        build_seconds = time.perf_counter() - start
        np.testing.assert_array_equal(locator.locate_batch(queries), truth)
        seconds = _query_seconds(locator, queries)
        speedup = flat_seconds / seconds
        best_speedup = max(best_speedup, speedup)
        grid = locator._grid is not None
        rows[label] = {
            "build_seconds": round(build_seconds, 4),
            "grid": grid,
            "qps": round(1.0 / seconds, 1),
            "speedup_vs_flat": round(speedup, 3),
        }
        print(
            f"{label:>32} {build_seconds:>8.2f} {seconds * 1e6:>9.2f} "
            f"{1.0 / seconds:>12,.0f} {speedup:>7.2f}x {str(grid):>5}"
        )

    record_benchmark(
        "sharded_locate",
        {
            "stations": STATION_COUNT,
            "queries": QUERY_COUNT,
            "flat_theorem3": {
                "build_seconds": round(flat_build, 4),
                "qps": round(1.0 / flat_seconds, 1),
            },
            "configurations": rows,
            "best_speedup_vs_flat": round(best_speedup, 3),
        },
    )

    # Sharding must pay on this workload: the best configuration beats the
    # flat structure (default floor 1.2x; REPRO_BENCH_MIN_SPEEDUP overrides
    # for slow or noisy runners).
    floor = speedup_floor(1.0 if QUICK else 1.2)
    assert best_speedup >= floor


@pytest.mark.paper
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_throughput_sharded_voronoi(benchmark, workload, shards):
    network, queries = workload
    locator = get_locator("sharded:voronoi").build(
        network, shards=shards, partitioner="kd"
    )
    benchmark(locator.locate_batch, queries)
    benchmark.extra_info["stations"] = STATION_COUNT
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["shard_sizes"] = locator.shard_sizes()
    benchmark.extra_info["per_query_us"] = round(
        benchmark.stats.stats.mean / QUERY_COUNT * 1e6, 3
    )


#: The serving benchmark's serve-large shape: its network (perfbench's
#: ``make_network``, rebuilt here), locator, backend and batch size.
LEDGER_STATIONS = 3200
LEDGER_BATCH = 1024
LEDGER_BATCHES = 10 if QUICK else 100


@pytest.mark.paper
def test_serve_large_stage_ledger(monkeypatch):
    """Ungated: what each stage of ``sharded:voronoi`` decides at
    serve-large's shape, and the time per batch.  Answers are checked
    against the dense heard-station rule."""
    side = 4.0 * LEDGER_STATIONS ** 0.5
    network = uniform_random_network(
        LEDGER_STATIONS, side=side, minimum_separation=1.5, noise=0.002,
        beta=3.0, seed=1,
    )
    locator = get_locator("sharded:voronoi").build(
        network, shards=16, partitioner="kd"
    )
    rng = np.random.default_rng(7)
    batches = [
        rng.uniform(-2.0, side + 2.0, size=(LEDGER_BATCH, 2))
        for _ in range(LEDGER_BATCHES)
    ]
    with use_backend("float32-screen"):
        grid_labels, candidates = [], [0]
        certify, verify = sharded.nearest_or_silent_batch, sharded.received_at

        def counted_certify(*args):
            labels = certify(*args)
            grid_labels.append(labels)
            return labels

        def counted_verify(net, stations, points, *rest):
            candidates[0] += len(stations)
            return verify(net, stations, points, *rest)

        monkeypatch.setattr(sharded, "nearest_or_silent_batch", counted_certify)
        monkeypatch.setattr(sharded, "received_at", counted_verify)
        for batch in batches:
            np.testing.assert_array_equal(
                locator.locate_batch(batch),
                heard_station_batch(network, batch, backend="numpy"),
            )
        monkeypatch.undo()
        seconds = []
        for batch in batches:
            start = time.perf_counter()
            locator.locate_batch(batch)
            seconds.append(time.perf_counter() - start)
    labels = np.concatenate(grid_labels)
    points = LEDGER_BATCH * LEDGER_BATCHES
    silent = int(np.count_nonzero(labels == NO_RECEPTION)) / points
    proved = int(np.count_nonzero(labels >= 0)) / points
    ledger = {
        "stations": LEDGER_STATIONS,
        "shards": 16,
        "backend": "float32-screen",
        "batch": LEDGER_BATCH,
        "batches": LEDGER_BATCHES,
        "grid_silent_share": round(silent, 5),
        "grid_proved_share": round(proved, 5),
        "routed_share": round(1.0 - silent - proved, 5),
        "candidates_per_query": round(candidates[0] / points, 5),
        "ms_per_batch_p50": round(float(np.median(seconds)) * 1e3, 3),
    }
    print(f"\nserve-large stage ledger: {ledger}")
    record_benchmark("sharded_stage_ledger", ledger)
