"""Batched query engine: batch vs. per-point scalar throughput.

The engine's reason to exist is bulk queries: one vectorised pass over an
``(m, 2)`` coordinate array instead of ``m`` Python calls.  This benchmark
measures the ratio on the acceptance workload (a 50-station uniform random
deployment, 10k query points) for the three query families:

* ``sinr_batch`` vs. per-point ``WirelessNetwork.sinr``,
* ``heard_station_batch`` vs. per-point ``SINRDiagram.station_heard_at``,
* locator ``locate_batch`` vs. per-point ``locate`` for the exact baselines
  and the Theorem 3 grid structure,

plus a backend-comparison section timing the same bulk workload through
both production backends (numpy and float32-screen); its per-backend q/s
land in ``BENCH_engine.json`` via :mod:`persist`.

Set ``REPRO_BENCH_QUICK=1`` to shrink the workload (CI smoke mode), and
``REPRO_BENCH_MIN_SPEEDUP=<float>`` to override the batch-over-scalar
speedup gates on runners too slow or noisy for the defaults.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from persist import quick_mode, record_benchmark, speedup_floor
from repro import Point, SINRDiagram
from repro.engine import heard_station_batch, sinr_batch
from repro.pointlocation import (
    BruteForceLocator,
    PointLocationStructure,
    VoronoiCandidateLocator,
)
from repro.workloads import random_query_array, uniform_random_network

QUICK = quick_mode()
STATION_COUNT = 10 if QUICK else 50
QUERY_COUNT = 500 if QUICK else 10_000
SCALAR_SAMPLE = 100 if QUICK else 1_000  # scalar loops are timed on a subsample
# The Theorem 3 structure's preprocessing is cubic-ish in n (Sturm segment
# tests along every zone boundary); its *query* throughput is what this
# module measures, so it gets a smaller deployment that builds in seconds.
DS_STATION_COUNT = 6 if QUICK else 12


def _make_workload(station_count):
    side = 4.0 * station_count ** 0.5
    network = uniform_random_network(
        station_count,
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


@pytest.fixture(scope="module")
def workload():
    return _make_workload(STATION_COUNT)


@pytest.fixture(scope="module")
def ds_workload():
    network, queries = _make_workload(DS_STATION_COUNT)
    return network, queries, PointLocationStructure(network, epsilon=0.5)


def _scalar_seconds_per_query(fn, points) -> float:
    start = time.perf_counter()
    for x, y in points:
        fn(Point(x, y))
    return (time.perf_counter() - start) / len(points)


def _batch_seconds_per_query(fn, queries, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(queries)
        best = min(best, time.perf_counter() - start)
    return best / len(queries)


@pytest.mark.paper
def test_throughput_sinr_batch(benchmark, workload):
    network, queries = workload
    benchmark(sinr_batch, network, queries)
    benchmark.extra_info["stations"] = STATION_COUNT
    benchmark.extra_info["queries"] = QUERY_COUNT
    benchmark.extra_info["per_query_us"] = round(
        benchmark.stats.stats.mean / QUERY_COUNT * 1e6, 3
    )


@pytest.mark.paper
def test_throughput_heard_station_batch(benchmark, workload):
    network, queries = workload
    benchmark(heard_station_batch, network, queries)
    benchmark.extra_info["per_query_us"] = round(
        benchmark.stats.stats.mean / QUERY_COUNT * 1e6, 3
    )


@pytest.mark.paper
def test_throughput_locate_batch_structure(benchmark, ds_workload):
    network, queries, structure = ds_workload
    benchmark(structure.locate_batch, queries)
    benchmark.extra_info["stations"] = DS_STATION_COUNT
    benchmark.extra_info["per_query_us"] = round(
        benchmark.stats.stats.mean / QUERY_COUNT * 1e6, 3
    )


@pytest.mark.paper
def test_speedup_batch_over_scalar(workload):
    """The acceptance ratio: batch >= 10x scalar on the 50 x 10k workload.

    Timed directly (not via the benchmark fixture) so the ratio is computed
    within one process on the same machine state; the scalar loops run on a
    subsample and are normalised per query.
    """
    network, queries = workload
    sample = queries[:SCALAR_SAMPLE]
    diagram_heard = SINRDiagram(network).station_heard_at

    scalar_heard = _scalar_seconds_per_query(diagram_heard, sample)
    batch_heard = _batch_seconds_per_query(
        lambda pts: heard_station_batch(network, pts), queries
    )

    voronoi = VoronoiCandidateLocator(network)
    scalar_locate = _scalar_seconds_per_query(voronoi.locate, sample)
    batch_locate = _batch_seconds_per_query(voronoi.locate_batch, queries)

    heard_speedup = scalar_heard / batch_heard
    locate_speedup = scalar_locate / batch_locate
    print(
        f"\nstations={STATION_COUNT} queries={QUERY_COUNT}: "
        f"heard-station speedup {heard_speedup:.1f}x "
        f"({scalar_heard * 1e6:.1f} -> {batch_heard * 1e6:.2f} us/query), "
        f"voronoi locate speedup {locate_speedup:.1f}x "
        f"({scalar_locate * 1e6:.1f} -> {batch_locate * 1e6:.2f} us/query)"
    )
    # Generous slack below the ~100x typically observed, so CI noise cannot
    # flake the gate while a genuine vectorisation regression still fails it;
    # REPRO_BENCH_MIN_SPEEDUP overrides it for pathologically slow runners.
    floor = speedup_floor(3.0 if QUICK else 10.0)
    assert heard_speedup >= floor
    assert locate_speedup >= floor


@pytest.mark.paper
def test_speedup_structure_batch_over_scalar(ds_workload):
    """locate_batch of the Theorem 3 structure beats its own scalar loop."""
    network, queries, structure = ds_workload
    sample = queries[:SCALAR_SAMPLE]

    scalar = _scalar_seconds_per_query(structure.locate, sample)
    batch = _batch_seconds_per_query(structure.locate_batch, queries)
    speedup = scalar / batch
    print(
        f"\nDS locate speedup {speedup:.1f}x "
        f"({scalar * 1e6:.1f} -> {batch * 1e6:.2f} us/query)"
    )
    assert speedup >= speedup_floor(2.0 if QUICK else 4.0)


@pytest.mark.paper
def test_backend_comparison(workload):
    """Per-backend throughput on the acceptance workload.

    Times ``sinr_batch`` and ``heard_station_batch`` through both production
    backends — numpy and float32-screen (first call excluded) — and
    sanity-checks that all answers agree.  Reported for the record; the
    screen's gate lives in ``bench_mixed_precision.py``.
    """
    network, queries = workload
    backends = ["numpy", "float32-screen"]

    recorded = {}
    expected = heard_station_batch(network, queries, backend="numpy")
    print(
        f"\nbackend comparison (stations={STATION_COUNT} "
        f"queries={QUERY_COUNT}):"
    )
    for name in backends:
        # Warm-up: first-call allocations stay out of the timing.
        heard_station_batch(network, queries[:64], backend=name)
        sinr_seconds = _batch_seconds_per_query(
            lambda pts, b=name: sinr_batch(network, pts, backend=b),
            queries,
        )
        heard_seconds = _batch_seconds_per_query(
            lambda pts, b=name: heard_station_batch(network, pts, backend=b),
            queries,
        )
        np.testing.assert_array_equal(
            heard_station_batch(network, queries, backend=name), expected
        )
        recorded[name] = {
            "sinr_qps": round(1.0 / sinr_seconds, 1),
            "heard_qps": round(1.0 / heard_seconds, 1),
        }
        print(
            f"  {name:>14}: sinr {sinr_seconds * 1e6:8.3f} us/query "
            f"({1.0 / sinr_seconds:>12,.0f} q/s), "
            f"heard {heard_seconds * 1e6:8.3f} us/query "
            f"({1.0 / heard_seconds:>12,.0f} q/s)"
        )

    baseline = recorded["numpy"]["heard_qps"]
    for name, payload in recorded.items():
        payload["heard_speedup_vs_numpy"] = round(
            payload["heard_qps"] / baseline, 3
        )
    record_benchmark(
        "engine_batch",
        {
            "stations": STATION_COUNT,
            "queries": QUERY_COUNT,
            "backends": recorded,
        },
    )


@pytest.mark.paper
def test_batch_answers_match_scalar_on_workload(workload):
    """Sanity gate next to the timing: the fast path answers are the real ones."""
    network, queries = workload
    sample = queries[:200]
    brute = BruteForceLocator(network)
    labels = brute.locate_batch(sample)
    for (x, y), label in zip(sample, labels):
        assert brute.locate(Point(x, y)) == label
