"""The precision tier: float32 screen-then-verify throughput and exactness.

The gate workload: 200 stations x 100k query points, where
``float32-screen`` must beat the numpy float64 backend by >= 1.5x on
``nearest_received_batch`` while staying bit-identical.  That is the query
the served ``voronoi`` and ``sharded:voronoi`` locators send (the Voronoi
candidate and its reception check in one screened pass).  On top of the
gate, a chunk-budget sweep characterises the design space: the engine's
fixed byte budget (``repro.engine.batch.CHUNK_BYTES``, 32 MiB), patched to
a sixteenth and to four times its value, trades peak memory against
per-chunk overhead; the sweep asserts bit-identical answers across budgets
while recording the throughput of each.

Headline numbers are persisted to ``BENCH_engine.json`` via :mod:`persist`.
``REPRO_BENCH_QUICK=1`` shrinks the workload (CI smoke mode) and
``REPRO_BENCH_MIN_SPEEDUP=<float>`` overrides the speedup gate.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from persist import quick_mode, record_benchmark, speedup_floor
from repro import Point
from repro.engine import get_backend, heard_station_batch, nearest_received_batch
from repro.engine import batch as batch_module
from repro.workloads import random_query_array, uniform_random_network

QUICK = quick_mode()
STATION_COUNT = 40 if QUICK else 200
QUERY_COUNT = 5_000 if QUICK else 100_000


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def workload():
    side = 4.0 * STATION_COUNT ** 0.5
    network = uniform_random_network(
        STATION_COUNT,
        side=side,
        minimum_separation=1.5,
        noise=0.002,
        beta=3.0,
        seed=29,
    )
    queries = random_query_array(
        QUERY_COUNT, Point(-4.0, -4.0), Point(side + 4.0, side + 4.0), seed=31
    )
    return network, queries


@pytest.mark.paper
def test_nearest_received_speedup_gate(workload):
    """The gate: float32-screen >= 1.5x numpy on the nearest received station.

    Also re-asserts bit-identical answers on the gate workload itself,
    including the ``heard_station_batch`` the screen delegates (the
    equivalence property suite covers the adversarial cases).
    """
    network, queries = workload
    screen = get_backend("float32-screen")
    screen.stats.reset()

    results = {}
    for name in ("numpy", "float32-screen"):
        nearest_received_batch(network, queries[:256], backend=name)  # warm
        nearest = _best_seconds(
            lambda n=name: nearest_received_batch(network, queries, backend=n)
        )
        results[name] = {"nearest_qps": round(QUERY_COUNT / nearest, 1)}

    np.testing.assert_array_equal(
        nearest_received_batch(network, queries, backend="float32-screen"),
        nearest_received_batch(network, queries, backend="numpy"),
    )
    np.testing.assert_array_equal(
        heard_station_batch(network, queries, backend="float32-screen"),
        heard_station_batch(network, queries, backend="numpy"),
    )

    speedup = (
        results["float32-screen"]["nearest_qps"]
        / results["numpy"]["nearest_qps"]
    )
    verify_fraction = screen.stats.verify_fraction()
    print(
        f"\nmixed precision (stations={STATION_COUNT} queries={QUERY_COUNT}): "
        f"nearest received numpy {results['numpy']['nearest_qps']:,.0f} q/s, "
        f"float32-screen {results['float32-screen']['nearest_qps']:,.0f} q/s "
        f"({speedup:.2f}x), verify fraction {verify_fraction:.4f}"
    )
    record_benchmark(
        "mixed_precision",
        {
            "stations": STATION_COUNT,
            "queries": QUERY_COUNT,
            "backends": results,
            "nearest_speedup_vs_numpy": round(speedup, 3),
            "verify_fraction": round(verify_fraction, 6),
        },
    )
    # The precision tier's reason to exist; REPRO_BENCH_MIN_SPEEDUP
    # overrides for noisy or underpowered runners.
    assert speedup >= speedup_floor(1.5)


@pytest.mark.paper
def test_chunk_budget_sweep(workload, monkeypatch):
    """Throughput across chunk budgets; answers bit-identical at every one."""
    network, queries = workload
    expected = nearest_received_batch(network, queries, backend="numpy")
    sweep = {}
    default = batch_module.CHUNK_BYTES
    for budget in (default // 16, default, default * 4):
        monkeypatch.setattr(batch_module, "CHUNK_BYTES", budget)
        seconds = _best_seconds(
            lambda: nearest_received_batch(
                network, queries, backend="float32-screen"
            ),
            repeats=2,
        )
        np.testing.assert_array_equal(
            nearest_received_batch(network, queries, backend="float32-screen"),
            expected,
        )
        sweep[f"{budget >> 20}MiB"] = {
            "nearest_qps": round(QUERY_COUNT / seconds, 1)
        }
    print(f"\nchunk budget sweep: {sweep}")
    record_benchmark("mixed_precision_chunk_sweep", sweep)
