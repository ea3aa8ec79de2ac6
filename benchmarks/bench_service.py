"""Micro-batched async serving vs its throughput ceiling and floor.

Three ways to answer the same 50-station / 10k-query workload:

* **direct** — one ``locate_batch`` call on the bare locator: the overhead
  ceiling.  The service can approach but never beat it (it *is* the
  service's inner loop, plus asyncio bookkeeping);
* **per-query async** — the service with ``max_batch_size=1``: every query
  pays a full event-loop round trip and its own engine call.  This is what
  naive asyncio serving (one ``locate`` per request, no batching) costs —
  the floor micro-batching must beat;
* **micro-batched** — the service with the default 2 ms budget and a 1024
  batch cap, all clients concurrent.

The gate: micro-batched serving beats per-query serving by at least 5x
(``REPRO_BENCH_MIN_SPEEDUP`` overrides on slow/noisy runners; the CI smoke
leg relaxes it).  A served run lasts about a tenth of a second, so one
run of each mode can land on a scheduler hiccup: the gate times
``PAIRS`` (3) pairs of served runs, alternating which mode runs first, and
takes the median of the per-pair speedups.  The direct ceiling is the
best of ``DIRECT_CALLS`` (5) calls.  Every served run must be
bit-identical to the direct answers.

A second benchmark sweeps the latency budget under open-loop Poisson
arrivals and prints the budget / batch-size / latency trade-off table the
README's Serving section quotes.

Set ``REPRO_BENCH_QUICK=1`` to shrink the workload (CI smoke mode).
"""

from __future__ import annotations

import asyncio
import statistics
import time

import numpy as np
import pytest

from persist import record_benchmark, speedup_floor
from repro.env import BENCH_QUICK, read_bool_knob
from repro.pointlocation import build_locator
from repro.service import QueryService, serve_points
from repro.workloads import (
    random_query_array,
    run_poisson,
    uniform_random_network,
)
from repro import Point

QUICK = read_bool_knob(BENCH_QUICK)
STATION_COUNT = 50
QUERY_COUNT = 2_000 if QUICK else 10_000
PAIRS = 3
DIRECT_CALLS = 5


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


@pytest.mark.paper
def test_micro_batching_beats_per_query_serving(workload):
    """The acceptance gate: served micro-batches >= 5x per-query serving."""
    network, queries = workload
    locator = build_locator(network, "voronoi")

    direct_seconds = float("inf")
    for _ in range(DIRECT_CALLS):
        start = time.perf_counter()
        truth = locator.locate_batch(queries)
        direct_seconds = min(direct_seconds, time.perf_counter() - start)

    modes = {
        "floor": {"latency_budget": 0.0, "max_batch_size": 1},
        "batched": {"latency_budget": 0.002, "max_batch_size": 1024},
    }
    seconds = {mode: [] for mode in modes}
    stats = {}
    for pair in range(PAIRS):
        order = list(modes) if pair % 2 == 0 else list(modes)[::-1]
        for mode in order:
            start = time.perf_counter()
            answers, stats[mode] = serve_points(
                network, queries, locator, max_pending=QUERY_COUNT,
                return_stats=True, **modes[mode],
            )
            seconds[mode].append(time.perf_counter() - start)
            np.testing.assert_array_equal(answers, truth)

    speedups = [f / b for f, b in zip(seconds["floor"], seconds["batched"])]
    speedup = statistics.median(speedups)
    floor_seconds = statistics.median(seconds["floor"])
    batched_seconds = statistics.median(seconds["batched"])
    overhead = batched_seconds / direct_seconds

    rows = [
        ("direct locate_batch (ceiling)", direct_seconds, None),
        ("per-query async (floor)", floor_seconds, stats["floor"]),
        ("micro-batched service", batched_seconds, stats["batched"]),
    ]
    print(f"\nstations={STATION_COUNT} queries={QUERY_COUNT}, served medians "
          f"of {PAIRS} alternating pairs, direct best of {DIRECT_CALLS}:")
    print(f"{'mode':>32} {'total s':>8} {'us/q':>8} {'q/s':>12} "
          f"{'batches':>8} {'mean':>7}")
    for label, total, mode_stats in rows:
        batches = mode_stats.batches if mode_stats else 1
        mean = mode_stats.mean_batch_size if mode_stats else float(QUERY_COUNT)
        print(
            f"{label:>32} {total:>8.3f} "
            f"{total / QUERY_COUNT * 1e6:>8.2f} "
            f"{QUERY_COUNT / total:>12,.0f} {batches:>8d} {mean:>7.1f}"
        )

    print(f"micro-batched vs per-query: {speedup:.1f}x (pairs: "
          f"{', '.join(f'{x:.1f}x' for x in speedups)}); "
          f"overhead vs direct: {overhead:.1f}x")

    record_benchmark(
        "service",
        {
            "stations": STATION_COUNT,
            "queries": QUERY_COUNT,
            "direct_qps": round(QUERY_COUNT / direct_seconds, 1),
            "per_query_qps": round(QUERY_COUNT / floor_seconds, 1),
            "micro_batched_qps": round(QUERY_COUNT / batched_seconds, 1),
            "mean_batch_size": round(stats["batched"].mean_batch_size, 1),
            "pairs": PAIRS,
            "speedup_vs_per_query": round(speedup, 2),
            "overhead_vs_direct": round(overhead, 2),
        },
    )

    # Micro-batching must amortise: the default floor is the acceptance 5x
    # on the median pair (REPRO_BENCH_MIN_SPEEDUP overrides for slow or
    # noisy runners).
    assert speedup >= speedup_floor(5.0)


@pytest.mark.paper
def test_latency_budget_throughput_tradeoff(workload):
    """The budget sweep behind the README table: bigger budgets buy bigger
    batches (throughput) at the price of per-query latency."""
    network, queries = workload
    sample = queries[: min(4_000, QUERY_COUNT)]
    rate = 20_000.0  # open-loop Poisson arrivals, q/s
    budgets = (0.0005, 0.002, 0.005)

    async def serve_with_budget(budget):
        async with QueryService(
            network, "voronoi", latency_budget=budget, max_batch_size=4096,
            max_pending=len(sample),
        ) as service:
            start = time.perf_counter()
            answers = await run_poisson(service, sample, rate=rate, seed=11)
            seconds = time.perf_counter() - start
            return answers, seconds, service.stats_snapshot()

    truth = build_locator(network, "voronoi").locate_batch(sample)
    print(f"\nPoisson arrivals at {rate:,.0f} q/s, {len(sample)} queries:")
    print(f"{'budget ms':>10} {'mean batch':>11} {'batches':>8} "
          f"{'wait p99 ms':>12} {'latency p99 ms':>15} {'q/s':>10}")
    mean_sizes = []
    for budget in budgets:
        answers, seconds, stats = asyncio.run(serve_with_budget(budget))
        np.testing.assert_array_equal(answers, truth)
        mean_sizes.append(stats.mean_batch_size)
        print(
            f"{budget * 1e3:>10.1f} {stats.mean_batch_size:>11.1f} "
            f"{stats.batches:>8d} {stats.wait_p99 * 1e3:>12.2f} "
            f"{stats.latency_p99 * 1e3:>15.2f} {len(sample) / seconds:>10,.0f}"
        )

    # The qualitative trade-off must hold: a 10x larger budget accumulates
    # strictly larger batches under the same arrival process.
    assert mean_sizes[-1] > mean_sizes[0]
