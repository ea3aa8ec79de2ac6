#!/usr/bin/env python3
"""The async point-location service: micro-batching live query traffic.

A deployed SINR model answers "which access point (if any) does this handset
position hear?" for streams of concurrent clients.  Answering each query
alone wastes the engine's vectorisation; the :mod:`repro.service` layer
accumulates concurrent queries for a small latency budget and answers each
group as one ``locate_batch`` call — bit-identically to asking the locator
directly.

This demo builds a 50-station deployment, then:

1. serves Poisson, burst and closed-loop traffic through one
   :class:`QueryService` and prints what the batcher did to each shape;
2. sweeps the latency budget to show the batch-size / latency trade-off;
3. compares per-query asyncio serving (no batching) with the micro-batched
   service and the direct engine call.

Run with:  python examples/point_location_service.py
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro import Point
from repro.pointlocation import build_locator
from repro.service import QueryService, serve_points
from repro.workloads import (
    random_query_array,
    run_bursts,
    run_closed_loop,
    run_poisson,
    uniform_random_network,
)

STATIONS = 50
QUERIES = 4000


def build_workload():
    side = 4.0 * STATIONS ** 0.5
    network = uniform_random_network(
        STATIONS, side=side, minimum_separation=1.5, noise=0.002, beta=3.0,
        seed=23,
    )
    queries = random_query_array(
        QUERIES, Point(-2.0, -2.0), Point(side + 2.0, side + 2.0), seed=17
    )
    return network, queries


async def traffic_shapes(network, queries, truth) -> None:
    print("\n-- one service, three traffic shapes "
          "(every answer checked against the direct batch) --")
    shapes = [
        ("poisson 30k q/s", lambda s: run_poisson(s, queries, rate=30_000.0, seed=7)),
        ("bursts of 256", lambda s: run_bursts(s, queries, burst_size=256, gap=0.004)),
        ("closed loop x64", lambda s: run_closed_loop(s, queries, clients=64)),
    ]
    for label, drive in shapes:
        async with QueryService(
            network, "voronoi", latency_budget=0.002, max_batch_size=1024,
            max_pending=QUERIES,
        ) as service:
            answers = await drive(service)
            assert np.array_equal(answers, truth)
            print(f"{label:>18}: {service.stats_snapshot().describe()}")


async def budget_sweep(network, queries, truth) -> None:
    print("\n-- latency budget vs batch shape (poisson 30k q/s) --")
    print(f"{'budget ms':>10} {'batches':>8} {'mean batch':>11} "
          f"{'latency p99 ms':>15}")
    for budget in (0.0005, 0.002, 0.005):
        async with QueryService(
            network, "voronoi", latency_budget=budget, max_batch_size=4096,
            max_pending=QUERIES,
        ) as service:
            answers = await run_poisson(service, queries, rate=30_000.0, seed=9)
            assert np.array_equal(answers, truth)
            stats = service.stats_snapshot()
            print(f"{budget * 1e3:>10.1f} {stats.batches:>8d} "
                  f"{stats.mean_batch_size:>11.1f} "
                  f"{stats.latency_p99 * 1e3:>15.2f}")


def serving_comparison(network, queries, truth) -> None:
    print("\n-- per-query asyncio vs micro-batched vs direct --")
    locator = build_locator(network, "voronoi")

    start = time.perf_counter()
    direct = locator.locate_batch(queries)
    direct_seconds = time.perf_counter() - start

    start = time.perf_counter()
    per_query = serve_points(
        network, queries, locator, latency_budget=0.0, max_batch_size=1,
        max_pending=QUERIES,
    )
    per_query_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched, stats = serve_points(
        network, queries, locator, latency_budget=0.002, max_batch_size=1024,
        max_pending=QUERIES, return_stats=True,
    )
    batched_seconds = time.perf_counter() - start

    assert np.array_equal(direct, truth)
    assert np.array_equal(per_query, truth)
    assert np.array_equal(batched, truth)
    for label, seconds in (
        ("direct locate_batch", direct_seconds),
        ("per-query service", per_query_seconds),
        ("micro-batched service", batched_seconds),
    ):
        print(f"{label:>24}: {QUERIES / seconds:>10,.0f} q/s "
              f"({seconds / QUERIES * 1e6:.1f} us/query)")
    print(f"micro-batching amortised {QUERIES} queries into {stats.batches} "
          f"engine calls ({per_query_seconds / batched_seconds:.1f}x over "
          f"per-query serving)")


def main() -> None:
    network, queries = build_workload()
    print(network.describe())
    truth = build_locator(network, "voronoi").locate_batch(queries)

    asyncio.run(traffic_shapes(network, queries, truth))
    asyncio.run(budget_sweep(network, queries, truth))
    serving_comparison(network, queries, truth)

    print(
        "\nevery served answer above was bit-identical to the direct "
        "locate_batch call: micro-batching regroups queries across "
        "concurrent clients, it never changes their answers."
    )


if __name__ == "__main__":
    main()
