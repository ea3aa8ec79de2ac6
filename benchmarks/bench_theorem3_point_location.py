"""Theorem 3: the approximate point-location data structure.

The paper claims a structure of size ``O(n / eps)`` built in ``O(n^3 / eps)``
time that answers queries in ``O(log n)``, against a naive exact locator that
needs ``O(n)`` (Voronoi candidate) or ``O(n^2)`` (brute force) per query.

The benchmark regenerates the relevant series:

* query latency of DS vs. the two exact baselines, as n grows;
* preprocessing time and structure size as a function of eps (size ~ 1/eps);
* correctness accounting: certified answers never contradict the exact
  locator and the uncertain fraction shrinks with eps.
"""

from __future__ import annotations

import random

import pytest

from repro import Point
from repro.pointlocation import (
    BruteForceLocator,
    PointLocationStructure,
    VoronoiCandidateLocator,
    ZoneLabel,
)
from repro.workloads import random_query_points, uniform_random_network


def build_network(station_count: int):
    return uniform_random_network(
        station_count,
        side=4.0 * station_count ** 0.5,
        minimum_separation=2.0,
        noise=0.002,
        beta=3.0,
        seed=station_count,
    )


QUERY_COUNT = 2000


@pytest.mark.paper
@pytest.mark.parametrize("station_count", [4, 8, 16])
def test_query_time_grid_structure(benchmark, station_count):
    network = build_network(station_count)
    structure = PointLocationStructure(network, epsilon=0.4)
    side = 4.0 * station_count ** 0.5
    queries = random_query_points(
        QUERY_COUNT, Point(-2.0, -2.0), Point(side + 2.0, side + 2.0), seed=7
    )

    benchmark(structure.locate_answers, queries)
    benchmark.extra_info["stations"] = station_count
    benchmark.extra_info["per_query_us"] = round(
        benchmark.stats.stats.mean / QUERY_COUNT * 1e6, 2
    )
    benchmark.extra_info["stored_cells"] = structure.size_estimate()


@pytest.mark.paper
@pytest.mark.parametrize("station_count", [4, 8, 16])
def test_query_time_voronoi_candidate_baseline(benchmark, station_count):
    network = build_network(station_count)
    locator = VoronoiCandidateLocator(network)
    side = 4.0 * station_count ** 0.5
    queries = random_query_points(
        QUERY_COUNT, Point(-2.0, -2.0), Point(side + 2.0, side + 2.0), seed=7
    )

    benchmark(lambda: [locator.locate(q) for q in queries])
    benchmark.extra_info["stations"] = station_count
    benchmark.extra_info["per_query_us"] = round(
        benchmark.stats.stats.mean / QUERY_COUNT * 1e6, 2
    )


@pytest.mark.paper
@pytest.mark.parametrize("station_count", [4, 8])
def test_query_time_brute_force_baseline(benchmark, station_count):
    network = build_network(station_count)
    locator = BruteForceLocator(network)
    side = 4.0 * station_count ** 0.5
    queries = random_query_points(
        500, Point(-2.0, -2.0), Point(side + 2.0, side + 2.0), seed=7
    )

    benchmark(lambda: [locator.locate(q) for q in queries])
    benchmark.extra_info["stations"] = station_count
    benchmark.extra_info["per_query_us"] = round(
        benchmark.stats.stats.mean / 500 * 1e6, 2
    )


@pytest.mark.paper
@pytest.mark.parametrize("epsilon", [0.6, 0.3, 0.15])
def test_preprocessing_cost_vs_epsilon(benchmark, epsilon):
    network = build_network(5)

    structure = benchmark.pedantic(
        lambda: PointLocationStructure(network, epsilon=epsilon),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["epsilon"] = epsilon
    benchmark.extra_info["stored_cells"] = structure.size_estimate()
    benchmark.extra_info["segment_tests"] = structure.report.total_segment_tests
    benchmark.extra_info["cells_times_epsilon"] = round(
        structure.size_estimate() * epsilon, 1
    )


@pytest.mark.paper
def test_certified_answers_are_exact(benchmark):
    network = build_network(6)
    structure = PointLocationStructure(network, epsilon=0.4)
    exact = VoronoiCandidateLocator(network)
    rng = random.Random(3)
    queries = [Point(rng.uniform(-2, 12), rng.uniform(-2, 12)) for _ in range(1500)]

    def check():
        wrong = 0
        uncertain = 0
        for query in queries:
            answer = structure.locate_answer(query)
            truth = exact.locate(query)
            if answer.label is ZoneLabel.UNCERTAIN:
                uncertain += 1
            elif answer.label is ZoneLabel.INSIDE and truth != answer.station:
                wrong += 1
            elif answer.label is ZoneLabel.OUTSIDE and truth >= 0:
                wrong += 1
        return wrong, uncertain

    wrong, uncertain = benchmark(check)
    assert wrong == 0
    benchmark.extra_info["wrong_certified_answers"] = wrong
    benchmark.extra_info["uncertain_fraction"] = round(uncertain / len(queries), 4)
