"""Ablation: the Sturm segment test vs. the sampling segment test.

The paper's segment test applies Sturm's condition to the degree-2n
restriction of the reception polynomial (exact root counting); the ablation
baseline samples the membership predicate along the segment (cheap, but can
miss tangential double crossings).  The benchmark measures the per-test cost
of both on the same set of grid-edge-sized segments and the end-to-end effect
on the point-location preprocessing.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import Point, ReceptionZone
from repro.geometry import Segment
from repro.pointlocation import (
    PointLocationStructure,
    SamplingSegmentTest,
    SturmSegmentTest,
)
from repro.workloads import uniform_random_network


@pytest.fixture(scope="module")
def network():
    return uniform_random_network(
        6, side=14.0, minimum_separation=2.5, noise=0.005, beta=3.0, seed=13
    )


@pytest.fixture(scope="module")
def edge_segments(network):
    """Short segments comparable to the grid edges the BRP tests."""
    zone = ReceptionZone(network=network, index=0)
    rng = random.Random(5)
    center = zone.station_location
    # Half the segments straddle the boundary, half sit well inside/outside.
    draws = [
        (rng.uniform(0.0, 2.0 * math.pi), rng.choice([0.98, 0.6, 1.4]))
        for _ in range(200)
    ]
    distances = zone.boundary_distances_along_rays([angle for angle, _ in draws])
    segments = []
    for (angle, factor), distance in zip(draws, distances.tolist()):
        base = distance * factor
        start = Point(
            center.x + base * math.cos(angle), center.y + base * math.sin(angle)
        )
        length = 0.05
        segments.append(
            Segment(start, Point(start.x + length, start.y + length))
        )
    return segments


@pytest.mark.paper
def test_sturm_segment_test_cost(benchmark, network, edge_segments):
    test = SturmSegmentTest(network.reception_polynomial(0))

    def run():
        return sum(1 for segment in edge_segments if test.test(segment).crosses)

    crossings = benchmark(run)
    benchmark.extra_info["segments"] = len(edge_segments)
    benchmark.extra_info["crossing_segments"] = crossings
    benchmark.extra_info["per_test_us"] = round(
        benchmark.stats.stats.mean / len(edge_segments) * 1e6, 2
    )


@pytest.mark.paper
def test_sampling_segment_test_cost(benchmark, network, edge_segments):
    zone = ReceptionZone(network=network, index=0)
    test = SamplingSegmentTest(zone.contains, samples=16)

    def run():
        return sum(1 for segment in edge_segments if test.test(segment).crosses)

    crossings = benchmark(run)
    benchmark.extra_info["segments"] = len(edge_segments)
    benchmark.extra_info["crossing_segments"] = crossings
    benchmark.extra_info["per_test_us"] = round(
        benchmark.stats.stats.mean / len(edge_segments) * 1e6, 2
    )


@pytest.mark.paper
def test_segment_tests_agree_on_edge_segments(benchmark, network, edge_segments):
    """The two tests agree except for (rare) tangential double crossings."""
    zone = ReceptionZone(network=network, index=0)
    sturm = SturmSegmentTest(network.reception_polynomial(0))
    sampling = SamplingSegmentTest(zone.contains, samples=32)

    def agreement():
        same = 0
        for segment in edge_segments:
            if sturm.test(segment).crosses == sampling.test(segment).crosses:
                same += 1
        return same / len(edge_segments)

    fraction = benchmark(agreement)
    assert fraction >= 0.95
    benchmark.extra_info["agreement_fraction"] = round(fraction, 4)


@pytest.mark.paper
@pytest.mark.parametrize("segment_test_kind", ["sturm", "sampling"])
def test_end_to_end_preprocessing(benchmark, network, segment_test_kind):
    structure = benchmark.pedantic(
        lambda: PointLocationStructure(
            network, epsilon=0.45, segment_test_kind=segment_test_kind
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["segment_test"] = segment_test_kind
    benchmark.extra_info["stored_cells"] = structure.size_estimate()
