"""Figure 6: the point-location partition H+ / H? / H-.

Figure 6 depicts, for each station, the certified-inside region ``H_i^+``
(dark grey), the uncertainty band ``H_i^?`` (light grey) and the certified
outside ``H^-``.  The benchmark rebuilds the partition for the figure's
network, measures how the three regions split a sampling of the plane, and
verifies the structural guarantees of Theorem 3 on them:

    (1)  H_i^+ is contained in H_i,
    (2)  H^- misses every H_i,
    (3)  area(H_i^?) is at most an eps-fraction of area(H_i).
"""

from __future__ import annotations

import random

import pytest

from repro import Point, SINRDiagram
from repro.diagrams import figure6_network
from repro.pointlocation import PointLocationStructure, ZoneLabel

EPSILON = 0.25


@pytest.fixture(scope="module")
def figure6_structure():
    return PointLocationStructure(figure6_network(), epsilon=EPSILON)


@pytest.mark.paper
def test_figure6_partition_query_split(benchmark, figure6_structure):
    network = figure6_network()
    rng = random.Random(12)
    queries = [
        Point(rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 8.0)) for _ in range(3000)
    ]

    answers = benchmark(figure6_structure.locate_answers, queries)

    inside = sum(1 for a in answers if a.label is ZoneLabel.INSIDE)
    uncertain = sum(1 for a in answers if a.label is ZoneLabel.UNCERTAIN)
    outside = sum(1 for a in answers if a.label is ZoneLabel.OUTSIDE)

    # Guarantees (1) and (2) on the sampled queries.
    for query, answer in zip(queries, answers):
        if answer.label is ZoneLabel.INSIDE:
            assert network.is_received(answer.station, query)
        elif answer.label is ZoneLabel.OUTSIDE:
            assert all(
                not network.is_received(index, query) for index in range(len(network))
            )

    benchmark.extra_info["fraction_H_plus"] = round(inside / len(queries), 4)
    benchmark.extra_info["fraction_H_uncertain"] = round(uncertain / len(queries), 4)
    benchmark.extra_info["fraction_H_minus"] = round(outside / len(queries), 4)


@pytest.mark.paper
def test_figure6_uncertain_band_area(benchmark, figure6_structure):
    network = figure6_network()
    diagram = SINRDiagram(network)

    def measure():
        ratios = []
        for index in range(len(network)):
            zone_index = figure6_structure.zone_index(index)
            zone_area = diagram.zone(index).area_estimate(vertices=240)
            ratios.append(zone_index.uncertain_area() / zone_area)
        return ratios

    ratios = benchmark(measure)

    # Guarantee (3): every uncertainty band is at most an eps-fraction of its zone.
    assert all(ratio <= EPSILON for ratio in ratios)
    benchmark.extra_info["epsilon"] = EPSILON
    benchmark.extra_info["max_band_to_zone_ratio"] = round(max(ratios), 4)


@pytest.mark.paper
def test_figure6_structure_build(benchmark):
    network = figure6_network()

    structure = benchmark.pedantic(
        lambda: PointLocationStructure(network, epsilon=EPSILON),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["stored_cells"] = structure.size_estimate()
    benchmark.extra_info["segment_tests"] = structure.report.total_segment_tests
