"""Tests for the graph-based baseline models (UDG, Q-UDG, interference graphs)."""

from __future__ import annotations

import pytest

from repro import Point, WirelessNetwork
from repro.exceptions import NetworkConfigurationError
from repro.graphs import (
    InterferenceGraphModel,
    ModelComparator,
    QuasiUnitDiskGraph,
    ReceptionOutcome,
    UnitDiskGraph,
    two_hop_augmentation,
)


def line_locations():
    return [Point(0, 0), Point(1, 0), Point(2, 0), Point(5, 0)]


class TestUnitDiskGraph:
    def test_adjacency(self):
        udg = UnitDiskGraph(line_locations(), radius=1.0)
        assert udg.are_adjacent(0, 1)
        assert udg.are_adjacent(1, 2)
        assert not udg.are_adjacent(0, 2)
        assert not udg.are_adjacent(0, 0)
        assert udg.neighbours(1) == [0, 2]
        assert udg.degree(1) == 2

    def test_graph_connectivity(self):
        assert not UnitDiskGraph(line_locations(), radius=1.0).is_connected()
        assert UnitDiskGraph(line_locations(), radius=3.0).is_connected()

    def test_validation(self):
        with pytest.raises(NetworkConfigurationError):
            UnitDiskGraph([], radius=1.0)
        with pytest.raises(NetworkConfigurationError):
            UnitDiskGraph([Point(0, 0)], radius=0.0)

    def test_station_reception_rule(self):
        udg = UnitDiskGraph(line_locations(), radius=1.0)
        # Station 0 hears station 1 when only station 1 transmits...
        assert udg.station_receives(0, 1, transmitters={1})
        # ...but not when station 2 (a neighbour of... station 1 only) also
        # transmits: 2 is not adjacent to 0, so reception still succeeds.
        assert udg.station_receives(0, 1, transmitters={1, 2})
        # Station 1 cannot hear station 0 if station 2 transmits (collision).
        assert not udg.station_receives(1, 0, transmitters={0, 2})
        # A non-transmitting sender is never received.
        assert not udg.station_receives(0, 1, transmitters={2})

    def test_point_reception_rule(self):
        udg = UnitDiskGraph(line_locations(), radius=1.0)
        probe = Point(0.5, 0.0)  # covered by stations 0 and 1
        assert udg.point_receives(probe, 0, transmitters={0})
        assert not udg.point_receives(probe, 0, transmitters={0, 1})
        assert not udg.point_receives(Point(10.0, 0.0), 0, transmitters={0})

    def test_station_heard_at(self):
        udg = UnitDiskGraph(line_locations(), radius=1.0)
        assert udg.station_heard_at(Point(5.0, 0.5)) == 3
        assert udg.station_heard_at(Point(0.5, 0.0)) is None  # collision
        assert udg.station_heard_at(Point(20.0, 0.0)) is None  # out of range

    def test_independent_transmitters(self):
        udg = UnitDiskGraph(line_locations(), radius=1.0)
        assert udg.independent_transmitters({0, 2})
        assert not udg.independent_transmitters({0, 1})

    def test_from_network(self, noisy_network):
        udg = UnitDiskGraph.from_network(noisy_network, radius=5.0)
        assert len(udg) == len(noisy_network)


class TestQuasiUnitDiskGraph:
    def test_radius_validation(self):
        with pytest.raises(NetworkConfigurationError):
            QuasiUnitDiskGraph(line_locations(), inner_radius=2.0, outer_radius=1.0)
        with pytest.raises(NetworkConfigurationError):
            QuasiUnitDiskGraph(line_locations(), inner_radius=0.0, outer_radius=1.0)

    def test_connectivity_and_interference_graphs(self):
        qudg = QuasiUnitDiskGraph(line_locations(), inner_radius=1.0, outer_radius=2.0)
        assert qudg.connectivity_graph.has_edge(0, 1)
        assert not qudg.connectivity_graph.has_edge(0, 2)
        assert qudg.interference_graph.has_edge(0, 2)
        assert qudg.radius_ratio == pytest.approx(2.0)

    def test_point_reception_tri_valued(self):
        qudg = QuasiUnitDiskGraph(line_locations(), inner_radius=1.0, outer_radius=2.0)
        # Close to station 3 with nobody else around: certain reception.
        assert qudg.point_reception(Point(5.2, 0.0), 3, transmitters={3}) == "received"
        # Beyond the outer radius: certainly not received.
        assert qudg.point_reception(Point(8.0, 0.0), 3, transmitters={3}) == "not_received"
        # Between the radii: uncertain.
        assert qudg.point_reception(Point(6.5, 0.0), 3, transmitters={3}) == "uncertain"
        # A competing transmitter within its inner radius kills reception.
        assert (
            qudg.point_reception(Point(0.5, 0.0), 0, transmitters={0, 1})
            == "not_received"
        )

    def test_station_reception_tri_valued(self):
        qudg = QuasiUnitDiskGraph(line_locations(), inner_radius=1.0, outer_radius=2.5)
        assert qudg.station_receives(0, 1, transmitters={1}) == "received"
        assert qudg.station_receives(3, 0, transmitters={0}) == "not_received"
        assert qudg.station_receives(0, 2, transmitters={2}) == "uncertain"

    def test_derived_from_sinr_network(self):
        network = WirelessNetwork.uniform(
            [(0, 0), (6, 0), (0, 6), (6, 6)], noise=0.0, beta=2.0
        )
        qudg = QuasiUnitDiskGraph.from_sinr_network(network, angles=60)
        assert 0.0 < qudg.inner_radius <= qudg.outer_radius
        # By Theorem 2 the ratio is bounded by the fatness constant.
        bound = (2.0 ** 0.5 + 1) / (2.0 ** 0.5 - 1)
        assert qudg.radius_ratio <= bound * 1.5  # slack for heterogeneous spacing


class TestInterferenceGraphModel:
    def test_two_hop_augmentation(self):
        udg = UnitDiskGraph(line_locations(), radius=1.0)
        augmented = two_hop_augmentation(udg.graph)
        assert augmented.has_edge(0, 2)
        assert not augmented.has_edge(0, 3)

    def test_from_udg_reception(self):
        udg = UnitDiskGraph(line_locations(), radius=1.0)
        model = InterferenceGraphModel.from_udg(udg)
        assert model.station_receives(0, 1, transmitters={1})
        assert not model.station_receives(1, 0, transmitters={0, 2})

    def test_two_hop_interference_is_more_conservative(self):
        udg = UnitDiskGraph(line_locations(), radius=1.0)
        plain = InterferenceGraphModel.from_udg(udg)
        two_hop = InterferenceGraphModel.from_udg_with_two_hop_interference(udg)
        # Station 0 hears 1 while 2 transmits under the plain model, but not
        # under 2-hop interference (2 is a 2-hop neighbour of 0).
        assert plain.station_receives(0, 1, transmitters={1, 2})
        assert not two_hop.station_receives(0, 1, transmitters={1, 2})

    def test_node_set_validation(self):
        import networkx as nx

        bad = nx.Graph()
        bad.add_nodes_from([10, 11])
        with pytest.raises(NetworkConfigurationError):
            InterferenceGraphModel(line_locations(), bad, bad)

    def test_feasible_links_and_greedy_round(self):
        udg = UnitDiskGraph(line_locations(), radius=1.0)
        model = InterferenceGraphModel.from_udg(udg)
        links = model.feasible_links(transmitters={1, 3})
        assert (3, 2) not in links  # 3 is too far from everyone
        assert all(sender in (1, 3) for sender, _ in links)
        round_ = model.maximum_independent_transmission_round()
        assert model.locations and round_
        assert InterferenceGraphModel.from_qudg(
            QuasiUnitDiskGraph(line_locations(), 1.0, 2.0)
        ).station_receives(0, 1, transmitters={1})


class TestModelComparator:
    def test_figure2_false_positive(self):
        network = WirelessNetwork.uniform(
            [(-4, 0), (2, 5), (2, -5), (6, 0)], noise=0.0, beta=3.0
        )
        comparator = ModelComparator(network, udg_radius=5.0)
        probe = Point(-1.5, 0.0)
        comparison = comparator.compare_at(probe, 0)
        assert comparison.outcome is ReceptionOutcome.FALSE_POSITIVE
        assert comparator.heard_station_udg(probe) == 0
        assert comparator.heard_station_sinr(probe) is None

    def test_heard_station_sinr_is_the_highest_sinr_transmitter(self):
        """Below ``beta = 1`` transmitters 1 and 2 are both received at
        (3.55, 0); the one with the higher SINR is heard, and silent
        station 0 takes no part."""
        network = WirelessNetwork.uniform(
            [(3.5, 0.0), (3.0, 0.0), (4.0, 0.0)], noise=0.0, beta=0.5
        )
        comparator = ModelComparator(network, udg_radius=1.0, transmitters=[1, 2])
        probe = Point(3.55, 0.0)
        assert comparator.sinr_receives(probe, 1)
        assert comparator.sinr_receives(probe, 2)
        assert comparator.heard_station_sinr(probe) == 2
        assert comparator.heard_station_sinr(Point(3.45, 0.0)) == 1
        lone = ModelComparator(network, udg_radius=1.0, transmitters=[1])
        assert lone.heard_station_sinr(probe) == 1
        assert ModelComparator(
            network, udg_radius=1.0, transmitters=[]
        ).heard_station_sinr(probe) is None

    def test_false_negative_two_transmitters(self):
        network = WirelessNetwork.uniform([(0.4, 3.0), (-0.7, 4.0)], noise=0.0, beta=2.0)
        comparator = ModelComparator(network, udg_radius=3.0)
        probe = Point(0.6, 1.5)
        comparison = comparator.compare_at(probe, 0)
        assert comparison.outcome is ReceptionOutcome.FALSE_NEGATIVE

    def test_silent_stations_are_excluded_from_sinr(self):
        network = WirelessNetwork.uniform(
            [(0, 0), (1.5, 0), (10, 10)], noise=0.0, beta=2.0
        )
        # With everyone transmitting, the probe next to s0 fails (s1 too close);
        # with s1 silent it succeeds.
        everyone = ModelComparator(network, udg_radius=2.0)
        without_s1 = ModelComparator(network, udg_radius=2.0, transmitters=[0, 2])
        probe = Point(0.7, 0.0)
        assert not everyone.sinr_receives(probe, 0)
        assert without_s1.sinr_receives(probe, 0)
        # A silent station is never received.
        assert not without_s1.sinr_receives(probe, 1)

    def test_single_transmitter_with_noise(self):
        network = WirelessNetwork.uniform([(0, 0), (8, 0)], noise=0.1, beta=2.0)
        comparator = ModelComparator(network, udg_radius=3.0, transmitters=[0])
        # Close to the station the SNR beats beta, far away it does not.
        assert comparator.sinr_receives(Point(1.0, 0.0), 0)
        assert not comparator.sinr_receives(Point(6.0, 0.0), 0)

    def test_summaries(self):
        network = WirelessNetwork.uniform(
            [(-4, 0), (2, 5), (2, -5), (6, 0)], noise=0.0, beta=3.0
        )
        comparator = ModelComparator(network, udg_radius=5.0)
        summary = comparator.summarize_grid(
            Point(-10, -10), Point(10, 10), sender=0, resolution=25
        )
        assert summary.total == 625
        as_dict = summary.as_dict()
        assert as_dict["total"] == 625
        assert 0.0 <= summary.disagreement_fraction <= 1.0
        assert summary.counts[ReceptionOutcome.FALSE_POSITIVE] > 0
