"""Tests for radius bounds and the segment tests of the point-location layer."""

from __future__ import annotations

import math
import random
import re

import pytest

from repro import Point, ReceptionZone, Station, WirelessNetwork
from repro.exceptions import PointLocationError
from repro.geometry import Segment
from repro.pointlocation import (
    PointLocationStructure,
    SamplingSegmentTest,
    ShardedLocator,
    SturmSegmentTest,
    explicit_radius_bounds,
    improved_radius_bounds,
    measured_radius_bounds,
    radius_bounds,
    RadiusBounds,
    station_reaches,
)
from repro.pointlocation.bounds import require_theorem_4_1_regime


class TestRadiusBoundsValidation:
    def test_bounds_must_be_positive_and_ordered(self):
        with pytest.raises(PointLocationError):
            RadiusBounds(delta_lower=0.0, Delta_upper=1.0)
        with pytest.raises(PointLocationError):
            RadiusBounds(delta_lower=2.0, Delta_upper=1.0)
        assert RadiusBounds(1.0, 2.0).ratio == pytest.approx(2.0)

    def test_requires_uniform_power(self):
        from repro.model.station import Station

        network = WirelessNetwork(
            stations=(Station.at(0, 0, power=1.0), Station.at(3, 0, power=2.0)),
            beta=2.0,
        )
        with pytest.raises(PointLocationError):
            explicit_radius_bounds(network, 0)

    def test_requires_beta_above_one(self):
        network = WirelessNetwork.uniform([(0, 0), (3, 0)], beta=1.0)
        with pytest.raises(PointLocationError):
            explicit_radius_bounds(network, 0)

    def test_requires_non_degenerate_zone(self):
        network = WirelessNetwork.uniform([(0, 0), (0, 0), (3, 0)], beta=2.0)
        with pytest.raises(PointLocationError):
            explicit_radius_bounds(network, 0)

    @pytest.mark.parametrize(
        "bounds",
        [
            explicit_radius_bounds,
            improved_radius_bounds,
            measured_radius_bounds,
            lambda network, index: radius_bounds(network, index, method="explicit"),
            lambda network, index: radius_bounds(network, index, method="improved"),
            lambda network, index: radius_bounds(network, index, method="measured"),
        ],
        ids=["explicit", "improved", "measured", "radius-explicit",
             "radius-improved", "radius-measured"],
    )
    def test_requires_alpha_two(self, bounds):
        """Theorem 4.1 is derived for alpha = 2.  At alpha = 4 station 0's
        zone reaches 2.72 to the west, past the 1.366 the bound gives, so
        every entry point must refuse rather than certify it."""
        network = WirelessNetwork.uniform(
            [(0, 0), (1, 0), (0.3, 5)], noise=0, beta=3, alpha=4
        )
        assert ReceptionZone(network=network, index=0).boundary_distance_along_ray(
            math.pi, max_radius=100.0
        ) > 2.7
        with pytest.raises(PointLocationError, match="alpha = 2"):
            bounds(network, 0)

    def test_unknown_method_rejected(self, noisy_network):
        with pytest.raises(PointLocationError):
            radius_bounds(noisy_network, 0, method="magic")


#: Four stations in the regime of Theorem 4.1 but for one condition.
REGIME_SITES = [(0.0, 0.0), (4.0, 0.0), (1.0, 5.0), (6.0, 4.0)]


def out_of_regime(condition: str) -> WirelessNetwork:
    """:data:`REGIME_SITES` with ``condition`` of the regime broken."""
    if condition == "a uniform power network":
        stations = [Station.at(x, y) for x, y in REGIME_SITES]
        stations[-1] = Station.at(*REGIME_SITES[-1], power=2.0)
        return WirelessNetwork(stations=tuple(stations), beta=2.0)
    if condition == "beta > 1":
        return WirelessNetwork.uniform(REGIME_SITES, beta=1.0)
    return WirelessNetwork.uniform(REGIME_SITES, beta=2.0, alpha=3.0)


def sharded_update(network: WirelessNetwork) -> object:
    """Swap a sharded locator over the in-regime first three sites to
    ``network`` (an add, plus a parameter change for beta and alpha)."""
    base = WirelessNetwork.uniform(REGIME_SITES[:-1], beta=2.0)
    return ShardedLocator(base).updated(network)


class TestTheorem41Regime:
    """Every point-location entry point that builds on Theorem 4.1 refuses a
    network outside its regime through the one check, naming itself and
    the broken condition."""

    def test_the_in_regime_network_passes(self):
        network = WirelessNetwork.uniform(REGIME_SITES, beta=2.0)
        assert require_theorem_4_1_regime(network, "a caller") is None

    @pytest.mark.parametrize(
        "condition", ["a uniform power network", "beta > 1", "alpha = 2"]
    )
    @pytest.mark.parametrize(
        "user, entry",
        [
            ("the station reaches", station_reaches),
            ("the radius bounds", lambda network: radius_bounds(network, 0)),
            ("the point-location structure", PointLocationStructure),
            ("sharded point location", ShardedLocator),
            ("sharded point location", sharded_update),
        ],
        ids=["reaches", "bounds", "theorem3", "sharded", "sharded-update"],
    )
    def test_entry_point_refuses(self, user, entry, condition):
        with pytest.raises(
            PointLocationError,
            match=re.escape(f"{user}: Theorem 4.1 requires {condition}"),
        ):
            entry(out_of_regime(condition))


class TestBoundCorrectness:
    def test_theorem_4_1_formulas(self):
        network = WirelessNetwork.uniform([(0, 0), (4, 0), (40, 0)], noise=0.0, beta=2.0)
        bounds = explicit_radius_bounds(network, 0)
        n, beta, kappa = 3, 2.0, 4.0
        assert bounds.delta_lower == pytest.approx(kappa / (math.sqrt(beta * (n - 1)) + 1))
        assert bounds.Delta_upper == pytest.approx(kappa / (math.sqrt(beta) - 1))

    def test_two_station_bounds_are_tight(self):
        network = WirelessNetwork.uniform([(0, 0), (4, 0)], noise=0.0, beta=2.0)
        bounds = explicit_radius_bounds(network, 0)
        zone = ReceptionZone(network=network, index=0)
        measurement = zone.fatness(angles=180)
        assert bounds.delta_lower == pytest.approx(measurement.delta, rel=1e-3)
        assert bounds.Delta_upper == pytest.approx(measurement.Delta, rel=1e-3)

    @pytest.mark.parametrize("method", ["explicit", "improved", "measured"])
    def test_all_methods_sandwich_the_true_radii(self, noisy_network, method):
        for index in range(len(noisy_network)):
            bounds = radius_bounds(noisy_network, index, method=method)
            zone = ReceptionZone(network=noisy_network, index=index)
            measurement = zone.fatness(angles=180)
            assert bounds.delta_lower <= measurement.delta * (1 + 1e-6)
            assert bounds.Delta_upper >= measurement.Delta * (1 - 1e-6)

    def test_measured_bounds_are_tighter_than_explicit(self, noisy_network):
        explicit = explicit_radius_bounds(noisy_network, 0)
        measured = measured_radius_bounds(noisy_network, 0)
        assert measured.ratio <= explicit.ratio + 1e-9

    def test_improved_bounds_ratio_is_constant_in_n(self):
        # The improved ratio must not grow with the number of stations.
        ratios = []
        for station_count in (3, 6, 12):
            points = [(0.0, 0.0)] + [
                (4.0 + 2.0 * k, 0.0) for k in range(station_count - 1)
            ]
            network = WirelessNetwork.uniform(points, noise=0.0, beta=2.0)
            ratios.append(improved_radius_bounds(network, 0).ratio)
        bound = (math.sqrt(2.0) + 1) / (math.sqrt(2.0) - 1)
        assert all(ratio <= bound ** 2 + 1e-6 for ratio in ratios)

    def test_measured_bounds_ray_validation(self, noisy_network):
        with pytest.raises(PointLocationError):
            measured_radius_bounds(noisy_network, 0, rays=4)


class TestSegmentTests:
    def make_polynomial(self):
        network = WirelessNetwork.uniform(
            [(0, 0), (5, 0), (0, 6)], noise=0.01, beta=2.5
        )
        return network, network.reception_polynomial(0)

    def test_sturm_test_detects_crossing(self):
        network, polynomial = self.make_polynomial()
        test = SturmSegmentTest(polynomial)
        zone = ReceptionZone(network=network, index=0)
        boundary_distance = zone.boundary_distance_along_ray(0.0)
        crossing_segment = Segment(
            Point(boundary_distance - 0.2, 0.0), Point(boundary_distance + 0.2, 0.0)
        )
        result = test.test(crossing_segment)
        assert result.crosses
        assert result.start_inside and not result.end_inside
        assert test.invocations == 1

    def test_sturm_test_rejects_far_segment(self):
        _, polynomial = self.make_polynomial()
        test = SturmSegmentTest(polynomial)
        result = test.test(Segment(Point(50, 50), Point(51, 50)))
        assert not result.crosses
        assert result.crossings == 0

    def test_sturm_test_counts_double_crossing(self):
        _, polynomial = self.make_polynomial()
        test = SturmSegmentTest(polynomial)
        # A long chord through the zone enters and leaves: two crossings.
        result = test.test(Segment(Point(-10.0, 0.3), Point(3.0, 0.3)))
        assert result.crossings == 2
        assert not result.start_inside and not result.end_inside

    def test_sampling_test_agrees_on_clear_cases(self):
        network, polynomial = self.make_polynomial()
        zone = ReceptionZone(network=network, index=0)
        sturm = SturmSegmentTest(polynomial)
        sampling = SamplingSegmentTest(zone.contains, samples=64)
        rng = random.Random(6)
        agreements = 0
        for _ in range(60):
            start = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
            end = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
            segment = Segment(start, end)
            if sturm.test(segment).crosses == sampling.test(segment).crosses:
                agreements += 1
        assert agreements >= 57  # the sampling test may miss rare tangential cases

    def test_sampling_test_validation(self):
        zone_predicate = lambda p: True  # noqa: E731 - trivial test predicate
        with pytest.raises(PointLocationError):
            SamplingSegmentTest(zone_predicate, samples=1)
