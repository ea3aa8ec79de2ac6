"""Tests for stations, networks and the SINR arithmetic."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import Point, Station, WirelessNetwork
from repro.exceptions import NetworkConfigurationError
from repro.geometry import SimilarityTransform
from repro.model import received_energy, sinr_map, sinr_ratio, strongest_station_map
from repro.model.delta import move_station


class TestStation:
    def test_construction_and_accessors(self):
        station = Station.at(1.0, 2.0, power=2.5, name="tower")
        assert station.x == 1.0 and station.y == 2.0
        assert station.power == 2.5
        assert station.label(3) == "tower"
        assert Station.at(0, 0).label(3) == "s3"

    def test_positive_power_required(self):
        with pytest.raises(NetworkConfigurationError):
            Station.at(0, 0, power=0.0)
        # Non-finite powers and coordinates are rejected too.
        for power in (math.nan, math.inf):
            with pytest.raises(NetworkConfigurationError, match="power"):
                Station.at(0, 0, power=power)
        for x, y in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
            with pytest.raises(NetworkConfigurationError, match="location"):
                Station(Point(x, y))
        # Huge finite coordinates stay valid.
        assert Station.at(1e160, -1e160).x == 1e160

    def test_from_points_builds_uniform_stations(self):
        stations = Station.from_points([(0, 0), (1, 1)])
        assert len(stations) == 2
        assert all(s.power == 1.0 for s in stations)
        assert stations[1].name == "s1"

    def test_moved_to_and_with_power(self):
        station = Station.at(0, 0, name="a")
        moved = station.moved_to(Point(5, 5))
        assert moved.location == Point(5, 5) and moved.name == "a"
        assert station.with_power(3.0).power == 3.0

    def test_distance_to(self):
        assert Station.at(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)


class TestNetworkConstruction:
    def test_needs_two_stations(self):
        with pytest.raises(NetworkConfigurationError):
            WirelessNetwork.uniform([(0, 0)])

    def test_parameter_validation(self):
        with pytest.raises(NetworkConfigurationError):
            WirelessNetwork.uniform([(0, 0), (1, 1)], noise=-1.0)
        with pytest.raises(NetworkConfigurationError):
            WirelessNetwork.uniform([(0, 0), (1, 1)], beta=0.0)
        with pytest.raises(NetworkConfigurationError):
            WirelessNetwork.uniform([(0, 0), (1, 1)], alpha=-2.0)
        for name in ("noise", "beta", "alpha"):
            for value in (math.nan, math.inf):
                with pytest.raises(NetworkConfigurationError, match=name):
                    WirelessNetwork.uniform([(0, 0), (1, 1)], **{name: value})
        # A move validates the one moved station: no delta for a NaN target.
        network = WirelessNetwork.uniform([(0, 0), (1, 1)])
        with pytest.raises(NetworkConfigurationError, match="location"):
            move_station(network, 0, Point(math.nan, 0.0))

    # Every derived-network path validates like the constructor, so no copy
    # carries a non-finite parameter, location or power.  The base network
    # has huge but finite coordinates, which stay valid.
    DERIVATIONS = {
        "with-noise-nan": ("noise", lambda net: net.with_noise(math.nan)),
        "with-noise-inf": ("noise", lambda net: net.with_noise(math.inf)),
        "with-beta-nan": ("beta", lambda net: net.with_beta(math.nan)),
        "with-beta-inf": ("beta", lambda net: net.with_beta(math.inf)),
        "moved-to-inf": (
            "location",
            lambda net: net.with_station_moved(1, Point(math.inf, 0.0)),
        ),
        "added-with-nan-power": (
            "power",
            lambda net: net.with_station(net.stations[0].with_power(math.nan)),
        ),
        "transformed-out-of-range": (
            "location",
            lambda net: net.transformed(SimilarityTransform(scale=1e300)),
        ),
        "noise-folded-power-overflows": (
            "power",
            lambda net: net.noise_folded_into_station(0),
        ),
    }

    @pytest.mark.parametrize("case", sorted(DERIVATIONS))
    def test_derived_networks_reject_non_finite_configuration(self, case):
        network = WirelessNetwork.uniform([(0, 0), (1e160, -1e160)], noise=0.01)
        field, derive = self.DERIVATIONS[case]
        with pytest.raises(NetworkConfigurationError, match=field):
            derive(network)

    def test_uniform_and_trivial_detection(self, two_station_network):
        assert two_station_network.is_uniform_power()
        assert not two_station_network.is_trivial()
        trivial = WirelessNetwork.uniform([(0, 0), (1, 0)], noise=0.0, beta=1.0)
        assert trivial.is_trivial()

    def test_location_sharing_and_minimum_distance(self):
        network = WirelessNetwork.uniform([(0, 0), (0, 0), (3, 4)], beta=2.0)
        assert network.location_is_shared(0)
        assert not network.location_is_shared(2)
        assert network.minimum_distance_from(2) == pytest.approx(5.0)

    def test_arrays(self, noisy_network):
        coordinates = noisy_network.coords
        powers = noisy_network.powers_array()
        assert coordinates.shape == (5, 2)
        assert powers.shape == (5,)
        assert np.all(powers == 1.0)

    def test_describe_mentions_power_mode(self, noisy_network):
        assert "uniform" in noisy_network.describe()


class TestSINRArithmetic:
    def test_energy_inverse_square_law(self, two_station_network):
        energy_near = two_station_network.energy(0, Point(1, 0))
        energy_far = two_station_network.energy(0, Point(2, 0))
        assert energy_near / energy_far == pytest.approx(4.0)

    def test_energy_is_infinite_at_the_station(self, two_station_network):
        assert two_station_network.energy(0, Point(0, 0)) == math.inf

    def test_sinr_definition(self, noisy_network):
        point = Point(1.0, 1.0)
        expected = noisy_network.energy(0, point) / (
            noisy_network.interference(0, point) + noisy_network.noise
        )
        assert noisy_network.sinr(0, point) == pytest.approx(expected)

    def test_sinr_undefined_at_station_locations(self, noisy_network):
        with pytest.raises(NetworkConfigurationError):
            noisy_network.sinr(0, Point(4.0, 0.0))

    def test_reception_rule(self, two_station_network):
        assert two_station_network.is_received(0, Point(0.5, 0.0))
        assert not two_station_network.is_received(0, Point(3.5, 0.0))
        # The station location itself is always part of its own zone.
        assert two_station_network.is_received(0, Point(0.0, 0.0))
        # A point occupied by another station hears only that station.
        assert not two_station_network.is_received(0, Point(4.0, 0.0))
        assert two_station_network.is_received(1, Point(4.0, 0.0))

    def test_at_most_one_station_heard_when_beta_geq_one(self, noisy_network):
        rng = random.Random(17)
        for _ in range(200):
            point = Point(rng.uniform(-5, 8), rng.uniform(-5, 8))
            received = [
                noisy_network.is_received(i, point) for i in range(len(noisy_network))
            ]
            assert sum(received) <= 1

    def test_strongest_station_is_nearest_for_uniform_power(self, noisy_network):
        rng = random.Random(3)
        for _ in range(100):
            point = Point(rng.uniform(-5, 8), rng.uniform(-5, 8))
            nearest = min(
                range(len(noisy_network)),
                key=lambda i: noisy_network.station(i).location.distance_to(point),
            )
            assert noisy_network.strongest_station(point) == nearest

    def test_heard_station(self, two_station_network):
        assert two_station_network.heard_station(Point(0.5, 0.0)) == 0
        assert two_station_network.heard_station(Point(2.0, 0.0)) is None

    def test_alpha_four_reception_differs_from_alpha_two(self):
        stations = [(0.0, 0.0), (4.0, 0.0)]
        shallow = WirelessNetwork.uniform(stations, beta=2.0, alpha=2.0)
        steep = WirelessNetwork.uniform(stations, beta=2.0, alpha=4.0)
        probe = Point(2.3, 0.0)
        # With a steeper path loss the signal/interference ratio at a point
        # closer to the interferer drops faster.
        assert steep.sinr(0, probe) < shallow.sinr(0, probe)


class TestNetworkTransformations:
    def test_lemma_2_3_invariance(self, noisy_network):
        transform = SimilarityTransform(angle=0.6, scale=2.0, offset=Point(3, -1))
        transformed = noisy_network.transformed(transform)
        rng = random.Random(1)
        for _ in range(50):
            point = Point(rng.uniform(-5, 8), rng.uniform(-5, 8))
            if any(s.location == point for s in noisy_network.stations):
                continue
            original = noisy_network.sinr(2, point)
            mapped = transformed.sinr(2, transform.apply(point))
            assert mapped == pytest.approx(original, rel=1e-9)

    def test_without_station(self, noisy_network):
        smaller = noisy_network.without_station(4)
        assert len(smaller) == 4
        # Removing an interferer can only increase the SINR of the others.
        probe = Point(1.0, 1.0)
        assert smaller.sinr(0, probe) >= noisy_network.sinr(0, probe)

    def test_with_station_and_moved(self, two_station_network):
        extended = two_station_network.with_station(Station.at(0.0, 6.0))
        assert len(extended) == 3
        moved = two_station_network.with_station_moved(1, Point(10.0, 0.0))
        assert moved.station(1).location == Point(10.0, 0.0)
        # Moving the interferer away increases SINR at a fixed probe.
        probe = Point(1.0, 0.0)
        assert moved.sinr(0, probe) > two_station_network.sinr(0, probe)

    def test_with_noise_and_beta(self, two_station_network):
        assert two_station_network.with_noise(0.5).noise == 0.5
        assert two_station_network.with_beta(4.0).beta == 4.0

    def test_noise_folded_into_station(self, noisy_network):
        folded = noisy_network.noise_folded_into_station(0)
        assert folded.noise == 0.0
        assert len(folded) == len(noisy_network) + 1
        # The substitute station has power N * kappa^2 and sits at the nearest
        # other station, so its energy at s0 itself equals the removed noise N.
        substitute = folded.stations[-1]
        kappa = noisy_network.minimum_distance_from(0)
        assert substitute.power == pytest.approx(noisy_network.noise * kappa * kappa)
        energy_at_station = folded.energy(len(folded) - 1, Point(0.0, 0.0))
        assert energy_at_station == pytest.approx(noisy_network.noise)

    def test_noise_folding_without_noise_is_identity(self, two_station_network):
        assert two_station_network.noise_folded_into_station(0) is two_station_network


class TestVectorisedSinr:
    def test_sinr_map_matches_scalar(self, noisy_network):
        xs, ys = np.meshgrid(np.linspace(-4, 7, 12), np.linspace(-4, 7, 12))
        values = sinr_map(
            noisy_network.coords,
            noisy_network.powers_array(),
            0,
            xs,
            ys,
            noisy_network.noise,
        )
        for r in range(0, 12, 3):
            for c in range(0, 12, 3):
                point = Point(float(xs[r, c]), float(ys[r, c]))
                if any(s.location == point for s in noisy_network.stations):
                    continue
                assert values[r, c] == pytest.approx(
                    noisy_network.sinr(0, point), rel=1e-9
                )

    def test_strongest_station_map_matches_scalar(self, noisy_network):
        xs, ys = np.meshgrid(np.linspace(-4, 7, 9), np.linspace(-4, 7, 9))
        labels = strongest_station_map(
            noisy_network.coords, noisy_network.powers_array(), xs, ys
        )
        for r in range(9):
            for c in range(9):
                point = Point(float(xs[r, c]), float(ys[r, c]))
                assert labels[r, c] == noisy_network.strongest_station(point)

    def test_received_energy_at_station_is_infinite(self):
        assert received_energy(Point(0, 0), 1.0, Point(0, 0)) == math.inf

    def test_sinr_ratio_rejects_station_points(self):
        with pytest.raises(NetworkConfigurationError):
            sinr_ratio([Point(0, 0), Point(1, 0)], [1.0, 1.0], 0, Point(1, 0), 0.0)


class TestMutationCacheRefresh:
    """Mutated copies must never inherit stale derived caches.

    Every cached derivative — ``fingerprint``, ``coords``/``coords32``,
    ``powers_array``/``powers32``, the kdtree and Voronoi diagram — is
    materialised on the parent *first*, then a mutator runs; the copy's
    values must reflect the mutation and the parent's caches must be
    untouched.  This is the contract the dynamic-network layers (deltas,
    incremental shard rebuilds, tile invalidation) key everything on.
    """

    @staticmethod
    def _materialise(network):
        return {
            "fingerprint": network.fingerprint,
            "coords": network.coords.copy(),
            "coords32": network.coords32.copy(),
            "powers": network.powers_array().copy(),
            "powers32": network.powers32.copy(),
            "kdtree": network.station_kdtree(),
            "voronoi": network.voronoi_diagram(),
        }

    @staticmethod
    def _assert_parent_untouched(network, before):
        assert network.fingerprint == before["fingerprint"]
        np.testing.assert_array_equal(network.coords, before["coords"])
        np.testing.assert_array_equal(network.coords32, before["coords32"])
        np.testing.assert_array_equal(network.powers_array(), before["powers"])
        np.testing.assert_array_equal(network.powers32, before["powers32"])
        assert network.station_kdtree() is before["kdtree"]
        assert network.voronoi_diagram() is before["voronoi"]

    @pytest.fixture
    def parent(self):
        return WirelessNetwork.uniform(
            [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0), (6.0, 6.0), (3.0, 9.0)],
            noise=0.01,
            beta=3.0,
        )

    def test_with_station_moved_refreshes_every_cache(self, parent):
        before = self._materialise(parent)
        target = Point(2.5, 2.5)
        moved = parent.with_station_moved(1, target)

        assert moved.fingerprint != parent.fingerprint
        np.testing.assert_array_equal(moved.coords[1], [2.5, 2.5])
        np.testing.assert_array_equal(
            moved.coords32, moved.coords.astype(np.float32)
        )
        np.testing.assert_array_equal(moved.powers_array(), before["powers"])
        np.testing.assert_array_equal(moved.powers32, before["powers32"])
        # The copy's spatial indexes answer for the *new* geometry.
        assert moved.station_kdtree() is not before["kdtree"]
        assert moved.station_kdtree().nearest_index(target) == 1
        assert parent.station_kdtree().nearest_index(target) == 0
        assert moved.voronoi_diagram() is not before["voronoi"]
        self._assert_parent_untouched(parent, before)

    def test_with_noise_refreshes_fingerprint_shares_geometry(self, parent):
        before = self._materialise(parent)
        quieter = parent.with_noise(0.0001)

        assert quieter.fingerprint != parent.fingerprint
        np.testing.assert_array_equal(quieter.coords, before["coords"])
        np.testing.assert_array_equal(quieter.coords32, before["coords32"])
        np.testing.assert_array_equal(quieter.powers_array(), before["powers"])
        self._assert_parent_untouched(parent, before)

    def test_with_beta_refreshes_fingerprint(self, parent):
        before = self._materialise(parent)
        stricter = parent.with_beta(5.0)
        assert stricter.fingerprint != parent.fingerprint
        np.testing.assert_array_equal(stricter.coords, before["coords"])
        self._assert_parent_untouched(parent, before)

    def test_subnetwork_refreshes_every_cache(self, parent):
        before = self._materialise(parent)
        selector = [4, 0, 2]
        sub = parent.subnetwork(selector)

        assert sub.fingerprint != parent.fingerprint
        np.testing.assert_array_equal(sub.coords, before["coords"][selector])
        np.testing.assert_array_equal(sub.coords32, sub.coords.astype(np.float32))
        np.testing.assert_array_equal(sub.powers_array(), before["powers"][selector])
        np.testing.assert_array_equal(sub.powers32, before["powers32"][selector])
        assert sub.station_kdtree() is not before["kdtree"]
        assert len(sub.station_kdtree()) == 3
        assert sub.voronoi_diagram() is not before["voronoi"]
        self._assert_parent_untouched(parent, before)

    def test_mutated_copies_never_share_writable_arrays(self, parent):
        parent.coords  # materialise the parent cache first
        for mutated in (
            parent.with_station_moved(0, Point(1.0, 1.0)),
            parent.with_noise(0.5),
            parent.subnetwork([0, 1, 2]),
        ):
            assert not mutated.coords.flags.writeable
            assert not mutated.powers_array().flags.writeable
            assert not mutated.coords32.flags.writeable
            assert not mutated.powers32.flags.writeable
