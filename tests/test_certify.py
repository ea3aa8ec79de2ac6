"""``repro.engine.certify``: every certified margin, against points at zone
boundaries.

Each client of the module decides near a zone boundary, so each is run
against the same adversarial family: grids across zone boundaries at
pitches from 3 ulps to 1e-3 (``seeded_workloads.boundary_grids``).

* The float32 screen's tolerance and geometry guard: its answers are the
  exact backend's bits.
* The float64 reach margin: every point brute force hears lies within the
  station's reach, also where Theorem 4.1's bound is attained.
* The radius bounds' probe constants: the measured and improved bounds
  hold at coordinate scales far below 1.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import WirelessNetwork
from repro.engine import (
    Float32ScreenBackend,
    certify,
    heard_station_batch,
    nearest_received_batch,
    nearest_station_batch,
    received_at,
)
from repro.model.reception import ReceptionZone
from repro.pointlocation import (
    explicit_radius_bounds,
    improved_radius_bounds,
    measured_radius_bounds,
    station_reaches,
)
from repro.workloads import uniform_random_network
from seeded_workloads import boundary_grids, serving_network

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def test_epsilons_are_the_machine_epsilons():
    assert certify.EPS32 == np.finfo(np.float32).eps
    assert certify.EPS64 == np.finfo(np.float64).eps


class TestScreenAtZoneBoundaries:
    """The screen decides a point only when its float32 margin clears the
    tolerance; across a boundary at a 3-ulp pitch it must verify, and its
    answers must equal the exact backend's at every pitch."""

    @pytest.mark.parametrize(
        "n, beta, noise",
        [(13, 1.01, 0.0), (50, 3.0, 0.002), (200, 3.0, 0.002), (50, 100.0, 0.002)],
    )
    def test_answers_are_the_exact_backends_bits(self, n, beta, noise):
        network = serving_network(n, noise=noise, beta=beta)
        grids = boundary_grids(network, [1, n // 2, n - 2])
        screen = Float32ScreenBackend()
        verified, decided = [], []
        for pitch in range(4):
            points = np.vstack(grids[pitch::4])
            before = screen.stats.verified
            np.testing.assert_array_equal(
                nearest_received_batch(network, points, backend=screen),
                nearest_received_batch(network, points, backend="numpy"),
            )
            candidates = nearest_station_batch(network, points)
            np.testing.assert_array_equal(
                received_at(network, candidates, points, backend=screen),
                received_at(network, candidates, points, backend="numpy"),
            )
            verified.append(screen.stats.verified - before)
            decided.append(2 * len(points) - verified[-1])
        assert verified[0] > 0  # the 3-ulp grids
        assert decided[3] > 0  # the 1e-3 grids


class TestReachAtZoneBoundaries:
    """Every point the float64 kernels hear at station ``i`` lies within
    ``station_reaches[i]``.  Grids at a 3-ulp pitch straddle the boundary
    on the ray away from the station's nearest neighbour, where two
    noiseless stations attain Theorem 4.1's bound, and on that ray turned
    by 1e-3 rad either way."""

    @pytest.mark.parametrize("noise", [0.0, 0.002])
    @pytest.mark.parametrize("beta", [1.0 + 1e-6, 1.01, 3.0, 100.0])
    @pytest.mark.parametrize("n", [2, 13, 50])
    def test_every_heard_point_lies_within_its_reach(self, n, beta, noise):
        network = serving_network(n, noise=noise, beta=beta)
        coords = network.coords
        reaches = station_reaches(network)
        heard_points = 0
        for index in sorted({0, n // 2, n - 1}):
            offsets = coords - coords[index]
            squared = np.einsum("ij,ij->i", offsets, offsets)
            squared[index] = np.inf
            away = -offsets[int(np.argmin(squared))]
            angle = math.atan2(away[1], away[0])
            angles = angle + np.array([0.0, 1e-3, -1e-3])
            points = np.vstack(
                boundary_grids(network, [index], angles=angles)[::4]
            )
            heard = heard_station_batch(network, points) == index
            assert heard.any() and not heard.all()
            distances = np.hypot(*(points[heard] - coords[index]).T)
            outside = int(np.count_nonzero(distances > reaches[index]))
            assert outside == 0, f"{outside} heard points past station {index}'s reach"
            heard_points += int(np.count_nonzero(heard))
        assert heard_points > 0


class TestRadiusBoundsAtSmallScales:
    """The radius bounds' probe stops at a gap relative to the zone, so the
    measured bounds' relative pad covers it at every coordinate scale.
    With an absolute gap, at scale 1e-8 the measured delta_lower exceeded
    the true inscribed radius by 2.7%."""

    @pytest.mark.parametrize("scale", [1e-8, 1e-10])
    def test_bounds_contain_every_boundary_distance(self, scale):
        base = uniform_random_network(
            5, side=10, minimum_separation=2, noise=0, beta=3, seed=4
        )
        network = WirelessNetwork.uniform(base.coords * scale, noise=0.0, beta=3.0)
        angles = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
        for index in range(len(network)):
            explicit = explicit_radius_bounds(network, index)
            distances = ReceptionZone(
                network=network, index=index
            ).boundary_distances_along_rays(
                angles,
                max_radius=explicit.Delta_upper * certify.PROBE_BRACKET,
                tolerance=1e-13 * min(1.0, explicit.Delta_upper),
            )
            for bounds in (
                measured_radius_bounds(network, index),
                improved_radius_bounds(network, index),
            ):
                assert bounds.delta_lower <= distances.min()
                assert bounds.Delta_upper >= distances.max()
