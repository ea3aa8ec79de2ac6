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

The margin-free certificates join the same family: the grid certificate in
front of ``sharded:*``'s shard proposals answers ``heard_station_batch``'s
bits on it, and on degenerate networks and non-finite points besides.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro import WirelessNetwork
from repro.engine import (
    NO_RECEPTION,
    UNDECIDED,
    Float32ScreenBackend,
    certify,
    heard_station_batch,
    nearest_received_batch,
    nearest_station_batch,
    received_at,
    sinr_batch,
    use_backend,
)
from repro.model.reception import ReceptionZone
from repro.pointlocation import (
    explicit_radius_bounds,
    get_locator,
    improved_radius_bounds,
    measured_radius_bounds,
    station_reaches,
)
from repro.pointlocation import sharded
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


# ----------------------------------------------------------------------
# The grid certificate in front of the shard proposals
# ----------------------------------------------------------------------
def grid_labels(monkeypatch):
    """Every label the grid certificate hands ``sharded:*``, per call."""
    calls = []
    real = sharded.nearest_or_silent_batch

    def spy(*args):
        labels = real(*args)
        calls.append(labels)
        return labels

    monkeypatch.setattr(sharded, "nearest_or_silent_batch", spy)
    return calls


def assert_heard_stations(network, points, shards=4):
    """``sharded:voronoi`` answers ``heard_station_batch``'s numpy bits
    under both backends, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        locator = get_locator("sharded:voronoi").build(network, shards=shards)
        expected = heard_station_batch(network, points, backend="numpy")
        for backend in ("numpy", "float32-screen"):
            with use_backend(backend):
                np.testing.assert_array_equal(
                    locator.locate_batch(points), expected, err_msg=backend
                )
    return expected


def two_clusters(seed, offset=1e9):
    """12 stations in [0, 20]^2 and 12 shifted by ``offset``, shuffled."""
    rng = np.random.default_rng(seed)
    near = rng.uniform(0.0, 20.0, size=(12, 2))
    far = rng.uniform(0.0, 20.0, size=(12, 2)) + offset
    coords = np.vstack([near, far])[rng.permutation(24)]
    return WirelessNetwork.uniform(coords, noise=0.0, beta=3.0), near


class TestGridCertificate:
    """``sharded:*`` certifies points silent, or proves their nearest
    station, from a 3 x 3 block of grid cells before its shard proposals.
    The certificate has no margin, so the locator's answers must be
    ``heard_station_batch``'s bits: across zone boundaries, on cell edges
    and corners, at SINR exactly beta, on degenerate networks and at
    non-finite, huge and on-station points."""

    @pytest.fixture(autouse=True)
    def grid_everywhere(self, monkeypatch):
        """Build the grid wherever it can be built, also where the shard
        proposals it replaces would cost less, as on most networks here."""
        monkeypatch.setattr(sharded, "_BLOCK_COST", 0.0)

    @pytest.mark.parametrize("n", [13, 50, 200])
    def test_boundary_grids(self, monkeypatch, n):
        network = serving_network(n, noise=0.002, beta=3.0)
        points = np.vstack(boundary_grids(network, [1, n // 2, n - 2]))
        labels = grid_labels(monkeypatch)
        expected = assert_heard_stations(network, points)
        # Across a boundary the block's partial SINR tops beta on both sides
        # at these pitches: the grid proves candidates for the verification.
        assert (np.concatenate(labels) >= 0).any()
        assert (expected >= 0).any() and (expected == NO_RECEPTION).any()

    def test_points_and_stations_on_cell_edges_and_corners(self, monkeypatch):
        """Stations on the integer lattice with 1.5-wide cells: every
        third lattice line is a cell edge, so stations sit on cell edges
        and corners.  The points run along cell edges, through corners,
        and an ulp either side of them."""
        lattice = np.arange(0.0, 13.0)
        network = WirelessNetwork.uniform(
            [(x, y) for x in lattice for y in lattice], noise=0.002, beta=1.5
        )
        side = get_locator("sharded:voronoi").build(network)._grid.grid.spacing
        assert side == 1.5
        edges = np.arange(-1.0, 10.0) * side
        edges = np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        )
        along = np.linspace(-1.0, 14.0, 61)
        points = np.vstack(
            [
                np.column_stack([np.repeat(edges, len(along)), np.tile(along, len(edges))]),
                np.column_stack([np.tile(along, len(edges)), np.repeat(edges, len(along))]),
                np.array([(x, y) for x in edges for y in edges]),
            ]
        )
        labels = grid_labels(monkeypatch)
        assert (assert_heard_stations(network, points) >= 0).any()
        assert (np.concatenate(labels) >= 0).any()

    @pytest.mark.parametrize("seed", range(4))
    def test_probes_at_sinr_exactly_beta(self, monkeypatch, seed):
        """The far cluster's energy at a near point is below an ulp of the
        total, so the block's partial sum is the dense total: with beta set
        to a probe's SINR, the certificate's ratio is exactly beta there,
        and the probe and its ulp neighbours must not be called silent."""
        base, near = two_clusters(seed)
        rng = np.random.default_rng(seed)
        probes = near[rng.choice(12, 4, replace=False)] + rng.uniform(
            -0.6, 0.6, size=(4, 2)
        )
        sinr = sinr_batch(base, probes, backend="numpy")
        labels = grid_labels(monkeypatch)
        checked = 0
        for column, probe in enumerate(probes):
            value = float(sinr[:, column].max())
            if not 1.0 < value < np.inf:
                continue
            xs, ys = (
                (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)) for c in probe
            )
            points = np.array([(x, y) for x in xs for y in ys])
            expected = assert_heard_stations(base.with_beta(value), points, shards=2)
            assert expected[4] >= 0
            assert labels[-1][4] >= 0  # proved, not silent
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize(
        "name",
        ["collinear", "two-clusters", "scale-1e-8", "scale-1e8", "co-located", "13"],
    )
    def test_degenerate_networks(self, name):
        rng = np.random.default_rng(11)
        base = serving_network(50, seed=3)
        if name == "collinear":
            xs = np.sort(rng.uniform(0.0, 60.0, 40))
            network = WirelessNetwork.uniform(
                np.column_stack([xs, np.full(40, 2.5)]), noise=0.002, beta=3.0
            )
        elif name == "two-clusters":
            network = two_clusters(5)[0]
        elif name.startswith("scale"):
            scale = float(name.split("-", 1)[1])
            network = WirelessNetwork.uniform(
                base.coords * scale, noise=base.noise / scale**2, beta=base.beta
            )
        elif name == "co-located":
            network = WirelessNetwork.uniform(
                np.vstack([base.coords, base.coords[:5]]), noise=0.002, beta=3.0
            )
        else:
            network = serving_network(13)
        coords = network.coords
        low, high = coords.min(axis=0), coords.max(axis=0)
        span = high - low
        points = np.vstack(
            [
                low - 0.1 * span + rng.uniform(size=(3000, 2)) * 1.2 * span,
                coords + rng.normal(scale=1e-3, size=coords.shape) * span.max(),
                coords,
            ]
        )
        assert_heard_stations(network, points)

    def test_nan_huge_and_on_station_points(self, monkeypatch):
        network = serving_network(200)
        coords = network.coords
        points = np.vstack(
            [
                [[np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0], [-np.inf, np.inf]],
                [[1e300, 1e300], [-1e308, 5.0], [1e19, 1e19], [3.0, -1e200]],
                coords[:40],
                coords[:40] + np.spacing(coords[:40]),
            ]
        )
        labels = grid_labels(monkeypatch)
        expected = assert_heard_stations(network, points)
        np.testing.assert_array_equal(expected[:8], NO_RECEPTION)
        np.testing.assert_array_equal(expected[8:48], np.arange(40))
        # The non-finite and huge points lie outside the grid's table; the
        # on-station points are left to the verification, never silenced.
        assert len(labels[0]) == 80
        assert (labels[0][:40] >= 0).all()

    def test_most_uniform_points_are_decided_by_the_grid(self, monkeypatch):
        """On the serving benchmark's network shape the grid answers most
        uniform points silent and leaves few to the shard proposals."""
        network = serving_network(800)
        side = 4.0 * math.sqrt(800)
        points = np.random.default_rng(2).uniform(-2.0, side + 2.0, (20_000, 2))
        labels = grid_labels(monkeypatch)
        assert_heard_stations(network, points, shards=8)
        decided = labels[0]  # every point lies inside the grid's table
        assert len(decided) == len(points)
        assert np.mean(decided == NO_RECEPTION) > 0.8
        assert np.mean(decided == UNDECIDED) < 0.01
