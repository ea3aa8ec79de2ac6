"""Property tests for the sharded point-location subsystem.

The headline invariant: for every partitioner, shard count and inner
locator, ``ShardedLocator.locate_batch`` is bit-identical to
``BruteForceLocator.locate_batch`` — including query points exactly on shard
boundaries, configurations with empty shards, and the single-shard
degenerate config.  Shards narrow the candidate search; interference is
always summed over the full station set.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Point, Station, WirelessNetwork
from repro.engine import heard_station_batch, sinr_batch, use_backend
from repro.exceptions import NetworkConfigurationError, PointLocationError
from repro.model import add_station, move_station, remove_station
from repro.pointlocation import (
    BruteForceLocator,
    KDMedianPartitioner,
    ShardedLocator,
    UniformTilePartitioner,
    get_locator,
    get_partitioner,
    sharded,
)
from repro.workloads import (
    clustered_outliers_network,
    sharding_networks,
    uniform_random_network,
)

from seeded_workloads import query_box_array, serving_network


class TestPartitioners:
    def test_kd_partition_is_balanced_and_complete(self):
        network = uniform_random_network(23, side=30.0, minimum_separation=1.0, seed=2)
        for shards in (1, 2, 3, 5, 8):
            groups = KDMedianPartitioner(shards).partition(network.coords)
            assert len(groups) == shards
            sizes = [len(group) for group in groups]
            assert max(sizes) - min(sizes) <= 1
            merged = np.sort(np.concatenate(groups))
            np.testing.assert_array_equal(merged, np.arange(23))
            assert all(group.dtype == np.int64 for group in groups)

    def test_uniform_tiles_cover_all_stations(self):
        network = clustered_outliers_network(
            3, 6, outlier_count=3, side=30.0, seed=4, minimum_separation=0.3
        )
        groups = UniformTilePartitioner(3, 3).partition(network.coords)
        assert len(groups) == 9
        merged = np.sort(np.concatenate(groups))
        np.testing.assert_array_equal(merged, np.arange(len(network)))
        # A clustered layout leaves some tiles empty; they must be preserved
        # as empty groups, not dropped or mis-assigned.
        assert any(len(group) == 0 for group in groups)

    def test_kd_with_more_shards_than_stations_pads_empty_groups(self):
        network = uniform_random_network(3, side=10.0, minimum_separation=1.0, seed=6)
        groups = KDMedianPartitioner(5).partition(network.coords)
        assert len(groups) == 5
        assert sum(len(group) for group in groups) == 3
        assert any(len(group) == 0 for group in groups)

    def test_resolver(self):
        assert isinstance(get_partitioner("kd", 4), KDMedianPartitioner)
        assert isinstance(get_partitioner("uniform", 4), UniformTilePartitioner)
        custom = KDMedianPartitioner(2)
        assert get_partitioner(custom, 99) is custom
        with pytest.raises(PointLocationError):
            get_partitioner("bogus", 4)
        with pytest.raises(PointLocationError):
            KDMedianPartitioner(0)
        with pytest.raises(PointLocationError):
            UniformTilePartitioner(0)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "4", None, 0],
                             ids=["fraction", "integral-float", "bool",
                                  "string", "none", "zero"])
    def test_counts_must_be_integers(self, bad):
        """Regression: ``KDMedianPartitioner(2.5)`` truncated to 2 shards
        while ``UniformTilePartitioner.for_shard_count(2.5)`` rounded up to
        3 tiles, ``True`` counted as 1 and ``"4"`` failed with a bare
        ``TypeError``.  Every count is checked as an integer >= 1."""
        makers = [
            KDMedianPartitioner,
            UniformTilePartitioner,
            UniformTilePartitioner.for_shard_count,
        ]
        if bad is not None:  # tiles_y=None means as many rows as columns
            makers.append(lambda count: UniformTilePartitioner(2, count))
        for make in makers:
            with pytest.raises(PointLocationError, match="integer >= 1"):
                make(bad)

    def test_integer_types_are_accepted_as_counts(self):
        assert KDMedianPartitioner(np.int64(3)).shards == 3
        tiles = UniformTilePartitioner(np.int32(2), np.int64(3))
        assert (tiles.tiles_x, tiles.tiles_y) == (2, 3)
        assert type(tiles.tiles_x) is int and type(tiles.tiles_y) is int


class TestShardedExactness:
    @pytest.mark.parametrize("partitioner", ["kd", "uniform"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 6, 8])
    def test_identical_to_brute_force_on_random_networks(self, partitioner, shards):
        network = uniform_random_network(
            18, side=18.0, minimum_separation=1.5, noise=0.002, beta=3.0,
            seed=40 + shards,
        )
        truth = BruteForceLocator(network).locate_batch
        locator = ShardedLocator(
            network, inner="voronoi", shards=shards, partitioner=partitioner
        )
        pts = query_box_array(network, 1200, seed=shards)
        np.testing.assert_array_equal(locator.locate_batch(pts), truth(pts))

    @pytest.mark.parametrize("partitioner", ["kd", "uniform"])
    def test_skewed_scenarios_with_empty_tiles(self, partitioner):
        for name, network in sharding_networks():
            locator = ShardedLocator(
                network, inner="voronoi", shards=6, partitioner=partitioner
            )
            pts = query_box_array(network, 800, seed=13)
            truth = BruteForceLocator(network).locate_batch(pts)
            np.testing.assert_array_equal(
                locator.locate_batch(pts), truth, err_msg=f"scenario {name}"
            )

    def test_points_exactly_on_shard_boundaries(self):
        network = uniform_random_network(
            16, side=16.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=8
        )
        locator = ShardedLocator(network, inner="voronoi", shards=4, partitioner="kd")
        # Probe along every query-box edge (including its corners): these
        # points sit exactly on the routing boundaries, where an open/closed
        # mix-up would drop or double-route them.
        edge_points = []
        for shard in locator.shards:
            xmin, ymin, xmax, ymax = shard.query_box
            for t in np.linspace(0.0, 1.0, 9):
                edge_points.extend([
                    (xmin + t * (xmax - xmin), ymin),
                    (xmin + t * (xmax - xmin), ymax),
                    (xmin, ymin + t * (ymax - ymin)),
                    (xmax, ymin + t * (ymax - ymin)),
                ])
        # Station locations and kd split lines are boundary-flavoured too.
        edge_points.extend(map(tuple, network.coords.tolist()))
        pts = np.array(edge_points, dtype=float)
        truth = BruteForceLocator(network).locate_batch(pts)
        np.testing.assert_array_equal(locator.locate_batch(pts), truth)

    def test_single_shard_degenerate_config(self):
        network = uniform_random_network(
            9, side=12.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=5
        )
        locator = ShardedLocator(network, inner="voronoi", shards=1)
        assert len(locator.shards) == 1
        assert locator.shard_sizes() == [9]
        pts = query_box_array(network, 600, seed=3)
        truth = BruteForceLocator(network).locate_batch(pts)
        np.testing.assert_array_equal(locator.locate_batch(pts), truth)

    def test_more_shards_than_stations(self):
        network = uniform_random_network(
            4, side=10.0, minimum_separation=2.0, noise=0.002, beta=3.0, seed=7
        )
        locator = ShardedLocator(network, inner="voronoi", shards=8)
        # Singleton shards have no inner locator; their station is proposed
        # directly and settled by the full-network verification.
        assert all(size >= 1 for size in locator.shard_sizes())
        pts = query_box_array(network, 500, seed=11)
        truth = BruteForceLocator(network).locate_batch(pts)
        np.testing.assert_array_equal(locator.locate_batch(pts), truth)

    def test_coincident_stations_route_to_first_index(self):
        network = WirelessNetwork.uniform(
            [(0.0, 0.0), (0.0, 0.0), (6.0, 0.0), (6.0, 5.0)], beta=2.0
        )
        locator = ShardedLocator(network, inner="voronoi", shards=2)
        pts = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 2.0]])
        truth = BruteForceLocator(network).locate_batch(pts)
        np.testing.assert_array_equal(locator.locate_batch(pts), truth)
        assert locator.locate_batch(pts)[0] == 0  # first co-located station

    def test_scalar_locate_matches_batch(self):
        network = uniform_random_network(
            12, side=14.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=9
        )
        locator = ShardedLocator(network, shards=3)
        pts = query_box_array(network, 50, seed=17)
        labels = locator.locate_batch(pts)
        for (x, y), label in zip(pts, labels):
            assert locator.locate(Point(x, y)) == label


class TestUlpBoundaries:
    """Points within an ulp of a zone boundary, where a shard's own
    interference sum must never exceed the full network's in floats."""

    @staticmethod
    def two_clusters(seed):
        """12 stations in [0, 20]^2 and 12 shifted by 1e9, shuffled: the far
        cluster's energy at a near point is below an ulp of the total."""
        rng = np.random.default_rng(seed)
        near = rng.uniform(0.0, 20.0, size=(12, 2))
        far = rng.uniform(0.0, 20.0, size=(12, 2)) + 1e9
        coords = np.vstack([near, far])[rng.permutation(24)]
        network = WirelessNetwork.uniform(
            [tuple(point) for point in coords], noise=0.0, beta=3.0
        )
        probes = near[rng.choice(12, 4, replace=False)]
        return network, probes + rng.uniform(-0.6, 0.6, size=(4, 2))

    @staticmethod
    def ulp_neighbourhood(probe):
        xs, ys = (
            (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)) for c in probe
        )
        return np.array([(x, y) for x in xs for y in ys])

    @pytest.mark.parametrize("seed", range(4))
    def test_shards_agree_with_brute_force_at_exactly_beta(self, seed):
        """Each probe is put exactly on its best station's boundary with
        ``with_beta``.  A shard summing its stations in kd order rather
        than ascending index could exceed the full sum by an ulp there and
        reject the point."""
        base, probes = self.two_clusters(seed)
        sinr = sinr_batch(base, probes, backend="numpy")
        checked = 0
        for column, probe in enumerate(probes):
            value = float(sinr[:, column].max())
            if not 1.0 < value < np.inf:
                continue
            network = base.with_beta(value)
            points = self.ulp_neighbourhood(probe)
            expected = heard_station_batch(network, points, backend="numpy")
            for name in ("sharded:voronoi", "sharded:brute-force"):
                locator = get_locator(name).build(network, shards=2, partitioner="kd")
                for backend in ("numpy", "float32-screen"):
                    with use_backend(backend):
                        np.testing.assert_array_equal(
                            locator.locate_batch(points), expected,
                            err_msg=f"{name} under {backend}, probe {column}",
                        )
            checked += 1
        assert checked > 0

    def test_shard_indices_stay_ascending_across_updates(self):
        network = uniform_random_network(
            16, side=16.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=8
        )
        locator = ShardedLocator(network, shards=4)
        for shard in locator.shards:
            assert np.all(np.diff(shard.indices) > 0)
        moved = network
        for step in range(3):
            x, y = moved.coords[step]
            moved, delta = move_station(moved, step, Point(x + 9.0, y - 7.0))
            locator = locator.updated(moved, delta)
            for shard in locator.shards:
                assert np.all(np.diff(shard.indices) > 0)


class TestDifferentialFuzzAcrossDeltas:
    """Random uniform and clustered networks of 13-200 stations under random
    move / add / remove sequences applied through ``updated``: after every
    delta the updated locator answers ``heard_station_batch``'s numpy bits
    and a fresh build's, under both backends, at uniform and near-station
    points.  Moves stay near the station, jump across the deployment or
    land on another station.  Half the examples build the station grid
    wherever it can be built, the others only where it pays."""

    @given(
        st.integers(13, 200),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(["near", "far", "stack", "add", "remove"]),
                 min_size=1, max_size=5),
    )
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_updates_answer_like_brute_force_and_a_fresh_build(
        self, n, clustered, grid_everywhere, seed, steps
    ):
        with pytest.MonkeyPatch.context() as patch:
            if grid_everywhere:
                patch.setattr(sharded, "_BLOCK_COST", 0.0)
            self.check_updates(n, clustered, seed, steps)

    @staticmethod
    def check_updates(n, clustered, seed, steps):
        rng = np.random.default_rng(seed)
        side = 4.0 * math.sqrt(n)
        if clustered:
            centres = rng.uniform(0.0, side, size=(3, 2))
            coords = centres[rng.integers(3, size=n)] + rng.normal(
                scale=side / 8.0, size=(n, 2)
            )
        else:
            coords = rng.uniform(0.0, side, size=(n, 2))
        network = WirelessNetwork.uniform(coords, noise=0.002, beta=3.0)
        locator = get_locator("sharded:voronoi").build(network, shards=4)
        for step in steps:
            count = len(network)
            index = int(rng.integers(count))
            x, y = network.coords[index]
            if step == "near":
                dx, dy = rng.normal(scale=2.0, size=2)
                network, delta = move_station(network, index, Point(x + dx, y + dy))
            elif step == "far":
                u, v = rng.uniform(-0.5 * side, 1.5 * side, size=2)
                network, delta = move_station(network, index, Point(u, v))
            elif step == "stack":
                u, v = network.coords[(index + 1) % count]
                network, delta = move_station(network, index, Point(u, v))
            elif step == "add":
                u, v = rng.uniform(0.0, side, size=2)
                network, delta = add_station(network, Station.at(u, v))
            elif count > 13:
                network, delta = remove_station(network, index)
            else:
                continue
            locator = locator.updated(network, delta)
            coords = network.coords
            low, high = coords.min(axis=0) - 2.0, coords.max(axis=0) + 2.0
            points = np.vstack(
                [
                    rng.uniform(low, high, size=(400, 2)),
                    coords[rng.integers(len(coords), size=100)]
                    + rng.normal(scale=0.3, size=(100, 2)),
                ]
            )
            fresh = get_locator("sharded:voronoi").build(network, shards=4)
            expected = heard_station_batch(network, points, backend="numpy")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for backend in ("numpy", "float32-screen"):
                    with use_backend(backend):
                        np.testing.assert_array_equal(
                            locator.locate_batch(points), expected
                        )
                        np.testing.assert_array_equal(
                            fresh.locate_batch(points), expected
                        )


class TestStationGrid:
    """The grid in front of the shard proposals: built only where they
    cost more than its widest block, and rebuilt by ``updated``."""

    @pytest.mark.parametrize(
        "n, shards, built",
        [(3200, 16, True), (200, 1, True), (200, 2, False), (200, 4, False)],
    )
    def test_built_where_the_proposals_cost_more(self, n, shards, built):
        """Serve-large's shape and one 200-station shard take the grid;
        200 stations split two or four ways keep the shard proposals."""
        network = serving_network(n, seed=23 if n == 200 else 1)
        locator = get_locator("sharded:voronoi").build(network, shards=shards)
        assert (locator._grid is not None) is built
        moved, delta = move_station(network, 7, Point(3.0, 4.0))
        assert (locator.updated(moved, delta)._grid is not None) is built

    @pytest.mark.parametrize("grid_everywhere", [False, True])
    @pytest.mark.parametrize("far", [1e20, 2e160])
    def test_moves_far_beyond_the_grid(self, monkeypatch, grid_everywhere, far):
        """A station moved so far that no grid cell edge is exact there:
        ``updated`` builds no grid, or one whose cells cover both ends,
        and answers like brute force and a fresh build."""
        if grid_everywhere:
            monkeypatch.setattr(sharded, "_BLOCK_COST", 0.0)
        network = serving_network(200, seed=23)
        locator = get_locator("sharded:voronoi").build(network, shards=1)
        assert locator._grid is not None
        rng = np.random.default_rng(5)
        side = 4.0 * math.sqrt(200)
        for index, x in ((3, far), (3, 12.5), (150, far)):
            network, delta = move_station(network, index, Point(x, 0.0))
            locator = locator.updated(network, delta)
            points = np.vstack(
                [
                    rng.uniform(-2.0, side + 2.0, size=(2000, 2)),
                    network.coords + rng.normal(scale=0.3, size=(200, 2)),
                    [[far, 0.0], [far, 0.25], [np.nextafter(far, 0.0), 0.0]],
                ]
            )
            expected = heard_station_batch(network, points, backend="numpy")
            fresh = get_locator("sharded:voronoi").build(network, shards=1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                # The float32 screen's own cast of coordinates past float32's
                # range warns; the grid and the verification must not.
                warnings.filterwarnings(
                    "ignore", "overflow encountered in cast", RuntimeWarning
                )
                for backend in ("numpy", "float32-screen"):
                    with use_backend(backend):
                        np.testing.assert_array_equal(
                            locator.locate_batch(points), expected
                        )
                        np.testing.assert_array_equal(
                            fresh.locate_batch(points), expected
                        )
            assert (expected[-3:] >= 0).any() == (x == far)


class TestShardedPreconditions:
    def test_requires_the_paper_regime(self):
        low_beta = uniform_random_network(6, side=10.0, seed=1, beta=1.0)
        with pytest.raises(PointLocationError):
            ShardedLocator(low_beta)
        alpha_four = WirelessNetwork.uniform([(0, 0), (4, 0)], beta=2.0, alpha=4.0)
        with pytest.raises(PointLocationError):
            ShardedLocator(alpha_four)
        with pytest.raises(PointLocationError):
            ShardedLocator(
                uniform_random_network(6, side=10.0, seed=1, beta=3.0), shards=0
            )

    @pytest.mark.parametrize("partitioner", ["kd", "uniform"])
    @pytest.mark.parametrize("bad", [2.5, True, "4"],
                             ids=["fraction", "bool", "string"])
    def test_shard_count_must_be_an_integer(self, partitioner, bad):
        """Regression: ``shards=2.5`` built 2 kd shards but 3 uniform
        tiles, ``shards=True`` built one shard and ``shards="4"`` raised a
        bare ``TypeError``."""
        network = uniform_random_network(6, side=10.0, seed=1, beta=3.0)
        with pytest.raises(PointLocationError, match="integer >= 1"):
            ShardedLocator(network, shards=bad, partitioner=partitioner)

    def test_inner_options_forward(self):
        network = uniform_random_network(
            8, side=12.0, minimum_separation=1.8, noise=0.002, beta=3.0, seed=12
        )
        locator = ShardedLocator(
            network,
            inner="theorem3",
            shards=2,
            inner_options={"epsilon": 0.5, "cover_method": "ray_sweep"},
        )
        for shard in locator.shards:
            if shard.locator is not None:
                assert shard.locator.epsilon == 0.5
        assert "sharded" in locator.describe()


class TestSubnetworkView:
    def test_subnetwork_slices_cached_arrays(self):
        network = uniform_random_network(10, side=15.0, minimum_separation=1.0, seed=3)
        base_coords = network.coords  # materialise the parent cache
        sub = network.subnetwork([4, 1, 7])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.coords, base_coords[[4, 1, 7]])
        assert not sub.coords.flags.writeable
        assert sub.noise == network.noise
        assert sub.beta == network.beta
        assert sub.station(0) is network.station(4)

    def test_subnetwork_validation(self):
        network = uniform_random_network(5, side=10.0, minimum_separation=1.0, seed=3)
        with pytest.raises(NetworkConfigurationError):
            network.subnetwork([2])
        with pytest.raises(NetworkConfigurationError):
            network.subnetwork([0, 9])
        with pytest.raises(NetworkConfigurationError):
            network.subnetwork([-1, 2])

    def test_subnetwork_sinr_drops_outside_interference(self):
        network = uniform_random_network(
            8, side=12.0, minimum_separation=1.5, noise=0.01, beta=2.0, seed=6
        )
        sub = network.subnetwork([0, 1, 2])
        probe = Point(
            (network.coords[0, 0] + network.coords[1, 0]) / 2.0,
            (network.coords[0, 1] + network.coords[1, 1]) / 2.0,
        )
        # Fewer interferers, same noise: SINR can only go up.
        assert sub.sinr(0, probe) >= network.sinr(0, probe)
