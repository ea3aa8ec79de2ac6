"""Property tests for incremental dynamic-network updates.

The headline invariant: for *any* mutation sequence — stations joining,
leaving and moving, including shard-boundary crossings and shards emptied
outright — ``ShardedLocator.updated(new_network, delta)`` answers
bit-identically to a from-scratch ``build()`` on the mutated network (and
hence to brute force), while rebuilding exactly the shard subset the delta
touches.  The expected subset is predicted independently through the public
placement rule (:meth:`ShardedLocator.nearest_shard`) and checked against
the ``last_update`` rebuild ledger.

Also covers the :class:`NetworkDelta` algebra itself (mutator helpers,
``diff_networks`` recovery, the surviving-index map) and the mobility
scenario generators that emit delta sequences.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Point, Station
from repro.exceptions import NetworkConfigurationError, PointLocationError
from repro.model import (
    NetworkDelta,
    add_station,
    diff_networks,
    move_station,
    remove_station,
)
from repro.pointlocation import BruteForceLocator, ShardedLocator, station_reaches
from repro.workloads import (
    MobilityStep,
    churn_schedule,
    random_waypoint_walk,
    uniform_random_network,
)

from seeded_workloads import query_box_array


# ----------------------------------------------------------------------
# NetworkDelta algebra
# ----------------------------------------------------------------------
class TestNetworkDelta:
    def test_count_consistency_is_validated(self):
        with pytest.raises(NetworkConfigurationError):
            NetworkDelta(added=(3,), old_count=5, new_count=5)
        with pytest.raises(NetworkConfigurationError):
            NetworkDelta(removed=(0,), old_count=5, new_count=5)
        # A move keeps the count; an add/remove pair shifts it by one each.
        NetworkDelta(moved=((2, 2),), old_count=5, new_count=5)
        NetworkDelta(added=(5,), old_count=5, new_count=6)

    def test_classification_properties(self):
        identity = NetworkDelta(old_count=4, new_count=4)
        assert identity.is_identity and identity.index_preserving
        move = NetworkDelta(moved=((1, 1), (3, 3)), old_count=4, new_count=4)
        assert not move.is_identity and move.index_preserving
        assert move.touched_old == (1, 3) and move.touched_new == (1, 3)
        churn = NetworkDelta(added=(3,), removed=(0,), old_count=4, new_count=4)
        assert not churn.index_preserving
        params = NetworkDelta(old_count=4, new_count=4, params_changed=True)
        assert not params.is_identity

    def test_surviving_map_shifts_around_churn(self):
        # Old stations 0..4; station 1 removed, station 3 moved, new index 2
        # arrived: survivors 0, 2, 4 land at new indices 0, 1, 4.
        delta = NetworkDelta(
            added=(2,), removed=(1,), moved=((3, 3),), old_count=5, new_count=5
        )
        np.testing.assert_array_equal(
            delta.surviving_map(), np.array([0, -1, 1, -1, 4])
        )

    def test_mutators_carry_exact_deltas(self):
        network = uniform_random_network(
            8, side=12.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=21
        )
        moved, delta = move_station(network, 3, Point(1.0, 2.0))
        assert delta.moved == ((3, 3),) and delta.index_preserving
        assert moved.stations[3].location == Point(1.0, 2.0)
        assert diff_networks(network, moved) == delta

        grown, delta = add_station(network, Station(Point(20.0, 20.0)))
        assert delta.added == (8,) and len(grown) == 9
        assert diff_networks(network, grown) == delta

        shrunk, delta = remove_station(network, 0)
        assert delta.removed == (0,) and len(shrunk) == 7
        assert diff_networks(network, shrunk) == delta

    def test_noop_move_is_identity_on_a_fresh_copy(self):
        network = uniform_random_network(5, side=10.0, seed=2, beta=3.0)
        same, delta = move_station(network, 1, network.stations[1].location)
        assert delta.is_identity
        assert same is not network
        assert same.fingerprint == network.fingerprint

    def test_mutator_range_checks(self):
        network = uniform_random_network(5, side=10.0, seed=2, beta=3.0)
        with pytest.raises(NetworkConfigurationError):
            move_station(network, 5, Point(0.0, 0.0))
        with pytest.raises(NetworkConfigurationError):
            remove_station(network, -1)

    def test_diff_detects_parameter_changes(self):
        network = uniform_random_network(5, side=10.0, seed=2, beta=3.0)
        delta = diff_networks(network, network.with_noise(0.3))
        assert delta.params_changed and not delta.moved


# ----------------------------------------------------------------------
# Shard-selective rebuild
# ----------------------------------------------------------------------
def predict_update(locator: ShardedLocator, new_network, delta):
    """Predict (rebuilt, reused, retired) positions through the public rule.

    Mirrors the documented placement contract: survivors stay put (indices
    remapped), every arriving/relocated station joins the nearest surviving
    bounding box (which grows as placements land), a shard is rebuilt iff
    its station set changed and retired iff it emptied.
    """
    mapping = delta.surviving_map()
    new_coords = new_network.coords
    groups, boxes, changed = [], [], []
    for shard in locator.shards:
        mapped = mapping[shard.indices]
        kept = mapped[mapped >= 0]
        groups.append(kept.tolist())
        changed.append(kept.size != len(shard))
        if kept.size:
            pts = new_coords[kept]
            boxes.append(
                (float(pts[:, 0].min()), float(pts[:, 1].min()),
                 float(pts[:, 0].max()), float(pts[:, 1].max()))
            )
        else:
            boxes.append(None)
    for new_index in delta.touched_new:
        x, y = float(new_coords[new_index, 0]), float(new_coords[new_index, 1])
        position = ShardedLocator.nearest_shard(boxes, x, y)
        groups[position].append(new_index)
        changed[position] = True
        box = boxes[position]
        boxes[position] = (
            min(box[0], x), min(box[1], y), max(box[2], x), max(box[3], y)
        )
    rebuilt = tuple(
        p for p, (c, g) in enumerate(zip(changed, groups)) if g and c
    )
    reused = tuple(
        p for p, (c, g) in enumerate(zip(changed, groups)) if g and not c
    )
    retired = tuple(p for p, g in enumerate(groups) if not g)
    return rebuilt, reused, retired


def assert_update_exact(locator, new_network, delta, seed):
    """``updated()`` == fresh ``build()`` == brute force, ledger as predicted."""
    expected = predict_update(locator, new_network, delta)
    incremental = locator.updated(new_network, delta)
    report = incremental.last_update
    assert report is not None and not report.full_rebuild
    assert (
        report.rebuilt_positions,
        report.reused_positions,
        report.retired_positions,
    ) == expected

    pts = query_box_array(new_network, 500, seed=seed)
    truth = BruteForceLocator(new_network).locate_batch(pts)
    fresh = ShardedLocator(
        new_network,
        inner=locator.inner_name,
        shards=locator._requested_shards,
        partitioner=locator._partitioner_spec,
    )
    np.testing.assert_array_equal(fresh.locate_batch(pts), truth)
    np.testing.assert_array_equal(incremental.locate_batch(pts), truth)
    return incremental


class TestShardSelectiveRebuild:
    @pytest.mark.parametrize("partitioner", ["kd", "uniform"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_mutation_sequences_stay_exact(self, partitioner, seed):
        """The acceptance property: any add/remove/move sequence, any step —
        incremental answers bit-identical, rebuild ledger exactly predicted."""
        rng = np.random.default_rng(1000 + seed)
        network = uniform_random_network(
            14, side=16.0, minimum_separation=1.2, noise=0.002, beta=3.0,
            seed=50 + seed,
        )
        locator = ShardedLocator(
            network, inner="voronoi", shards=5, partitioner=partitioner
        )
        for step in range(10):
            op = rng.choice(["move", "move", "add", "remove"])
            if op == "remove" and len(network) <= 4:
                op = "add"
            if op == "add" and len(network) >= 24:
                op = "remove"
            if op == "move":
                index = int(rng.integers(len(network)))
                if rng.random() < 0.4:
                    # A long hop: crosses shard boundaries almost surely.
                    target = Point(*rng.uniform(-2.0, 18.0, size=2))
                else:
                    station = network.stations[index]
                    target = Point(
                        station.x + rng.uniform(-1.0, 1.0),
                        station.y + rng.uniform(-1.0, 1.0),
                    )
                mutated, delta = move_station(network, index, target)
            elif op == "add":
                mutated, delta = add_station(
                    network, Station(Point(*rng.uniform(-2.0, 18.0, size=2)))
                )
            else:
                mutated, delta = remove_station(
                    network, int(rng.integers(len(network)))
                )
            locator = assert_update_exact(locator, mutated, delta, seed=step)
            network = mutated

    def test_boundary_crossing_move_rebuilds_source_and_destination(self):
        network = uniform_random_network(
            16, side=20.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=8
        )
        locator = ShardedLocator(network, inner="voronoi", shards=4)
        # Move a station from its shard into the farthest shard's midst.
        source_position = 0
        mover = int(locator.shards[source_position].indices[0])
        landing = locator.shards[-1].indices
        target = Point(*network.coords[landing].mean(axis=0))
        mutated, delta = move_station(network, mover, target)

        updated = assert_update_exact(locator, mutated, delta, seed=3)
        report = updated.last_update
        assert source_position in report.rebuilt_positions
        assert len(report.rebuilt_positions) == 2  # source + destination
        assert report.reused == len(locator.shards) - 2

    def test_identity_delta_reuses_every_shard(self):
        network = uniform_random_network(
            12, side=14.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=4
        )
        locator = ShardedLocator(network, inner="voronoi", shards=4)
        same, delta = move_station(network, 2, network.stations[2].location)
        assert delta.is_identity
        updated = assert_update_exact(locator, same, delta, seed=1)
        assert updated.last_update.rebuilt == 0
        assert updated.last_update.reused == len(locator.shards)
        # Reuse means the same inner locator object, not an equal rebuild.
        for old, new in zip(locator.shards, updated.shards):
            assert new.locator is old.locator

    def test_emptied_singleton_shard_is_retired(self):
        network = uniform_random_network(
            5, side=10.0, minimum_separation=2.0, noise=0.002, beta=3.0, seed=7
        )
        locator = ShardedLocator(network, inner="voronoi", shards=5)
        assert locator.shard_sizes() == [1] * 5  # all singletons
        retired_position = 2
        victim = int(locator.shards[retired_position].indices[0])
        mutated, delta = remove_station(network, victim)
        updated = assert_update_exact(locator, mutated, delta, seed=5)
        assert updated.last_update.retired_positions == (retired_position,)
        assert len(updated.shards) == 4

    def test_parameter_change_falls_back_to_full_rebuild(self):
        network = uniform_random_network(
            10, side=12.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=6
        )
        locator = ShardedLocator(network, inner="voronoi", shards=3)
        quieter = network.with_noise(0.0005)
        updated = locator.updated(quieter, diff_networks(network, quieter))
        assert updated.last_update.full_rebuild
        pts = query_box_array(quieter, 400, seed=9)
        np.testing.assert_array_equal(
            updated.locate_batch(pts), BruteForceLocator(quieter).locate_batch(pts)
        )

    def test_recovers_delta_when_not_given(self):
        network = uniform_random_network(
            10, side=12.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=6
        )
        locator = ShardedLocator(network, inner="voronoi", shards=3)
        mutated, _ = move_station(network, 4, Point(0.5, 0.5))
        updated = locator.updated(mutated)  # delta via diff_networks
        assert updated.last_update.delta.moved == ((4, 4),)
        pts = query_box_array(mutated, 400, seed=2)
        np.testing.assert_array_equal(
            updated.locate_batch(pts), BruteForceLocator(mutated).locate_batch(pts)
        )

    def test_mismatched_delta_is_rejected(self):
        network = uniform_random_network(
            10, side=12.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=6
        )
        locator = ShardedLocator(network, inner="voronoi", shards=3)
        mutated, _ = remove_station(network, 0)
        with pytest.raises(PointLocationError):
            locator.updated(mutated, NetworkDelta(old_count=10, new_count=10))

    def test_update_leaves_the_previous_locator_untouched(self):
        network = uniform_random_network(
            10, side=12.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=3
        )
        locator = ShardedLocator(network, inner="voronoi", shards=3)
        before = [shard.indices.copy() for shard in locator.shards]
        pts = query_box_array(network, 300, seed=7)
        answers = locator.locate_batch(pts).copy()
        mutated, delta = move_station(network, 1, Point(9.0, 9.0))
        locator.updated(mutated, delta)
        assert locator.network is network
        assert locator.last_update is None
        for shard, indices in zip(locator.shards, before):
            np.testing.assert_array_equal(shard.indices, indices)
        np.testing.assert_array_equal(locator.locate_batch(pts), answers)

    def test_routing_boxes_are_refreshed_for_reused_shards(self):
        """A reused shard's box must track the *new* network's reaches: the
        Theorem 4.1 bound is not monotone under noise, so stale boxes would
        not be conservative.  Edges are rounded outward one ulp."""
        network = uniform_random_network(
            12, side=14.0, minimum_separation=1.5, noise=0.01, beta=3.0, seed=13
        )
        locator = ShardedLocator(network, inner="voronoi", shards=4)
        mutated, delta = move_station(network, 0, Point(7.0, 7.0))
        updated = locator.updated(mutated, delta)
        reaches = station_reaches(mutated)
        coords = mutated.coords
        for shard in updated.shards:
            pts = coords[shard.indices]
            reach = float(reaches[shard.indices].max())
            assert shard.query_box == (
                np.nextafter(pts[:, 0].min() - reach, -np.inf),
                np.nextafter(pts[:, 1].min() - reach, -np.inf),
                np.nextafter(pts[:, 0].max() + reach, np.inf),
                np.nextafter(pts[:, 1].max() + reach, np.inf),
            )


# ----------------------------------------------------------------------
# Mobility generators
# ----------------------------------------------------------------------
class TestMobilityGenerators:
    def test_waypoint_walk_is_seed_deterministic(self):
        network = uniform_random_network(
            10, side=14.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=9
        )
        first = list(random_waypoint_walk(network, 6, speed=0.7, movers=2, seed=5))
        second = list(random_waypoint_walk(network, 6, speed=0.7, movers=2, seed=5))
        other = list(random_waypoint_walk(network, 6, speed=0.7, movers=2, seed=6))
        assert [s.network.fingerprint for s in first] == [
            s.network.fingerprint for s in second
        ]
        assert [s.delta for s in first] == [s.delta for s in second]
        assert [s.network.fingerprint for s in first] != [
            s.network.fingerprint for s in other
        ]

    def test_waypoint_deltas_are_exact_index_preserving_moves(self):
        network = uniform_random_network(
            10, side=14.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=9
        )
        previous = network
        for step in random_waypoint_walk(network, 8, speed=0.8, movers=3, seed=1):
            assert isinstance(step, MobilityStep)
            assert step.delta.index_preserving
            assert 0 < len(step.delta.moved) <= 3
            recovered = diff_networks(previous, step.network)
            assert set(recovered.moved) == set(step.delta.moved)
            assert len(step.network) == len(network)
            previous = step.network

    def test_waypoint_steps_respect_the_speed_cap(self):
        network = uniform_random_network(
            8, side=12.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=3
        )
        speed = 0.5
        previous = network
        for step in random_waypoint_walk(network, 10, speed=speed, movers=2, seed=2):
            hops = np.linalg.norm(step.network.coords - previous.coords, axis=1)
            assert float(hops.max()) <= speed + 1e-12
            previous = step.network

    def test_churn_is_deterministic_and_respects_the_floor(self):
        network = uniform_random_network(
            8, side=12.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=3
        )
        first = list(
            churn_schedule(network, 25, join_probability=0.3,
                           minimum_stations=4, seed=11)
        )
        second = list(
            churn_schedule(network, 25, join_probability=0.3,
                           minimum_stations=4, seed=11)
        )
        assert [s.network.fingerprint for s in first] == [
            s.network.fingerprint for s in second
        ]
        assert min(len(s.network) for s in first) >= 4
        assert all(s.network.is_uniform_power() for s in first)

    def test_churn_probability_extremes(self):
        network = uniform_random_network(
            6, side=10.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=4
        )
        joins = list(churn_schedule(network, 5, join_probability=1.0, seed=1))
        assert [len(s.network) for s in joins] == [7, 8, 9, 10, 11]
        assert all(s.delta.added for s in joins)
        leaves = list(
            churn_schedule(network, 5, join_probability=0.0,
                           minimum_stations=3, seed=1)
        )
        # Shrinks to the floor, then blocked leaves become joins.
        assert [len(s.network) for s in leaves] == [5, 4, 3, 4, 3]

    def test_churn_sequences_drive_incremental_updates(self):
        network = uniform_random_network(
            10, side=14.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=9
        )
        locator = ShardedLocator(network, inner="voronoi", shards=4)
        for step in churn_schedule(network, 8, join_probability=0.5,
                                   minimum_stations=3, seed=8):
            locator = locator.updated(step.network, step.delta)
            pts = query_box_array(step.network, 300, seed=4)
            np.testing.assert_array_equal(
                locator.locate_batch(pts),
                BruteForceLocator(step.network).locate_batch(pts),
            )

    def test_generator_validation(self):
        network = uniform_random_network(
            6, side=10.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=4
        )
        with pytest.raises(NetworkConfigurationError):
            next(random_waypoint_walk(network, 1, speed=0.0))
        with pytest.raises(NetworkConfigurationError):
            next(random_waypoint_walk(network, 1, movers=7))
        with pytest.raises(NetworkConfigurationError):
            next(churn_schedule(network, 1, join_probability=1.5))
        with pytest.raises(NetworkConfigurationError):
            next(churn_schedule(network, 1, minimum_stations=0))
        with pytest.raises(NetworkConfigurationError):
            next(churn_schedule(network, 1, minimum_stations=9))
