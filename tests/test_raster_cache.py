"""The raster tile cache: bit-identity, budgets, stats, fingerprints, serving.

The subsystem's one non-negotiable contract is that caching never changes a
bit of output: every test that rasterises through a cache compares
``labels`` *and* ``sinr_values`` against the monolithic path with exact
array equality, across random boxes, resolutions, tile sizes, evicting
budgets and concurrent threads.
"""

from __future__ import annotations

import asyncio
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Point, SINRDiagram, TileCache, WirelessNetwork
from repro.exceptions import DiagramError, RasterCacheError, ServiceError
from repro.model.diagram import RasterLattice
from repro.raster import default_cache, resolve_cache
from repro.raster.cache import RETIRED_FINGERPRINTS
from repro.service import RasterService
from repro.workloads import uniform_random_network


@pytest.fixture
def diagram(noisy_network) -> SINRDiagram:
    return SINRDiagram(noisy_network)


def assert_rasters_identical(expected, actual):
    """Bitwise equality of every payload array plus the lattice metadata."""
    np.testing.assert_array_equal(expected.labels, actual.labels)
    np.testing.assert_array_equal(expected.sinr_values, actual.sinr_values)
    np.testing.assert_array_equal(expected.xs, actual.xs)
    np.testing.assert_array_equal(expected.ys, actual.ys)
    assert expected.labels.dtype == actual.labels.dtype
    assert expected.pitch == actual.pitch


# ----------------------------------------------------------------------
# The lattice
# ----------------------------------------------------------------------
class TestRasterLattice:
    def test_aligned_origin_snaps_to_world_lattice(self):
        lattice = RasterLattice.build(-8.0, 16.0, 128)
        assert lattice.phase == 0.0
        assert lattice.start == -64
        assert lattice.count == 128
        assert lattice.pitch == 0.125

    def test_unaligned_origin_keeps_phase_remainder(self):
        lattice = RasterLattice.build(-8.3, 16.0, 128)
        assert 0.0 < lattice.phase < lattice.pitch
        centres = lattice.centers()
        assert centres[0] == pytest.approx(-8.3 + lattice.pitch / 2, rel=1e-12)

    def test_tile_coordinates_are_slices_of_request_coordinates(self):
        """The heart of bit-identity: same formula, any sub-range."""
        for origin in (-8.0, -8.3, 3.7, 1e6):
            lattice = RasterLattice.build(origin, 16.0, 96)
            full = lattice.centers()
            for start, count in [(0, 96), (10, 20), (95, 1)]:
                part = lattice.centers_at(lattice.start + start, count)
                np.testing.assert_array_equal(full[start : start + count], part)

    def test_overlapping_aligned_boxes_share_global_indices(self):
        base = RasterLattice.build(-8.0, 16.0, 128)
        zoom = RasterLattice.build(-4.0, 8.0, 64)
        assert zoom.pitch == base.pitch and zoom.phase == base.phase
        np.testing.assert_array_equal(
            base.centers()[32:96], zoom.centers()
        )


# ----------------------------------------------------------------------
# Bit-identity of the tiled path
# ----------------------------------------------------------------------
class TestTiledBitIdentity:
    @pytest.mark.parametrize("tile_size", [7, 16, 64])
    def test_random_boxes_and_resolutions(self, diagram, seeded_rng, tile_size):
        cache = TileCache(tile_size=tile_size)
        for _ in range(6):
            x0, y0 = seeded_rng.uniform(-9.0, 3.0, size=2)
            width, height = seeded_rng.uniform(1.0, 12.0, size=2)
            resolution = int(seeded_rng.integers(2, 48))
            lower_left, upper_right = Point(x0, y0), Point(x0 + width, y0 + height)
            direct = diagram.rasterize(lower_left, upper_right, resolution)
            cached = diagram.rasterize(
                lower_left, upper_right, resolution, cache=cache
            )
            assert_rasters_identical(direct, cached)
            # And again, now served (at least partly) from the store.
            again = diagram.rasterize(
                lower_left, upper_right, resolution, cache=cache
            )
            assert_rasters_identical(direct, again)
        assert cache.stats().hits > 0

    def test_eviction_under_a_tiny_budget_stays_identical(self, diagram):
        box = (Point(-6.0, -6.0), Point(6.0, 6.0))
        probe = TileCache(tile_size=16)
        direct = diagram.rasterize(*box, 64)
        diagram.rasterize(*box, 64, cache=probe)
        tile_bytes = probe.stats().stored_bytes // probe.stats().tiles

        cache = TileCache(max_bytes=3 * tile_bytes, tile_size=16)
        for _ in range(3):
            cached = diagram.rasterize(*box, 64, cache=cache)
            assert_rasters_identical(direct, cached)
        stats = cache.stats()
        assert stats.evictions > 0
        assert stats.tiles <= 3
        assert stats.stored_bytes <= cache.max_bytes

    def test_oversized_tiles_are_rejected_not_stored(self, diagram):
        cache = TileCache(max_bytes=64, tile_size=16)
        direct = diagram.rasterize(Point(-4, -4), Point(4, 4), 32)
        cached = diagram.rasterize(Point(-4, -4), Point(4, 4), 32, cache=cache)
        assert_rasters_identical(direct, cached)
        stats = cache.stats()
        assert stats.rejected == stats.misses > 0
        assert stats.tiles == 0 and stats.stored_bytes == 0

    def test_unaligned_box_caches_against_repeats_of_itself(self, diagram):
        cache = TileCache(tile_size=16)
        box = (Point(-5.37, -4.91), Point(6.13, 7.03))
        direct = diagram.rasterize(*box, 48)
        diagram.rasterize(*box, 48, cache=cache)
        misses = cache.stats().misses
        again = diagram.rasterize(*box, 48, cache=cache)
        assert_rasters_identical(direct, again)
        stats = cache.stats()
        assert stats.misses == misses
        assert stats.hits == misses

    def test_summary_through_cache_matches_uncached(self, diagram):
        cache = TileCache(tile_size=32)
        uncached = diagram.summary(resolution=60)
        cached = diagram.summary(resolution=60, cache=cache)
        assert cached["zone_areas"] == uncached["zone_areas"]
        assert cached["coverage_fraction"] == uncached["coverage_fraction"]
        assert cache.stats().misses > 0
        # A repeated summary recomputes no tiles at all.
        misses = cache.stats().misses
        diagram.summary(resolution=60, cache=cache)
        assert cache.stats().misses == misses


# ----------------------------------------------------------------------
# Cache bookkeeping
# ----------------------------------------------------------------------
class TestCacheStats:
    def test_cold_pass_misses_then_warm_pass_hits(self, diagram):
        cache = TileCache(tile_size=32)
        box = (Point(-8.0, -8.0), Point(8.0, 8.0))
        diagram.rasterize(*box, 128, cache=cache)
        cold = cache.stats()
        # 128 px at pitch 0.125 spanning [-64, 64) -> a 4x4 block of tiles.
        assert cold.misses == 16 and cold.hits == 0
        assert cold.tiles == 16 and cold.stored_bytes > 0
        diagram.rasterize(*box, 128, cache=cache)
        warm = cache.stats()
        assert warm.misses == 16 and warm.hits == 16
        assert warm.hit_rate == 0.5
        assert warm.requests == 32

    def test_overlapping_zoom_and_pan_reuse_tiles(self, diagram):
        cache = TileCache(tile_size=32)
        diagram.rasterize(Point(-8, -8), Point(8, 8), 128, cache=cache)
        misses = cache.stats().misses
        # Zoom and pan boxes sit on the same world lattice: all hits.
        diagram.rasterize(Point(-4, -4), Point(4, 4), 64, cache=cache)
        diagram.rasterize(Point(0, -8), Point(8, 0), 64, cache=cache)
        stats = cache.stats()
        assert stats.misses == misses
        assert stats.hits == 4 + 4

    @pytest.mark.parametrize("stations", [2, 12])
    def test_a_tile_holds_its_label_block_only(self, stations):
        """A tile's resident bytes are ``tile_size**2`` labels whatever the
        station count: no per-station SINR planes are cached."""
        network = uniform_random_network(
            stations, side=8.0, minimum_separation=1.5, noise=0.01, beta=2.0,
            seed=3,
        )
        cache = TileCache(tile_size=16)
        SINRDiagram(network).rasterize(Point(-2, -2), Point(10, 10), 48, cache=cache)
        stats = cache.stats()
        assert stats.tiles == 16
        assert stats.stored_bytes == stats.tiles * 16 * 16 * np.dtype(np.intp).itemsize

    def test_clear_drops_tiles_but_not_counters(self, diagram):
        cache = TileCache(tile_size=32)
        diagram.rasterize(Point(-4, -4), Point(4, 4), 64, cache=cache)
        assert cache.stats().tiles > 0
        cache.clear()
        stats = cache.stats()
        assert stats.tiles == 0 and stats.stored_bytes == 0
        assert stats.misses > 0

    def test_validation(self):
        with pytest.raises(RasterCacheError):
            TileCache(max_bytes=0)
        with pytest.raises(RasterCacheError):
            TileCache(tile_size=0)

    def test_cache_argument_validation(self, diagram):
        with pytest.raises(RasterCacheError):
            diagram.rasterize(Point(-4, -4), Point(4, 4), 32, cache=123)

    def test_cache_true_uses_the_process_default(self, diagram):
        default_cache().clear()
        try:
            first = diagram.rasterize(Point(-4, -4), Point(4, 4), 64, cache=True)
            before = default_cache().stats()
            again = diagram.rasterize(Point(-4, -4), Point(4, 4), 64, cache=True)
            assert_rasters_identical(first, again)
            assert default_cache().stats().hits >= before.hits + before.tiles
        finally:
            default_cache().clear()


# ----------------------------------------------------------------------
# SINR values computed on first read
# ----------------------------------------------------------------------
@pytest.fixture
def sinr_batch_calls(monkeypatch):
    """The point counts of every ``engine.batch.sinr_batch`` call."""
    import repro.engine.batch as engine_batch

    calls = []
    original = engine_batch.sinr_batch

    def counting(network, points, *args, **kwargs):
        calls.append(len(points))
        return original(network, points, *args, **kwargs)

    monkeypatch.setattr(engine_batch, "sinr_batch", counting)
    return calls


class TestDeferredSinrValues:
    def test_unread_sinr_costs_only_the_missing_tiles(
        self, diagram, sinr_batch_calls
    ):
        cache = TileCache(tile_size=16)
        diagram.rasterize(Point(-8.0, -8.0), Point(0.0, 8.0), 64, cache=cache)
        assert len(sinr_batch_calls) == cache.stats().misses == 8
        sinr_batch_calls.clear()
        # The full box: 8 of its 16 tiles are warm.
        diagram.rasterize(Point(-8.0, -8.0), Point(8.0, 8.0), 64, cache=cache)
        assert sinr_batch_calls == [16 * 16] * 8
        sinr_batch_calls.clear()
        raster = diagram.rasterize(Point(-8.0, -8.0), Point(8.0, 8.0), 64, cache=cache)
        assert sinr_batch_calls == []  # a full hit is lookups and label copies
        # The first read is one engine call over the request's own pixels.
        values = raster.sinr_values
        assert sinr_batch_calls == [64 * 64]
        assert raster.sinr_values is values
        assert sinr_batch_calls == [64 * 64]
        direct = diagram.rasterize(Point(-8.0, -8.0), Point(8.0, 8.0), 64)
        assert_rasters_identical(direct, raster)

    def test_concurrent_first_reads_compute_once(
        self, ten_station_network, sinr_batch_calls
    ):
        diagram = SINRDiagram(ten_station_network)
        box = (Point(-8.0, -8.0), Point(8.0, 8.0), 64)
        direct = diagram.rasterize(*box)
        raster = diagram.rasterize(*box, cache=TileCache(tile_size=16))
        sinr_batch_calls.clear()
        workers = 8
        barrier = threading.Barrier(workers)

        def first_read(_):
            barrier.wait(timeout=30.0)
            return raster.sinr_values

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                reads = list(pool.map(first_read, range(workers), timeout=60.0))
        finally:
            sys.setswitchinterval(interval)
        assert sinr_batch_calls == [64 * 64]
        assert all(values is reads[0] for values in reads)
        np.testing.assert_array_equal(direct.sinr_values, reads[0])


# ----------------------------------------------------------------------
# The store itself, with stand-in tiles
# ----------------------------------------------------------------------
class FakeTile:
    """Anything with ``nbytes`` is a tile as far as the store is concerned."""

    def __init__(self, nbytes: int = 100):
        self.nbytes = nbytes


def tile_key(fingerprint: str, tile_x: int = 0, tile_y: int = 0) -> tuple:
    """A TileKey on a 4-pixel, 0.5-pitch lattice: tile (i, j) spans
    ``[2i, 2i + 2] x [2j, 2j + 2]`` in world units."""
    return (fingerprint, "numpy", 4, 0.5, 0.0, 0.5, 0.0, tile_x, tile_y)


class TestTileStore:
    def fill(self, cache, fingerprint, count, nbytes=100):
        for index in range(count):
            cache.get_or_compute(
                tile_key(fingerprint, index), lambda: FakeTile(nbytes)
            )

    def test_inserts_evict_lru_tiles_back_under_budget(self):
        cache = TileCache(max_bytes=450)
        self.fill(cache, "fp", 10)
        stats = cache.stats()
        assert stats.tiles == 4 and stats.stored_bytes == 400
        assert stats.evictions == 6 and stats.misses == 10

    def test_a_hit_refreshes_recency(self):
        cache = TileCache(max_bytes=300)
        self.fill(cache, "fp", 3)
        cache.get_or_compute(tile_key("fp", 0), FakeTile)  # hit: now newest
        cache.get_or_compute(tile_key("fp", 3), FakeTile)  # evicts tile 1
        assert cache.stats().hits == 1
        computed = []
        for index in (0, 2, 3, 1):
            cache.get_or_compute(
                tile_key("fp", index), lambda: computed.append(index) or FakeTile()
            )
        assert computed == [1]

    def test_a_tile_exactly_filling_the_budget_is_stored(self):
        cache = TileCache(max_bytes=100)
        self.fill(cache, "fp", 1)
        stats = cache.stats()
        assert stats.tiles == 1 and stats.rejected == 0
        self.fill(cache, "other", 1)
        assert cache.stats().evictions == 1

    def test_oversized_tile_is_served_and_leaves_residents_alone(self):
        cache = TileCache(max_bytes=300)
        self.fill(cache, "fp", 3)
        big = FakeTile(301)
        assert cache.get_or_compute(tile_key("big"), lambda: big) is big
        stats = cache.stats()
        assert stats.rejected == 1 and stats.evictions == 0
        assert stats.tiles == 3 and stats.stored_bytes == 300

    def test_failed_computation_propagates_and_is_retried(self):
        cache = TileCache()

        def broken():
            raise ValueError("engine failure")

        with pytest.raises(ValueError, match="engine failure"):
            cache.get_or_compute(tile_key("fp"), broken)
        tile = FakeTile()
        assert cache.get_or_compute(tile_key("fp"), lambda: tile) is tile
        stats = cache.stats()
        assert stats.misses == 1 and stats.tiles == 1

    def test_concurrent_misses_of_one_key_compute_once(self):
        cache = TileCache()
        calls = []
        workers = 6
        barrier = threading.Barrier(workers)

        def factory():
            calls.append(1)
            time.sleep(0.05)  # hold the single flight open
            return FakeTile()

        def request(_):
            barrier.wait()
            return cache.get_or_compute(tile_key("fp"), factory)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            tiles = list(pool.map(request, range(workers)))
        assert len(calls) == 1
        assert all(tile is tiles[0] for tile in tiles)
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == workers - 1

    def test_waiter_recomputes_when_the_owner_fails(self):
        cache = TileCache()
        entered = threading.Event()
        release = threading.Event()

        def failing():
            entered.set()
            release.wait(10.0)
            raise ValueError("owner failed")

        def owner():
            with pytest.raises(ValueError):
                cache.get_or_compute(tile_key("fp"), failing)

        with ThreadPoolExecutor(max_workers=2) as pool:
            owned = pool.submit(owner)
            assert entered.wait(10.0)
            waiter = pool.submit(cache.get_or_compute, tile_key("fp"), FakeTile)
            time.sleep(0.05)  # let the waiter block on the in-flight key
            release.set()
            owned.result(timeout=10.0)
            tile = waiter.result(timeout=10.0)
        assert isinstance(tile, FakeTile)
        assert cache.stats().tiles == 1

    @pytest.mark.parametrize(
        "box,dropped",
        [
            ((1.0, 1.0, 3.0, 3.0), True),  # overlaps
            ((2.0, 0.5, 3.0, 1.0), True),  # touches the right edge
            ((2.0, 2.0, 3.0, 3.0), True),  # touches a corner
            ((-1.0, -1.0, 5.0, 5.0), True),  # contains the tile
            ((0.5, 0.5, 1.0, 1.0), True),  # inside the tile
            ((2.01, 0.0, 3.0, 2.0), False),  # right of the tile
            ((0.0, 2.01, 2.0, 3.0), False),  # above the tile
            ((-3.0, -3.0, -0.01, -0.01), False),  # below-left of the tile
        ],
        ids=[
            "overlaps", "right-edge", "corner", "contains", "inside",
            "right-of", "above", "below-left",
        ],
    )
    def test_invalidation_overlap_is_closed(self, box, dropped):
        cache = TileCache()
        self.fill(cache, "old", 1)
        rekeyed, removed = cache.invalidate_region("old", "new", [box])
        assert (rekeyed, removed) == ((0, 1) if dropped else (1, 0))
        stats = cache.stats()
        assert stats.tiles == (0 if dropped else 1)
        assert stats.stored_bytes == (0 if dropped else 100)

    def test_rekeyed_tiles_keep_their_lru_position(self):
        cache = TileCache(max_bytes=300)
        self.fill(cache, "old", 3)
        assert cache.invalidate_region("old", "new", []) == (3, 0)
        self.fill(cache, "other", 1)  # evicts the oldest re-keyed tile
        computed = []
        for index in (1, 2, 0):
            cache.get_or_compute(
                tile_key("new", index),
                lambda: computed.append(index) or FakeTile(),
            )
        assert computed == [0]
        assert cache.stats().rekeyed == 3

    def test_invalidation_spans_only_boxes_it_touches(self):
        cache = TileCache()
        self.fill(cache, "old", 4)  # tiles 0..3 span x in [0, 8]
        rekeyed, removed = cache.invalidate_region(
            "old", "new", [(2.5, 0.5, 3.5, 1.5)]  # inside tile 1 only
        )
        assert (rekeyed, removed) == (3, 1)
        stats = cache.stats()
        assert stats.invalidated == 1 and stats.stored_bytes == 300

    def test_only_the_latest_retired_fingerprints_are_remembered(self):
        cache = TileCache()
        for index in range(RETIRED_FINGERPRINTS + 1):
            cache.invalidate_region(f"fp{index}", f"fp{index + 1}", None)
        self.fill(cache, "fp0", 1)  # forgotten: stored like any other tile
        self.fill(cache, "fp1", 1)  # still retired: served, never stored
        self.fill(cache, f"fp{RETIRED_FINGERPRINTS + 1}", 1)  # the live one
        stats = cache.stats()
        assert stats.misses == 3 and stats.rejected == 1
        assert stats.tiles == 2 and stats.stored_bytes == 200

    def test_resolve_cache_passes_caches_through(self):
        cache = TileCache()
        assert resolve_cache(cache) is cache
        assert resolve_cache(True) is default_cache()
        assert default_cache() is default_cache()

    @pytest.mark.parametrize(
        "bad",
        [None, False, 0, "default", TileCache],
        ids=["none", "false", "zero", "name", "class"],
    )
    def test_resolve_cache_rejects_everything_else(self, bad):
        with pytest.raises(RasterCacheError, match="TileCache or True"):
            resolve_cache(bad)


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestNetworkFingerprint:
    def test_content_identical_networks_share_a_fingerprint(self):
        first = WirelessNetwork.uniform([(0, 0), (4, 0)], noise=0.01, beta=2.0)
        second = WirelessNetwork.uniform([(0, 0), (4, 0)], noise=0.01, beta=2.0)
        assert first is not second
        assert first.fingerprint == second.fingerprint

    def test_every_reception_parameter_changes_it(self, noisy_network):
        base = noisy_network.fingerprint
        assert noisy_network.with_noise(0.02).fingerprint != base
        assert noisy_network.with_beta(2.5).fingerprint != base
        assert noisy_network.with_station_moved(0, Point(0.1, 0.0)).fingerprint != base
        assert noisy_network.without_station(1).fingerprint != base

    def test_backend_switch_never_serves_another_backends_tiles(
        self, noisy_network
    ):
        """Backends agree only to float tolerance: tiles must not cross them."""
        from repro.engine import use_backend

        diagram = SINRDiagram(noisy_network)
        cache = TileCache(tile_size=8)
        box = (Point(-2.0, -2.0), Point(2.0, 2.0))
        diagram.rasterize(*box, 16, cache=cache)
        numpy_misses = cache.stats().misses

        with use_backend("reference"):
            direct = diagram.rasterize(*box, 16)
            cached = diagram.rasterize(*box, 16, cache=cache)
        assert_rasters_identical(direct, cached)
        stats = cache.stats()
        # The reference-backend request computed its own tiles from scratch.
        assert stats.misses == 2 * numpy_misses
        assert stats.hits == 0

    def test_one_request_is_computed_under_one_pinned_backend(
        self, noisy_network
    ):
        """No seams: a request started under a backend finishes under it."""
        from repro.engine import use_backend
        from repro.engine.backend import BACKENDS, get_backend, register_backend

        class CountingBackend:
            name = "counting"

            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def __getattr__(self, attribute):
                return getattr(self._inner, attribute)

            def sinr_matrix(self, *args, **kwargs):
                self.calls += 1
                return self._inner.sinr_matrix(*args, **kwargs)

        counting = CountingBackend(get_backend("numpy"))
        register_backend("counting", counting)
        diagram = SINRDiagram(noisy_network)
        cache = TileCache(tile_size=8)
        try:
            with use_backend("counting"):
                raster = diagram.rasterize(
                    Point(-2, -2), Point(2, 2), 16, cache=cache
                )
        finally:
            BACKENDS.unregister("counting")
        assert counting.calls == cache.stats().misses > 0
        direct = diagram.rasterize(Point(-2, -2), Point(2, 2), 16)
        assert_rasters_identical(direct, raster)

    def test_mutated_network_is_a_cache_miss(self, noisy_network):
        cache = TileCache(tile_size=32)
        box = (Point(-4.0, -4.0), Point(4.0, 4.0))
        SINRDiagram(noisy_network).rasterize(*box, 64, cache=cache)
        cold = cache.stats()
        assert cold.hits == 0

        moved = noisy_network.with_station_moved(0, Point(0.5, 0.5))
        direct = SINRDiagram(moved).rasterize(*box, 64)
        cached = SINRDiagram(moved).rasterize(*box, 64, cache=cache)
        assert_rasters_identical(direct, cached)
        stats = cache.stats()
        # Same box, same lattice — but not one stale tile was served.
        assert stats.hits == 0
        assert stats.misses == 2 * cold.misses


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_threaded_overlapping_requests_are_identical(self, ten_station_network):
        diagram = SINRDiagram(ten_station_network)
        cache = TileCache(tile_size=32)
        boxes = [
            (Point(-8.0, -8.0), Point(8.0, 8.0), 128),
            (Point(-4.0, -4.0), Point(4.0, 4.0), 64),
            (Point(0.0, 0.0), Point(8.0, 8.0), 64),
            (Point(-8.0, 0.0), Point(0.0, 8.0), 64),
        ]
        expected = {
            id(box): diagram.rasterize(box[0], box[1], box[2]) for box in boxes
        }

        def serve(box):
            return id(box), diagram.rasterize(box[0], box[1], box[2], cache=cache)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(serve, boxes * 6))
        for key, raster in results:
            assert_rasters_identical(expected[key], raster)

        stats = cache.stats()
        # 24 requests, but only the base box's 16 distinct tiles computed
        # (single-flight keeps concurrent duplicate misses from recomputing).
        assert stats.misses >= 16
        assert stats.hits + stats.misses == sum(
            16 if box[2] == 128 else 4 for box in boxes
        ) * 6

    def test_threaded_eviction_churn_stays_identical(self, diagram):
        box = (Point(-6.0, -6.0), Point(6.0, 6.0))
        probe = TileCache(tile_size=16)
        direct = diagram.rasterize(*box, 64)
        diagram.rasterize(*box, 64, cache=probe)
        tile_bytes = probe.stats().stored_bytes // probe.stats().tiles
        cache = TileCache(max_bytes=2 * tile_bytes, tile_size=16)

        def serve(_):
            return diagram.rasterize(*box, 64, cache=cache)

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(serve, range(12)))
        for raster in results:
            assert_rasters_identical(direct, raster)
        assert cache.stats().evictions > 0
        assert cache.stats().stored_bytes <= cache.max_bytes


# ----------------------------------------------------------------------
# The service raster endpoint
# ----------------------------------------------------------------------
class TestRasterService:
    def test_concurrent_zoom_pan_traffic(self, ten_station_network):
        service = RasterService(ten_station_network, tile_size=32)
        diagram = SINRDiagram(ten_station_network)
        boxes = [
            (Point(-8.0, -8.0), Point(8.0, 8.0), 128),
            (Point(-4.0, -4.0), Point(4.0, 4.0), 64),
            (Point(0.0, -8.0), Point(8.0, 0.0), 64),
        ]

        async def drive():
            return await asyncio.gather(
                *(service.rasterize(a, b, res) for a, b, res in boxes * 4)
            )

        rasters = asyncio.run(drive())
        for (a, b, res), raster in zip(boxes * 4, rasters):
            assert_rasters_identical(diagram.rasterize(a, b, res), raster)
        stats = service.cache_stats()
        # Twelve requests over the base box's 16 tiles: everything beyond
        # the first computation of each tile was served from the cache.
        assert stats.misses == 16
        assert stats.hits == 4 * (16 + 4 + 4) - 16

    def test_summary_endpoint_matches_direct(self, ten_station_network):
        service = RasterService(ten_station_network, tile_size=32)
        summary = asyncio.run(service.summary(resolution=60))
        direct = SINRDiagram(ten_station_network).summary(resolution=60)
        assert summary["zone_areas"] == direct["zone_areas"]
        assert service.cache_stats().misses > 0

    def test_shared_cache_and_bounded_concurrency(self, ten_station_network):
        shared = TileCache(tile_size=32)
        service = RasterService(
            ten_station_network, cache=shared, max_concurrency=2
        )
        box = (Point(-4.0, -4.0), Point(4.0, 4.0), 64)

        async def drive():
            return await asyncio.gather(
                *(service.rasterize(*box) for _ in range(8))
            )

        rasters = asyncio.run(drive())
        direct = SINRDiagram(ten_station_network).rasterize(*box)
        for raster in rasters:
            assert_rasters_identical(direct, raster)
        assert shared.stats().misses == 4

    def test_bounded_service_survives_multiple_event_loops(
        self, ten_station_network
    ):
        """The concurrency semaphore must bind per loop, not per service."""
        service = RasterService(
            ten_station_network, tile_size=32, max_concurrency=1
        )
        box = (Point(-4.0, -4.0), Point(4.0, 4.0), 64)

        async def drive():
            rasters = await asyncio.gather(
                *(service.rasterize(*box) for _ in range(3))
            )
            summary = await service.summary(resolution=40)
            return rasters, summary

        first, _ = asyncio.run(drive())
        second, summary = asyncio.run(drive())  # a fresh event loop
        direct = SINRDiagram(ten_station_network).rasterize(*box)
        for raster in (*first, *second):
            assert_rasters_identical(direct, raster)
        assert "zone_areas" in summary

    def test_swap_to_a_content_identical_network_keeps_every_tile(
        self, ten_station_network
    ):
        from seeded_workloads import seeded_network

        service = RasterService(ten_station_network, tile_size=32)
        box = (Point(-4.0, -4.0), Point(4.0, 4.0), 64)
        before = asyncio.run(service.rasterize(*box))
        twin = seeded_network(10, side=16.0, seed=3)
        assert twin is not ten_station_network
        assert twin.fingerprint == ten_station_network.fingerprint
        assert service.swap_network(twin) == (0, 0)
        assert service.network is twin
        misses = service.cache_stats().misses
        after = asyncio.run(service.rasterize(*box))
        assert_rasters_identical(before, after)
        assert service.cache_stats().misses == misses  # all served warm

    def test_metrics_sample_is_the_backing_caches(self, ten_station_network):
        shared = TileCache(tile_size=32)
        service = RasterService(ten_station_network, cache=shared)
        asyncio.run(service.rasterize(Point(-4.0, -4.0), Point(4.0, 4.0), 64))
        assert service.metrics_sample() == shared.metrics_sample()
        assert service.metrics_sample()["misses"] == 4.0

    def test_configuration_validation(self, ten_station_network):
        with pytest.raises(ServiceError):
            RasterService(
                ten_station_network, cache=TileCache(), max_bytes=1024
            )
        with pytest.raises(ServiceError):
            RasterService(ten_station_network, max_concurrency=0)

    @pytest.mark.parametrize(
        "lower_left,upper_right,message",
        [
            (Point(math.nan, 0.0), Point(5.0, 5.0), "finite bounding box"),
            (Point(0.0, 0.0), Point(5.0, math.nan), "finite bounding box"),
            (Point(-math.inf, 0.0), Point(5.0, 5.0), "finite bounding box"),
            (Point(-1e308, -1e308), Point(1e308, 1e308), "finite bounding box"),
            (Point(0.0, 0.0), Point(math.inf, 1.0), "finite bounding box"),
            (Point(0.0, 0.0), Point(1e-322, 1e-322), "pixel pitch"),
        ],
        ids=["nan-corner", "nan-side", "minus-inf-corner", "overflowing-width",
             "infinite-width", "underflowing-pitch"],
    )
    def test_non_finite_boxes_are_rejected_before_any_tile_work(
        self, ten_station_network, lower_left, upper_right, message
    ):
        """A box with a non-finite extent, or one whose pixel pitch
        underflows, fails its own request with ``DiagramError``, computes no
        tile, and leaves the service serving."""
        service = RasterService(ten_station_network, tile_size=32)
        box = (Point(-4.0, -4.0), Point(4.0, 4.0), 64)

        async def drive():
            with pytest.raises(DiagramError, match=message):
                await service.rasterize(lower_left, upper_right, 50)
            assert service.cache_stats().misses == 0
            return await service.rasterize(*box)

        raster = asyncio.run(drive())
        direct = SINRDiagram(ten_station_network).rasterize(*box)
        assert_rasters_identical(direct, raster)


# ----------------------------------------------------------------------
# The experiment harness entry
# ----------------------------------------------------------------------
def test_raster_cache_experiment_reproduces():
    from repro.analysis import run_raster_cache

    result = run_raster_cache(resolution=64)
    assert result.reproduced, result.measured
    assert result.details["identical"]
    assert result.details["hits"] > 0


# ----------------------------------------------------------------------
# Tile-granular invalidation (dynamic networks)
# ----------------------------------------------------------------------
class TestDeltaInvalidation:
    """``invalidate_region`` / ``invalidate_for_delta`` contracts.

    A station move drops only the tiles inside the moved station's
    certified-reach boxes and re-keys the rest to the new fingerprint;
    anything re-keying cannot justify (churn, parameter changes) falls
    back to the full old-fingerprint flush.
    """

    BOX = (Point(-8.0, -8.0), Point(8.0, 8.0))

    def _warm(self, network, resolution=64, tile_size=8):
        # 2-world-unit tiles: the moved station's certified reach (~4.3
        # units in ``noisy_network``) covers the centre of the 8x8 grid
        # but leaves the border tiles untouched, so both the re-key and
        # the drop paths are exercised.
        cache = TileCache(tile_size=tile_size)
        SINRDiagram(network).rasterize(*self.BOX, resolution, cache=cache)
        return cache

    def test_invalidate_region_requires_distinct_fingerprints(self, noisy_network):
        cache = self._warm(noisy_network)
        with pytest.raises(RasterCacheError):
            cache.invalidate_region(
                noisy_network.fingerprint, noisy_network.fingerprint, None
            )

    def test_full_flush_spares_other_fingerprints(
        self, noisy_network, ten_station_network
    ):
        cache = TileCache(tile_size=16)
        SINRDiagram(noisy_network).rasterize(*self.BOX, 64, cache=cache)
        first = cache.stats().tiles
        SINRDiagram(ten_station_network).rasterize(*self.BOX, 64, cache=cache)
        total = cache.stats().tiles

        moved = noisy_network.with_station_moved(0, Point(0.5, 0.5))
        rekeyed, dropped = cache.invalidate_region(
            noisy_network.fingerprint, moved.fingerprint, None
        )
        assert (rekeyed, dropped) == (0, first)
        stats = cache.stats()
        assert stats.tiles == total - first
        assert stats.invalidated == first and stats.rekeyed == 0
        # The surviving tiles still answer for the untouched network.
        before = stats.misses
        SINRDiagram(ten_station_network).rasterize(*self.BOX, 64, cache=cache)
        assert cache.stats().misses == before

    def test_move_rekeys_far_tiles_and_drops_near_ones(self, noisy_network):
        from repro.model import move_station
        from repro.raster import affected_boxes, invalidate_for_delta

        cache = self._warm(noisy_network)
        warm_tiles = cache.stats().tiles
        moved, delta = move_station(noisy_network, 0, Point(0.3, 0.2))
        boxes = affected_boxes(noisy_network, moved, delta)
        assert len(boxes) == 2  # the station's reach, before and after

        rekeyed, dropped = invalidate_for_delta(cache, noisy_network, moved, delta)
        assert rekeyed > 0 and dropped > 0
        assert rekeyed + dropped == warm_tiles
        stats = cache.stats()
        assert stats.rekeyed == rekeyed and stats.invalidated == dropped

        # Re-serving the same box against the new network hits every
        # re-keyed tile and recomputes exactly the dropped ones.
        hits_before, misses_before = stats.hits, stats.misses
        SINRDiagram(moved).rasterize(*self.BOX, 64, cache=cache)
        stats = cache.stats()
        assert stats.hits - hits_before == rekeyed
        assert stats.misses - misses_before == dropped

    def test_tiny_move_labels_stay_exact(self, noisy_network):
        """Far from the margin the re-keyed labels are the true labels: a
        microscopic move shifts interference by less than any pixel's
        reception margin in this deterministic fixture."""
        from repro.model import move_station
        from repro.raster import invalidate_for_delta

        cache = self._warm(noisy_network)
        station = noisy_network.stations[0]
        moved, delta = move_station(
            noisy_network, 0, Point(station.x + 1e-4, station.y)
        )
        invalidate_for_delta(cache, noisy_network, moved, delta)
        served = SINRDiagram(moved).rasterize(*self.BOX, 64, cache=cache)
        direct = SINRDiagram(moved).rasterize(*self.BOX, 64)
        np.testing.assert_array_equal(served.labels, direct.labels)

    def test_churn_falls_back_to_full_drop(self, noisy_network):
        from repro.model import remove_station
        from repro.raster import invalidate_for_delta

        cache = self._warm(noisy_network)
        warm_tiles = cache.stats().tiles
        shrunk, delta = remove_station(noisy_network, 2)
        assert not delta.index_preserving
        rekeyed, dropped = invalidate_for_delta(cache, noisy_network, shrunk, delta)
        assert (rekeyed, dropped) == (0, warm_tiles)
        # The recomputed tiles carry the new label space and row count.
        served = SINRDiagram(shrunk).rasterize(*self.BOX, 64, cache=cache)
        direct = SINRDiagram(shrunk).rasterize(*self.BOX, 64)
        assert_rasters_identical(direct, served)

    def test_parameter_change_falls_back_to_full_drop(self, noisy_network):
        from repro.raster import invalidate_for_delta

        cache = self._warm(noisy_network)
        warm_tiles = cache.stats().tiles
        louder = noisy_network.with_noise(0.05)
        rekeyed, dropped = invalidate_for_delta(cache, noisy_network, louder)
        assert (rekeyed, dropped) == (0, warm_tiles)

    def test_unchanged_network_is_a_noop(self, noisy_network):
        from repro.raster import invalidate_for_delta

        cache = self._warm(noisy_network)
        twin = WirelessNetwork.uniform(
            [(s.x, s.y) for s in noisy_network.stations],
            noise=noisy_network.noise,
            beta=noisy_network.beta,
        )
        assert invalidate_for_delta(cache, noisy_network, twin) == (0, 0)
        assert cache.stats().rekeyed == 0 and cache.stats().invalidated == 0

    def test_raster_service_swap_network(self, noisy_network):
        from repro.model import move_station

        service = RasterService(noisy_network, tile_size=8)
        box = (*self.BOX, 64)
        asyncio.run(service.rasterize(*box))
        moved, delta = move_station(noisy_network, 0, Point(0.3, 0.2))

        rekeyed, dropped = service.swap_network(moved, delta)
        assert rekeyed > 0 and dropped > 0
        assert service.network is moved

        served = asyncio.run(service.rasterize(*box))
        direct = SINRDiagram(moved).rasterize(*box)
        # Labels agree away from the reception margin; dropped tiles were
        # recomputed, so the moved station's neighbourhood is exact.
        agreement = np.mean(served.labels == direct.labels)
        assert agreement > 0.99

    def test_retired_network_tiles_are_served_but_never_stored(
        self, noisy_network
    ):
        """A request that straddles a swap finishes against the old network:
        it gets its tiles, and they count as rejected instead of parking
        under a fingerprint nothing will serve again."""
        from repro.model import move_station
        from repro.raster import invalidate_for_delta

        cache = self._warm(noisy_network)
        moved, delta = move_station(noisy_network, 0, Point(0.3, 0.2))
        invalidate_for_delta(cache, noisy_network, moved, delta)
        before = cache.stats()
        stale = SINRDiagram(noisy_network).rasterize(*self.BOX, 64, cache=cache)
        assert_rasters_identical(
            SINRDiagram(noisy_network).rasterize(*self.BOX, 64), stale
        )
        after = cache.stats()
        assert after.misses - before.misses == 64  # 8 x 8 tiles, none left
        assert after.rejected - before.rejected == 64
        assert after.tiles == before.tiles
        assert after.stored_bytes == before.stored_bytes
        assert after.evictions == before.evictions == 0

    def test_a_network_that_returns_is_cached_again(self, noisy_network):
        from repro.raster import invalidate_for_delta

        moved = noisy_network.with_station_moved(0, Point(0.3, 0.2))
        cache = self._warm(noisy_network)
        invalidate_for_delta(cache, noisy_network, moved)
        invalidate_for_delta(cache, moved, noisy_network)
        assert cache.stats().tiles < 64  # the move dropped some tiles
        SINRDiagram(noisy_network).rasterize(*self.BOX, 64, cache=cache)
        stats = cache.stats()
        assert stats.rejected == 0 and stats.tiles == 64
        # The network moved away from is now the retired one.
        SINRDiagram(moved).rasterize(*self.BOX, 64, cache=cache)
        stats = cache.stats()
        assert stats.rejected == 64 and stats.tiles == 64

    def test_swap_serves_the_new_networks_sinr_values(self):
        """Re-keyed tiles keep their labels, but a raster served after the
        swap computes its SINR values from the new network, bit for bit."""
        from repro.model import move_station

        network = uniform_random_network(
            12, side=12.0, minimum_separation=1.5, noise=0.01, beta=2.0, seed=3
        )
        box = (Point(-2.0, -2.0), Point(14.0, 14.0), 128)
        service = RasterService(network, tile_size=16)
        asyncio.run(service.rasterize(*box))
        x, y = network.coords[0]
        moved, delta = move_station(network, 0, Point(x + 0.7, y + 0.4))
        rekeyed, _ = service.swap_network(moved, delta)
        assert rekeyed > 0
        served = asyncio.run(service.rasterize(*box))
        direct = SINRDiagram(moved).rasterize(*box)
        np.testing.assert_array_equal(direct.sinr_values, served.sinr_values)
        assert np.mean(served.labels == direct.labels) > 0.99
