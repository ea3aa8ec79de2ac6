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
from repro.engine import NumpyBackend
from repro.exceptions import DiagramError, RasterCacheError
from repro.model.diagram import RasterLattice, raster_lattices
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

    #: World units per pixel of the edge-case requests: a power of two, so
    #: box corners sit exactly on the lattice the request names.
    PITCH = 1.0 / 8.0

    @classmethod
    def edge_requests(cls, size):
        """``(name, start_x, count_x, start_y, count_y, phase)`` requests, in
        pixels of the global lattice, for tile size ``size``."""
        return [
            # Start and stop inside tiles on all four sides, at negative
            # tile indices too.
            ("inside", -size - 3, 3 * size + 8, -2 * size + 5, 2 * size + 1, 0.0),
            ("whole tiles", -size, 2 * size, 0, size, 0.0),
            ("one tile, inner", 3, size - 7, -size + 2, size - 5, 0.0),
            ("one whole tile", size, size, -size, size, 0.0),
            # Two pixels wide: one pixel of each of two tiles, on each axis.
            ("one-pixel overlaps", size - 1, 2, -1, 2 * size + 2, 0.0),
            ("phase", -size - 3, 3 * size + 8, -2 * size + 5, 2 * size + 1, 0.37),
        ]

    @classmethod
    def box(cls, start_x, count_x, start_y, count_y, phase):
        """The ``rasterize`` arguments of a request, checked to name it."""
        pitch = cls.PITCH
        lower_left = Point((start_x + phase) * pitch, (start_y + phase) * pitch)
        upper_right = Point(
            lower_left.x + count_x * pitch, lower_left.y + count_y * pitch
        )
        resolution = max(count_x, count_y)
        lattice_x, lattice_y = raster_lattices(lower_left, upper_right, resolution)
        for lattice, start, count in (
            (lattice_x, start_x, count_x), (lattice_y, start_y, count_y)
        ):
            assert (lattice.start, lattice.count) == (start, count)
            assert lattice.pitch == pitch
            assert (lattice.phase == 0.0) == (phase == 0.0)
        return lower_left, upper_right, resolution

    @pytest.mark.parametrize("tile_size", [16, 48, 64, 100])
    def test_edge_requests_cold_warm_and_served(self, diagram, tile_size):
        """Requests cut tiles on every side, fit in one tile, overlap tiles
        by one pixel, sit at negative indices or off the zero-phase
        lattice, with tile sizes that do not divide them: served cold and
        warm through ``rasterize(cache=...)`` and through
        :class:`RasterService`, each equals the uncached raster."""
        cache = TileCache(tile_size=tile_size)
        service = RasterService(
            diagram.network, cache=TileCache(tile_size=tile_size)
        )
        for name, *request in self.edge_requests(tile_size):
            box = self.box(*request)
            direct = diagram.rasterize(*box)
            cold = diagram.rasterize(*box, cache=cache)
            misses = cache.stats().misses
            warm = diagram.rasterize(*box, cache=cache)
            assert cache.stats().misses == misses, name
            served = [asyncio.run(service.rasterize(*box)) for _ in range(2)]
            for raster in (cold, warm, *served):
                assert_rasters_identical(direct, raster)

    def test_one_pixel_lattices_match_the_uncached_labels(self, diagram):
        """Lattices one pixel wide, which ``rasterize``'s resolution floor
        of 2 cannot ask for, assemble through ``rasterize_tiled`` too."""
        from repro import raster
        from repro.engine import active_backend
        from repro.model.diagram import RasterDiagram, raster_labels

        cache = TileCache(tile_size=16)
        for start_x, count_x, start_y, count_y in (
            (-17, 1, -40, 37), (15, 1, 16, 1), (-1, 33, 7, 1)
        ):
            lattice_x = RasterLattice(self.PITCH, 0.0, start_x, count_x)
            lattice_y = RasterLattice(self.PITCH, 0.0, start_y, count_y)
            backend = active_backend()
            labels = raster_labels(
                diagram.network, lattice_x.centers(), lattice_y.centers(), backend
            )
            direct = RasterDiagram._with_deferred_sinr(
                diagram.network, lattice_x, lattice_y, labels, backend
            )
            for _ in range(2):  # cold, then a full hit
                assert_rasters_identical(
                    direct,
                    raster.rasterize_tiled(diagram.network, lattice_x, lattice_y, cache),
                )

    @staticmethod
    def reference_assembly(tiles, lattice_x, lattice_y, size):
        """The per-tile overlap loop the assembly replaced: each tile's
        overlap with the request worked out from scratch, in global pixel
        indices.  ``tiles`` maps ``(tile_x, tile_y)`` to a label block."""
        gx0, gy0 = lattice_x.start, lattice_y.start
        labels = np.empty((lattice_y.count, lattice_x.count), dtype=np.intp)
        for tile_y in range(gy0 // size, (lattice_y.stop - 1) // size + 1):
            for tile_x in range(gx0 // size, (lattice_x.stop - 1) // size + 1):
                overlap_x0 = max(gx0, tile_x * size)
                overlap_x1 = min(lattice_x.stop, (tile_x + 1) * size)
                overlap_y0 = max(gy0, tile_y * size)
                overlap_y1 = min(lattice_y.stop, (tile_y + 1) * size)
                out_cols = slice(overlap_x0 - gx0, overlap_x1 - gx0)
                out_rows = slice(overlap_y0 - gy0, overlap_y1 - gy0)
                in_cols = slice(overlap_x0 - tile_x * size, overlap_x1 - tile_x * size)
                in_rows = slice(overlap_y0 - tile_y * size, overlap_y1 - tile_y * size)
                labels[out_rows, out_cols] = tiles[tile_x, tile_y][in_rows, in_cols]
        return labels

    def test_assembly_matches_the_reference_over_random_lattices(
        self, diagram, seeded_rng, monkeypatch
    ):
        """Random tile contents, so a misplaced pixel cannot hide: the
        assembly equals the reference loop on random lattices and tile
        sizes, from resident tiles (a full hit) and from computed ones."""
        import repro.raster.tiles as tiles_module
        from repro import raster

        network = diagram.network
        for _ in range(40):
            size = int(seeded_rng.choice([1, 2, 3, 7, 16, 48, 64, 100]))
            phase = float(seeded_rng.choice([0.0, 0.03125]))
            lattice_x, lattice_y = (
                RasterLattice(
                    self.PITCH, phase,
                    int(seeded_rng.integers(-300, 300)),
                    int(seeded_rng.integers(1, 250)),
                )
                for _ in range(2)
            )
            tiles = {
                (tile_x, tile_y): seeded_rng.integers(
                    -1, 1000, size=(size, size)
                ).astype(np.intp)
                for tile_y in range(lattice_y.start // size,
                                    (lattice_y.stop - 1) // size + 1)
                for tile_x in range(lattice_x.start // size,
                                    (lattice_x.stop - 1) // size + 1)
            }
            monkeypatch.setattr(
                tiles_module, "compute_tile",
                lambda network, lx, ly, tile_x, tile_y, *rest: tiles[tile_x, tile_y],
            )
            expected = self.reference_assembly(tiles, lattice_x, lattice_y, size)
            cache = TileCache(tile_size=size)
            computed = raster.rasterize_tiled(network, lattice_x, lattice_y, cache)
            resident = raster.rasterize_tiled(network, lattice_x, lattice_y, cache)
            stats = cache.stats()
            assert (stats.misses, stats.hits) == (len(tiles), len(tiles))
            np.testing.assert_array_equal(computed.labels, expected)
            np.testing.assert_array_equal(resident.labels, expected)

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

    #: A scripted request sequence over ``noisy_network`` with 16 px tiles
    #: at pitch 1/8 and a 20-tile budget.  Per step: its name, the network
    #: it asks for (``None``: the swap moving station 3 by (0.2, 0.1)), its
    #: box, then ``(hits, misses, rejected, evictions, rekeyed,
    #: invalidated)`` and the LRU order (oldest first) after it, as the
    #: per-tile assembly recorded them.  The straddling request asks for
    #: the old network after the swap.
    SEQUENCE = [
        ("cold", "old", (Point(-3, -3), Point(3, 3), 48), (0, 16, 0, 0, 0, 0),
         "-2,-2 -1,-2 0,-2 1,-2 -2,-1 -1,-1 0,-1 1,-1 -2,0 -1,0 0,0 1,0 "
         "-2,1 -1,1 0,1 1,1"),
        ("warm", "old", (Point(-3, -3), Point(3, 3), 48), (16, 16, 0, 0, 0, 0),
         "-2,-2 -1,-2 0,-2 1,-2 -2,-1 -1,-1 0,-1 1,-1 -2,0 -1,0 0,0 1,0 "
         "-2,1 -1,1 0,1 1,1"),
        ("pan", "old", (Point(-1, -3), Point(5, 3), 48), (28, 20, 0, 0, 0, 0),
         "-2,-2 -2,-1 -2,0 -2,1 -1,-2 0,-2 1,-2 2,-2 -1,-1 0,-1 1,-1 2,-1 "
         "-1,0 0,0 1,0 2,0 -1,1 0,1 1,1 2,1"),
        ("zoom", "old", (Point(-1, -1), Point(1, 1), 16), (32, 20, 0, 0, 0, 0),
         "-2,-2 -2,-1 -2,0 -2,1 -1,-2 0,-2 1,-2 2,-2 1,-1 2,-1 1,0 2,0 "
         "-1,1 0,1 1,1 2,1 -1,-1 0,-1 -1,0 0,0"),
        ("evict", "old", (Point(5, -3), Point(7, -1), 16), (34, 22, 0, 2, 0, 0),
         "-2,0 -2,1 -1,-2 0,-2 1,-2 1,-1 1,0 2,0 -1,1 0,1 1,1 2,1 "
         "-1,-1 0,-1 -1,0 0,0 2,-2 3,-2 2,-1 3,-1"),
        ("swap", None, None, (34, 22, 0, 2, 14, 6),
         "-2,0 -2,1 -1,-2 0,-2 1,-2 1,-1 -1,1 -1,-1 0,-1 -1,0 "
         "2,-2 3,-2 2,-1 3,-1"),
        ("straddle", "old", (Point(-3, -3), Point(3, 3), 48), (44, 28, 6, 2, 14, 6),
         "2,-2 3,-2 2,-1 3,-1 -1,-2 0,-2 1,-2 -1,-1 0,-1 1,-1 -2,0 -1,0 "
         "-2,1 -1,1"),
        ("after", "new", (Point(-1, -3), Point(5, 3), 48), (54, 34, 6, 2, 14, 6),
         "3,-2 3,-1 -2,0 -2,1 -1,-2 0,-2 1,-2 2,-2 -1,-1 0,-1 1,-1 2,-1 "
         "-1,0 0,0 1,0 2,0 -1,1 0,1 1,1 2,1"),
    ]

    @pytest.mark.parametrize("path", ["rasterize", "service"])
    def test_a_scripted_sequence_keeps_counts_and_lru_order(
        self, noisy_network, path
    ):
        """Cold, warm, pan, zoom, an eviction, a swap, a request straddling
        it and one after it: the counters and the LRU order after every
        step are the per-tile assembly's, through both serving paths."""
        from repro.model import move_station
        from repro.raster import invalidate_for_delta

        moved, delta = move_station(noisy_network, 3, Point(6.2, 6.1))
        networks = {"old": noisy_network, "new": moved}
        tags = {network.fingerprint: tag for tag, network in networks.items()}
        tile_bytes = 16 * 16 * np.dtype(np.intp).itemsize
        cache = TileCache(max_bytes=20 * tile_bytes, tile_size=16)
        service = RasterService(noisy_network, cache=cache)
        straddler = RasterService(noisy_network, cache=cache)

        def step(network, box):
            if box is None:
                if path == "service":
                    service.swap_network(moved, delta)
                else:
                    invalidate_for_delta(cache, noisy_network, moved, delta)
            elif path == "rasterize":
                SINRDiagram(networks[network]).rasterize(*box, cache=cache)
            elif service.network is networks[network]:
                asyncio.run(service.rasterize(*box))
            else:
                asyncio.run(straddler.rasterize(*box))

        swapped = False
        for name, network, box, counts, order in self.SEQUENCE:
            step(network, box)
            swapped = swapped or box is None
            stats = cache.stats()
            assert (
                stats.hits, stats.misses, stats.rejected, stats.evictions,
                stats.rekeyed, stats.invalidated,
            ) == counts, name
            tag = "new" if swapped else "old"  # the swap re-keyed every tile
            assert [
                (tags[key[0]], f"{key[7]},{key[8]}") for key in cache._store
            ] == [(tag, place) for place in order.split()], name

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

    def test_validation(self):
        """Both options take integers >= 1 only: a float, a bool or a
        string raises instead of being truncated (``max_bytes=0.5`` built a
        0-byte budget that rejected every tile, ``tile_size=True`` a 1-px
        tile) or failing with a bare ``TypeError``."""
        bad = [
            {"max_bytes": 0}, {"max_bytes": -1}, {"max_bytes": 0.5},
            {"max_bytes": 1000.0}, {"max_bytes": "1000"}, {"max_bytes": True},
            {"max_bytes": None}, {"tile_size": 0}, {"tile_size": 2.5},
            {"tile_size": True}, {"tile_size": np.float64(16.0)},
            {"tile_size": np.bool_(True)},
        ]
        for options in bad:
            with pytest.raises(RasterCacheError, match="integer >= 1"):
                TileCache(**options)
        cache = TileCache(max_bytes=np.int64(4096), tile_size=np.int32(16))
        assert (cache.max_bytes, cache.tile_size) == (4096, 16)
        assert type(cache.max_bytes) is int and type(cache.tile_size) is int

    @pytest.mark.parametrize(
        "bad",
        [123, True, False, 0, "default", TileCache],
        ids=["number", "true", "false", "zero", "name", "class"],
    )
    def test_cache_argument_must_be_a_tile_cache_or_none(self, diagram, bad):
        """``rasterize`` takes ``cache=None`` or a :class:`TileCache`; every
        other value (``True`` named a process-wide cache that is gone)
        raises, on the diagram and at ``RasterService`` construction."""
        with pytest.raises(RasterCacheError, match="TileCache or None"):
            diagram.rasterize(Point(-4, -4), Point(4, 4), 32, cache=bad)
        with pytest.raises(RasterCacheError, match="TileCache or None"):
            RasterService(diagram.network, cache=bad)

    @pytest.mark.parametrize(
        "resolution",
        [100.5, 64.0, np.float64(64.0), "64", None, True, np.bool_(True), 1, -3],
        ids=["fraction", "whole-float", "numpy-float", "string", "none", "bool",
             "numpy-bool", "one", "negative"],
    )
    def test_resolution_must_be_an_integer_of_at_least_two(
        self, diagram, resolution
    ):
        """Uncached, cached and served, a resolution that is not an integer
        >= 2 raises ``DiagramError`` (a float was truncated into a 100 x 101
        raster without a cache and failed with a bare ``TypeError`` with
        one), and no tile is computed."""
        box = (Point(0.0, 0.0), Point(10.0, 10.0))
        cache = TileCache(tile_size=16)
        with pytest.raises(DiagramError, match="integer resolution >= 2"):
            diagram.rasterize(*box, resolution)
        with pytest.raises(DiagramError, match="integer resolution >= 2"):
            diagram.rasterize(*box, resolution, cache=cache)
        service = RasterService(diagram.network, cache=cache)
        with pytest.raises(DiagramError, match="integer resolution >= 2"):
            asyncio.run(service.rasterize(*box, resolution))
        assert cache.stats().requests == 0

    def test_any_integer_type_is_a_resolution(self, diagram):
        box = (Point(0.0, 0.0), Point(10.0, 7.0))
        expected = diagram.rasterize(*box, 40)
        for resolution in (np.int64(40), np.int32(40)):
            assert_rasters_identical(expected, diagram.rasterize(*box, resolution))
            assert_rasters_identical(
                expected,
                diagram.rasterize(*box, resolution, cache=TileCache(tile_size=16)),
            )


# ----------------------------------------------------------------------
# SINR values computed on first read
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, name):
    """The point counts of every ``engine.batch.<name>`` call."""
    import repro.engine.batch as engine_batch

    calls = []
    original = getattr(engine_batch, name)

    def counting(network, points, *args, **kwargs):
        calls.append(len(points))
        return original(network, points, *args, **kwargs)

    monkeypatch.setattr(engine_batch, name, counting)
    return calls


@pytest.fixture
def sinr_batch_calls(monkeypatch):
    """The point counts of every ``engine.batch.sinr_batch`` call."""
    return _count_calls(monkeypatch, "sinr_batch")


@pytest.fixture
def heard_station_calls(monkeypatch):
    """The point counts of every ``engine.batch.heard_station_batch`` call:
    one per computed tile."""
    return _count_calls(monkeypatch, "heard_station_batch")


class TestDeferredSinrValues:
    def test_unread_sinr_costs_only_the_missing_tiles(
        self, diagram, heard_station_calls, sinr_batch_calls
    ):
        cache = TileCache(tile_size=16)
        diagram.rasterize(Point(-8.0, -8.0), Point(0.0, 8.0), 64, cache=cache)
        assert len(heard_station_calls) == cache.stats().misses == 8
        heard_station_calls.clear()
        # The full box: 8 of its 16 tiles are warm.
        diagram.rasterize(Point(-8.0, -8.0), Point(8.0, 8.0), 64, cache=cache)
        assert heard_station_calls == [16 * 16] * 8
        heard_station_calls.clear()
        raster = diagram.rasterize(Point(-8.0, -8.0), Point(8.0, 8.0), 64, cache=cache)
        # A full hit is lookups and label copies.
        assert heard_station_calls == []
        assert sinr_batch_calls == []
        # The first read is one engine call over the request's own pixels.
        values = raster.sinr_values
        assert sinr_batch_calls == [64 * 64]
        assert raster.sinr_values is values
        assert sinr_batch_calls == [64 * 64]
        assert heard_station_calls == []
        direct = diagram.rasterize(Point(-8.0, -8.0), Point(8.0, 8.0), 64)
        assert_rasters_identical(direct, raster)

    def test_an_uncached_raster_labels_in_one_call_and_defers_its_sinr(
        self, diagram, heard_station_calls, sinr_batch_calls
    ):
        raster = diagram.rasterize(Point(-8.0, -8.0), Point(8.0, 8.0), 64)
        assert heard_station_calls == [64 * 64]
        assert sinr_batch_calls == []
        values = raster.sinr_values
        assert sinr_batch_calls == [64 * 64]
        assert raster.sinr_values is values
        assert heard_station_calls == [64 * 64]

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

    def test_lookup_is_all_or_nothing(self):
        """``lookup`` returns every tile when all are resident (one hit each,
        recency refreshed) and ``None`` otherwise, counting and computing
        nothing."""
        cache = TileCache(max_bytes=300)
        self.fill(cache, "fp", 3)
        keys = [tile_key("fp", 0), tile_key("fp", 1)]
        assert cache.lookup(keys + [tile_key("fp", 7)]) is None
        assert (cache.stats().hits, cache.stats().misses) == (0, 3)
        tiles = cache.lookup(keys)
        assert [tile.nbytes for tile in tiles] == [100, 100]
        assert cache.stats().hits == 2
        # Tiles 0 and 1 are now the most recent: a new one evicts tile 2.
        self.fill(cache, "other", 1)
        assert cache.lookup(keys) is not None
        assert cache.lookup([tile_key("fp", 2)]) is None

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

    @staticmethod
    def race(cache, key, workers):
        """``workers`` threads asking for ``key`` at once: ``(the tiles they
        got, how many factory calls ran)``."""
        calls = []
        barrier = threading.Barrier(workers)

        def factory():
            calls.append(1)
            time.sleep(0.05)  # hold the single flight open
            return FakeTile()

        def request(_):
            barrier.wait()
            return cache.get_or_compute(key, factory)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            tiles = list(pool.map(request, range(workers)))
        return tiles, len(calls)

    def test_concurrent_misses_of_one_key_compute_once(self):
        cache = TileCache()
        workers = 6
        tiles, calls = self.race(cache, tile_key("fp"), workers)
        assert calls == 1
        assert all(tile is tiles[0] for tile in tiles)
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == workers - 1

    @pytest.mark.parametrize("unstored", ["retired", "oversized"])
    def test_waiters_share_a_tile_the_owner_could_not_store(self, unstored):
        """The owner hands its tile to the threads waiting on it, also when
        the tile is rejected: each waiter used to find the store empty and
        compute the tile again, one after another."""
        if unstored == "retired":
            cache = TileCache()
            cache.invalidate_region("fp", "next", None)
        else:
            cache = TileCache(max_bytes=50)  # less than one 100-byte tile
        tiles, calls = self.race(cache, tile_key("fp"), 4)
        assert calls == 1
        assert all(tile is tiles[0] for tile in tiles)
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.rejected) == (1, 3, 1)
        assert stats.tiles == 0

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

    def test_a_nan_box_is_refused_before_anything_changes(self):
        """NaN overlaps nothing, so a NaN box used to re-key every tile;
        it now raises, leaving the store, the retired fingerprints and the
        latest swap as they were.  Infinite boxes overlap every tile."""
        cache = TileCache()
        self.fill(cache, "a", 2)
        assert cache.invalidate_region("a", "b", [(2.5, 0.5, 3.5, 1.5)]) == (1, 1)
        self.fill(cache, "old", 4)
        before = cache.stats()
        nan, inf = math.nan, math.inf
        for box in [(nan, nan, nan, nan), (0.0, 0.0, nan, 1.0)]:
            with pytest.raises(RasterCacheError, match="NaN"):
                cache.invalidate_region("old", "new", [(-3.0, -3.0, -1.0, -1.0), box])
        assert cache.stats() == before
        # "old" is still live: its tiles hit and a new one is stored ...
        self.fill(cache, "old", 5)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.rejected) == (4, 7, 0)
        # ... and the swap from "a" still carries tile 0.
        (carried,) = cache.lookup([tile_key("a", 0)])
        assert cache.lookup([tile_key("b", 0)]) == [carried]
        assert cache.invalidate_region(
            "old", "new", [(-inf, -inf, inf, inf)]
        ) == (0, 5)

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


class TestStraddlingLookups:
    """A key of the fingerprint the latest swap retired is answered by the
    successor's tile wherever the swap re-keyed, that is where the tile
    touches none of the swap's boxes; every other retired key computes."""

    #: Inside tile 1 only: "old" tiles 0..3 span x in [0, 8].
    BOXES = [(2.5, 0.5, 3.5, 1.5)]

    def swapped(self) -> TileCache:
        cache = TileCache()
        for index in range(4):
            cache.get_or_compute(tile_key("old", index), FakeTile)
        assert cache.invalidate_region("old", "new", self.BOXES) == (3, 1)
        return cache

    @staticmethod
    def unreachable():
        raise AssertionError("a carried tile must not be computed")

    def test_outside_the_boxes_the_successors_tile_is_served(self):
        cache = self.swapped()
        (successor,) = cache.lookup([tile_key("new", 2)])
        before = cache.stats()
        assert cache.get_or_compute(tile_key("old", 2), self.unreachable) is successor
        after = cache.stats()
        assert after.hits - before.hits == 1
        assert (after.misses, after.rejected) == (before.misses, before.rejected)

    def test_a_carried_hit_refreshes_the_successors_tile(self):
        cache = TileCache(max_bytes=300)
        for index in range(3):
            cache.get_or_compute(tile_key("old", index), FakeTile)
        cache.invalidate_region("old", "new", [(10.0, 10.0, 11.0, 11.0)])
        cache.get_or_compute(tile_key("old", 0), self.unreachable)  # now newest
        cache.get_or_compute(tile_key("new", 3), FakeTile)  # evicts "new" 1
        assert cache.lookup([tile_key("new", 0), tile_key("new", 2)]) is not None
        assert cache.lookup([tile_key("new", 1)]) is None

    def test_inside_a_box_the_old_tile_is_computed_and_rejected(self):
        cache = self.swapped()
        fresh = cache.get_or_compute(tile_key("new", 1), FakeTile)
        stale = FakeTile()
        assert cache.get_or_compute(tile_key("old", 1), lambda: stale) is stale
        stats = cache.stats()
        assert (stats.misses, stats.rejected, stats.tiles) == (6, 1, 4)
        assert cache.lookup([tile_key("new", 1)]) == [fresh]
        assert cache.lookup([tile_key("old", 1)]) is None

    def test_lookup_follows_the_same_rule(self):
        cache = self.swapped()
        carried = [tile_key("old", index) for index in (0, 2, 3)]
        successors = cache.lookup([tile_key("new", index) for index in (0, 2, 3)])
        hits = cache.stats().hits
        found = cache.lookup(carried)
        assert all(tile is new for tile, new in zip(found, successors))
        assert cache.stats().hits == hits + 3
        assert cache.lookup(carried + [tile_key("old", 1)]) is None
        assert cache.stats().hits == hits + 3

    def test_a_tile_computed_for_the_retired_network_is_stored_under_no_key(self):
        """Outside the boxes, where the successor holds no tile, the retired
        key computes its own: stored under the successor's key it would
        answer the new network with the old one's labels."""
        cache = self.swapped()
        stale = FakeTile()
        assert cache.get_or_compute(tile_key("old", 5), lambda: stale) is stale
        assert cache.lookup([tile_key("old", 5)]) is None
        assert cache.lookup([tile_key("new", 5)]) is None
        stats = cache.stats()
        assert (stats.rejected, stats.tiles) == (1, 3)

    def test_only_the_latest_box_swap_carries(self):
        cache = self.swapped()
        assert cache.invalidate_region("new", "newer", []) == (3, 0)
        # "new" is one swap old, "old" two.
        (carried,) = cache.lookup([tile_key("new", 2)])
        assert cache.lookup([tile_key("newer", 2)]) == [carried]
        assert cache.lookup([tile_key("old", 2)]) is None
        stale = FakeTile()
        assert cache.get_or_compute(tile_key("old", 2), lambda: stale) is stale
        # A full flush carries nothing, though "newer" still holds tiles.
        cache.invalidate_region("other", "another", None)
        assert cache.lookup([tile_key("newer", 2)]) is not None
        assert cache.lookup([tile_key("new", 2)]) is None
        assert cache.stats().rejected == 1

    def test_threaded_lookups_across_swaps_lose_no_count(self):
        """Eight threads, more than the cores, fetch tiles of the live and
        the just-retired fingerprint while a ninth swaps, under a short
        switch interval: every lookup is one hit or one miss, every miss
        ran one factory call, and every tile served sits at the requested
        place.  All nine start at a barrier, the workers keep looking up
        until the swapper is done, and the swapper retires a fingerprint
        only after the workers made lookups under it, so lookups and swaps
        overlap on every run."""
        fingerprints = [f"fp{index}" for index in range(40)]
        workers = 8
        cache = TileCache()
        live = [0]
        calls = []
        misplaced = []
        lookups = [0] * workers
        start = threading.Barrier(workers + 1)
        swapped = threading.Event()
        deadline = time.monotonic() + 30.0

        def worker(slot):
            rng = np.random.default_rng(slot)
            start.wait(timeout=60.0)
            while not swapped.is_set():
                generation = max(live[0] - int(rng.integers(2)), 0)
                key = tile_key(
                    fingerprints[generation],
                    int(rng.integers(6)), int(rng.integers(2)),
                )

                def factory(key=key):
                    calls.append(key)
                    tile = FakeTile()
                    tile.place = key[1:]
                    return tile

                if cache.get_or_compute(key, factory).place != key[1:]:
                    misplaced.append(key)
                lookups[slot] += 1

        def swapper():
            start.wait(timeout=60.0)
            try:
                for index in range(len(fingerprints) - 1):
                    made = sum(lookups)
                    while sum(lookups) < made + workers and time.monotonic() < deadline:
                        time.sleep(0.0005)
                    boxes = None if index % 3 == 0 else TestStraddlingLookups.BOXES
                    cache.invalidate_region(
                        fingerprints[index], fingerprints[index + 1], boxes
                    )
                    live[0] = index + 1
                    time.sleep(0.001)
            finally:
                swapped.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers + 1) as pool:
                jobs = [pool.submit(worker, slot) for slot in range(workers)]
                jobs.append(pool.submit(swapper))
                for job in jobs:
                    job.result(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        stats = cache.stats()
        assert time.monotonic() < deadline  # every swap followed lookups
        assert misplaced == []
        assert stats.hits + stats.misses == sum(lookups)
        assert stats.misses == len(calls)
        assert stats.hits > 0 and stats.rejected > 0


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

            def heard_station(self, *args, **kwargs):
                self.calls += 1
                return self._inner.heard_station(*args, **kwargs)

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
        service = RasterService(
            ten_station_network, cache=TileCache(tile_size=32)
        )
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

    def test_shared_cache_single_flights_concurrent_requests(
        self, ten_station_network
    ):
        shared = TileCache(tile_size=32)
        service = RasterService(ten_station_network, cache=shared)
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

    def test_service_survives_multiple_event_loops(self, ten_station_network):
        """One long-lived service driven from two ``asyncio.run`` calls:
        nothing it holds may bind to the first event loop."""
        service = RasterService(
            ten_station_network, cache=TileCache(tile_size=32)
        )
        box = (Point(-4.0, -4.0), Point(4.0, 4.0), 64)

        async def drive():
            return await asyncio.gather(
                *(service.rasterize(*box) for _ in range(3))
            )

        first = asyncio.run(drive())
        second = asyncio.run(drive())  # a fresh event loop
        direct = SINRDiagram(ten_station_network).rasterize(*box)
        for raster in (*first, *second):
            assert_rasters_identical(direct, raster)
        assert service.cache_stats().misses == 4

    @staticmethod
    def hop_probe(monkeypatch):
        """``(executor jobs, threads that ran compute_tile)`` of the
        requests a test serves, and the patch that counts the jobs."""
        import repro.raster.tiles as tiles

        jobs, computed = [], []
        compute = tiles.compute_tile

        def spy(*args):
            computed.append(threading.get_ident())
            return compute(*args)

        monkeypatch.setattr(tiles, "compute_tile", spy)

        def count_jobs(loop):
            submit = loop.run_in_executor

            def counting(executor, fn, *args):
                jobs.append(fn)
                return submit(executor, fn, *args)

            loop.run_in_executor = counting

        return jobs, computed, count_jobs

    def test_a_full_hit_is_assembled_on_the_loop_thread(
        self, ten_station_network, monkeypatch
    ):
        """A request whose tiles are all resident runs no executor job and
        no ``compute_tile``; a partial hit makes one job that computes
        exactly its missing tiles, off the loop thread."""
        jobs, computed, count_jobs = self.hop_probe(monkeypatch)
        service = RasterService(ten_station_network, cache=TileCache(tile_size=32))
        box = (Point(-4.0, -4.0), Point(4.0, 4.0), 64)
        # Same pitch, shifted by two of the box's four tiles.
        shifted = (Point(0.0, -4.0), Point(8.0, 4.0), 64)

        async def drive():
            count_jobs(asyncio.get_running_loop())
            loop_thread = threading.get_ident()
            cold = await service.rasterize(*box)
            assert (len(jobs), len(computed)) == (1, 4)
            warm = await service.rasterize(*box)
            assert (len(jobs), len(computed)) == (1, 4)
            partial_hit = await service.rasterize(*shifted)
            assert (len(jobs), len(computed)) == (2, 6)
            assert loop_thread not in computed
            return cold, warm, partial_hit

        cold, warm, partial_hit = asyncio.run(drive())
        diagram = SINRDiagram(ten_station_network)
        assert_rasters_identical(diagram.rasterize(*box), cold)
        assert_rasters_identical(diagram.rasterize(*box), warm)
        assert_rasters_identical(diagram.rasterize(*shifted), partial_hit)
        stats = service.cache_stats()
        assert (stats.misses, stats.hits) == (6, 4 + 2)

    def test_a_full_hit_runs_under_the_captured_backend(
        self, ten_station_network, monkeypatch
    ):
        """Full hits look their tiles up under the backend selected when the
        service was built, like the executor path computes them."""
        from repro.engine import use_backend

        jobs, computed, count_jobs = self.hop_probe(monkeypatch)
        with use_backend("reference"):
            service = RasterService(
                ten_station_network, cache=TileCache(tile_size=8)
            )
            expected = SINRDiagram(ten_station_network).rasterize(
                Point(-4.0, -4.0), Point(4.0, 4.0), 16
            )
        box = (Point(-4.0, -4.0), Point(4.0, 4.0), 16)

        async def drive():
            count_jobs(asyncio.get_running_loop())
            return [await service.rasterize(*box) for _ in range(2)]

        for raster in asyncio.run(drive()):
            assert_rasters_identical(expected, raster)
        assert (len(jobs), len(computed)) == (1, 4)

    def test_swap_to_a_content_identical_network_keeps_every_tile(
        self, ten_station_network
    ):
        from seeded_workloads import seeded_network

        service = RasterService(
            ten_station_network, cache=TileCache(tile_size=32)
        )
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
        service = RasterService(
            ten_station_network, cache=TileCache(tile_size=32)
        )
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
class GatedBackend(NumpyBackend):
    """The numpy backend, recording the lower-left corner of every tile it
    labels (16-px tiles at pitch 0.25); while ``armed``, the next tile
    blocks until the test opens ``gate``."""

    def __init__(self):
        self.armed = False
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.origins = []

    def heard_station(self, coords, powers, points, *args):
        x, y = points.min(axis=0) - 0.125  # the first pixel centre's corner
        self.origins.append((float(x), float(y)))
        if self.armed:
            self.armed = False
            self.entered.set()
            if not self.gate.wait(timeout=10.0):
                raise TimeoutError("test gate never opened")
        return super().heard_station(coords, powers, points, *args)


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

    def test_an_alpha_four_move_falls_back_to_full_drop(self):
        """Theorem 4.1's reach holds for alpha = 2 only.  At alpha = 4
        station 0's zone reaches past its alpha = 2 box, so re-keying the
        tiles outside that box would serve the old network's zone there:
        the move drops every tile and the served raster is the moved
        network's."""
        from repro.model import move_station
        from repro.raster import invalidate_for_delta

        network = WirelessNetwork.uniform(
            [(0.0, 0.0), (1.0, 0.0)], noise=0.0, beta=3.0, alpha=4.0
        )
        box = (Point(-6.0, -4.0), Point(2.0, 4.0))
        cache = TileCache(tile_size=16)
        SINRDiagram(network).rasterize(*box, 256, cache=cache)
        warm_tiles = cache.stats().tiles
        moved, delta = move_station(network, 0, Point(-0.5, 0.0))
        assert invalidate_for_delta(cache, network, moved, delta) == (0, warm_tiles)
        served = SINRDiagram(moved).rasterize(*box, 256, cache=cache)
        direct = SINRDiagram(moved).rasterize(*box, 256)
        assert_rasters_identical(direct, served)

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

        service = RasterService(noisy_network, cache=TileCache(tile_size=8))
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
        the re-keyed tiles serve it, and the dropped ones it computes count
        as rejected instead of parking under a fingerprint nothing will
        serve again."""
        from repro.model import move_station
        from repro.raster import invalidate_for_delta

        cache = self._warm(noisy_network)
        moved, delta = move_station(noisy_network, 0, Point(0.3, 0.2))
        rekeyed, dropped = invalidate_for_delta(cache, noisy_network, moved, delta)
        assert (rekeyed, dropped) == (28, 36)
        before = cache.stats()
        stale = SINRDiagram(noisy_network).rasterize(*self.BOX, 64, cache=cache)
        assert_rasters_identical(
            SINRDiagram(noisy_network).rasterize(*self.BOX, 64), stale
        )
        after = cache.stats()
        assert after.hits - before.hits == rekeyed
        assert after.misses - before.misses == dropped
        assert after.rejected - before.rejected == dropped
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
        # The network moved away from is now the retired one: outside the
        # returning swap's boxes its tiles are carried, inside computed.
        SINRDiagram(moved).rasterize(*self.BOX, 64, cache=cache)
        stats = cache.stats()
        assert stats.rejected == 64 - 28 and stats.tiles == 64

    def test_a_request_straddling_a_swap_computes_only_the_boxes_tiles(
        self, noisy_network
    ):
        """A request parked on the executor while the service swaps networks
        computes the tiles that touch the swap's boxes and is served the
        re-keyed rest; on a cache warmed on the old network its raster is
        the uncached old-network raster, bit for bit."""
        from repro.engine import use_backend
        from repro.model import move_station
        from repro.raster import affected_boxes

        backend = GatedBackend()
        box = (Point(-4.0, -4.0), Point(12.0, 12.0), 64)  # 4 x 4 tiles
        tile_bytes = 16 * 16 * np.dtype(np.intp).itemsize
        with use_backend(backend):
            service = RasterService(
                noisy_network,
                cache=TileCache(max_bytes=15 * tile_bytes, tile_size=16),
            )
        asyncio.run(service.rasterize(*box))
        # The budget holds 15 tiles: the first one, (-4, -4), was evicted,
        # so the next request goes to the executor and computes it first.
        assert service.cache_stats().evictions == 1
        moved, delta = move_station(noisy_network, 0, Point(0.3, 0.2))
        boxes = affected_boxes(noisy_network, moved, delta)
        backend.origins.clear()
        backend.armed = True

        async def drive():
            loop = asyncio.get_running_loop()
            request = asyncio.ensure_future(service.rasterize(*box))
            assert await loop.run_in_executor(None, backend.entered.wait, 10.0)
            counts = service.swap_network(moved, delta)
            backend.gate.set()
            return counts, await request

        before = service.cache_stats()
        (rekeyed, dropped), served = asyncio.run(drive())
        after = service.cache_stats()
        touching = {
            (x, y)
            for x in (-4.0, 0.0, 4.0, 8.0)
            for y in (-4.0, 0.0, 4.0, 8.0)
            if any(
                x <= bx1 and bx0 <= x + 4.0 and y <= by1 and by0 <= y + 4.0
                for bx0, by0, bx1, by1 in boxes
            )
        }
        assert (-4.0, -4.0) in touching  # the evicted tile
        assert (rekeyed, dropped) == (16 - len(touching), len(touching) - 1)
        assert set(backend.origins) == touching
        assert len(backend.origins) == len(touching)
        assert after.misses - before.misses == len(touching)
        assert after.rejected - before.rejected == len(touching)
        assert after.hits - before.hits == rekeyed
        assert_rasters_identical(
            SINRDiagram(noisy_network).rasterize(*box), served
        )

    def test_swap_serves_the_new_networks_sinr_values(self):
        """Re-keyed tiles keep their labels, but a raster served after the
        swap computes its SINR values from the new network, bit for bit."""
        from repro.model import move_station

        network = uniform_random_network(
            12, side=12.0, minimum_separation=1.5, noise=0.01, beta=2.0, seed=3
        )
        box = (Point(-2.0, -2.0), Point(14.0, 14.0), 128)
        service = RasterService(network, cache=TileCache(tile_size=16))
        asyncio.run(service.rasterize(*box))
        x, y = network.coords[0]
        moved, delta = move_station(network, 0, Point(x + 0.7, y + 0.4))
        rekeyed, _ = service.swap_network(moved, delta)
        assert rekeyed > 0
        served = asyncio.run(service.rasterize(*box))
        direct = SINRDiagram(moved).rasterize(*box)
        np.testing.assert_array_equal(direct.sinr_values, served.sinr_values)
        assert np.mean(served.labels == direct.labels) > 0.99
