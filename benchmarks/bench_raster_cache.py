"""Warm-cache overlapping raster requests vs recomputing from scratch.

The serving workload of the raster tile cache: a client (figure pipeline,
dashboard, zoom/pan UI) issues overlapping rasterisation requests over one
network — the full deployment box, zoomed quadrants, panned half boxes and
repeats.  Uncached, every request recomputes its whole pixel grid through
the engine; with a warm tile cache the overlapping requests reduce to
lookups plus label assembly.  Tiles hold labels only, so a client that
also reads a cached raster's ``sinr_values`` pays one engine pass over the
request's pixels on that first read; the bench times a warm pass with one
such read per request as well, beside the labels-only warm pass.

The gate: the warm-cache pass answers the same request sequence at least
**5x** faster than the uncached rasteriser (``REPRO_BENCH_MIN_SPEEDUP``
overrides on slow/noisy runners; the CI smoke leg relaxes it), while every
cached raster stays bit-identical to the uncached one — which is asserted
here on full ``labels`` + ``sinr_values`` equality, not sampled.  The gate
times ``rasterize`` alone; the SINR-reading pass is reported, not gated.
So is a served full hit, the request that dominates pan/zoom serving:
256 px views of the serving benchmark's 50-station network shape, 64 px
tiles at pitch 1/16, answered from a warm cache by
``RasterService.rasterize``, in microseconds per request (best of five
runs of 1,000 requests).

A second gate times what a cache miss costs: labelling one 64 px tile.
The numpy ``heard_station`` kernel certifies most of a tile's pixels
silent from the stations nearest the tile and runs the dense SINR pass on
the rest only.  Over the pan/zoom tiles of a 50-station network at pitches
1/16 and 1/8, ``compute_tile`` must beat the dense rule (``sinr_batch``,
argmax, ``beta``) on the same pixels by at least **1.5x**, half the lowest
full-scale ratio measured (3.0-5.0x over six runs on a 2-vCPU VM), with
labels equal tile by tile.  The same gate runs on 800 stations, where the
batch API splits every tile into chunks of under 1,024 points that the
certificate must still decide: a fixed sample of 48 tiles per pitch is
timed (the deployment has about 1,200), and ``compute_tile`` must win by
at least **7.5x**, half the lowest full-scale ratio measured (15.3-20.8x
over six runs on a 2-vCPU VM; with every chunk skipping the certificate
the ratio reads 2.4x).

Set ``REPRO_BENCH_QUICK=1`` to shrink the workload (CI smoke mode).
"""

from __future__ import annotations

import asyncio
import math
import time

import numpy as np
import pytest

from persist import quick_mode, record_benchmark, speedup_floor
from repro import Point, SINRDiagram, TileCache
from repro.engine import sinr_batch
from repro.model.diagram import RasterLattice
from repro.raster import compute_tile
from repro.service import RasterService
from repro.workloads import uniform_random_network

QUICK = quick_mode()
STATION_COUNT = 20
RESOLUTION = 96 if QUICK else 192


@pytest.fixture(scope="module")
def workload():
    side = 16.0
    network = uniform_random_network(
        STATION_COUNT,
        side=side,
        minimum_separation=1.5,
        noise=0.002,
        beta=3.0,
        seed=31,
    )
    diagram = SINRDiagram(network)
    # Overlapping views on one world lattice: the full box, its four
    # zoomed quadrants, two panned half boxes and a repeat of the full box.
    full = (Point(-8.0, -8.0), Point(24.0, 24.0), RESOLUTION)
    half = RESOLUTION // 2
    requests = [
        full,
        (Point(-8.0, -8.0), Point(8.0, 8.0), half),
        (Point(8.0, -8.0), Point(24.0, 8.0), half),
        (Point(-8.0, 8.0), Point(8.0, 24.0), half),
        (Point(8.0, 8.0), Point(24.0, 24.0), half),
        (Point(-8.0, 0.0), Point(24.0, 16.0), RESOLUTION),
        (Point(0.0, -8.0), Point(16.0, 24.0), half),
        full,
    ]
    return diagram, requests


def served_full_hit_seconds() -> float:
    """Seconds per served full hit: best of five runs of 1,000 requests
    over the 16 views of a 4 x 4 block of view origins, one tile apart."""
    stations = 50
    network = uniform_random_network(
        stations,
        side=4.0 * math.sqrt(stations),
        minimum_separation=1.5,
        noise=0.002,
        beta=3.0,
        seed=31,
    )
    pitch = 1.0 / 16.0
    tile = 64 * pitch
    views = [
        (Point(x * tile, y * tile), Point(x * tile + 256 * pitch, y * tile + 256 * pitch))
        for x in range(4)
        for y in range(4)
    ]
    service = RasterService(network, cache=TileCache(tile_size=64))

    async def serve(count):
        for index in range(count):
            await service.rasterize(*views[index % len(views)], 256)

    asyncio.run(serve(len(views)))  # warm every tile
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        asyncio.run(serve(1000))
        best = min(best, time.perf_counter() - start)
    assert service.cache_stats().misses == 7 * 7  # every timed request hit
    return best / 1000


@pytest.mark.paper
def test_warm_cache_beats_uncached_rasterisation(workload):
    """The acceptance gate: warm-cache overlapping requests >= 5x uncached."""
    diagram, requests = workload

    uncached_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        truth = [diagram.rasterize(a, b, res) for a, b, res in requests]
        uncached_seconds = min(uncached_seconds, time.perf_counter() - start)

    cache = TileCache(tile_size=64)
    start = time.perf_counter()
    cold = [diagram.rasterize(a, b, res, cache=cache) for a, b, res in requests]
    cold_seconds = time.perf_counter() - start
    cold_stats = cache.stats()

    warm_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        warm = [diagram.rasterize(a, b, res, cache=cache) for a, b, res in requests]
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
    warm_stats = cache.stats()

    warm_read_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        read = [
            diagram.rasterize(a, b, res, cache=cache).sinr_values
            for a, b, res in requests
        ]
        warm_read_seconds = min(warm_read_seconds, time.perf_counter() - start)

    for expected, cold_raster, warm_raster in zip(truth, cold, warm):
        np.testing.assert_array_equal(expected.labels, cold_raster.labels)
        np.testing.assert_array_equal(expected.sinr_values, cold_raster.sinr_values)
        np.testing.assert_array_equal(expected.labels, warm_raster.labels)
        np.testing.assert_array_equal(expected.sinr_values, warm_raster.sinr_values)
    for expected, values in zip(truth, read):
        np.testing.assert_array_equal(expected.sinr_values, values)

    per_request = len(requests)
    print(
        f"\nstations={STATION_COUNT} resolution={RESOLUTION} "
        f"requests={per_request}:"
    )
    print(f"{'mode':>24} {'total s':>9} {'ms/request':>11} {'hit rate':>9}")
    rows = [
        ("uncached", uncached_seconds, None),
        ("cold cache", cold_seconds, cold_stats.hit_rate),
        ("warm cache", warm_seconds, None),
        ("warm cache + SINR read", warm_read_seconds, None),
    ]
    warm_hit_rate = (
        (warm_stats.hits - cold_stats.hits)
        / max(1, warm_stats.requests - cold_stats.requests)
    )
    rows[2] = ("warm cache", warm_seconds, warm_hit_rate)
    for label, seconds, hit_rate in rows:
        rate = "-" if hit_rate is None else f"{hit_rate:>8.0%}"
        print(
            f"{label:>24} {seconds:>9.3f} "
            f"{seconds / per_request * 1e3:>11.2f} {rate:>9}"
        )
    full_hit_seconds = served_full_hit_seconds()
    print(
        f"{'served full hit':>24} {'-':>9} {full_hit_seconds * 1e3:>11.3f} "
        f"{1.0:>8.0%}   (50 stations, 256 px views, 64 px tiles)"
    )

    assert warm_hit_rate == 1.0  # the warm pass recomputed nothing
    speedup = uncached_seconds / warm_seconds
    print(f"warm cache vs uncached: {speedup:.1f}x "
          f"(cold pass overhead: {cold_seconds / uncached_seconds:.2f}x)")

    record_benchmark(
        "raster_cache",
        {
            "stations": STATION_COUNT,
            "resolution": RESOLUTION,
            "requests": per_request,
            "uncached_seconds": round(uncached_seconds, 4),
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "warm_sinr_read_seconds": round(warm_read_seconds, 4),
            "cold_hit_rate": round(cold_stats.hit_rate, 4),
            "warm_speedup_vs_uncached": round(speedup, 2),
            "served_full_hit_us": round(full_hit_seconds * 1e6, 1),
        },
    )

    # The warm cache must amortise: the default floor is the acceptance 5x
    # (REPRO_BENCH_MIN_SPEEDUP overrides for slow or noisy runners).
    assert speedup >= speedup_floor(5.0)


#: The certified-labels gate: the serving benchmark's network shape (side
#: 4 sqrt(n), separation 1.5), whose zones at beta = 3 cover a few percent
#: of the plane, and its 64 px tiles at two zoom pitches.  Per network:
#: station count, tiles timed per pitch (``None``: every tile), the
#: recorded section and the default speedup floor.
CERTIFIED_NETWORKS = {
    50: (None, "certified_tile_labels", 1.5),
    800: (48, "certified_tile_labels_chunked", 7.5),
}
TILE_PX = 64
PITCHES = (1.0 / 16.0, 1.0 / 8.0)


@pytest.fixture(scope="module", params=sorted(CERTIFIED_NETWORKS))
def panzoom_tiles(request):
    stations = request.param
    sample = CERTIFIED_NETWORKS[stations][0]
    side = 4.0 * math.sqrt(stations)
    network = uniform_random_network(
        stations,
        side=side,
        minimum_separation=1.5,
        noise=0.002,
        beta=3.0,
        seed=31,
    )
    rng = np.random.default_rng(stations)
    tiles = []
    for pitch in PITCHES:
        span = TILE_PX * pitch
        indices = range(math.floor(-4.0 / span), math.ceil((side + 4.0) / span))
        lattice = RasterLattice(pitch=pitch, phase=0.0, start=0, count=TILE_PX)
        grid = [(lattice, x, y) for x in indices for y in indices]
        if sample is not None:
            picked = rng.choice(len(grid), sample // 2 if QUICK else sample, False)
            grid = [grid[i] for i in sorted(picked)]
        elif QUICK:
            grid = [(lattice, x, y) for x in indices[::2] for y in indices[::2]]
        tiles += grid
    return network, tiles


def dense_labels(network, lattice, tile_x, tile_y):
    """The heard-station rule on a tile's pixels from ``sinr_batch``."""
    xs, ys = np.meshgrid(
        lattice.centers_at(tile_x * TILE_PX, TILE_PX),
        lattice.centers_at(tile_y * TILE_PX, TILE_PX),
    )
    ratio = sinr_batch(network, np.column_stack((xs.ravel(), ys.ravel())))
    best = np.argmax(ratio, axis=0)
    heard = ratio[best, np.arange(ratio.shape[1])] >= network.beta
    return np.where(heard, best, -1).reshape(TILE_PX, TILE_PX)


def certified_labels(network, lattice, tile_x, tile_y):
    """A tile's labels as a cache miss computes them."""
    return compute_tile(network, lattice, lattice, tile_x, tile_y, TILE_PX, "numpy")


def timed_labels(label, network, tiles):
    """Best of three passes over every tile: ``(seconds, labels)``."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        labels = [label(network, lattice, x, y) for lattice, x, y in tiles]
        best = min(best, time.perf_counter() - start)
    return best, labels


@pytest.mark.paper
def test_certified_tile_labels_beat_the_dense_rule(panzoom_tiles):
    """The certified-labels gate: ``compute_tile`` beats the dense rule by
    the network's floor (1.5x at 50 stations)."""
    network, tiles = panzoom_tiles
    _, section, floor = CERTIFIED_NETWORKS[len(network)]
    dense_seconds, dense = timed_labels(dense_labels, network, tiles)
    certified_seconds, served = timed_labels(certified_labels, network, tiles)
    for expected, actual in zip(dense, served):
        np.testing.assert_array_equal(actual, expected)
    heard_share = float(np.mean([(labels >= 0).mean() for labels in dense]))
    speedup = dense_seconds / certified_seconds
    print(
        f"\nstations={len(network)} tiles={len(tiles)} "
        f"({TILE_PX} px, pitches {', '.join(f'1/{round(1 / p)}' for p in PITCHES)}), "
        f"pixels heard {heard_share:.1%}:"
    )
    print(f"{'labels':>10} {'total s':>9} {'ms/tile':>9}")
    for name, seconds in (("dense", dense_seconds), ("certified", certified_seconds)):
        print(f"{name:>10} {seconds:>9.3f} {seconds / len(tiles) * 1e3:>9.3f}")
    print(f"certified vs dense: {speedup:.2f}x")

    record_benchmark(
        section,
        {
            "stations": len(network),
            "tiles": len(tiles),
            "tile_px": TILE_PX,
            "dense_ms_per_tile": round(dense_seconds / len(tiles) * 1e3, 4),
            "certified_ms_per_tile": round(certified_seconds / len(tiles) * 1e3, 4),
            "heard_pixel_share": round(heard_share, 4),
            "speedup_vs_dense": round(speedup, 2),
        },
    )

    # Half the lowest full-scale ratio (REPRO_BENCH_MIN_SPEEDUP overrides).
    assert speedup >= speedup_floor(floor)
