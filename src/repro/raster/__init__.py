"""repro.raster — the raster tile cache subsystem.

Rasterising an SINR diagram (``SINRDiagram.rasterize``, the numerical
procedure behind the paper's Figures 1–5) costs one full SINR-matrix pass
per pixel grid.  Under serving workloads — figures, ``summary()`` calls,
experiment sweeps, zoom/pan traffic over the same network — overlapping
requests used to recompute identical pixels from scratch.  This package
caches the work at tile granularity and reuses it across requests.

How a request is served
=======================

``SINRDiagram.rasterize(lower_left, upper_right, resolution, cache=...)``
snaps the request onto a per-axis pixel lattice (pitch = box length /
pixel count; pixel centres at ``phase + (g + 0.5) * pitch`` for global
integer indices ``g``), decomposes it onto the global tile lattice —
square blocks of ``tile_size`` pixels anchored at global pixel index 0 —
and assembles the result's labels from tiles, computing only the missing
ones through the active engine backend.  Tiles hold labels only; the
assembled :class:`~repro.model.diagram.RasterDiagram` computes its
``sinr_values`` on first read, with one engine pass over the request's
pixel centres.  The raster is **bit-identical** to the uncached path:
tiles use the same coordinate formula and the same per-pixel-independent
compute core (:func:`repro.model.diagram.raster_block`), so caching
regroups work without changing a single bit of output.

Keying scheme
=============

Tiles are keyed by everything their content depends on::

    (network fingerprint, engine backend, tile size,
     pitch_x, phase_x, pitch_y, phase_y, tile index x, tile index y)

* the *network fingerprint* (:attr:`repro.model.network.WirelessNetwork.fingerprint`)
  hashes coordinates, powers, noise, beta and alpha — a mutated network is
  automatically a cache miss, while content-identical networks share tiles;
* the *engine backend* is the one active when the request was made
  (pinned for all tiles of one request): registered backends agree only to
  floating-point tolerance, so tiles are never shared across backends and
  bit-identity holds under any ``use_backend`` selection;
* *pitch* is the pixels-per-unit of the request (as world units per pixel);
* *phase* is ``0.0`` for any box whose origin sits on the world-anchored
  lattice of that pitch — such boxes (overlapping figure views, aligned
  zoom/pan traffic) share tiles with each other — and the phase remainder
  otherwise, which still caches perfectly against repeats of the same box.

Budget and statistics
=====================

:class:`TileCache` holds tiles in a thread-safe LRU under a configurable
byte budget (``max_bytes``, default 256 MiB).  A tile is its read-only
``intp`` label block, ``tile_size**2 * 8`` bytes whatever the station
count: 32 KiB at the default 64 px.  :class:`CacheStats` counts hits,
misses, evictions, rejections (tiles computed but never stored: larger
than the whole budget, or keyed by a fingerprint that a swap retired),
re-keyed and invalidated tiles, resident tiles and bytes.  Concurrent
misses of one tile are single-flighted, so a burst of overlapping requests
computes each tile once.

A network swap (:func:`invalidate_for_delta`) retires the old network's
fingerprint, so a request that straddles the swap parks no tiles under it.
One cache therefore follows one network lineage: services that share a
cache must swap together.

Quick use::

    from repro.raster import TileCache

    cache = TileCache(max_bytes=128 * 2**20, tile_size=64)
    raster = diagram.rasterize(lower_left, upper_right, 256, cache=cache)
    print(cache.stats().hit_rate)

``cache=True`` uses the process-wide :func:`default_cache`.  The service
layer's :class:`repro.service.RasterService` wraps one cache behind an
async endpoint for concurrent zoom/pan traffic.
"""

from .cache import (
    DEFAULT_MAX_BYTES,
    DEFAULT_TILE_SIZE,
    CacheStats,
    TileCache,
    default_cache,
    resolve_cache,
)
from .tiles import (
    TileKey,
    affected_boxes,
    compute_tile,
    invalidate_for_delta,
    rasterize_tiled,
    tile_key,
)

__all__ = [
    "CacheStats",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_TILE_SIZE",
    "TileCache",
    "TileKey",
    "affected_boxes",
    "compute_tile",
    "default_cache",
    "invalidate_for_delta",
    "rasterize_tiled",
    "resolve_cache",
    "tile_key",
]
