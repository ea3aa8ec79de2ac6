"""Tile decomposition and assembly on the global raster lattice.

A rasterisation request is a pair of :class:`~repro.model.diagram.RasterLattice`
axes (pitch, phase, global start index, pixel count).  This module maps the
request onto the global tile lattice — square blocks of ``tile_size`` pixels
anchored at global pixel index 0 — fetches each covering tile from a
:class:`~repro.raster.cache.TileCache` (computing only the missing ones
through the active engine backend), and assembles the requested
:class:`~repro.model.diagram.RasterDiagram` from the tile slices.

A tile is its read-only ``(tile_size, tile_size)`` ``intp`` label block:
``tile_size**2 * 8`` bytes whatever the station count (32 KiB at 64 px).
The assembled raster copies labels only; its ``sinr_values`` are computed
on first read by one ``engine.batch.sinr_batch`` call over the request's
pixel centres, with the request's network and pinned backend.

Bit-identity with the monolithic path is structural, not approximate:

* tile pixel-centre coordinates come from the *same* lattice formula
  (``phase + (g + 0.5) * pitch`` over global indices ``g``) the monolithic
  rasteriser uses, so they are bit-identical floats;
* :func:`~repro.model.diagram.raster_block` computes every per-pixel
  quantity independently per pixel, so evaluating a tile's sub-grid yields
  exactly the labels the full grid would, and the deferred SINR pass over
  the request's own grid is the monolithic rasteriser's pass.

Tile keys are ``(network fingerprint, engine backend, tile size, pitch and
phase per axis, tile index)``: everything the tile's content depends on
(registered backends agree only to floating-point tolerance, so tiles are
never shared across backends).  Two boxes whose origins sit on the same
pitch lattice share phase ``0.0`` and therefore share tiles; an unaligned
box forms its own lattice family (keyed by its phase remainder) and still
caches perfectly against repeats of itself.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import PointLocationError
from ..engine.backend import active_backend
from ..model.delta import NetworkDelta, diff_networks
from ..model.diagram import RasterDiagram, RasterLattice, raster_block
from ..model.network import WirelessNetwork
from .cache import TileCache

__all__ = [
    "TileKey",
    "affected_boxes",
    "compute_tile",
    "invalidate_for_delta",
    "rasterize_tiled",
    "tile_key",
]

#: The full cache key of one tile: ``(network fingerprint, backend, tile
#: size, pitch_x, phase_x, pitch_y, phase_y, tile_x, tile_y)``.  The
#: *backend object* is part of the key because registered backends agree
#: only to floating-point tolerance, not bitwise: a tile computed under
#: ``numpy`` must never answer a request made under ``reference`` (or the
#: bit-identity contract — and seam-freeness within one raster — breaks).
TileKey = Tuple[str, object, int, float, float, float, float, int, int]


def tile_key(
    fingerprint: str,
    backend,
    tile_size: int,
    lattice_x: RasterLattice,
    lattice_y: RasterLattice,
    tile_x: int,
    tile_y: int,
) -> TileKey:
    """The cache key of tile ``(tile_x, tile_y)`` on the given lattice pair."""
    return (
        fingerprint,
        backend,
        tile_size,
        lattice_x.pitch,
        lattice_x.phase,
        lattice_y.pitch,
        lattice_y.phase,
        tile_x,
        tile_y,
    )


def compute_tile(
    network: WirelessNetwork,
    lattice_x: RasterLattice,
    lattice_y: RasterLattice,
    tile_x: int,
    tile_y: int,
    tile_size: int,
    backend=None,
) -> np.ndarray:
    """One tile's read-only label block, computed through ``backend``
    (default: the active backend)."""
    xs = lattice_x.centers_at(tile_x * tile_size, tile_size)
    ys = lattice_y.centers_at(tile_y * tile_size, tile_size)
    labels, _ = raster_block(network, xs, ys, backend=backend)
    labels.setflags(write=False)
    return labels


def affected_boxes(
    old_network: WirelessNetwork,
    new_network: WirelessNetwork,
    delta: NetworkDelta,
) -> List[Tuple[float, float, float, float]]:
    """World rectangles containing every changed station's reception zone.

    One box per touched station, before *and* after the mutation: the
    station's location inflated by its certified enclosing-radius reach —
    the same Theorem 4.1 ``Delta_upper`` bound the sharded locator routes
    by (:func:`repro.pointlocation.bounds.station_reaches`).  A changed
    station can be heard only inside these boxes, so a pixel outside all
    of them keeps its *label* across the mutation — except where another
    station's reception margin is finer than the interference shift the
    move causes (see :func:`invalidate_for_delta` for how that residual
    approximation is scoped).

    Only the touched stations' reaches are computed, one dense row per
    station (``station_reaches(network, touched)``), so a one-station move
    costs ``O(n)`` rather than a pass over every station.

    Raises :class:`~repro.exceptions.PointLocationError` outside the
    Theorem 4.1 regime (non-uniform power or ``beta <= 1``), where no
    certified reach exists.
    """
    from ..pointlocation.bounds import reach_box, station_reaches

    boxes: List[Tuple[float, float, float, float]] = []
    for network, touched in (
        (old_network, delta.touched_old),
        (new_network, delta.touched_new),
    ):
        coords = network.coords
        reaches = station_reaches(network, touched)
        for index, reach in zip(touched, reaches.tolist()):
            x, y = float(coords[index, 0]), float(coords[index, 1])
            boxes.append(reach_box(x, y, x, y, reach))
    return boxes


def invalidate_for_delta(
    cache: TileCache,
    old_network: WirelessNetwork,
    new_network: WirelessNetwork,
    delta: Optional[NetworkDelta] = None,
) -> Tuple[int, int]:
    """Apply a network mutation to a tile cache: re-key far tiles, drop near.

    The raster layer's incremental-update entry point.  Computes the
    affected-region boxes for ``delta`` (recovered via
    :func:`~repro.model.delta.diff_networks` when omitted) and calls
    :meth:`TileCache.invalidate_region`; returns its ``(rekeyed, dropped)``
    counts.  Falls back to dropping *every* old-fingerprint tile — exactly
    what plain fingerprint keying would do — whenever re-keying cannot be
    justified:

    * the delta changes ``noise``/``beta``/``alpha`` (every pixel is stale);
    * the delta is not index-preserving (station joins/leaves renumber the
      label space, so retained labels would name the wrong stations);
    * the network is outside the Theorem 4.1 regime (no certified reach).

    Either way the old fingerprint is retired: tiles computed for it by
    requests still running are not stored (see
    :meth:`TileCache.invalidate_region`).

    Scope of the approximation: a re-keyed tile's labels are exact wherever
    reception margins exceed the interference shift of the moved stations
    (boundary-marginal pixels of *other* stations' zones may flip — the
    same tolerance class as cross-backend float disagreement, which the
    keying scheme already scopes per backend).  SINR values are exact:
    tiles hold no SINR, and a raster served after the swap computes its
    values from the new network on first read.  Callers that need exact
    labels after a mutation should drop instead
    (``cache.invalidate_region(old_fp, new_fp, None)``).
    """
    if delta is None:
        delta = diff_networks(old_network, new_network)
    old_fingerprint = old_network.fingerprint
    new_fingerprint = new_network.fingerprint
    if old_fingerprint == new_fingerprint:
        return (0, 0)
    if delta.params_changed or not delta.index_preserving:
        return cache.invalidate_region(old_fingerprint, new_fingerprint, None)
    try:
        boxes = affected_boxes(old_network, new_network, delta)
    except PointLocationError:
        return cache.invalidate_region(old_fingerprint, new_fingerprint, None)
    return cache.invalidate_region(old_fingerprint, new_fingerprint, boxes)


def rasterize_tiled(
    network: WirelessNetwork,
    lattice_x: RasterLattice,
    lattice_y: RasterLattice,
    cache: TileCache,
) -> RasterDiagram:
    """Assemble a raster from cached lattice tiles (computing missing ones).

    The public entry point is ``SINRDiagram.rasterize(..., cache=...)``,
    which builds the lattices; this function fetches every tile covering
    ``[lattice_x.start, lattice_x.stop) x [lattice_y.start, lattice_y.stop)``
    via :meth:`TileCache.get_or_compute` and copies the overlapping label
    slices into the result.  The returned diagram computes its
    ``sinr_values`` on first read, under this request's network and
    backend, and is bit-identical to the monolithic path on the same box.
    """
    size = cache.tile_size
    fingerprint = network.fingerprint
    # Pinned once per request: every tile of this raster — cached or
    # computed — and its deferred SINR values belong to the same backend,
    # so a backend switch mid-burst can never stitch a seam through one
    # assembled diagram.
    backend = active_backend()
    columns, rows = lattice_x.count, lattice_y.count
    gx0, gy0 = lattice_x.start, lattice_y.start

    labels = np.empty((rows, columns), dtype=np.intp)

    first_tile_x = gx0 // size
    last_tile_x = (lattice_x.stop - 1) // size
    first_tile_y = gy0 // size
    last_tile_y = (lattice_y.stop - 1) // size
    for tile_y in range(first_tile_y, last_tile_y + 1):
        for tile_x in range(first_tile_x, last_tile_x + 1):
            key = tile_key(
                fingerprint, backend, size, lattice_x, lattice_y, tile_x, tile_y
            )
            tile = cache.get_or_compute(
                key,
                partial(
                    compute_tile,
                    network, lattice_x, lattice_y, tile_x, tile_y, size,
                    backend,
                ),
            )
            # Overlap of this tile with the request, in global pixel indices.
            overlap_x0 = max(gx0, tile_x * size)
            overlap_x1 = min(lattice_x.stop, (tile_x + 1) * size)
            overlap_y0 = max(gy0, tile_y * size)
            overlap_y1 = min(lattice_y.stop, (tile_y + 1) * size)
            out_cols = slice(overlap_x0 - gx0, overlap_x1 - gx0)
            out_rows = slice(overlap_y0 - gy0, overlap_y1 - gy0)
            in_cols = slice(overlap_x0 - tile_x * size, overlap_x1 - tile_x * size)
            in_rows = slice(overlap_y0 - tile_y * size, overlap_y1 - tile_y * size)
            labels[out_rows, out_cols] = tile[in_rows, in_cols]

    return RasterDiagram._with_deferred_sinr(
        network, lattice_x, lattice_y, labels, backend
    )
