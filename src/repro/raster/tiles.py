"""Tile decomposition and assembly on the global raster lattice.

A rasterisation request is a pair of :class:`~repro.model.diagram.RasterLattice`
axes (pitch, phase, global start index, pixel count).  This module maps the
request onto the global tile lattice — square blocks of ``tile_size`` pixels
anchored at global pixel index 0 — fetches each covering tile from a
:class:`~repro.raster.cache.TileCache` (computing only the missing ones
through the active engine backend), and assembles the requested
:class:`~repro.model.diagram.RasterDiagram` from the tile slices.
:func:`resident_tiles` works out a request's tile layout once (its key
prefix and, per axis, which pixels of which tile it takes) and fetches its
tiles with one lookup, only if all are resident and never computing one,
so a caller can tell a full hit from a request that needs tile work before
it picks a thread for it; :func:`rasterize_tiled` assembles from that
layout with one copy per tile.

A tile is its read-only ``(tile_size, tile_size)`` ``intp`` label block:
``tile_size**2 * 8`` bytes whatever the station count (32 KiB at 64 px).
The assembled raster copies labels only; its ``sinr_values`` are computed
on first read by one ``engine.batch.sinr_batch`` call over the request's
pixel centres, with the request's network and pinned backend, as on every
raster ``SINRDiagram.rasterize`` returns.

Bit-identity with the monolithic path is structural, not approximate:

* tile pixel-centre coordinates come from the *same* lattice formula
  (``phase + (g + 0.5) * pitch`` over global indices ``g``) the monolithic
  rasteriser uses, so they are bit-identical floats;
* both label their pixels with :func:`~repro.model.diagram.raster_labels`,
  one ``heard_station_batch`` call that decides every pixel on its own, so
  evaluating a tile's sub-grid yields exactly the labels the full grid
  would, and the deferred SINR pass over the request's own grid is the
  monolithic raster's pass.

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
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..exceptions import PointLocationError
from ..engine.backend import active_backend
from ..model.delta import NetworkDelta, diff_networks
from ..model.diagram import RasterDiagram, RasterLattice, raster_labels
from ..model.network import WirelessNetwork
from .cache import TileCache

__all__ = [
    "TileKey",
    "TiledRequest",
    "affected_boxes",
    "compute_tile",
    "invalidate_for_delta",
    "rasterize_tiled",
    "resident_tiles",
    "tile_key",
]

#: The full cache key of one tile: ``(network fingerprint, backend, tile
#: size, pitch_x, phase_x, pitch_y, phase_y, tile_x, tile_y)``.  The
#: *backend object* is part of the key because registered backends agree
#: only to floating-point tolerance, not bitwise: a tile computed under
#: ``numpy`` must never answer a request made under ``reference`` (or the
#: bit-identity contract — and seam-freeness within one raster — breaks).
TileKey = Tuple[str, object, int, float, float, float, float, int, int]

#: One tile along one axis of a request: ``(tile index, output slice, tile
#: slice)``, as :func:`_tile_spans` lists them.
Span = Tuple[int, slice, slice]

#: The tile slice of a tile the request covers whole.
_WHOLE = slice(None)


class TiledRequest(NamedTuple):
    """What one request computes once: :func:`resident_tiles`' result.

    ``prefix`` is every tile's key without its index (the pinned backend
    is ``prefix[1]``); ``columns`` and
    ``rows`` are the request's tile spans along x and y; ``tiles`` holds
    the covering tiles row by row when all were resident, else ``None``.
    """

    prefix: tuple
    columns: List[Span]
    rows: List[Span]
    tiles: Optional[list]


def _key_prefix(
    fingerprint: str,
    backend,
    tile_size: int,
    lattice_x: RasterLattice,
    lattice_y: RasterLattice,
) -> tuple:
    """A :data:`TileKey` without its tile index: what every tile of one
    request shares."""
    return (
        fingerprint,
        backend,
        tile_size,
        lattice_x.pitch,
        lattice_x.phase,
        lattice_y.pitch,
        lattice_y.phase,
    )


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
    return _key_prefix(
        fingerprint, backend, tile_size, lattice_x, lattice_y
    ) + (tile_x, tile_y)


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
    labels = raster_labels(network, xs, ys, backend)
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
    Theorem 4.1 regime (non-uniform power, ``beta <= 1`` or
    ``alpha != 2``), where no certified reach exists.
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
    * the network is outside the Theorem 4.1 regime (non-uniform power,
      ``beta <= 1`` or ``alpha != 2``: no certified reach).

    Either way the old fingerprint is retired: tiles computed for it by
    requests still running are not stored.  After a box-granular swap
    those requests are served the new fingerprint's tile outside the
    boxes instead of computing one, with the same label caveat as a
    re-keyed tile (see :meth:`TileCache.invalidate_region`).

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


def _tile_spans(lattice: RasterLattice, size: int) -> List[Span]:
    """Every tile of one axis that a request overlaps, in order.

    Each is ``(tile index, output slice, tile slice)``: the request's
    pixels the tile covers and the tile's pixels the request covers.  The
    tile slice is :data:`_WHOLE` wherever the request covers the whole
    tile.
    """
    start, stop = lattice.start, lattice.start + lattice.count
    spans = []
    for index in range(start // size, (stop - 1) // size + 1):
        low = index * size
        first, last = max(start, low), min(stop, low + size)
        inner = _WHOLE if last - first == size else slice(first - low, last - low)
        spans.append((index, slice(first - start, last - start), inner))
    return spans


def resident_tiles(
    network: WirelessNetwork,
    lattice_x: RasterLattice,
    lattice_y: RasterLattice,
    cache: TileCache,
) -> TiledRequest:
    """A request's tile layout, holding its tiles when all are resident.

    Pins the active backend, computes the request's key prefix and
    per-axis tile spans once, and fetches every covering tile with one
    :meth:`TileCache.lookup`; ``tiles`` is ``None`` when one is missing.
    Never computes a tile, so
    :class:`~repro.service.RasterService` calls it on its event-loop thread
    and hands the result to :func:`rasterize_tiled`, there for a full hit
    and on an executor thread otherwise.
    """
    size = cache.tile_size
    # Pinned once per request: every tile of this raster — cached or
    # computed — and its deferred SINR values belong to the same backend,
    # so a backend switch mid-burst can never stitch a seam through one
    # assembled diagram.
    prefix = _key_prefix(
        network.fingerprint, active_backend(), size, lattice_x, lattice_y
    )
    columns = _tile_spans(lattice_x, size)
    rows = _tile_spans(lattice_y, size)
    tiles = cache.lookup([
        prefix + (tile_x, tile_y)
        for tile_y, _, _ in rows
        for tile_x, _, _ in columns
    ])
    return TiledRequest(prefix, columns, rows, tiles)


def rasterize_tiled(
    network: WirelessNetwork,
    lattice_x: RasterLattice,
    lattice_y: RasterLattice,
    cache: TileCache,
    resident: Optional[TiledRequest] = None,
) -> RasterDiagram:
    """Assemble a raster from cached lattice tiles (computing missing ones).

    The public entry point is ``SINRDiagram.rasterize(..., cache=...)``,
    which builds the lattices; this function covers ``[lattice_x.start,
    lattice_x.stop) x [lattice_y.start, lattice_y.stop)`` with tiles and
    copies each tile's overlap into the result, the whole tile wherever
    the request covers it.  ``resident`` is what :func:`resident_tiles`
    returned for the same request; it is looked up here when omitted.
    When it holds every tile nothing is computed; otherwise every tile is
    fetched through :meth:`TileCache.get_or_compute`, computing the
    missing ones.  Either way the tiles and the deferred SINR values
    belong to the backend the lookup pinned.  The returned diagram
    computes its ``sinr_values`` on first read, under this request's
    network and backend, and is bit-identical to the monolithic path on
    the same box.
    """
    if resident is None:
        resident = resident_tiles(network, lattice_x, lattice_y, cache)
    prefix, columns, rows, tiles = resident
    backend = prefix[1]
    if tiles is None:
        tiles = (
            cache.get_or_compute(
                prefix + (tile_x, tile_y),
                partial(
                    compute_tile,
                    network, lattice_x, lattice_y, tile_x, tile_y,
                    cache.tile_size, backend,
                ),
            )
            for tile_y, _, _ in rows
            for tile_x, _, _ in columns
        )
    labels = np.empty((lattice_y.count, lattice_x.count), dtype=np.intp)
    tiles = iter(tiles)
    for _, out_rows, in_rows in rows:
        # zip stops at the end of the row without drawing another tile.
        for (_, out_cols, in_cols), tile in zip(columns, tiles):
            labels[out_rows, out_cols] = (
                tile if in_rows is _WHOLE and in_cols is _WHOLE
                else tile[in_rows, in_cols]
            )
    return RasterDiagram._with_deferred_sinr(
        network, lattice_x, lattice_y, labels, backend
    )
