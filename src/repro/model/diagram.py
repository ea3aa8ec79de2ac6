"""SINR diagrams: the reception map of a whole network.

An SINR diagram partitions the plane into one reception zone per station plus
the null zone ``H_empty`` where no station is heard (Section 1.1).  The
:class:`SINRDiagram` exposes:

* per-station :class:`~repro.model.reception.ReceptionZone` objects,
* point queries ("which station, if any, is heard here?"),
* a vectorised raster labelling over a bounding box (the numerical procedure
  behind the paper's Figures 1–5),
* summary statistics (areas, fatness, coverage fraction) used by the
  experiment harness.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import batch as engine_batch
from ..engine.backend import active_backend
from ..exceptions import DiagramError
from ..geometry.point import Point
from .network import WirelessNetwork
from .reception import ReceptionZone

__all__ = ["SINRDiagram", "RasterDiagram", "RasterLattice", "raster_block"]

#: Label used in raster maps for points where no station is heard.
NO_RECEPTION = -1

#: Relative tolerance under which a box origin counts as sitting exactly on
#: the world-anchored pixel lattice (so the lattice phase snaps to zero and
#: tiles become shareable across every box aligned to the same pitch).
_LATTICE_SNAP_RTOL = 1e-9


@dataclass(frozen=True)
class RasterLattice:
    """One axis of a raster pixel lattice.

    Pixel centres along the axis live at ``phase + (g + 0.5) * pitch`` for
    *global* integer pixel indices ``g`` — the one coordinate formula shared
    by the monolithic rasteriser and the tile cache, so that a tile computed
    for global indices ``[a, b)`` is bit-identical to the same slice of any
    monolithic raster on the same lattice.

    ``phase`` is ``0.0`` whenever the box origin is an integer multiple of
    the pitch (within a tiny relative tolerance): such boxes share the
    world-anchored lattice, which is what lets overlapping figure boxes
    reuse each other's cached tiles.  Unaligned origins get their own lattice
    family, keyed by the remainder ``phase`` in ``[0, pitch)``.

    Attributes:
        pitch: world units per pixel (the box length over the pixel count).
        phase: lattice offset in ``[0, pitch)``; ``0.0`` when snapped.
        start: global index of the request's first pixel.
        count: number of pixels the request spans.
    """

    pitch: float
    phase: float
    start: int
    count: int

    @staticmethod
    def build(origin: float, length: float, count: int) -> "RasterLattice":
        """The lattice of a box edge starting at ``origin`` spanning ``length``."""
        pitch = length / count
        nearest = math.floor(origin / pitch + 0.5)
        if abs(origin - nearest * pitch) <= pitch * _LATTICE_SNAP_RTOL:
            return RasterLattice(pitch=pitch, phase=0.0, start=nearest, count=count)
        start = math.floor(origin / pitch)
        return RasterLattice(
            pitch=pitch, phase=origin - start * pitch, start=start, count=count
        )

    def centers_at(self, start: int, count: int) -> np.ndarray:
        """Pixel-centre coordinates of ``count`` pixels from global index ``start``."""
        indices = np.arange(start, start + count, dtype=float)
        return self.phase + (indices + 0.5) * self.pitch

    def centers(self) -> np.ndarray:
        """Pixel-centre coordinates of the request's own pixels."""
        return self.centers_at(self.start, self.count)

    @property
    def stop(self) -> int:
        """One past the request's last global pixel index."""
        return self.start + self.count


def _raster_sinr(
    network: WirelessNetwork, xs: np.ndarray, ys: np.ndarray, backend
) -> np.ndarray:
    """SINR of every station at every pixel centre, shape ``(n, len(ys), len(xs))``.

    One call of the batch API rather than the raw backend method, so pixel
    batches inherit its memory-bounded point chunking (bit-identical per
    chunk size — chunking commutes with the per-pixel independence that
    already makes tiles exact).
    """
    grid_x, grid_y = np.meshgrid(xs, ys)
    pixel_points = np.column_stack((grid_x.ravel(), grid_y.ravel()))
    return engine_batch.sinr_batch(network, pixel_points, backend=backend).reshape(
        len(network), len(ys), len(xs)
    )


def raster_block(
    network: WirelessNetwork, xs: np.ndarray, ys: np.ndarray, backend=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Labels and SINR values over a pixel-centre grid, in one engine call.

    The shared compute core of the monolithic rasteriser and the tile cache:
    the centres become an ``(m, 2)`` batch through the engine backend
    (``backend``, defaulting to the active one) and every per-pixel quantity
    (SINR column, reception test, argmax) is computed independently per
    pixel, so computing any sub-grid under the *same* backend yields
    bit-identical values to computing the full grid.  Different backends
    agree only to floating-point tolerance, which is why the tile cache
    keys tiles by backend and pins one backend per assembled request.

    Returns:
        ``(labels, sinr_values)`` of shapes ``(len(ys), len(xs))`` and
        ``(n_stations, len(ys), len(xs))``.
    """
    if backend is None:
        backend = active_backend()
    sinr_values = _raster_sinr(network, xs, ys, backend)
    received = sinr_values >= network.beta
    best = np.argmax(sinr_values, axis=0)
    any_received = received.any(axis=0)
    labels = np.where(any_received, best, NO_RECEPTION)
    return labels, sinr_values


def _nearest_pixel_index(centers: np.ndarray, coordinate: float) -> int:
    """Index of the pixel centre nearest to ``coordinate`` (clamped to the raster).

    Implemented as a ``searchsorted`` against the midpoints between adjacent
    centres; a coordinate exactly on a midpoint resolves to the lower pixel,
    and coordinates outside the box clamp to the edge pixels.
    """
    if len(centers) < 2:
        return 0
    midpoints = (centers[:-1] + centers[1:]) * 0.5
    return int(np.searchsorted(midpoints, coordinate, side="left"))


class RasterDiagram:
    """A rasterised SINR diagram over an axis-aligned bounding box.

    Attributes:
        xs, ys: 1-d coordinate arrays of the pixel centres.  Centres are
            inset half a pixel from the box edges, so the pixels tile the
            box exactly: ``labels.size * pixel_area()`` equals the box area.
        labels: 2-d integer array (``shape = (len(ys), len(xs))``); entry
            ``labels[r, c]`` is the index of the station heard at pixel
            ``(xs[c], ys[r])`` or ``NO_RECEPTION``.
        sinr_values: 3-d float array of per-station SINR values with shape
            ``(n_stations, len(ys), len(xs))``.  A raster assembled from
            the tile cache computes them on first read (see
            :attr:`sinr_values`).
        pitch: optional ``(dx, dy)`` pixel extent.  Always set by
            :meth:`SINRDiagram.rasterize`; rasters constructed by hand may
            omit it, in which case the extent is recovered from adjacent
            centres (and a degenerate single-row/column raster has no
            recoverable extent at all — see :meth:`pixel_area`).

    A raster is a value: treat its arrays as read-only.
    """

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        labels: np.ndarray,
        sinr_values: np.ndarray,
        pitch: Optional[Tuple[float, float]] = None,
    ):
        self.xs = xs
        self.ys = ys
        self.labels = labels
        self.pitch = pitch
        self._sinr_values = sinr_values
        # ``(network, backend)`` while the SINR values are still to be
        # computed; only the tile cache's assembly sets it.
        self._sinr_source: Optional[tuple] = None
        self._sinr_lock: Optional[threading.Lock] = None

    @classmethod
    def _with_deferred_sinr(
        cls,
        network: WirelessNetwork,
        lattice_x: RasterLattice,
        lattice_y: RasterLattice,
        labels: np.ndarray,
        backend,
    ) -> "RasterDiagram":
        """The raster of a lattice pair whose SINR values wait for a read.

        The tile cache stores labels only; the first read of
        :attr:`sinr_values` makes the one engine call the monolithic
        rasteriser makes, under the request's pinned ``backend``.
        """
        raster = cls(
            xs=lattice_x.centers(),
            ys=lattice_y.centers(),
            labels=labels,
            sinr_values=None,
            pitch=(lattice_x.pitch, lattice_y.pitch),
        )
        raster._sinr_source = (network, backend)
        raster._sinr_lock = threading.Lock()
        return raster

    @property
    def sinr_values(self) -> np.ndarray:
        """Per-station SINR values, shape ``(n_stations, len(ys), len(xs))``.

        On a raster assembled from the tile cache the first read computes
        them through one ``engine.batch.sinr_batch`` call over the pixel
        centres, with the network and backend of the request, and keeps
        them: every pixel is computed on its own and chunking is exact, so
        the values are bit-identical to the uncached raster's.  Concurrent
        first reads compute once, under the raster's lock, and all return
        the same array.
        """
        if self._sinr_source is not None:
            with self._sinr_lock:
                if self._sinr_source is not None:
                    network, backend = self._sinr_source
                    self._sinr_values = _raster_sinr(
                        network, self.xs, self.ys, backend
                    )
                    self._sinr_source = None
        return self._sinr_values

    @property
    def resolution(self) -> Tuple[int, int]:
        """``(rows, columns)`` of the raster."""
        return (len(self.ys), len(self.xs))

    def pixel_area(self) -> float:
        """Area represented by a single pixel.

        Raises:
            DiagramError: for a single-row or single-column raster without
                an explicit ``pitch`` — the pixel extent cannot be recovered
                from one centre, and silently returning ``0.0`` (the old
                behaviour) zeroed every :meth:`zone_area` downstream.
        """
        if self.pitch is not None:
            return float(self.pitch[0] * self.pitch[1])
        if len(self.xs) > 1 and len(self.ys) > 1:
            return float((self.xs[1] - self.xs[0]) * (self.ys[1] - self.ys[0]))
        raise DiagramError(
            "pixel_area() is undefined for a degenerate raster "
            f"({len(self.ys)} rows x {len(self.xs)} columns) without an "
            "explicit pitch"
        )

    def zone_area(self, index: int) -> float:
        """Estimated area of the reception zone of station ``index``."""
        return float(np.count_nonzero(self.labels == index)) * self.pixel_area()

    def coverage_fraction(self) -> float:
        """Fraction of the raster where some station is heard."""
        return float(np.count_nonzero(self.labels != NO_RECEPTION)) / self.labels.size

    def label_at(self, point: Point) -> int:
        """Raster label at the pixel whose centre is nearest to ``point``.

        A ``searchsorted`` against the centres themselves would return the
        next centre *at or above* the coordinate — biased one pixel up for
        any point right of a centre — so the lookup goes through the
        midpoints between centres instead.  Points outside the box clamp to
        the nearest edge pixel.  A point with a non-finite coordinate hears
        no station, as on every locator and backend, so it answers
        ``NO_RECEPTION``.
        """
        if not (math.isfinite(point.x) and math.isfinite(point.y)):
            return NO_RECEPTION
        column = _nearest_pixel_index(self.xs, point.x)
        row = _nearest_pixel_index(self.ys, point.y)
        return int(self.labels[row, column])


@dataclass(frozen=True)
class SINRDiagram:
    """The SINR diagram (reception map) of a wireless network."""

    network: WirelessNetwork

    # ------------------------------------------------------------------
    # Zones
    # ------------------------------------------------------------------
    @cached_property
    def zones(self) -> Tuple[ReceptionZone, ...]:
        """One reception zone per station, in station order."""
        return tuple(
            ReceptionZone(network=self.network, index=index)
            for index in range(len(self.network))
        )

    def zone(self, index: int) -> ReceptionZone:
        """The reception zone of station ``index``."""
        return self.zones[index]

    def __len__(self) -> int:
        return len(self.network)

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def station_heard_at(self, point: Point) -> Optional[int]:
        """The station heard at ``point``, or None (the null zone ``H_empty``).

        When ``beta >= 1`` at most one station can be heard at any point; for
        ``beta < 1`` (allowed so that Figure 5 can be reproduced) several
        stations may qualify, in which case the one with the highest SINR is
        reported.
        """
        candidates = [
            index
            for index in range(len(self.network))
            if self.network.is_received(index, point)
        ]
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        # A point occupied by stations (only possible with shared locations):
        # every co-located station is received there but the SINR ratio is
        # undefined, so the first co-located candidate wins — the same
        # convention the batch kernels use.
        for index in candidates:
            if self.network.station(index).location == point:
                return index
        return max(candidates, key=lambda index: self.network.sinr(index, point))

    def reception_vector(self, point: Point) -> List[bool]:
        """Reception indicator of every station at ``point``."""
        return [
            self.network.is_received(index, point)
            for index in range(len(self.network))
        ]

    # ------------------------------------------------------------------
    # Rasterisation (numerically generated diagrams, as in the figures)
    # ------------------------------------------------------------------
    def rasterize(
        self,
        lower_left: Point,
        upper_right: Point,
        resolution: int = 200,
        *,
        cache=None,
    ) -> RasterDiagram:
        """Label every pixel of a bounding box with the station heard there.

        Pixel centres sit at the true cell centres (half a pixel inset from
        the box edges), so the pixels tile the box exactly and
        ``labels.size * pixel_area()`` equals the box area — endpoint
        sampling (the old behaviour) over-counted every area estimate by
        ``~(1 + 1/(columns-1)) * (1 + 1/(rows-1))``.

        Args:
            lower_left, upper_right: corners of the bounding box.
            resolution: number of pixels along the longer side; the shorter
                side is scaled to keep pixels square.
            cache: ``None`` computes the raster monolithically; a
                :class:`repro.raster.TileCache` (or ``True`` for the
                process-wide default cache) assembles it from cached lattice
                tiles instead, computing only the missing ones.  Both paths
                return bit-identical rasters.

        Raises:
            DiagramError: if the box is empty, its width or height is not
                finite (a non-finite corner, or corners so far apart that
                the extent overflows), a side is too short for its pixel
                pitch to be a nonzero float, or the resolution is too small.
        """
        # Python floats overflow to inf silently; numpy scalars would warn.
        width = float(upper_right.x) - float(lower_left.x)
        height = float(upper_right.y) - float(lower_left.y)
        if not (math.isfinite(width) and math.isfinite(height)):
            raise DiagramError(
                f"rasterize() requires a finite bounding box, got "
                f"{lower_left}-{upper_right}"
            )
        if width <= 0.0 or height <= 0.0:
            raise DiagramError("rasterize() requires a non-empty bounding box")
        if resolution < 2:
            raise DiagramError("rasterize() requires resolution >= 2")

        if width >= height:
            columns = resolution
            rows = max(2, int(round(resolution * height / width)))
        else:
            rows = resolution
            columns = max(2, int(round(resolution * width / height)))

        if width / columns == 0.0 or height / rows == 0.0:
            raise DiagramError(
                f"rasterize() requires a box whose pixel pitch does not "
                f"underflow to 0, got {lower_left}-{upper_right} at "
                f"{columns}x{rows} pixels"
            )

        lattice_x = RasterLattice.build(lower_left.x, width, columns)
        lattice_y = RasterLattice.build(lower_left.y, height, rows)

        if cache is not None and cache is not False:
            # Imported lazily: repro.raster sits above the model layer.
            from ..raster import rasterize_tiled, resolve_cache

            return rasterize_tiled(
                self.network, lattice_x, lattice_y, cache=resolve_cache(cache)
            )

        xs = lattice_x.centers()
        ys = lattice_y.centers()
        labels, sinr_values = raster_block(self.network, xs, ys)
        return RasterDiagram(
            xs=xs,
            ys=ys,
            labels=labels,
            sinr_values=sinr_values,
            pitch=(lattice_x.pitch, lattice_y.pitch),
        )

    def default_bounding_box(self, margin: float = 1.5) -> Tuple[Point, Point]:
        """A bounding box comfortably containing every bounded reception zone.

        The box covers all stations expanded by ``margin`` times the largest
        zone radius bound (or the station spread, whichever is larger).
        """
        locations = self.network.locations()
        xs = [p.x for p in locations]
        ys = [p.y for p in locations]
        spread = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
        pad = margin * spread
        return (
            Point(min(xs) - pad, min(ys) - pad),
            Point(max(xs) + pad, max(ys) + pad),
        )

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    def summary(self, resolution: int = 300, *, cache=None) -> Dict[str, object]:
        """Coarse summary of the diagram (zone areas, coverage, fatness).

        Used by the experiment harness and examples for quick reporting; all
        quantities are raster estimates.  Passing ``cache`` (a
        :class:`repro.raster.TileCache` or ``True`` for the process default)
        serves the underlying raster from the tile cache, so repeated
        summaries of the same network recompute nothing.
        """
        lower_left, upper_right = self.default_bounding_box()
        raster = self.rasterize(
            lower_left, upper_right, resolution=resolution, cache=cache
        )
        zone_areas = {
            index: raster.zone_area(index) for index in range(len(self.network))
        }
        fatness: Dict[int, float] = {}
        for index, zone in enumerate(self.zones):
            if zone.is_degenerate or self.network.is_trivial():
                fatness[index] = math.nan
            else:
                fatness[index] = zone.fatness(angles=90).fatness
        return {
            "network": self.network.describe(),
            "zone_areas": zone_areas,
            "coverage_fraction": raster.coverage_fraction(),
            "fatness": fatness,
        }
