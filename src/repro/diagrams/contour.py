"""Boundary tracing of reception zones.

Two tracing strategies are provided:

* :func:`trace_zone_boundary` — exact-to-tolerance tracing of a single
  reception zone by the ray sweep enabled by the star-shape property
  (Lemma 3.1): the vertices of
  :meth:`~repro.model.reception.ReceptionZone.boundary_polygon`, whose rays
  go to the batched boundary probe in one call; this is what the figure
  exports use for the smooth zone outlines.
* :func:`marching_squares` — a generic iso-contour extractor over a raster
  (used for the ``beta < 1`` regime of Figure 5, where zones need not be
  star-shaped around anything and the ray sweep is not applicable, and for
  the null-zone boundary).

Both return polylines as lists of points; closed contours repeat their first
point at the end.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import DiagramError
from ..geometry.point import Point
from ..model.reception import ReceptionZone

__all__ = ["trace_zone_boundary", "marching_squares"]


def trace_zone_boundary(
    zone: ReceptionZone, vertices: int = 360, close: bool = True
) -> List[Point]:
    """Trace the boundary of a (star-shaped) reception zone.

    Args:
        zone: the reception zone to trace.
        vertices: number of boundary samples (equally spaced in angle).
        close: whether to append the first point again at the end.

    Raises:
        DiagramError: for degenerate zones.
    """
    if zone.is_degenerate:
        raise DiagramError("cannot trace the boundary of a degenerate zone")
    if vertices < 3:
        raise DiagramError("trace_zone_boundary() needs at least 3 vertices")
    points = list(zone.boundary_polygon(vertices).vertices)
    if close:
        points.append(points[0])
    return points


def marching_squares(
    values: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    level: float = 0.0,
) -> List[List[Point]]:
    """Extract iso-contour polylines ``values == level`` from a raster.

    A standard marching-squares pass: every raster cell contributes up to two
    segments obtained by linear interpolation along its edges; segments are
    then chained into polylines.

    Args:
        values: 2-d array of shape ``(len(ys), len(xs))``.
        xs, ys: coordinates of the raster columns and rows.
        level: iso-value to extract.

    Returns:
        A list of polylines (each a list of points).  Closed contours have
        identical first and last points.
    """
    if values.ndim != 2:
        raise DiagramError("marching_squares() expects a 2-d value array")
    rows, columns = values.shape
    if rows != len(ys) or columns != len(xs):
        raise DiagramError("raster shape does not match the coordinate arrays")

    segments: List[Tuple[Point, Point]] = []
    shifted = values - level

    def interpolate(
        xa: float, ya: float, va: float, xb: float, yb: float, vb: float
    ) -> Point:
        if va == vb:
            t = 0.5
        else:
            t = va / (va - vb)
        t = min(1.0, max(0.0, t))
        return Point(xa + t * (xb - xa), ya + t * (yb - ya))

    for r in range(rows - 1):
        for c in range(columns - 1):
            corner_values = (
                shifted[r, c],
                shifted[r, c + 1],
                shifted[r + 1, c + 1],
                shifted[r + 1, c],
            )
            corner_points = (
                (xs[c], ys[r]),
                (xs[c + 1], ys[r]),
                (xs[c + 1], ys[r + 1]),
                (xs[c], ys[r + 1]),
            )
            case = 0
            for bit, value in enumerate(corner_values):
                if value > 0.0:
                    case |= 1 << bit
            if case in (0, 15):
                continue
            crossings: List[Point] = []
            for first, second in ((0, 1), (1, 2), (2, 3), (3, 0)):
                va, vb = corner_values[first], corner_values[second]
                if (va > 0.0) != (vb > 0.0):
                    (xa, ya), (xb, yb) = corner_points[first], corner_points[second]
                    crossings.append(interpolate(xa, ya, va, xb, yb, vb))
            # Pair up crossings: 2 crossings -> one segment; 4 -> two segments
            # (the ambiguous saddle case; the pairing choice is immaterial for
            # area/length summaries).
            for i in range(0, len(crossings) - 1, 2):
                segments.append((crossings[i], crossings[i + 1]))

    return _chain_segments(segments)


def _chain_segments(
    segments: Sequence[Tuple[Point, Point]], tolerance: float = 1e-9
) -> List[List[Point]]:
    """Chain loose segments into polylines by matching endpoints."""
    if not segments:
        return []

    def key(point: Point) -> Tuple[int, int]:
        return (round(point.x / tolerance), round(point.y / tolerance))

    remaining: Dict[int, Tuple[Point, Point]] = dict(enumerate(segments))
    endpoint_index: Dict[Tuple[int, int], List[int]] = {}
    for identifier, (start, end) in remaining.items():
        endpoint_index.setdefault(key(start), []).append(identifier)
        endpoint_index.setdefault(key(end), []).append(identifier)

    def pop_segment_at(point: Point) -> Optional[Tuple[Point, Point]]:
        candidates = endpoint_index.get(key(point), [])
        while candidates:
            identifier = candidates.pop()
            if identifier in remaining:
                return remaining.pop(identifier)
        return None

    polylines: List[List[Point]] = []
    while remaining:
        identifier, (start, end) = next(iter(remaining.items()))
        del remaining[identifier]
        chain = [start, end]
        # Extend forward.
        while True:
            candidate = pop_segment_at(chain[-1])
            if candidate is None:
                break
            first, second = candidate
            chain.append(second if first.is_close(chain[-1], tolerance) else first)
        # Extend backward.
        while True:
            candidate = pop_segment_at(chain[0])
            if candidate is None:
                break
            first, second = candidate
            chain.insert(0, second if first.is_close(chain[0], tolerance) else first)
        polylines.append(chain)
    return polylines
