"""Simple polygons: area, perimeter, containment, convex hull and clipping.

Reception zones of the SINR model are not polygons, but the library
approximates them by polygons in several places:

* the empirical convexity / fatness checkers (``repro.analysis``) extract a
  polygonal boundary from a raster or ray sweep and measure it;
* the Voronoi diagram (Observation 2.2) represents each cell as a convex
  polygon obtained by half-plane intersection;
* diagram export traces the zone boundary into a polygon for plotting.

The polygon is stored as an ordered list of vertices; edges connect
consecutive vertices and the last vertex connects back to the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..exceptions import GeometryError
from .point import Point, orientation
from .segment import Line, Segment

__all__ = ["Polygon", "convex_hull"]


def convex_hull(points: Sequence[Point]) -> List[Point]:
    """Andrew's monotone-chain convex hull.

    Returns the hull vertices in counter-clockwise order without repeating the
    first vertex.  Collinear points on the hull boundary are discarded.  For
    fewer than three distinct points the distinct points are returned as-is.
    """
    unique = sorted(set((p.x, p.y) for p in points))
    if len(unique) <= 2:
        return [Point(x, y) for x, y in unique]

    def half_hull(sequence: Iterable[Tuple[float, float]]) -> List[Point]:
        hull: List[Point] = []
        for x, y in sequence:
            candidate = Point(x, y)
            while (
                len(hull) >= 2
                and orientation(hull[-2], hull[-1], candidate) <= 0.0
            ):
                hull.pop()
            hull.append(candidate)
        return hull

    lower = half_hull(unique)
    upper = half_hull(reversed(unique))
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True)
class Polygon:
    """A simple polygon given by its vertices in order (either orientation)."""

    vertices: Tuple[Point, ...]

    def __init__(self, vertices: Sequence[Point]):
        if len(vertices) < 3:
            raise GeometryError("a polygon needs at least three vertices")
        object.__setattr__(self, "vertices", tuple(vertices))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> List[Segment]:
        """The boundary edges, in vertex order."""
        count = len(self.vertices)
        return [
            Segment(self.vertices[i], self.vertices[(i + 1) % count])
            for i in range(count)
        ]

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    def signed_area(self) -> float:
        """Signed area (positive for counter-clockwise vertex order)."""
        total = 0.0
        count = len(self.vertices)
        for i in range(count):
            p = self.vertices[i]
            q = self.vertices[(i + 1) % count]
            total += p.x * q.y - q.x * p.y
        return total / 2.0

    def area(self) -> float:
        """Absolute area of the polygon."""
        return abs(self.signed_area())

    def perimeter(self) -> float:
        """Total length of the boundary."""
        return sum(edge.length() for edge in self.edges())

    def centroid(self) -> Point:
        """Area centroid of the polygon."""
        signed = self.signed_area()
        if signed == 0.0:
            # Degenerate polygon: fall back to the vertex average.
            total_x = sum(v.x for v in self.vertices)
            total_y = sum(v.y for v in self.vertices)
            return Point(total_x / len(self.vertices), total_y / len(self.vertices))
        cx = 0.0
        cy = 0.0
        count = len(self.vertices)
        for i in range(count):
            p = self.vertices[i]
            q = self.vertices[(i + 1) % count]
            factor = p.x * q.y - q.x * p.y
            cx += (p.x + q.x) * factor
            cy += (p.y + q.y) * factor
        return Point(cx / (6.0 * signed), cy / (6.0 * signed))

    def bounding_box(self) -> Tuple[Point, Point]:
        """Axis-aligned bounding box as ``(lower_left, upper_right)``."""
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return Point(min(xs), min(ys)), Point(max(xs), max(ys))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains(self, point: Point, tolerance: float = 1e-12) -> bool:
        """Point-in-polygon test (boundary counts as inside)."""
        for edge in self.edges():
            if edge.contains(point, tolerance=max(tolerance, 1e-9)):
                return True
        inside = False
        count = len(self.vertices)
        j = count - 1
        for i in range(count):
            vi = self.vertices[i]
            vj = self.vertices[j]
            intersects = (vi.y > point.y) != (vj.y > point.y)
            if intersects:
                x_cross = (vj.x - vi.x) * (point.y - vi.y) / (vj.y - vi.y) + vi.x
                if point.x < x_cross:
                    inside = not inside
            j = i
        return inside

    def is_convex(self, tolerance: float = 1e-9) -> bool:
        """Return True if the polygon is convex (allowing collinear vertices)."""
        count = len(self.vertices)
        sign = 0
        for i in range(count):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % count]
            c = self.vertices[(i + 2) % count]
            turn = orientation(a, b, c)
            if abs(turn) <= tolerance:
                continue
            current = 1 if turn > 0 else -1
            if sign == 0:
                sign = current
            elif sign != current:
                return False
        return True

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def clip_to_half_plane(
        self, line: Line, keep_side: int = -1, tolerance: float = 1e-12
    ) -> Optional["Polygon"]:
        """Sutherland–Hodgman clipping against one half-plane.

        Keeps the part of the polygon on the side of ``line`` whose sign
        matches ``keep_side`` (the boundary is always kept).  Returns ``None``
        when the intersection is empty or degenerate.
        """
        if keep_side not in (-1, 1):
            raise GeometryError("keep_side must be +1 or -1")

        def is_kept(point: Point) -> bool:
            return keep_side * line.signed_distance(point) >= -tolerance

        result: List[Point] = []
        count = len(self.vertices)
        for i in range(count):
            current = self.vertices[i]
            following = self.vertices[(i + 1) % count]
            current_in = is_kept(current)
            following_in = is_kept(following)
            if current_in:
                result.append(current)
            if current_in != following_in:
                crossing = _line_segment_crossing(line, current, following)
                if crossing is not None:
                    result.append(crossing)
        # Remove consecutive duplicates introduced by tangential clips.
        cleaned: List[Point] = []
        for vertex in result:
            if not cleaned or not cleaned[-1].is_close(vertex, tolerance=1e-12):
                cleaned.append(vertex)
        if len(cleaned) >= 2 and cleaned[0].is_close(cleaned[-1], tolerance=1e-12):
            cleaned.pop()
        if len(cleaned) < 3:
            return None
        return Polygon(cleaned)

    @staticmethod
    def regular(center: Point, radius: float, sides: int) -> "Polygon":
        """A regular polygon approximating the ball ``B(center, radius)``."""
        if sides < 3:
            raise GeometryError("a regular polygon needs at least three sides")
        step = 2.0 * math.pi / sides
        return Polygon(
            [
                Point(
                    center.x + radius * math.cos(i * step),
                    center.y + radius * math.sin(i * step),
                )
                for i in range(sides)
            ]
        )

    @staticmethod
    def axis_aligned_box(lower_left: Point, upper_right: Point) -> "Polygon":
        """The axis-aligned rectangle with the given opposite corners."""
        if upper_right.x <= lower_left.x or upper_right.y <= lower_left.y:
            raise GeometryError("axis_aligned_box() requires a non-empty box")
        return Polygon(
            [
                lower_left,
                Point(upper_right.x, lower_left.y),
                upper_right,
                Point(lower_left.x, upper_right.y),
            ]
        )


def _line_segment_crossing(line: Line, start: Point, end: Point) -> Optional[Point]:
    """Intersection of an infinite line with the segment ``start end``."""
    d_start = line.signed_distance(start)
    d_end = line.signed_distance(end)
    denominator = d_start - d_end
    if denominator == 0.0:
        return None
    t = d_start / denominator
    if t < 0.0 or t > 1.0:
        return None
    return Point(
        start.x + t * (end.x - start.x),
        start.y + t * (end.y - start.y),
    )
