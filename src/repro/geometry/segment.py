"""Line segments and infinite lines in the plane.

Segments are the work-horses of the convexity analysis (a set is convex iff
the segment between every two of its points stays inside) and of the
point-location preprocessing, whose *segment test* counts intersections of a
reception-zone boundary with grid edges (Section 5.1).

Lines are represented in the implicit form ``a*x + b*y + c = 0`` with
``(a, b)`` normalised to unit length so signed distances are immediate.  The
*separation line* of two points (Section 2.1) — their perpendicular bisector —
is provided here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..exceptions import GeometryError
from .point import Point, cross, dot

__all__ = ["Segment", "Line", "separation_line"]


@dataclass(frozen=True, slots=True)
class Segment:
    """The closed segment between two (not necessarily distinct) endpoints."""

    start: Point
    end: Point

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.start.distance_to(self.end)

    def direction(self) -> Point:
        """The (non-normalised) direction vector ``end - start``."""
        return self.end - self.start

    def midpoint(self) -> Point:
        """The midpoint of the segment."""
        return (self.start + self.end) * 0.5

    def is_degenerate(self, tolerance: float = 0.0) -> bool:
        """Return True if the endpoints coincide (within ``tolerance``)."""
        return self.length() <= tolerance

    def reversed(self) -> "Segment":
        """The same segment traversed in the opposite direction."""
        return Segment(self.end, self.start)

    # ------------------------------------------------------------------
    # Parametrisation
    # ------------------------------------------------------------------
    def point_at(self, t: float) -> Point:
        """The point ``start + t * (end - start)``.

        ``t = 0`` gives ``start``, ``t = 1`` gives ``end``; values outside
        ``[0, 1]`` extrapolate along the supporting line.
        """
        return Point(
            self.start.x + t * (self.end.x - self.start.x),
            self.start.y + t * (self.end.y - self.start.y),
        )

    def sample(self, count: int, include_endpoints: bool = True) -> List[Point]:
        """Return ``count`` points spread evenly along the segment."""
        if count <= 0:
            raise GeometryError("sample() requires a positive count")
        if count == 1:
            return [self.midpoint()]
        if include_endpoints:
            step = 1.0 / (count - 1)
            return [self.point_at(i * step) for i in range(count)]
        step = 1.0 / (count + 1)
        return [self.point_at((i + 1) * step) for i in range(count)]

    def __iter__(self) -> Iterator[Point]:
        yield self.start
        yield self.end

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains(self, point: Point, tolerance: float = 1e-9) -> bool:
        """Return True if ``point`` lies on the segment (within ``tolerance``)."""
        direction = self.direction()
        length = direction.norm()
        if length <= tolerance:
            return self.start.distance_to(point) <= tolerance
        # Distance from the supporting line.
        offset = point - self.start
        perpendicular_distance = abs(cross(direction, offset)) / length
        if perpendicular_distance > tolerance:
            return False
        projection = dot(direction, offset) / (length * length)
        return -tolerance / length <= projection <= 1.0 + tolerance / length

    def projection_parameter(self, point: Point) -> float:
        """Parameter ``t`` of the orthogonal projection of ``point`` onto the line."""
        direction = self.direction()
        denominator = direction.squared_norm()
        if denominator == 0.0:
            raise GeometryError("cannot project onto a degenerate segment")
        return dot(direction, point - self.start) / denominator

    def closest_point(self, point: Point) -> Point:
        """The point of the segment closest to ``point``."""
        if self.is_degenerate():
            return self.start
        t = self.projection_parameter(point)
        return self.point_at(min(1.0, max(0.0, t)))

    def distance_to_point(self, point: Point) -> float:
        """Euclidean distance from ``point`` to the segment."""
        return self.closest_point(point).distance_to(point)

    def intersection(self, other: "Segment", tolerance: float = 1e-12) -> Optional[Point]:
        """Intersection point of two segments, or None.

        Parallel overlapping segments return None (no unique intersection
        point); use :meth:`contains` to test overlap explicitly.
        """
        d1 = self.direction()
        d2 = other.direction()
        denominator = cross(d1, d2)
        if abs(denominator) <= tolerance:
            return None
        offset = other.start - self.start
        t = cross(offset, d2) / denominator
        u = cross(offset, d1) / denominator
        if -tolerance <= t <= 1.0 + tolerance and -tolerance <= u <= 1.0 + tolerance:
            return self.point_at(t)
        return None


@dataclass(frozen=True, slots=True)
class Line:
    """An infinite line ``a*x + b*y + c = 0`` with ``(a, b)`` of unit length."""

    a: float
    b: float
    c: float

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def through(p: Point, q: Point) -> "Line":
        """The line through two distinct points."""
        direction = q - p
        length = direction.norm()
        if length == 0.0:
            raise GeometryError("cannot construct a line through coincident points")
        normal = direction.perpendicular() / length
        return Line(normal.x, normal.y, -(normal.x * p.x + normal.y * p.y))

    @staticmethod
    def from_point_and_direction(point: Point, direction: Point) -> "Line":
        """The line through ``point`` with the given direction vector."""
        return Line.through(point, point + direction)

    @staticmethod
    def horizontal(y: float) -> "Line":
        """The horizontal line at height ``y``."""
        return Line(0.0, 1.0, -y)

    @staticmethod
    def vertical(x: float) -> "Line":
        """The vertical line at abscissa ``x``."""
        return Line(1.0, 0.0, -x)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def signed_distance(self, point: Point) -> float:
        """Signed distance from ``point`` to the line."""
        return self.a * point.x + self.b * point.y + self.c

    def distance(self, point: Point) -> float:
        """Unsigned distance from ``point`` to the line."""
        return abs(self.signed_distance(point))

    def contains(self, point: Point, tolerance: float = 1e-9) -> bool:
        """Return True if ``point`` lies on the line (within ``tolerance``)."""
        return self.distance(point) <= tolerance

    def direction(self) -> Point:
        """A unit vector parallel to the line."""
        return Point(-self.b, self.a)

    def normal(self) -> Point:
        """The unit normal ``(a, b)``."""
        return Point(self.a, self.b)

    def point_on(self) -> Point:
        """An arbitrary point on the line (the foot of the origin)."""
        return Point(-self.a * self.c, -self.b * self.c)

    def parameterize(self, anchor: Optional[Point] = None) -> Tuple[Point, Point]:
        """Return ``(origin, direction)`` describing the line parametrically.

        Any point of the line is ``origin + t * direction`` with the unit
        direction vector; ``anchor``, if given, is projected onto the line and
        used as the origin.
        """
        direction = self.direction()
        if anchor is None:
            return self.point_on(), direction
        origin = self.project(anchor)
        return origin, direction

    def project(self, point: Point) -> Point:
        """Orthogonal projection of ``point`` onto the line."""
        offset = self.signed_distance(point)
        return Point(point.x - offset * self.a, point.y - offset * self.b)

    def intersection(self, other: "Line", tolerance: float = 1e-12) -> Optional[Point]:
        """Intersection point of two lines, or None if (nearly) parallel."""
        determinant = self.a * other.b - other.a * self.b
        if abs(determinant) <= tolerance:
            return None
        x = (self.b * other.c - other.b * self.c) / determinant
        y = (other.a * self.c - self.a * other.c) / determinant
        return Point(x, y)

    def side(self, point: Point, tolerance: float = 1e-12) -> int:
        """Return +1 / -1 / 0 depending on which side of the line the point lies."""
        value = self.signed_distance(point)
        if value > tolerance:
            return 1
        if value < -tolerance:
            return -1
        return 0


def separation_line(p: Point, q: Point) -> Line:
    """The separation line (perpendicular bisector) of two distinct points.

    Section 2.1: the set of points equidistant from ``p`` and ``q``.  Each
    reception zone of a non-trivial uniform-power network lies strictly on its
    own station's side of every separation line (Observation 2.2).
    """
    if p == q:
        raise GeometryError("separation line of coincident points is undefined")
    mid = (p + q) * 0.5
    direction = (q - p).perpendicular()
    return Line.from_point_and_direction(mid, direction)
