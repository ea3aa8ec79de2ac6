"""Fatness of planar zones (Section 2.1 and Figure 7 of the paper).

For a bounded zone ``Z`` and an internal point ``p`` the paper defines

* ``delta(p, Z)`` — the radius of the largest ball centred at ``p`` that is
  fully contained in ``Z``;
* ``Delta(p, Z)`` — the radius of the smallest ball centred at ``p`` that
  fully contains ``Z``;
* the fatness parameter ``phi(p, Z) = Delta(p, Z) / delta(p, Z)``.

``Z`` is *fat* with respect to ``p`` when ``phi(p, Z)`` is bounded by a
constant.  Theorem 2 shows reception zones of uniform-power networks are fat
with ``phi <= (sqrt(beta) + 1) / (sqrt(beta) - 1)``.

This module holds the measurement record, the paper's bound and the
measurement of a polygonal zone.  Reception zones are measured by
:meth:`repro.model.reception.ReceptionZone.fatness`, which reads ``delta``
and ``Delta`` off the library's one batched boundary probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import GeometryError
from .point import Point
from .polygon import Polygon

__all__ = [
    "FatnessMeasurement",
    "fatness_of_polygon",
    "theoretical_fatness_bound",
]


@dataclass(frozen=True, slots=True)
class FatnessMeasurement:
    """The inscribed radius, enclosing radius and their ratio for a zone."""

    center: Point
    delta: float
    Delta: float

    @property
    def fatness(self) -> float:
        """The fatness parameter ``phi = Delta / delta``."""
        if self.delta <= 0.0:
            return math.inf
        return self.Delta / self.delta

    def satisfies_bound(self, bound: float, slack: float = 1e-9) -> bool:
        """Return True if ``phi <= bound`` up to a relative ``slack``."""
        return self.fatness <= bound * (1.0 + slack)


def theoretical_fatness_bound(beta: float) -> float:
    """The paper's fatness bound ``(sqrt(beta) + 1) / (sqrt(beta) - 1)``.

    Only meaningful for ``beta > 1`` (Theorem 4.2); raises for smaller values.
    """
    if beta <= 1.0:
        raise GeometryError("the fatness bound of Theorem 4.2 requires beta > 1")
    root = math.sqrt(beta)
    return (root + 1.0) / (root - 1.0)


def fatness_of_polygon(polygon: Polygon, center: Point) -> FatnessMeasurement:
    """Measure fatness of a polygonal zone with respect to an internal point.

    ``delta`` is the distance from ``center`` to the nearest boundary edge and
    ``Delta`` the distance to the farthest vertex.  For convex polygons that
    contain ``center`` these are exactly the paper's quantities.
    """
    if not polygon.contains(center):
        raise GeometryError("fatness is only defined for an internal point of the zone")
    delta = min(edge.distance_to_point(center) for edge in polygon.edges())
    big_delta = max(center.distance_to(vertex) for vertex in polygon.vertices)
    return FatnessMeasurement(center=center, delta=delta, Delta=big_delta)
