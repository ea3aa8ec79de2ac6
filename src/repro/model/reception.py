"""Reception zones ``H_i`` of an SINR diagram.

The reception zone of station ``s_i`` is the set of points where its SINR is
at least ``beta``, together with the station location itself (Section 2.2).
For non-trivial uniform power networks the zone is compact and strictly
contained in the Voronoi cell of its station (Observation 2.2), and for
``alpha = 2`` and ``beta >= 1`` it is convex (Theorem 1) and fat (Theorem 2).

:class:`ReceptionZone` wraps a network and a station index and provides the
membership predicate and one boundary probe,
:meth:`~ReceptionZone.boundary_distances_along_rays`: a bisection along rays
from the station (valid because the zone is star-shaped with respect to its
station, Lemma 3.1) that runs all of a caller's rays in lockstep through the
engine's batched reception mask.  The polygonal boundary approximation and
the area / perimeter / fatness estimates are built on it, and so is every
other boundary measure in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

from ..algebra.reception import ReceptionPolynomial
from ..exceptions import NetworkConfigurationError
from ..geometry.fatness import FatnessMeasurement
from ..geometry.point import Point
from ..geometry.polygon import Polygon
from .network import WirelessNetwork

__all__ = ["ReceptionZone"]


@dataclass(frozen=True)
class ReceptionZone:
    """The reception zone ``H_i`` of one station of a wireless network."""

    network: WirelessNetwork
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < len(self.network):
            raise NetworkConfigurationError(
                f"station index {self.index} out of range for network of size "
                f"{len(self.network)}"
            )

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def station_location(self) -> Point:
        """Location of the zone's station."""
        return self.network.station(self.index).location

    @property
    def is_degenerate(self) -> bool:
        """True when another station shares the location (zone = single point)."""
        return self.network.location_is_shared(self.index)

    @property
    def is_bounded(self) -> bool:
        """True unless the network is trivial (Observation 2.2)."""
        return not self.network.is_trivial()

    @cached_property
    def polynomial(self) -> ReceptionPolynomial:
        """The reception polynomial ``H`` of this zone (requires ``alpha = 2``)."""
        return self.network.reception_polynomial(self.index)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def contains(self, point: Point) -> bool:
        """Membership test: is the station heard at ``point``?"""
        return self.network.is_received(self.index, point)

    def __contains__(self, point: Point) -> bool:
        return self.contains(point)

    def sinr_at(self, point: Point) -> float:
        """SINR of the zone's station at ``point`` (undefined at stations)."""
        return self.network.sinr(self.index, point)

    def membership_predicate(self) -> Callable[[Point], bool]:
        """The zone as a bare predicate (used by generic geometry checkers)."""
        return self.contains

    # ------------------------------------------------------------------
    # Boundary probing (star-shape based)
    # ------------------------------------------------------------------
    def search_radius(self) -> float:
        """A radius guaranteed to contain the zone, centred at the station.

        For degenerate zones this is 0.  For bounded zones we use the explicit
        upper bound of Theorem 4.1 when ``beta > 1``; otherwise we fall back
        to a generous multiple of the distance to the nearest station, grown
        until the boundary is bracketed.
        """
        if self.is_degenerate:
            return 0.0
        kappa = self.network.minimum_distance_from(self.index)
        beta = self.network.beta
        noise = self.network.noise
        if beta > 1.0:
            return kappa / (math.sqrt(beta * (1.0 + noise * kappa * kappa)) - 1.0)
        # beta <= 1: the theorem's bound does not apply; grow a radius until
        # the point straight ahead is out of the zone (or give up and cap).
        radius = 4.0 * kappa
        center = self.station_location
        for _ in range(60):
            if not self.contains(Point(center.x - radius, center.y)):
                return radius
            radius *= 2.0
        return radius

    def boundary_distance_along_ray(
        self,
        angle: float,
        max_radius: Optional[float] = None,
        tolerance: float = 1e-10,
    ) -> float:
        """Distance from the station to the zone boundary along one ray.

        A one-ray call of :meth:`boundary_distances_along_rays`, for callers
        that probe a single ray; a caller with many rays passes them all to
        that method in one call.
        """
        return float(
            self.boundary_distances_along_rays([angle], max_radius, tolerance)[0]
        )

    def boundary_distances_along_rays(
        self,
        angles: "Sequence[float]",
        max_radius: Optional[float] = None,
        tolerance: float = 1e-10,
    ) -> "np.ndarray":
        """Distances from the station to the zone boundary along many rays.

        Lemma 3.1 (star shape): along any ray from the station the zone is an
        interval starting at the station, so its boundary distance is found
        by bisection.  This is the library's one boundary probe: the rim
        measures below, contour tracing, the radius bounds, the ray-sweep
        cover and the theorem harnesses all pass their rays here in one call.
        The bisections of all rays advance in lockstep: every iteration
        evaluates one batch reception mask (:func:`repro.engine.batch.
        received_mask`) at the current midpoints, so a sweep of thousands of
        rays costs ``O(log(Delta / tol))`` engine calls.

        Args:
            angles: finite ray directions in radians.
            max_radius: finite positive radius the bisection starts from;
                defaults to :meth:`search_radius`.  A ray still inside the
                zone there is extended by up to 60 doublings, so a
                ``max_radius`` up to a factor ``2**60`` below the boundary
                distance still brackets it.
            tolerance: finite positive stopping gap, relative to
                ``max(1, distance)``.  A gap finer than float64 resolution
                cannot be reached, so a ray also stops once its bracket holds
                two adjacent floats.

        Returns:
            A float array of per-ray boundary distances: ``inf`` where the ray
            is still inside after the doublings (the zone is unbounded along
            it, as for trivial networks), ``0`` for a degenerate zone.

        Raises:
            NetworkConfigurationError: for a non-finite angle, or a
                ``max_radius`` or ``tolerance`` that is not finite and
                positive.
        """
        import numpy as np

        from ..engine import batch as engine_batch

        angle_array = np.asarray(angles, dtype=float).ravel()
        if not np.isfinite(angle_array).all():
            raise NetworkConfigurationError("boundary probe angles must be finite")
        if max_radius is not None and not 0.0 < max_radius < math.inf:
            raise NetworkConfigurationError(
                f"max_radius must be finite and positive, got {max_radius!r}"
            )
        if not 0.0 < tolerance < math.inf:
            raise NetworkConfigurationError(
                f"tolerance must be finite and positive, got {tolerance!r}"
            )
        count = angle_array.size
        if self.is_degenerate or count == 0:
            return np.zeros(count, dtype=float)
        center = self.station_location
        directions = np.column_stack(
            (np.cos(angle_array), np.sin(angle_array))
        )
        origin = np.array([center.x, center.y], dtype=float)

        def inside_at(selector: np.ndarray, radii: np.ndarray) -> np.ndarray:
            points = origin + directions[selector] * radii[:, None]
            return engine_batch.received_mask(self.network, self.index, points)

        start = max_radius if max_radius is not None else self.search_radius()
        high = np.full(count, float(start))
        everything = np.ones(count, dtype=bool)
        # Rays still inside at the start radius: extend by doubling.
        unbounded = inside_at(everything, high)
        for _ in range(60):
            if not unbounded.any():
                break
            high[unbounded] *= 2.0
            unbounded[unbounded] = inside_at(unbounded, high[unbounded])
        low = np.zeros(count, dtype=float)
        active = ~unbounded
        while True:
            bracket_high = high[active]
            gaps = bracket_high - low[active]
            # Never ask for a gap below one float spacing: it cannot shrink.
            stop = np.maximum(
                tolerance * np.maximum(1.0, bracket_high), np.spacing(bracket_high)
            )
            remaining = gaps > stop
            if not remaining.any():
                break
            active[active] = remaining
            middle = (low[active] + high[active]) / 2.0
            hit = inside_at(active, middle)
            low[active] = np.where(hit, middle, low[active])
            high[active] = np.where(hit, high[active], middle)
        out = (low + high) / 2.0
        out[unbounded] = math.inf
        return out

    def boundary_point_along_ray(
        self, angle: float, max_radius: Optional[float] = None
    ) -> Point:
        """The boundary point in direction ``angle`` from the station."""
        distance = self.boundary_distance_along_ray(angle, max_radius)
        center = self.station_location
        return Point(
            center.x + distance * math.cos(angle),
            center.y + distance * math.sin(angle),
        )

    def _rim(self, rays: int) -> Tuple[List[float], List[float]]:
        """The angles ``2 pi k / rays`` and the boundary distances along them.

        Degenerate zones give distance 0 on every ray.
        """
        if rays < 1:
            raise NetworkConfigurationError(
                f"a zone measure needs at least one ray, got {rays!r}"
            )
        angles = [2.0 * math.pi * k / rays for k in range(rays)]
        return angles, self.boundary_distances_along_rays(angles).tolist()

    def boundary_polygon(self, vertices: int = 180) -> Polygon:
        """A polygonal approximation of the zone boundary.

        The polygon connects the boundary points along ``vertices`` equally
        spaced rays from the station.  For convex zones the polygon is an
        inscribed approximation whose area converges to the zone area.

        Raises:
            NetworkConfigurationError: for degenerate zones (single points).
        """
        if self.is_degenerate:
            raise NetworkConfigurationError(
                "a degenerate reception zone has no boundary polygon"
            )
        if vertices < 3:
            raise NetworkConfigurationError("boundary_polygon() needs >= 3 vertices")
        center = self.station_location
        angles, distances = self._rim(vertices)
        return Polygon(
            [
                Point(
                    center.x + distance * math.cos(angle),
                    center.y + distance * math.sin(angle),
                )
                for angle, distance in zip(angles, distances)
            ]
        )

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    def inscribed_radius(self, angles: int = 360) -> float:
        """``delta(s_i, H_i)``: radius of the largest centred inscribed ball."""
        return min(self._rim(angles)[1])

    def enclosing_radius(self, angles: int = 360) -> float:
        """``Delta(s_i, H_i)``: radius of the smallest centred enclosing ball."""
        return max(self._rim(angles)[1])

    def fatness(self, angles: int = 360) -> FatnessMeasurement:
        """The measured fatness parameters ``(delta, Delta, phi)`` of the zone."""
        radii = self._rim(angles)[1]
        return FatnessMeasurement(
            center=self.station_location, delta=min(radii), Delta=max(radii)
        )

    def area_estimate(self, vertices: int = 720) -> float:
        """Area of the zone, estimated from the boundary polygon."""
        if self.is_degenerate:
            return 0.0
        return self.boundary_polygon(vertices).area()

    def perimeter_estimate(self, vertices: int = 720) -> float:
        """Perimeter of the zone, estimated from the boundary polygon."""
        if self.is_degenerate:
            return 0.0
        return self.boundary_polygon(vertices).perimeter()
