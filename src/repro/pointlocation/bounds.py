"""Radius bounds for reception zones (Theorem 4.1 and Section 5.2).

The point-location preprocessing needs a lower bound ``delta_tilde`` on the
inscribed radius and an upper bound ``Delta_tilde`` on the enclosing radius of
the target zone.  The paper provides two levels of bounds:

* **Explicit bounds (Theorem 4.1).**  With ``kappa`` the distance from the
  station to its nearest neighbour,

      delta >= kappa / (sqrt(beta * (n - 1 + N * kappa^2)) + 1)
      Delta <= kappa / (sqrt(beta * (1 + N * kappa^2)) - 1)

  giving a fatness ratio of ``O(sqrt(n))``.

* **Improved bounds (Section 5.2).**  Theorem 4.2 bounds the fatness by the
  constant ``c = (sqrt(beta)+1)/(sqrt(beta)-1)``, so once any boundary
  distance ``r`` is known (found by a binary-search style probe of the SINR
  function along a ray), both radii are ``Theta(r)``:
  ``delta >= r / c`` and ``Delta <= c * r``.  The probe costs ``O(n log n)``
  time and shrinks the ratio ``Delta_tilde / delta_tilde`` from
  ``O(sqrt(n))`` to ``O(1)``, which is what makes the grid of the
  point-location structure ``O(eps^-1)`` cells instead of ``O(n eps^-1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..engine.certify import (
    MEASURED_PAD,
    PROBE_BRACKET,
    probe_tolerance,
    reach_margin,
)
from ..exceptions import PointLocationError
from ..geometry.fatness import theoretical_fatness_bound
from ..geometry.point import Point
from ..geometry.polygon import Polygon
from ..geometry.segment import Line
from ..model.network import WirelessNetwork
from ..model.reception import ReceptionZone

__all__ = [
    "RadiusBounds",
    "explicit_radius_bounds",
    "improved_radius_bounds",
    "measured_radius_bounds",
    "radius_bounds",
    "reach_box",
    "reach_margin",
    "station_reaches",
]


@dataclass(frozen=True, slots=True)
class RadiusBounds:
    """A certified sandwich ``delta_lower <= delta <= Delta <= Delta_upper``."""

    delta_lower: float
    Delta_upper: float

    def __post_init__(self) -> None:
        if self.delta_lower <= 0.0 or self.Delta_upper <= 0.0:
            raise PointLocationError("radius bounds must be positive")
        if self.delta_lower > self.Delta_upper:
            raise PointLocationError(
                "the lower bound on delta cannot exceed the upper bound on Delta"
            )

    @property
    def ratio(self) -> float:
        """The bound on the fatness ratio implied by the sandwich."""
        return self.Delta_upper / self.delta_lower


def explicit_radius_bounds(network: WirelessNetwork, index: int) -> RadiusBounds:
    """The explicit bounds of Theorem 4.1 for station ``index``.

    Requires a uniform power network with ``beta > 1`` whose station ``index``
    does not share its location with another station.  Where ``kappa**2``
    overflows, both bounds take the overflow-safe form of
    :func:`station_reaches`, rounded one ulp outward.
    """
    _require_uniform_nondegenerate(network, index)
    beta = network.beta
    noise = network.noise
    n = len(network)
    kappa = network.minimum_distance_from(index)

    if math.isfinite(beta * (1.0 + noise * kappa * kappa)):
        delta_lower = kappa / (math.sqrt(beta * (n - 1 + noise * kappa * kappa)) + 1.0)
        Delta_upper = kappa / (math.sqrt(beta * (1.0 + noise * kappa * kappa)) - 1.0)
    else:
        delta_lower = float(_far_bound(kappa, beta, noise, n - 1, 1.0))
        Delta_upper = float(_far_bound(kappa, beta, noise, 1, -1.0))
    return RadiusBounds(delta_lower=delta_lower, Delta_upper=Delta_upper)


# Neighbour offsets one pass of the sorted sweep scans in each direction.
# A pass costs a fixed number of numpy calls, and inside a swap under serving
# load every call waits for the GIL, so offsets are scanned in blocks.
_SWEEP_OFFSETS = 32


def station_reaches(
    network: WirelessNetwork, indices: Sequence[int] | np.ndarray | None = None
) -> np.ndarray:
    """Theorem 4.1 enclosing-radius upper bounds for every station at once.

    The vectorised twin of per-index :func:`explicit_radius_bounds`
    ``Delta_upper`` values, ``kappa / (sqrt(beta * (1 + N * kappa**2)) - 1)``
    with ``kappa`` the nearest-neighbour distance: one ``(n,)`` float array,
    with ``0.0`` for degenerate stations (another station shares the
    location — their zone is the single point ``{s_i}``, so a zero reach is
    exact).  The sharded locator recomputes all routing boxes from it on
    every incremental update: the reach of an *untouched* station still
    shifts whenever its nearest neighbour moved, and ``Delta_upper`` is not
    monotone in that distance once noise is positive, so stale reaches are
    not conservative.

    ``kappa**2`` comes from a sorted sweep, not an ``n x n`` matrix.  The
    stations are sorted along the coordinate with the larger spread, and
    each one scans its neighbours in sorted order, both directions, in
    passes of ``_SWEEP_OFFSETS`` (32) offsets, keeping the smallest
    ``dx * dx + dy * dy``.  A station retires once the squared gap along the
    sort axis to the last neighbour scanned, in each direction, is at least
    its best so far.  That is the certificate: every later neighbour's gap
    is at least as large, and ``fl(a) <= fl(a + b)`` for ``b >= 0``, so no
    later neighbour can be strictly closer.  Each pair is the expression of
    :func:`repro.engine.kernels.pairwise_squared_distances`, ``min`` is
    exact, and swapping which axis plays ``dx`` only commutes an IEEE
    addition, so every reach is bit-identical to the dense pass.  The cost
    is ``O(n)`` memory and, for spread-out stations, ``O(n sqrt(n))`` time.

    ``indices`` (a 1-D sequence of station indices) returns only those
    stations' reaches, equal to ``station_reaches(network)[indices]``, from
    one dense ``(k, n)`` pass of the same expression.  Callers that need a
    few reaches (raster invalidation) pay ``O(k n)`` instead of the sweep.

    Where ``beta * (1 + N * kappa**2)`` overflows (``kappa`` beyond about
    ``1e154``), the same bound is evaluated divided through by ``kappa``:
    ``1 / (sqrt(beta) * hypot(u, sqrt(N)) - u)`` with ``u = 1 / kappa``,
    ``kappa`` taken from ``np.hypot`` over the station's row, and the value
    rounded up one ulp so it stays conservative.

    Every non-zero reach is then widened by
    :func:`~repro.engine.certify.reach_margin` and rounded up one ulp.  The
    bound is tight (two stations, no noise), and the float64 kernels decide
    reception from a rounded SINR, so without the widening a point a few
    ulps past the bound can be heard by brute force yet fall outside a
    routing box built from it.

    Requires the Theorem 4.1 regime (uniform power, ``beta > 1``,
    ``alpha = 2``): the bound is derived for ``alpha = 2``, and a larger
    exponent lets a zone reach further (at ``alpha = 4`` a two-station
    zone reaches ``kappa / (beta**0.25 - 1)``, 3.16 ``kappa`` at
    ``beta = 3``, against the 1.37 ``kappa`` this bound gives).
    """
    if not network.is_uniform_power():
        raise PointLocationError(
            "the radius bounds of Theorem 4.1 require a uniform power network"
        )
    if network.beta <= 1.0:
        raise PointLocationError(
            "the radius bounds of Theorem 4.1 require beta > 1"
        )
    if network.alpha != 2.0:
        raise PointLocationError(
            "the radius bounds of Theorem 4.1 require alpha = 2"
        )
    coords = network.coords
    with np.errstate(over="ignore"):
        if indices is None:
            rows = np.arange(len(coords))
            kappa_squared = _sweep_nearest_squared(coords)
        else:
            rows = np.asarray(indices, dtype=np.intp)
            dx, dy = _row_differences(coords, rows)
            kappa_squared = _min_off_self(dx * dx + dy * dy, rows)

    beta = network.beta
    noise = network.noise
    with np.errstate(over="ignore", invalid="ignore"):
        radicand = beta * (1.0 + noise * kappa_squared)
    live = kappa_squared > 0.0
    near = live & np.isfinite(radicand)
    far = live & ~near
    out = np.zeros(rows.size, dtype=float)
    margin = reach_margin(len(coords), beta)
    if margin >= 1.0:
        out[live] = np.inf
        return out
    # sqrt(radicand) >= sqrt(beta) > 1 here, so nothing divides by zero.
    out[near] = np.sqrt(kappa_squared[near]) / (np.sqrt(radicand[near]) - 1.0)
    if far.any():
        with np.errstate(over="ignore"):
            distances = np.hypot(*_row_differences(coords, rows[far]))
        kappa = _min_off_self(distances, rows[far])
        out[far] = _far_bound(kappa, beta, noise, 1, -1.0)
    out *= 1.0 + margin
    np.nextafter(out, np.inf, out=out, where=live)
    return out


def reach_box(
    xmin: float, ymin: float, xmax: float, ymax: float, reach: float
) -> Tuple[float, float, float, float]:
    """``(xmin, ymin, xmax, ymax)`` inflated by ``reach`` on every side.

    Each edge is rounded outward one ulp, so the box holds every point
    within ``reach`` of the original box despite the rounded sums.
    """
    return (
        math.nextafter(xmin - reach, -math.inf),
        math.nextafter(ymin - reach, -math.inf),
        math.nextafter(xmax + reach, math.inf),
        math.nextafter(ymax + reach, math.inf),
    )


def _row_differences(
    coords: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(dx, dy)``, each ``(k, n)``: station ``rows[i]`` minus station ``j``.

    The operand order of :func:`repro.engine.kernels.pairwise_squared_distances`.
    """
    dx = coords[rows, 0:1] - coords[:, 0][None, :]
    dy = coords[rows, 1:2] - coords[:, 1][None, :]
    return dx, dy


def _min_off_self(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row minima of a ``(k, n)`` pairwise array, skipping each row's own station."""
    values[np.arange(rows.size), rows] = np.inf
    return values.min(axis=1, initial=np.inf)


def _sweep_nearest_squared(coords: np.ndarray) -> np.ndarray:
    """Each station's smallest squared distance to another, by a sorted sweep.

    See :func:`station_reaches` for the scan and its certificate.
    """
    n = len(coords)
    axis = int(np.argmax(np.ptp(coords, axis=0)))
    order = np.argsort(coords[:, axis], kind="stable")
    along = coords[order, axis]
    across = coords[order, 1 - axis]
    best = np.full(n, np.inf)
    offsets = np.arange(1, _SWEEP_OFFSETS + 1)
    offsets = np.concatenate((offsets, -offsets))
    active = np.arange(n)
    scanned = 0
    while active.size:
        neighbours = active[:, None] + (offsets + np.sign(offsets) * scanned)
        outside = (neighbours < 0) | (neighbours >= n)
        np.clip(neighbours, 0, n - 1, out=neighbours)
        # dx * dx + dy * dy, evaluated in place to keep the pass at O(k) memory.
        squared = along[neighbours]
        np.subtract(along[active, None], squared, out=squared)
        np.multiply(squared, squared, out=squared)
        d_across = across[neighbours]
        del neighbours
        np.subtract(across[active, None], d_across, out=d_across)
        np.multiply(d_across, d_across, out=d_across)
        squared += d_across
        squared[outside] = np.inf
        kept = np.minimum(best[active], squared.min(axis=1))
        best[active] = kept

        scanned += _SWEEP_OFFSETS
        ahead = active + scanned
        behind = active - scanned
        gap_ahead = along[np.minimum(ahead, n - 1)] - along[active]
        gap_behind = along[active] - along[np.maximum(behind, 0)]
        done = ((ahead >= n - 1) | (gap_ahead * gap_ahead >= kept)) & (
            (behind <= 0) | (gap_behind * gap_behind >= kept)
        )
        active = active[~done]

    kappa_squared = np.empty(n)
    kappa_squared[order] = best
    return kappa_squared


def _far_bound(
    kappa: float | np.ndarray, beta: float, noise: float, count: float, sign: float
) -> np.ndarray:
    """``kappa / (sqrt(beta * (count + noise * kappa**2)) + sign)`` for huge ``kappa``.

    Divided through by ``kappa``, with ``u = 1 / kappa``, the bound is
    ``1 / (sqrt(beta) * hypot(u * sqrt(count), sqrt(noise)) + sign * u)``,
    which squares nothing: neither ``kappa**2`` overflowing nor ``u**2``
    underflowing can reach it.  The result is rounded one ulp outward: up
    for the upper bound (``sign = -1``), down for the lower one.
    """
    u = 1.0 / np.asarray(kappa, dtype=float)
    with np.errstate(divide="ignore"):
        bound = 1.0 / (
            math.sqrt(beta) * np.hypot(u * math.sqrt(count), math.sqrt(noise))
            + sign * u
        )
    return np.nextafter(bound, -sign * np.inf)


def improved_radius_bounds(
    network: WirelessNetwork,
    index: int,
    probe_angle: float = math.pi / 2.0,
) -> RadiusBounds:
    """The ``Theta(r)`` bounds of Section 5.2 for station ``index``.

    The boundary distance ``r`` along one ray (north of the station by
    default) is located by bisection between the Theorem 4.1 bounds, then
    widened by the Theorem 4.2 fatness constant ``c``:

        delta >= r / c    and    Delta <= c * r.

    The resulting ratio ``Delta_tilde / delta_tilde <= c^2`` is independent of
    the number of stations.
    """
    _require_uniform_nondegenerate(network, index)
    explicit = explicit_radius_bounds(network, index)
    zone = ReceptionZone(network=network, index=index)
    boundary_distance = zone.boundary_distance_along_ray(
        probe_angle,
        max_radius=explicit.Delta_upper * PROBE_BRACKET,
        tolerance=probe_tolerance(explicit.Delta_upper),
    )
    # Clamp into the certified sandwich to protect against probe tolerance.
    boundary_distance = min(
        max(boundary_distance, explicit.delta_lower), explicit.Delta_upper
    )
    fatness_constant = theoretical_fatness_bound(network.beta)
    # Intersect with the explicit bounds: both are certified, so the tighter
    # of each side is still a valid sandwich (for small n the Theorem 4.1
    # bounds can be the sharper ones).
    return RadiusBounds(
        delta_lower=max(boundary_distance / fatness_constant, explicit.delta_lower),
        Delta_upper=min(boundary_distance * fatness_constant, explicit.Delta_upper),
    )


def measured_radius_bounds(
    network: WirelessNetwork, index: int, rays: int = 48
) -> RadiusBounds:
    """Geometry-measured bounds certified by convexity (an engineering refinement).

    The paper's bounds (Theorem 4.1 and the Section-5.2 improvement) are what
    the asymptotic analysis needs, but their constants are loose — the ratio
    ``Delta_tilde / delta_tilde`` they certify is the fatness *bound*
    ``c = (sqrt(beta)+1)/(sqrt(beta)-1)``, not the actual fatness of the zone.
    Since the grid spacing is quadratic in that ratio, tighter bounds shrink
    the structure (and its preprocessing time) dramatically without affecting
    any guarantee.

    This routine probes the boundary along ``rays`` equally spaced rays from
    the station and certifies:

    * ``delta_tilde``: the polygon through the probed boundary points is
      inscribed in the (convex) zone, so its centred inradius — the minimum
      distance from the station to a polygon edge — lower-bounds ``delta``;
    * ``Delta_tilde``: at each probed boundary point the gradient of the
      reception polynomial is an outward normal, so the corresponding tangent
      half-plane contains the zone (supporting hyperplane of a convex set);
      the maximum station-to-vertex distance of the intersection of those
      half-planes upper-bounds ``Delta``.

    Both sides are additionally intersected with the Theorem 4.1 bounds and
    padded by :data:`~repro.engine.certify.MEASURED_PAD` against
    floating-point slop.  The rays are probed to a gap relative to the
    Theorem 4.1 ``Delta_upper`` (:func:`~repro.engine.certify.probe_tolerance`),
    so the pad covers it at every coordinate scale.  Requires the Theorem 1
    regime (uniform power, ``beta > 1``, ``alpha = 2``).
    """
    _require_uniform_nondegenerate(network, index)
    if rays < 8:
        raise PointLocationError("measured_radius_bounds() needs at least 8 rays")
    explicit = explicit_radius_bounds(network, index)
    zone = ReceptionZone(network=network, index=index)
    station = zone.station_location
    polynomial = network.reception_polynomial(index)
    angles = [2.0 * math.pi * k / rays for k in range(rays)]
    distances = zone.boundary_distances_along_rays(
        angles,
        max_radius=explicit.Delta_upper * PROBE_BRACKET,
        tolerance=probe_tolerance(explicit.Delta_upper),
    )
    boundary_points = [
        Point(
            station.x + distance * math.cos(angle),
            station.y + distance * math.sin(angle),
        )
        for angle, distance in zip(angles, distances.tolist())
    ]

    # Lower bound on delta: centred inradius of the inscribed polygon.
    inscribed = Polygon(boundary_points)
    delta_lower = min(
        edge.distance_to_point(station) for edge in inscribed.edges()
    ) * (1.0 - MEASURED_PAD)

    # Upper bound on Delta: intersection of tangent half-planes.
    box_half_width = explicit.Delta_upper * 2.0
    outer: Polygon | None = Polygon.axis_aligned_box(
        Point(station.x - box_half_width, station.y - box_half_width),
        Point(station.x + box_half_width, station.y + box_half_width),
    )
    for point in boundary_points:
        normal = _outward_normal(polynomial, point, station)
        tangent = Line(normal.x, normal.y, -(normal.x * point.x + normal.y * point.y))
        keep_side = tangent.side(station)
        if keep_side == 0 or outer is None:
            continue
        outer = outer.clip_to_half_plane(tangent, keep_side=keep_side)
    if outer is None:
        Delta_upper = explicit.Delta_upper
    else:
        Delta_upper = max(station.distance_to(v) for v in outer.vertices) * (
            1.0 + MEASURED_PAD
        )

    delta_lower = max(min(delta_lower, explicit.Delta_upper), 0.0)
    if delta_lower <= 0.0:
        delta_lower = explicit.delta_lower
    delta_lower = max(delta_lower, explicit.delta_lower)
    Delta_upper = min(max(Delta_upper, delta_lower), explicit.Delta_upper)
    return RadiusBounds(delta_lower=delta_lower, Delta_upper=Delta_upper)


def radius_bounds(
    network: WirelessNetwork, index: int, method: str = "measured"
) -> RadiusBounds:
    """Dispatch on the bound method: ``"explicit"``, ``"improved"`` or ``"measured"``."""
    if method == "explicit":
        return explicit_radius_bounds(network, index)
    if method == "improved":
        return improved_radius_bounds(network, index)
    if method == "measured":
        return measured_radius_bounds(network, index)
    raise PointLocationError(f"unknown radius bound method: {method!r}")


def _outward_normal(polynomial, point: Point, station: Point) -> Point:
    """Unit outward normal of the zone boundary at ``point``.

    Uses a central finite difference of the reception polynomial; falls back
    to the radial direction from the station when the gradient is negligible
    (e.g. at a tangential double root).
    """
    scale = max(1.0, station.distance_to(point))
    step = 1e-7 * scale
    gx = (
        polynomial(point.x + step, point.y) - polynomial(point.x - step, point.y)
    ) / (2.0 * step)
    gy = (
        polynomial(point.x, point.y + step) - polynomial(point.x, point.y - step)
    ) / (2.0 * step)
    gradient = Point(gx, gy)
    norm = gradient.norm()
    if norm <= 1e-12:
        radial = point - station
        radial_norm = radial.norm()
        if radial_norm == 0.0:
            return Point(1.0, 0.0)
        return radial / radial_norm
    return gradient / norm


def _require_uniform_nondegenerate(network: WirelessNetwork, index: int) -> None:
    """Validate the preconditions shared by both bound computations."""
    if not network.is_uniform_power():
        raise PointLocationError(
            "the radius bounds of Theorem 4.1 require a uniform power network"
        )
    if network.beta <= 1.0:
        raise PointLocationError(
            "the radius bounds of Theorem 4.1 require beta > 1"
        )
    if network.location_is_shared(index):
        raise PointLocationError(
            "the reception zone is degenerate: another station shares the location"
        )
