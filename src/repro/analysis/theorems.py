"""Numerical verification harnesses for the paper's theorems.

The paper's Theorems 1 and 2 are proved analytically; this module provides the
machinery to *check* them numerically on concrete networks, which serves three
purposes in the reproduction:

* regression tests — the library's reception zones must exhibit the proved
  properties (convexity, star shape, fatness bound) on every network we can
  generate;
* the counterexample regime — Figure 5 shows the properties genuinely fail
  for ``beta < 1``, and the same harness detects that failure;
* the experiment harness — the Theorem 1/2 benchmarks report the verification
  outcome and the measured fatness against the theoretical bound.

Every verifier returns a small report object rather than a bare bool so that
benchmarks and the report ``examples/reproduce_experiments.py`` prints can
show *how much* margin there was.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..geometry.convexity import ConvexityReport, check_zone_convexity, check_zone_star_shape
from ..geometry.fatness import theoretical_fatness_bound
from ..geometry.point import Point
from ..model.diagram import SINRDiagram
from ..model.network import WirelessNetwork
from ..model.reception import ReceptionZone

__all__ = [
    "ConvexityVerification",
    "FatnessVerification",
    "StarShapeVerification",
    "Lemma21Verification",
    "verify_zone_convexity",
    "verify_network_convexity",
    "verify_zone_fatness",
    "verify_network_fatness",
    "verify_zone_star_shape",
    "verify_lemma_2_1",
]


# ----------------------------------------------------------------------
# Report types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConvexityVerification:
    """Outcome of a convexity check of one reception zone."""

    station: int
    is_convex: bool
    segments_checked: int
    violation: Optional[Tuple[Point, Point, Point]]


@dataclass(frozen=True)
class FatnessVerification:
    """Outcome of a fatness check of one reception zone."""

    station: int
    delta: float
    Delta: float
    fatness: float
    bound: float

    @property
    def satisfies_bound(self) -> bool:
        return self.fatness <= self.bound * (1.0 + 1e-6)


@dataclass(frozen=True)
class StarShapeVerification:
    """Outcome of a star-shape check (Lemma 3.1) of one reception zone."""

    station: int
    is_star_shaped: bool
    rays_checked: int


@dataclass(frozen=True)
class Lemma21Verification:
    """Outcome of a Lemma 2.1 check: lines meet the zone boundary at most twice."""

    station: int
    lines_checked: int
    max_crossings: int

    @property
    def holds(self) -> bool:
        return self.max_crossings <= 2


# ----------------------------------------------------------------------
# Sampling helpers
# ----------------------------------------------------------------------
def _zone_sample_points(
    zone: ReceptionZone, count: int, rng: random.Random
) -> List[Point]:
    """Random points of the zone, drawn uniformly by ray rejection.

    Points are produced by sampling a uniform angle and a radius up to the
    boundary distance along that ray (valid because the zone is star-shaped,
    Lemma 3.1); this slightly oversamples the centre, which is harmless for
    the checks performed here.
    """
    if zone.is_degenerate:
        return [zone.station_location]
    center = zone.station_location
    # Draw in the order of per-ray sampling (an angle, then a radius), probe
    # every ray in one call, then scale: ``rng.uniform(0.0, b)`` is
    # ``0.0 + (b - 0.0) * rng.random()``, which equals ``b * rng.random()``.
    draws = [(rng.uniform(0.0, 2.0 * math.pi), rng.random()) for _ in range(count)]
    boundaries = zone.boundary_distances_along_rays([angle for angle, _ in draws])
    points: List[Point] = []
    for (angle, draw), boundary in zip(draws, boundaries.tolist()):
        radius = boundary * 0.999 * draw
        points.append(
            Point(
                center.x + radius * math.cos(angle),
                center.y + radius * math.sin(angle),
            )
        )
    return points


# ----------------------------------------------------------------------
# Theorem 1 (convexity)
# ----------------------------------------------------------------------
def verify_zone_convexity(
    zone: ReceptionZone,
    sample_points: int = 80,
    samples_per_segment: int = 48,
    max_pairs: int = 1200,
    seed: int = 0,
) -> ConvexityVerification:
    """Check that segments between random zone points stay inside the zone."""
    rng = random.Random(seed)
    if zone.is_degenerate:
        return ConvexityVerification(
            station=zone.index, is_convex=True, segments_checked=0, violation=None
        )
    points = _zone_sample_points(zone, sample_points, rng)
    # Include boundary-hugging points: convexity violations show up near the
    # boundary first, so probe just inside the boundary along many rays.
    center = zone.station_location
    angles = [2.0 * math.pi * k / 24 for k in range(24)]
    boundaries = zone.boundary_distances_along_rays(angles)
    for angle, boundary in zip(angles, boundaries.tolist()):
        points.append(
            Point(
                center.x + 0.999 * boundary * math.cos(angle),
                center.y + 0.999 * boundary * math.sin(angle),
            )
        )
    report: ConvexityReport = check_zone_convexity(
        zone.contains,
        points,
        samples_per_segment=samples_per_segment,
        max_pairs=max_pairs,
        rng=rng,
    )
    return ConvexityVerification(
        station=zone.index,
        is_convex=report.is_consistent,
        segments_checked=report.segments_checked,
        violation=report.violation,
    )


def verify_network_convexity(
    network: WirelessNetwork, **kwargs
) -> List[ConvexityVerification]:
    """Convexity verification of every reception zone of a network."""
    diagram = SINRDiagram(network)
    return [
        verify_zone_convexity(diagram.zone(index), **kwargs)
        for index in range(len(network))
    ]


# ----------------------------------------------------------------------
# Theorem 2 / 4.2 (fatness)
# ----------------------------------------------------------------------
def verify_zone_fatness(zone: ReceptionZone, angles: int = 360) -> FatnessVerification:
    """Measure the fatness of one zone and compare with the theoretical bound."""
    measurement = zone.fatness(angles=angles)
    bound = (
        theoretical_fatness_bound(zone.network.beta)
        if zone.network.beta > 1.0
        else math.inf
    )
    return FatnessVerification(
        station=zone.index,
        delta=measurement.delta,
        Delta=measurement.Delta,
        fatness=measurement.fatness,
        bound=bound,
    )


def verify_network_fatness(
    network: WirelessNetwork, angles: int = 360
) -> List[FatnessVerification]:
    """Fatness verification of every non-degenerate reception zone of a network."""
    diagram = SINRDiagram(network)
    results = []
    for index in range(len(network)):
        zone = diagram.zone(index)
        if zone.is_degenerate:
            continue
        results.append(verify_zone_fatness(zone, angles=angles))
    return results


# ----------------------------------------------------------------------
# Lemma 3.1 (star shape)
# ----------------------------------------------------------------------
def verify_zone_star_shape(
    zone: ReceptionZone,
    rays: int = 90,
    samples_per_ray: int = 48,
) -> StarShapeVerification:
    """Check the zone is star-shaped with respect to its station.

    The targets are the vertices of the zone's boundary polygon over
    ``rays`` (at least 3) equally spaced rays, pulled slightly inward.
    """
    if zone.is_degenerate:
        return StarShapeVerification(
            station=zone.index, is_star_shaped=True, rays_checked=0
        )
    # Pull the boundary points slightly inward so numerical boundary error
    # does not register as a violation.
    center = zone.station_location
    targets = [
        center + (target - center) * 0.999
        for target in zone.boundary_polygon(rays).vertices
    ]
    report = check_zone_star_shape(
        zone.contains, center, targets, samples_per_segment=samples_per_ray
    )
    return StarShapeVerification(
        station=zone.index,
        is_star_shaped=report.is_consistent,
        rays_checked=report.segments_checked,
    )


# ----------------------------------------------------------------------
# Lemma 2.1 (lines cross the boundary at most twice) via Sturm counting
# ----------------------------------------------------------------------
def verify_lemma_2_1(
    zone: ReceptionZone,
    lines: int = 60,
    span: float = 4.0,
    seed: int = 0,
) -> Lemma21Verification:
    """Count boundary crossings of random lines through the zone's bounding disk.

    Uses the Sturm-based root counting on the reception polynomial restricted
    to long random segments through the zone neighbourhood; for convex zones
    (Theorem 1 regime) the count never exceeds 2.
    """
    rng = random.Random(seed)
    polynomial = zone.polynomial
    center = zone.station_location
    radius = max(zone.search_radius(), 1e-6) * span
    max_crossings = 0
    for _ in range(lines):
        angle = rng.uniform(0.0, math.pi)
        offset = rng.uniform(-radius / 2.0, radius / 2.0)
        direction = Point(math.cos(angle), math.sin(angle))
        normal = direction.perpendicular()
        anchor = center + normal * offset - direction * radius
        end = center + normal * offset + direction * radius
        crossings = polynomial.count_boundary_crossings(anchor, end)
        max_crossings = max(max_crossings, crossings)
    return Lemma21Verification(
        station=zone.index, lines_checked=lines, max_crossings=max_crossings
    )
