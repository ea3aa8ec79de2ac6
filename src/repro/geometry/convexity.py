"""Convexity and star-shape tests for zones.

The paper's structural results are about convexity (Theorem 1) and the weaker
star-shape property (Lemma 3.1).  Reception zones are given analytically (as
sub-level sets of the reception polynomial) rather than as polygons, so this
module supplies tests in three flavours:

* exact tests for point sets / polygons (used by the Voronoi substrate and by
  tests of the geometry layer itself);
* Lemma 2.1 style tests for *thick* zones given by a membership predicate: a
  thick set is convex iff every line meets its boundary at most twice — the
  empirical checker samples segments between random zone points;
* star-shape tests with respect to a designated centre (the station).

These checkers are deliberately *falsifiers*: they can prove non-convexity by
exhibiting a violating segment, and provide strong statistical evidence of
convexity, which is how we validate Theorem 1 numerically (the exact proof is
algebraic and lives in :mod:`repro.algebra`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..exceptions import GeometryError
from .point import Point
from .segment import Segment

__all__ = [
    "ConvexityReport",
    "is_convex_point_set",
    "check_zone_convexity",
    "check_zone_star_shape",
    "segment_membership_profile",
]

ZonePredicate = Callable[[Point], bool]


@dataclass(frozen=True, slots=True)
class ConvexityReport:
    """Outcome of an empirical convexity / star-shape check.

    ``is_consistent`` is True when no violation was found; a violation is a
    pair of points inside the zone with some intermediate point outside, and
    the first such witness is recorded in ``violation``.
    """

    is_consistent: bool
    segments_checked: int
    violation: Optional[Tuple[Point, Point, Point]] = None

    def __bool__(self) -> bool:
        return self.is_consistent


def is_convex_point_set(points: Sequence[Point], tolerance: float = 1e-9) -> bool:
    """Return True if the points are in convex position *as a polygon boundary*.

    The points are interpreted as an ordered polygon boundary (the usual
    output of a boundary trace); the test checks that all turns have a
    consistent orientation.
    """
    count = len(points)
    if count < 4:
        return True
    sign = 0
    for i in range(count):
        a, b, c = points[i], points[(i + 1) % count], points[(i + 2) % count]
        turn = (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
        if abs(turn) <= tolerance:
            continue
        current = 1 if turn > 0 else -1
        if sign == 0:
            sign = current
        elif current != sign:
            return False
    return True


def segment_membership_profile(
    inside: ZonePredicate, segment: Segment, samples: int
) -> List[bool]:
    """Membership of ``samples`` evenly spaced points along ``segment``."""
    if samples < 2:
        raise GeometryError("segment_membership_profile() needs at least two samples")
    return [inside(point) for point in segment.sample(samples)]


def check_zone_convexity(
    inside: ZonePredicate,
    zone_points: Sequence[Point],
    samples_per_segment: int = 64,
    max_pairs: int = 2000,
    rng: Optional[random.Random] = None,
) -> ConvexityReport:
    """Check that segments between zone points stay inside the zone.

    Args:
        inside: membership predicate of the zone.
        zone_points: points known (or believed) to lie inside the zone; points
            for which ``inside`` is False are skipped.
        samples_per_segment: how many interior points of each segment to test.
        max_pairs: cap on the number of point pairs examined; pairs are chosen
            uniformly at random once the full quadratic number exceeds the cap.
        rng: source of randomness for pair subsampling (default: seeded).

    Returns:
        A :class:`ConvexityReport`; a recorded ``violation`` is a triple
        ``(p1, p2, q)`` with ``p1, p2`` in the zone and ``q`` on ``p1 p2``
        outside the zone.
    """
    member_points = [point for point in zone_points if inside(point)]
    if len(member_points) < 2:
        return ConvexityReport(is_consistent=True, segments_checked=0)

    rng = rng if rng is not None else random.Random(0x5157)
    pairs = _choose_pairs(len(member_points), max_pairs, rng)

    checked = 0
    for i, j in pairs:
        p1, p2 = member_points[i], member_points[j]
        segment = Segment(p1, p2)
        checked += 1
        for point in segment.sample(samples_per_segment):
            if not inside(point):
                return ConvexityReport(
                    is_consistent=False,
                    segments_checked=checked,
                    violation=(p1, p2, point),
                )
    return ConvexityReport(is_consistent=True, segments_checked=checked)


def check_zone_star_shape(
    inside: ZonePredicate,
    center: Point,
    zone_points: Sequence[Point],
    samples_per_segment: int = 64,
) -> ConvexityReport:
    """Check that the zone is star-shaped with respect to ``center``.

    Lemma 3.1 implies every reception zone is star-shaped with respect to its
    station.  The check draws the segment from ``center`` to every zone point
    and verifies all intermediate samples stay inside.
    """
    if not inside(center):
        raise GeometryError("center must belong to the zone for a star-shape check")
    checked = 0
    for target in zone_points:
        if not inside(target):
            continue
        segment = Segment(center, target)
        checked += 1
        for point in segment.sample(samples_per_segment):
            if not inside(point):
                return ConvexityReport(
                    is_consistent=False,
                    segments_checked=checked,
                    violation=(center, target, point),
                )
    return ConvexityReport(is_consistent=True, segments_checked=checked)


def _choose_pairs(
    count: int, max_pairs: int, rng: random.Random
) -> List[Tuple[int, int]]:
    """All index pairs if few enough, otherwise a random sample of ``max_pairs``."""
    total = count * (count - 1) // 2
    if total <= max_pairs:
        return [(i, j) for i in range(count) for j in range(i + 1, count)]
    pairs = set()
    while len(pairs) < max_pairs:
        i = rng.randrange(count)
        j = rng.randrange(count)
        if i == j:
            continue
        pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)
