"""The segment test: does a zone boundary cross a given segment? (Section 5.1)

The Boundary Reconstruction Process repeatedly asks, for a grid edge
``sigma``, how many distinct points of the zone boundary ``∂Q`` lie on
``sigma``.  The paper implements this in ``O(m^2)`` time (``m`` the degree of
the defining polynomial) by applying Sturm's condition to the projection of
the polynomial on the segment, plus direct evaluations at the endpoints.

Two interchangeable implementations are provided:

* :class:`SturmSegmentTest` — the paper's algebraic test.  It restricts the
  reception polynomial to the segment and counts distinct real roots of the
  univariate restriction in ``[0, 1]`` with a Sturm sequence.
* :class:`SamplingSegmentTest` — a numerical fallback/ablation baseline that
  detects boundary crossings by sign changes of the SINR margin along a fixed
  number of samples.  It can miss crossings that enter and leave between two
  samples (i.e. it has one-sided error), which is exactly the robustness
  trade-off the ablation benchmark quantifies.

Both report a :class:`SegmentTestResult`; the BRP only needs the boolean
"crosses" bit, but the count is exposed because Lemma 2.1 (convex zones meet
lines at most twice) is itself an invariant worth testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from ..algebra.reception import ReceptionPolynomial
from ..algebra.sturm import SturmSequence
from ..exceptions import PointLocationError
from ..geometry.point import Point
from ..geometry.segment import Segment

__all__ = [
    "SegmentTestResult",
    "SegmentTest",
    "SturmSegmentTest",
    "SamplingSegmentTest",
]


@dataclass(frozen=True, slots=True)
class SegmentTestResult:
    """Outcome of a segment test.

    Attributes:
        crossings: number of distinct boundary points found on the segment
            (for the sampling test: a lower bound).
        start_inside: whether the segment's start point lies in the zone.
        end_inside: whether the segment's end point lies in the zone.
    """

    crossings: int
    start_inside: bool
    end_inside: bool

    @property
    def crosses(self) -> bool:
        """True if the boundary meets the segment at least once."""
        return self.crossings > 0 or (self.start_inside != self.end_inside)


class SegmentTest(Protocol):
    """Protocol shared by the Sturm and sampling segment tests."""

    def test(self, segment: Segment) -> SegmentTestResult:
        """Run the test on one segment."""
        ...


class SturmSegmentTest:
    """The paper's algebraic segment test, driven by Sturm's condition.

    Args:
        polynomial: the reception polynomial ``H`` of the zone under study.
    """

    def __init__(self, polynomial: ReceptionPolynomial):
        self.polynomial = polynomial
        self.invocations = 0

    def test(self, segment: Segment) -> SegmentTestResult:
        """Count distinct boundary points on ``segment`` via Sturm's condition."""
        self.invocations += 1
        restriction = self.polynomial.restrict_to_segment(segment.start, segment.end)
        start_inside = restriction(0.0) <= 0.0
        end_inside = restriction(1.0) <= 0.0
        if restriction.is_zero(tolerance=1e-15):
            # The segment lies entirely on the boundary: count it as crossed.
            return SegmentTestResult(crossings=1, start_inside=True, end_inside=True)
        sequence = SturmSequence.of(restriction)
        crossings = sequence.count_roots_in_interval(0.0, 1.0)
        scale = max(restriction.l2_norm(), 1.0)
        if abs(restriction(0.0)) <= 1e-12 * scale:
            crossings += 1
        return SegmentTestResult(
            crossings=crossings, start_inside=start_inside, end_inside=end_inside
        )


class SamplingSegmentTest:
    """A sampling-based segment test (ablation baseline).

    Args:
        inside: the zone membership predicate.
        samples: number of evenly spaced evaluation points per segment.
    """

    def __init__(self, inside: Callable[[Point], bool], samples: int = 16):
        if samples < 2:
            raise PointLocationError("SamplingSegmentTest needs at least two samples")
        self.inside = inside
        self.samples = samples
        self.invocations = 0

    def test(self, segment: Segment) -> SegmentTestResult:
        """Count membership flips along the sampled segment."""
        self.invocations += 1
        memberships = [
            self.inside(point) for point in segment.sample(self.samples)
        ]
        crossings = sum(
            1
            for previous, current in zip(memberships, memberships[1:])
            if previous != current
        )
        return SegmentTestResult(
            crossings=crossings,
            start_inside=memberships[0],
            end_inside=memberships[-1],
        )
