"""The reception polynomial ``H(x, y)`` of a station (eq. (2) of the paper).

For a network with stations ``s_i = (a_i, b_i)``, powers ``psi_i``, noise
``N`` and threshold ``beta`` (and path loss ``alpha = 2``), station ``s_0`` is
heard at ``(x, y)`` if and only if

    H(x, y) = beta * sum_{i>0} psi_i * prod_{j != i} d_j^2(x, y)
              + beta * N * prod_j d_j^2(x, y)
              - psi_0 * prod_{j != 0} d_j^2(x, y)            <= 0,

(the paper's eq. (2) prints the noise term without the factor ``beta``; the
factor is required for ``H <= 0`` to be equivalent to ``SINR >= beta`` and is
immaterial in the paper's analysis, which treats the noisy case by reduction
to ``N = 0``)

where ``d_j^2(x, y) = (a_j - x)^2 + (b_j - y)^2``.  The polynomial has degree
``2n`` (``2n - 2`` when ``N = 0``) and its zero set is exactly the boundary of
the reception zone ``H_0``.

Expanding ``H`` into monomials is wasteful — everything the paper does with it
only needs evaluation and restriction to lines/segments — so this module keeps
the *factored* form (a list of quadratics) and expands only the univariate
restrictions, which have degree ``2n`` in the line parameter and are cheap to
build as products of quadratics in ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..exceptions import AlgebraError
from ..geometry.point import Point
from .bivariate import BivariatePolynomial, squared_distance_polynomial
from .polynomial import Polynomial
from .sturm import SturmSequence, count_distinct_real_roots_in_interval

__all__ = ["ReceptionPolynomial"]


@dataclass(frozen=True)
class ReceptionPolynomial:
    """The reception polynomial of one station in a network with ``alpha = 2``.

    Attributes:
        target_index: index of the station whose reception zone is described.
        stations: all station locations.
        powers: transmission power of every station (same order).
        noise: background noise ``N >= 0``.
        beta: reception threshold.
    """

    target_index: int
    stations: Tuple[Point, ...]
    powers: Tuple[float, ...]
    noise: float
    beta: float

    def __init__(
        self,
        target_index: int,
        stations: Sequence[Point],
        powers: Sequence[float],
        noise: float,
        beta: float,
    ):
        if len(stations) < 2:
            raise AlgebraError("a reception polynomial needs at least two stations")
        if len(stations) != len(powers):
            raise AlgebraError("stations and powers must have the same length")
        if not 0 <= target_index < len(stations):
            raise AlgebraError("target_index out of range")
        if noise < 0:
            raise AlgebraError("background noise must be non-negative")
        if beta <= 0:
            raise AlgebraError("reception threshold must be positive")
        object.__setattr__(self, "target_index", int(target_index))
        object.__setattr__(self, "stations", tuple(stations))
        object.__setattr__(self, "powers", tuple(float(p) for p in powers))
        object.__setattr__(self, "noise", float(noise))
        object.__setattr__(self, "beta", float(beta))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def station_count(self) -> int:
        return len(self.stations)

    def degree(self) -> int:
        """Degree of ``H``: ``2n`` in general, ``2n - 2`` without noise."""
        n = len(self.stations)
        return 2 * n if self.noise > 0.0 else 2 * n - 2

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, x: float, y: float) -> float:
        """Evaluate ``H(x, y)`` (negative or zero means the station is heard)."""
        squared_distances = [
            (s.x - x) ** 2 + (s.y - y) ** 2 for s in self.stations
        ]
        return self._combine(squared_distances)

    def evaluate_at_point(self, point: Point) -> float:
        """Evaluate at a geometric point."""
        return self(point.x, point.y)

    def is_received(self, point: Point) -> bool:
        """True if the target station is heard at ``point`` (``H <= 0``).

        This matches the paper's remark that the polynomial condition holds
        even at station locations, where the SINR ratio itself is undefined.
        """
        return self.evaluate_at_point(point) <= 0.0

    def _combine(self, squared_distances: Sequence[float]) -> float:
        """Assemble H from the per-station squared distances (floats)."""
        target = self.target_index
        n = len(squared_distances)

        # prod over all j != i, computed via prefix/suffix products so the
        # evaluation stays O(n) rather than O(n^2).
        prefix = [1.0] * (n + 1)
        for i in range(n):
            prefix[i + 1] = prefix[i] * squared_distances[i]
        suffix = [1.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] * squared_distances[i]

        def product_excluding(i: int) -> float:
            return prefix[i] * suffix[i + 1]

        interference_term = sum(
            self.powers[i] * product_excluding(i)
            for i in range(n)
            if i != target
        )
        noise_term = self.beta * self.noise * prefix[n]
        signal_term = self.powers[target] * product_excluding(target)
        return self.beta * interference_term + noise_term - signal_term

    # ------------------------------------------------------------------
    # Restrictions
    # ------------------------------------------------------------------
    def restrict_to_parametric_line(
        self, anchor: Point, direction: Point
    ) -> Polynomial:
        """The univariate polynomial ``t -> H(anchor + t * direction)``.

        Built directly from the factored form: each squared distance becomes a
        quadratic in ``t`` and the products are expanded with prefix/suffix
        polynomial products (``O(n^2)`` coefficient work overall).
        """
        quadratics = [
            _squared_distance_along_line(station, anchor, direction)
            for station in self.stations
        ]
        n = len(quadratics)
        target = self.target_index

        prefix: List[Polynomial] = [Polynomial.constant(1.0)] * (n + 1)
        for i in range(n):
            prefix[i + 1] = prefix[i] * quadratics[i]
        suffix: List[Polynomial] = [Polynomial.constant(1.0)] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] * quadratics[i]

        def product_excluding(i: int) -> Polynomial:
            return prefix[i] * suffix[i + 1]

        interference = Polynomial.zero()
        for i in range(n):
            if i == target:
                continue
            interference = interference + product_excluding(i) * self.powers[i]
        noise_term = prefix[n] * (self.beta * self.noise)
        signal_term = product_excluding(target) * self.powers[target]
        return interference * self.beta + noise_term - signal_term

    def restrict_to_segment(self, start: Point, end: Point) -> Polynomial:
        """Restriction to the segment ``start end`` parametrised on ``[0, 1]``."""
        return self.restrict_to_parametric_line(start, end - start)

    def restrict_to_horizontal_line(self, y: float) -> Polynomial:
        """Restriction to the horizontal line at height ``y`` (parameter = x).

        This is the restriction used throughout Section 3.2, where the line is
        normalised to ``y = 1``.
        """
        return self.restrict_to_parametric_line(Point(0.0, y), Point(1.0, 0.0))

    # ------------------------------------------------------------------
    # Root counting on segments (the paper's segment test primitive)
    # ------------------------------------------------------------------
    def count_boundary_crossings(self, start: Point, end: Point) -> int:
        """Distinct boundary points of the reception zone on the segment.

        Applies Sturm's condition to the restriction of ``H`` to the segment,
        counting distinct real roots in ``(0, 1]``, and adds one if the start
        point itself lies exactly on the boundary.  For convex zones the
        result is 0, 1 or 2 (Lemma 2.1).
        """
        restriction = self.restrict_to_segment(start, end)
        if restriction.is_zero(tolerance=1e-15):
            return 0
        interior = count_distinct_real_roots_in_interval(restriction, 0.0, 1.0)
        starts_on_boundary = abs(restriction(0.0)) <= 1e-12 * max(
            restriction.l2_norm(), 1.0
        )
        return interior + (1 if starts_on_boundary else 0)

    def sturm_sequence_on_segment(self, start: Point, end: Point) -> SturmSequence:
        """The Sturm sequence of the restriction of ``H`` to a segment."""
        return SturmSequence.of(self.restrict_to_segment(start, end))

    # ------------------------------------------------------------------
    # Expansion (small instances only)
    # ------------------------------------------------------------------
    def expanded(self) -> BivariatePolynomial:
        """Fully expanded bivariate form of ``H`` (exponential-free but dense).

        Only intended for small networks (tests, figures); the factored form
        is what the algorithms use.
        """
        n = len(self.stations)
        target = self.target_index
        quadratics = [squared_distance_polynomial(s) for s in self.stations]

        def product_excluding(i: int) -> BivariatePolynomial:
            result = BivariatePolynomial.constant(1.0)
            for j in range(n):
                if j != i:
                    result = result * quadratics[j]
            return result

        interference = BivariatePolynomial.zero()
        for i in range(n):
            if i == target:
                continue
            interference = interference + product_excluding(i) * self.powers[i]
        full_product = BivariatePolynomial.constant(1.0)
        for quadratic in quadratics:
            full_product = full_product * quadratic
        return (
            interference * self.beta
            + full_product * (self.beta * self.noise)
            - product_excluding(target) * self.powers[target]
        )


def _squared_distance_along_line(
    station: Point, anchor: Point, direction: Point
) -> Polynomial:
    """``t -> (a - x(t))^2 + (b - y(t))^2`` for the line ``anchor + t*direction``."""
    # x(t) = anchor.x + t*dx, so a - x(t) = (a - anchor.x) - t*dx.
    cx = station.x - anchor.x
    cy = station.y - anchor.y
    dx = direction.x
    dy = direction.y
    constant = cx * cx + cy * cy
    linear = -2.0 * (cx * dx + cy * dy)
    quadratic = dx * dx + dy * dy
    return Polynomial([constant, linear, quadratic])
