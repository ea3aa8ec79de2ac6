"""Bivariate polynomials ``Q(x, y)`` and their restriction to lines.

The boundary of a reception zone is the zero set of a 2-variate polynomial
(Section 2.2).  The convexity proof restricts that polynomial to a line and
studies the resulting univariate polynomial; the segment test of Section 5.1
does the same for grid edges.  This module provides a sparse bivariate
polynomial type supporting exactly those operations:

* evaluation,
* arithmetic (sum, difference, product, scalar multiples, powers),
* restriction to a parametric line ``(x, y) = p + t * d`` producing a
  :class:`~repro.algebra.polynomial.Polynomial` in ``t``,
* partial derivatives (useful for gradient-based boundary refinement).

For the reception polynomial itself the library uses the dedicated factored
representation in :mod:`repro.algebra.reception`, which avoids expanding a
degree-``2n`` bivariate polynomial; the generic type here is used for small
instances, for cross-checks and for the quadratic building blocks
``(a - x)^2 + (b - y)^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..exceptions import AlgebraError
from ..geometry.point import Point
from .polynomial import Polynomial

__all__ = ["BivariatePolynomial", "squared_distance_polynomial"]

Monomial = Tuple[int, int]


def _cleaned(terms: Mapping[Monomial, float]) -> Dict[Monomial, float]:
    """Drop zero coefficients; always keep at least the constant term."""
    cleaned = {key: float(value) for key, value in terms.items() if value != 0.0}
    if not cleaned:
        cleaned[(0, 0)] = 0.0
    return cleaned


@dataclass(frozen=True)
class BivariatePolynomial:
    """A sparse polynomial in two variables ``x`` and ``y``.

    ``terms`` maps exponent pairs ``(i, j)`` to the coefficient of
    ``x^i * y^j``.
    """

    terms: Tuple[Tuple[Monomial, float], ...]

    def __init__(self, terms: Mapping[Monomial, float]):
        cleaned = _cleaned(terms)
        object.__setattr__(
            self, "terms", tuple(sorted(cleaned.items()))
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "BivariatePolynomial":
        return BivariatePolynomial({(0, 0): 0.0})

    @staticmethod
    def constant(value: float) -> "BivariatePolynomial":
        return BivariatePolynomial({(0, 0): value})

    @staticmethod
    def x() -> "BivariatePolynomial":
        """The coordinate polynomial ``x``."""
        return BivariatePolynomial({(1, 0): 1.0})

    @staticmethod
    def y() -> "BivariatePolynomial":
        """The coordinate polynomial ``y``."""
        return BivariatePolynomial({(0, 1): 1.0})

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[Monomial, float]:
        return dict(self.terms)

    def coefficient(self, i: int, j: int) -> float:
        """Coefficient of ``x^i * y^j``."""
        return dict(self.terms).get((i, j), 0.0)

    def total_degree(self) -> int:
        """Largest ``i + j`` with a non-zero coefficient."""
        return max(i + j for (i, j), _ in self.terms)

    def is_zero(self) -> bool:
        return all(value == 0.0 for _, value in self.terms)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, x: float, y: float) -> float:
        total = 0.0
        for (i, j), coefficient in self.terms:
            total += coefficient * (x ** i) * (y ** j)
        return total

    def evaluate_at_point(self, point: Point) -> float:
        """Evaluate at a geometric point."""
        return self(point.x, point.y)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "BivariatePolynomial | float") -> "BivariatePolynomial":
        other_poly = (
            other
            if isinstance(other, BivariatePolynomial)
            else BivariatePolynomial.constant(other)
        )
        result = dict(self.terms)
        for monomial, coefficient in other_poly.terms:
            result[monomial] = result.get(monomial, 0.0) + coefficient
        return BivariatePolynomial(result)

    __radd__ = __add__

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial({m: -c for m, c in self.terms})

    def __sub__(self, other: "BivariatePolynomial | float") -> "BivariatePolynomial":
        other_poly = (
            other
            if isinstance(other, BivariatePolynomial)
            else BivariatePolynomial.constant(other)
        )
        return self + (-other_poly)

    def __rsub__(self, other: float) -> "BivariatePolynomial":
        return BivariatePolynomial.constant(other) - self

    def __mul__(self, other: "BivariatePolynomial | float") -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            return BivariatePolynomial({m: c * other for m, c in self.terms})
        result: Dict[Monomial, float] = {}
        for (i1, j1), c1 in self.terms:
            if c1 == 0.0:
                continue
            for (i2, j2), c2 in other.terms:
                key = (i1 + i2, j1 + j2)
                result[key] = result.get(key, 0.0) + c1 * c2
        return BivariatePolynomial(result)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BivariatePolynomial":
        if exponent < 0:
            raise AlgebraError("bivariate polynomial exponent must be non-negative")
        result = BivariatePolynomial.constant(1.0)
        base = self
        power = exponent
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    # ------------------------------------------------------------------
    # Calculus
    # ------------------------------------------------------------------
    def partial_x(self) -> "BivariatePolynomial":
        """Partial derivative with respect to ``x``."""
        return BivariatePolynomial(
            {(i - 1, j): i * c for (i, j), c in self.terms if i > 0}
        )

    def partial_y(self) -> "BivariatePolynomial":
        """Partial derivative with respect to ``y``."""
        return BivariatePolynomial(
            {(i, j - 1): j * c for (i, j), c in self.terms if j > 0}
        )

    def gradient(self, x: float, y: float) -> Point:
        """Gradient vector at ``(x, y)``."""
        return Point(self.partial_x()(x, y), self.partial_y()(x, y))

    # ------------------------------------------------------------------
    # Restrictions
    # ------------------------------------------------------------------
    def restrict_to_parametric_line(
        self, anchor: Point, direction: Point
    ) -> Polynomial:
        """The univariate polynomial ``t -> Q(anchor + t * direction)``."""
        x_poly = Polynomial.linear(anchor.x, direction.x)
        y_poly = Polynomial.linear(anchor.y, direction.y)
        result = Polynomial.zero()
        for (i, j), coefficient in self.terms:
            if coefficient == 0.0:
                continue
            result = result + (x_poly ** i) * (y_poly ** j) * coefficient
        return result

    def restrict_to_segment(self, start: Point, end: Point) -> Polynomial:
        """Restriction to the segment parametrised by ``t in [0, 1]``."""
        return self.restrict_to_parametric_line(start, end - start)


def squared_distance_polynomial(station: Point) -> BivariatePolynomial:
    """The bivariate polynomial ``(a - x)^2 + (b - y)^2`` for a station at ``(a, b)``.

    These quadratics are the building blocks of the reception polynomial of
    eq. (2) in the paper.
    """
    a, b = station.x, station.y
    return BivariatePolynomial(
        {
            (0, 0): a * a + b * b,
            (1, 0): -2.0 * a,
            (0, 1): -2.0 * b,
            (2, 0): 1.0,
            (0, 2): 1.0,
        }
    )
