"""Sturm sequences and Sturm's condition (Theorem 3.6 of the paper).

Given a real polynomial ``P``, the Sturm sequence is ``P_0 = P``,
``P_1 = P'`` and ``P_i = -rem(P_{i-2} / P_{i-1})`` until the remainder
vanishes.  Sturm's condition (attributed to Jacques Sturm, 1829) states that
for reals ``a < b`` that are not roots of ``P``, the number of *distinct* real
roots of ``P`` in ``(a, b)`` equals ``SC_P(a) - SC_P(b)``, where ``SC_P(t)``
counts sign changes along the evaluated sequence.

The paper uses Sturm's condition twice:

* in the convexity proof (Section 3.2) to show the restriction of the
  reception polynomial to a line has at most two distinct real roots, and
* in the point-location *segment test* (Section 5.1) to count intersections
  of a zone boundary with a grid edge.

This module also provides root isolation and refinement on an interval by
recursive bisection driven by the Sturm root counts, which is how the library
traces zone boundaries exactly where needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..exceptions import AlgebraError
from .polynomial import Polynomial

__all__ = [
    "SturmSequence",
    "count_real_roots",
    "count_distinct_real_roots_in_interval",
    "isolate_real_roots",
    "refine_root",
]


@dataclass(frozen=True)
class SturmSequence:
    """The Sturm sequence of a polynomial, with sign-change counting."""

    polynomials: Tuple[Polynomial, ...]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def of(polynomial: Polynomial, zero_tolerance: float = 1e-13) -> "SturmSequence":
        """Build the Sturm sequence of ``polynomial``.

        Each remainder is normalised (divided by its largest coefficient
        magnitude) before the next division step; this does not change signs
        or roots but keeps the float arithmetic well conditioned for the
        degree-``2n`` polynomials the SINR model produces.

        Remainders whose coefficients are all below ``zero_tolerance`` (after
        normalisation of their dividend) terminate the sequence.
        """
        if polynomial.is_zero():
            raise AlgebraError("the Sturm sequence of the zero polynomial is undefined")
        sequence: List[Polynomial] = [polynomial.normalized()]
        derivative = polynomial.derivative()
        if derivative.is_zero():
            return SturmSequence(tuple(sequence))
        sequence.append(derivative.normalized())
        while True:
            _, remainder = sequence[-2].divmod(sequence[-1])
            negated = -remainder
            if negated.is_zero(tolerance=zero_tolerance):
                break
            sequence.append(negated.normalized())
            if len(sequence) > polynomial.degree() + 1:
                # Defensive: float noise should never make the sequence longer
                # than degree + 1 entries, but guard against infinite loops.
                break
        return SturmSequence(tuple(sequence))

    # ------------------------------------------------------------------
    # Sign-change counting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.polynomials)

    def signs_at(self, x: float, tolerance: float = 0.0) -> List[int]:
        """Signs of every sequence member at ``x`` (zeros recorded as 0)."""
        return [p.sign_at(x, tolerance=tolerance) for p in self.polynomials]

    def signs_at_plus_infinity(self) -> List[int]:
        """Signs of every sequence member as ``x -> +inf``."""
        return [p.sign_at_plus_infinity() for p in self.polynomials]

    def signs_at_minus_infinity(self) -> List[int]:
        """Signs of every sequence member as ``x -> -inf``."""
        return [p.sign_at_minus_infinity() for p in self.polynomials]

    def sign_changes_at(self, x: float, tolerance: float = 0.0) -> int:
        """``SC_P(x)``: the number of sign changes in the evaluated sequence."""
        return _count_sign_changes(self.signs_at(x, tolerance=tolerance))

    def sign_changes_at_plus_infinity(self) -> int:
        """``SC_P(+inf)``."""
        return _count_sign_changes(self.signs_at_plus_infinity())

    def sign_changes_at_minus_infinity(self) -> int:
        """``SC_P(-inf)``."""
        return _count_sign_changes(self.signs_at_minus_infinity())

    # ------------------------------------------------------------------
    # Root counting
    # ------------------------------------------------------------------
    def count_roots_in_interval(self, low: float, high: float) -> int:
        """Number of distinct real roots in the half-open interval ``(low, high]``.

        Sturm's condition is stated for endpoints that are not roots; the
        implementation nudges endpoints that evaluate to (numerically) zero by
        a tiny relative amount so the count remains well defined.
        """
        if low > high:
            raise AlgebraError("count_roots_in_interval() requires low <= high")
        polynomial = self.polynomials[0]
        low = _nudge_off_root(polynomial, low, direction=-1.0)
        high = _nudge_off_root(polynomial, high, direction=+1.0)
        return max(0, self.sign_changes_at(low) - self.sign_changes_at(high))

    def count_real_roots(self) -> int:
        """Total number of distinct real roots of the polynomial."""
        return max(
            0,
            self.sign_changes_at_minus_infinity()
            - self.sign_changes_at_plus_infinity(),
        )


def _count_sign_changes(signs: Sequence[int]) -> int:
    """Count sign alternations, ignoring zeros (standard Sturm convention)."""
    nonzero = [s for s in signs if s != 0]
    changes = 0
    for previous, current in zip(nonzero, nonzero[1:]):
        if previous != current:
            changes += 1
    return changes


def _nudge_off_root(polynomial: Polynomial, x: float, direction: float) -> float:
    """Move ``x`` slightly in ``direction`` while it is (numerically) a root."""
    scale = max(abs(x), 1.0)
    step = scale * 1e-12
    attempts = 0
    value = x
    while abs(polynomial(value)) <= 1e-14 * max(polynomial.l2_norm(), 1.0) and attempts < 60:
        value += direction * step
        step *= 2.0
        attempts += 1
    return value


def count_real_roots(polynomial: Polynomial) -> int:
    """Number of distinct real roots of ``polynomial`` over all of ``R``."""
    return SturmSequence.of(polynomial).count_real_roots()


def count_distinct_real_roots_in_interval(
    polynomial: Polynomial, low: float, high: float
) -> int:
    """Number of distinct real roots of ``polynomial`` in ``(low, high]``."""
    return SturmSequence.of(polynomial).count_roots_in_interval(low, high)


def isolate_real_roots(
    polynomial: Polynomial,
    low: float,
    high: float,
    max_depth: int = 64,
) -> List[Tuple[float, float]]:
    """Return disjoint subintervals of ``(low, high]`` each containing one root.

    Recursively bisects the interval, using the Sturm sequence to count roots
    per half, until every reported interval contains exactly one distinct real
    root or the recursion depth is exhausted (in which case the interval is
    reported as-is; its width is then ``(high - low) * 2**-max_depth``).
    """
    sequence = SturmSequence.of(polynomial)
    result: List[Tuple[float, float]] = []

    def recurse(a: float, b: float, depth: int) -> None:
        roots = sequence.count_roots_in_interval(a, b)
        if roots == 0:
            return
        if roots == 1 or depth >= max_depth:
            result.append((a, b))
            return
        middle = (a + b) / 2.0
        recurse(a, middle, depth + 1)
        recurse(middle, b, depth + 1)

    recurse(low, high, 0)
    return sorted(result)


def refine_root(
    polynomial: Polynomial,
    low: float,
    high: float,
    tolerance: float = 1e-12,
    max_iterations: int = 200,
) -> float:
    """Refine a root known to lie in ``[low, high]`` by bisection.

    The interval must bracket a sign change of the polynomial; if it does not
    (e.g. a double root), the midpoint of the interval is returned.
    """
    f_low = polynomial(low)
    f_high = polynomial(high)
    if f_low == 0.0:
        return low
    if f_high == 0.0:
        return high
    if f_low * f_high > 0.0:
        return (low + high) / 2.0
    a, b = low, high
    fa = f_low
    for _ in range(max_iterations):
        middle = (a + b) / 2.0
        f_middle = polynomial(middle)
        if abs(f_middle) == 0.0 or (b - a) / 2.0 < tolerance:
            return middle
        if fa * f_middle < 0.0:
            b = middle
        else:
            a = middle
            fa = f_middle
    return (a + b) / 2.0
