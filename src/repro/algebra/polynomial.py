"""Univariate polynomials with real coefficients.

The convexity proof (Section 3.2) and the point-location segment test
(Section 5.1) both manipulate univariate polynomials obtained by restricting
the degree-``2n`` reception polynomial to a line or segment: they need
evaluation, differentiation, polynomial division with remainder (for Sturm
sequences), and sign bookkeeping at the interval endpoints and at infinity.

Coefficients are stored densely in *ascending* order (``coefficients[k]`` is
the coefficient of ``x^k``) as plain floats.  To keep Sturm sequences
numerically stable the arithmetic routines normalise and prune near-zero
coefficients relative to the largest coefficient magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from ..exceptions import AlgebraError

__all__ = ["Polynomial"]

#: Relative magnitude below which a coefficient is treated as zero.
_RELATIVE_EPSILON = 1e-12


def _trimmed(
    coefficients: Sequence[float], relative: float = _RELATIVE_EPSILON
) -> Tuple[float, ...]:
    """Drop trailing (highest-degree) coefficients that are relatively
    negligible (``relative=0.0`` drops exact zeros only)."""
    values = [float(c) for c in coefficients]
    if not values:
        return (0.0,)
    scale = max(abs(c) for c in values)
    if scale == 0.0:
        return (0.0,)
    threshold = scale * relative
    last = len(values) - 1
    while last > 0 and abs(values[last]) <= threshold:
        last -= 1
    return tuple(values[: last + 1])


@dataclass(frozen=True)
class Polynomial:
    """A dense univariate polynomial ``c0 + c1*x + ... + cd*x^d``."""

    coefficients: Tuple[float, ...]

    def __init__(self, coefficients: Iterable[float]):
        object.__setattr__(self, "coefficients", _trimmed(list(coefficients)))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "Polynomial":
        """The zero polynomial."""
        return Polynomial([0.0])

    @staticmethod
    def constant(value: float) -> "Polynomial":
        """The constant polynomial ``value``."""
        return Polynomial([value])

    @staticmethod
    def monomial(degree: int, coefficient: float = 1.0) -> "Polynomial":
        """The monomial ``coefficient * x^degree``."""
        if degree < 0:
            raise AlgebraError("monomial degree must be non-negative")
        return Polynomial([0.0] * degree + [coefficient])

    @staticmethod
    def linear(constant: float, slope: float) -> "Polynomial":
        """The polynomial ``constant + slope * x``."""
        return Polynomial([constant, slope])

    @staticmethod
    def from_roots(roots: Sequence[float], leading: float = 1.0) -> "Polynomial":
        """The monic (up to ``leading``) polynomial with the given real roots."""
        result = Polynomial.constant(leading)
        for root in roots:
            result = result * Polynomial([-root, 1.0])
        return result

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree 0 here."""
        return len(self.coefficients) - 1

    def is_zero(self, tolerance: float = 0.0) -> bool:
        """True if every coefficient is (essentially) zero."""
        return all(abs(c) <= tolerance for c in self.coefficients)

    def leading_coefficient(self) -> float:
        """Coefficient of the highest-degree term."""
        return self.coefficients[-1]

    def __getitem__(self, power: int) -> float:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return 0.0

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, x: float) -> float:
        """Evaluate by Horner's rule."""
        result = 0.0
        for coefficient in reversed(self.coefficients):
            result = result * x + coefficient
        return result

    def sign_at(self, x: float, tolerance: float = 0.0) -> int:
        """Sign of ``P(x)``: +1, -1, or 0 when ``|P(x)| <= tolerance``."""
        value = self(x)
        if value > tolerance:
            return 1
        if value < -tolerance:
            return -1
        return 0

    def sign_at_plus_infinity(self) -> int:
        """Sign of ``P(x)`` as ``x -> +inf`` (0 only for the zero polynomial)."""
        lead = self.leading_coefficient()
        if lead > 0:
            return 1
        if lead < 0:
            return -1
        return 0

    def sign_at_minus_infinity(self) -> int:
        """Sign of ``P(x)`` as ``x -> -inf``."""
        lead = self.leading_coefficient()
        if lead == 0:
            return 0
        if self.degree() % 2 == 0:
            return 1 if lead > 0 else -1
        return -1 if lead > 0 else 1

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Polynomial | float") -> "Polynomial":
        other_poly = other if isinstance(other, Polynomial) else Polynomial.constant(other)
        size = max(len(self.coefficients), len(other_poly.coefficients))
        return Polynomial(
            [self[i] + other_poly[i] for i in range(size)]
        )

    def __radd__(self, other: float) -> "Polynomial":
        return self + other

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coefficients])

    def __sub__(self, other: "Polynomial | float") -> "Polynomial":
        other_poly = other if isinstance(other, Polynomial) else Polynomial.constant(other)
        return self + (-other_poly)

    def __rsub__(self, other: float) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | float") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return Polynomial([c * other for c in self.coefficients])
        result = [0.0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0.0:
                continue
            for j, b in enumerate(other.coefficients):
                result[i + j] += a * b
        return Polynomial(result)

    def __rmul__(self, other: float) -> "Polynomial":
        return self * other

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise AlgebraError("polynomial exponent must be non-negative")
        result = Polynomial.constant(1.0)
        base = self
        power = exponent
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def scaled(self, factor: float) -> "Polynomial":
        """The polynomial multiplied by a scalar."""
        return self * factor

    def normalized(self) -> "Polynomial":
        """The polynomial divided by the magnitude of its largest coefficient.

        Normalisation keeps Sturm-sequence remainders well scaled; it does not
        change the roots or the signs used in sign-change counts... except the
        overall sign, which is preserved because we divide by a positive value.
        """
        scale = max(abs(c) for c in self.coefficients)
        if scale == 0.0:
            return Polynomial.zero()
        return Polynomial([c / scale for c in self.coefficients])

    def derivative(self) -> "Polynomial":
        """The first derivative."""
        if self.degree() == 0:
            return Polynomial.zero()
        return Polynomial(
            [i * c for i, c in enumerate(self.coefficients)][1:]
        )

    def divmod(self, divisor: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Polynomial division: returns ``(quotient, remainder)``.

        The remainder is trimmed like any polynomial; the quotient keeps
        every coefficient up to its degree ``deg(self) - deg(divisor)``.

        Raises:
            AlgebraError: when dividing by the zero polynomial.
        """
        if divisor.is_zero():
            raise AlgebraError("polynomial division by zero")
        remainder = list(self.coefficients)
        divisor_coefficients = divisor.coefficients
        divisor_degree = divisor.degree()
        divisor_lead = divisor_coefficients[-1]
        quotient = [0.0] * max(len(remainder) - divisor_degree, 1)

        for position in range(len(remainder) - 1, divisor_degree - 1, -1):
            factor = remainder[position] / divisor_lead
            quotient[position - divisor_degree] = factor
            if factor == 0.0:
                continue
            for offset, coefficient in enumerate(divisor_coefficients):
                remainder[position - divisor_degree + offset] -= factor * coefficient
        # The quotient's leading coefficient is the ratio of the two leading
        # coefficients, never negligible however small beside the others:
        # trimming it relatively would drop a degree (x^5 / (3 + 0.0011x)
        # would lose its 909 x^4 term beside 5.0e16).
        exact_quotient = object.__new__(Polynomial)
        object.__setattr__(exact_quotient, "coefficients", _trimmed(quotient, 0.0))
        return exact_quotient, Polynomial(remainder[:divisor_degree] or [0.0])

    def __divmod__(self, divisor: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        return self.divmod(divisor)

    def __mod__(self, divisor: "Polynomial") -> "Polynomial":
        return self.divmod(divisor)[1]

    def __floordiv__(self, divisor: "Polynomial") -> "Polynomial":
        return self.divmod(divisor)[0]

    # ------------------------------------------------------------------
    # Composition and shifting
    # ------------------------------------------------------------------
    def compose(self, inner: "Polynomial") -> "Polynomial":
        """The composition ``self(inner(x))`` (Horner in the polynomial ring)."""
        result = Polynomial.zero()
        for coefficient in reversed(self.coefficients):
            result = result * inner + Polynomial.constant(coefficient)
        return result

    def shifted(self, offset: float) -> "Polynomial":
        """The polynomial ``P(x + offset)``.

        The convexity proof introduces the shifted variable ``z = x - r_bar``
        (Section 3.2); ``shifted(r_bar)`` performs exactly that substitution.
        """
        return self.compose(Polynomial.linear(offset, 1.0))

    # ------------------------------------------------------------------
    # Miscellanea
    # ------------------------------------------------------------------
    def l2_norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return math.sqrt(sum(c * c for c in self.coefficients))

    def cauchy_root_bound(self) -> float:
        """An upper bound on the magnitude of every (real or complex) root."""
        lead = abs(self.leading_coefficient())
        if lead == 0.0:
            return 0.0
        return 1.0 + max(abs(c) for c in self.coefficients[:-1]) / lead if self.degree() > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = [
            f"{c:+g}*x^{i}" for i, c in enumerate(self.coefficients) if c != 0.0
        ]
        return "Polynomial(" + (" ".join(terms) if terms else "0") + ")"
