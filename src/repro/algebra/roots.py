"""Closed-form root finding and discriminants for low-degree polynomials.

Section 3.2 of the paper uses the discriminant of a cubic (the derivative of
the quartic restriction ``H(x)``) to prove Proposition 3.4: when the
discriminant of ``H'(x)`` is negative, ``H'`` has a single real root, so
``H`` has at most two distinct real roots.  Section 4.2.1 solves a quadratic
explicitly to obtain the one-dimensional reception interval ``[mu_l, mu_r]``.

This module provides those tools: discriminants of cubics and quartics,
closed-form real-root computation for degrees up to two, and a Durand–Kerner
style fallback (via ``numpy.roots``) for higher degrees, used only by tests to
cross-check the Sturm machinery.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from ..exceptions import AlgebraError
from .polynomial import Polynomial

__all__ = [
    "real_roots_of_quadratic",
    "real_roots_of_linear",
    "cubic_discriminant",
    "cubic_has_single_real_root",
    "quartic_depressed_form",
    "numeric_real_roots",
]


def real_roots_of_linear(constant: float, slope: float) -> List[float]:
    """Real roots of ``constant + slope * x``."""
    if slope == 0.0:
        return []
    return [-constant / slope]


def real_roots_of_quadratic(c0: float, c1: float, c2: float) -> List[float]:
    """Distinct real roots of ``c0 + c1*x + c2*x^2`` in increasing order.

    Degenerates gracefully to the linear case when ``c2 == 0``.
    """
    if c2 == 0.0:
        return real_roots_of_linear(c0, c1)
    discriminant = c1 * c1 - 4.0 * c2 * c0
    if discriminant < 0.0:
        return []
    if discriminant == 0.0:
        return [-c1 / (2.0 * c2)]
    sqrt_disc = math.sqrt(discriminant)
    # Numerically stable form: compute the larger-magnitude root first.
    if c1 >= 0.0:
        q = -(c1 + sqrt_disc) / 2.0
    else:
        q = -(c1 - sqrt_disc) / 2.0
    roots = sorted({q / c2, c0 / q if q != 0.0 else -c1 / (2.0 * c2)})
    return roots


def cubic_discriminant(c0: float, c1: float, c2: float, c3: float) -> float:
    """Discriminant of the cubic ``c3*x^3 + c2*x^2 + c1*x + c0``.

    Matches the expression used in Proposition 3.4:
    ``c1^2 c2^2 - 4 c0 c2^3 - 4 c1^3 c3 + 18 c0 c1 c2 c3 - 27 c0^2 c3^2``.
    A negative discriminant means exactly one real root.
    """
    return (
        c1 * c1 * c2 * c2
        - 4.0 * c0 * c2 ** 3
        - 4.0 * c1 ** 3 * c3
        + 18.0 * c0 * c1 * c2 * c3
        - 27.0 * c0 * c0 * c3 * c3
    )


def cubic_has_single_real_root(c0: float, c1: float, c2: float, c3: float) -> bool:
    """True if the cubic has exactly one real root (negative discriminant).

    A zero discriminant (repeated roots) returns False; the caller decides how
    to treat the boundary case.
    """
    if c3 == 0.0:
        raise AlgebraError("cubic_has_single_real_root() requires a true cubic")
    return cubic_discriminant(c0, c1, c2, c3) < 0.0


def quartic_depressed_form(
    c0: float, c1: float, c2: float, c3: float, c4: float
) -> Tuple[float, float, float, float]:
    """Depress the quartic: substitute ``x = z - c3/(4 c4)``.

    Returns ``(shift, p, q, r)`` such that the original quartic equals
    ``c4 * (z^4 + p z^2 + q z + r)`` with ``x = z + shift``.  The convexity
    proof performs the analogous recentring around ``r_bar``, the vertex of
    the interference parabola ``J(x)``.
    """
    if c4 == 0.0:
        raise AlgebraError("quartic_depressed_form() requires degree exactly four")
    shift = -c3 / (4.0 * c4)
    # Expand c4*(z+shift)^4 + c3*(z+shift)^3 + ... and divide by c4.
    poly = Polynomial([c0, c1, c2, c3, c4]).shifted(shift)
    scaled = poly * (1.0 / c4)
    return (shift, scaled[2], scaled[1], scaled[0])


def numeric_real_roots(
    polynomial: Polynomial, imaginary_tolerance: float = 1e-7
) -> List[float]:
    """All real roots of ``polynomial`` computed via the companion matrix.

    Used by tests and by diagram tracing as a cross-check of the Sturm-based
    machinery.  Roots whose imaginary part is below ``imaginary_tolerance``
    (relative to their magnitude) are projected onto the real axis; the
    returned list is sorted and may contain near-duplicates for multiple
    roots.
    """
    coefficients = list(polynomial.coefficients)
    if len(coefficients) == 1:
        return []
    # numpy.roots expects descending order.
    roots = np.roots(list(reversed(coefficients)))
    real_roots: List[float] = []
    for root in roots:
        scale = max(1.0, abs(root))
        if abs(root.imag) <= imaginary_tolerance * scale:
            real_roots.append(float(root.real))
    return sorted(real_roots)
