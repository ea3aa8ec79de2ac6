"""Tests for the univariate polynomial type."""

from __future__ import annotations

import sys

import pytest

from repro.algebra import Polynomial
from repro.exceptions import AlgebraError


class TestConstruction:
    def test_trailing_zero_coefficients_are_trimmed(self):
        assert Polynomial([1.0, 2.0, 0.0, 0.0]).degree() == 1

    def test_zero_and_constant(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial.constant(3.0)(10.0) == 3.0

    def test_monomial_and_linear(self):
        assert Polynomial.monomial(3, 2.0)(2.0) == pytest.approx(16.0)
        assert Polynomial.linear(1.0, 2.0)(3.0) == pytest.approx(7.0)

    def test_monomial_negative_degree_rejected(self):
        with pytest.raises(AlgebraError):
            Polynomial.monomial(-1)

    def test_from_roots(self):
        polynomial = Polynomial.from_roots([1.0, -2.0], leading=3.0)
        assert polynomial(1.0) == pytest.approx(0.0)
        assert polynomial(-2.0) == pytest.approx(0.0)
        assert polynomial.leading_coefficient() == pytest.approx(3.0)

    def test_getitem_out_of_range_is_zero(self):
        assert Polynomial([1.0, 2.0])[5] == 0.0


class TestEvaluationAndSigns:
    def test_horner_evaluation(self):
        polynomial = Polynomial([1.0, -3.0, 2.0])  # 2x^2 - 3x + 1
        assert polynomial(0.0) == pytest.approx(1.0)
        assert polynomial(1.0) == pytest.approx(0.0)
        assert polynomial(2.0) == pytest.approx(3.0)

    def test_sign_at(self):
        polynomial = Polynomial([-1.0, 0.0, 1.0])  # x^2 - 1
        assert polynomial.sign_at(2.0) == 1
        assert polynomial.sign_at(0.0) == -1
        assert polynomial.sign_at(1.0) == 0

    def test_signs_at_infinity(self):
        even = Polynomial([0.0, 0.0, 1.0])  # x^2
        odd = Polynomial([0.0, 1.0])  # x
        assert even.sign_at_plus_infinity() == even.sign_at_minus_infinity() == 1
        assert odd.sign_at_plus_infinity() == 1
        assert odd.sign_at_minus_infinity() == -1
        negative_cubic = Polynomial([0.0, 0.0, 0.0, -2.0])
        assert negative_cubic.sign_at_plus_infinity() == -1
        assert negative_cubic.sign_at_minus_infinity() == 1


class TestArithmetic:
    def test_addition_and_subtraction(self):
        a = Polynomial([1.0, 2.0])
        b = Polynomial([3.0, -2.0, 1.0])
        assert (a + b).coefficients == (4.0, 0.0, 1.0)
        assert (b - a).coefficients == (2.0, -4.0, 1.0)
        assert (a + 1.0)(0.0) == pytest.approx(2.0)

    def test_multiplication(self):
        a = Polynomial([1.0, 1.0])  # 1 + x
        b = Polynomial([-1.0, 1.0])  # -1 + x
        assert (a * b).coefficients == (-1.0, 0.0, 1.0)
        assert (a * 2.0).coefficients == (2.0, 2.0)

    def test_power(self):
        squared = Polynomial([1.0, 1.0]) ** 2
        assert squared.coefficients == (1.0, 2.0, 1.0)
        assert (Polynomial([2.0]) ** 0).coefficients == (1.0,)
        with pytest.raises(AlgebraError):
            Polynomial([1.0]) ** -1

    def test_division_with_remainder(self):
        dividend = Polynomial([-1.0, 0.0, 0.0, 1.0])  # x^3 - 1
        divisor = Polynomial([-1.0, 1.0])  # x - 1
        quotient, remainder = dividend.divmod(divisor)
        assert remainder.is_zero(tolerance=1e-12)
        assert quotient.coefficients == pytest.approx((1.0, 1.0, 1.0))

    def test_division_identity(self):
        dividend = Polynomial([3.0, -2.0, 5.0, 1.0])
        divisor = Polynomial([1.0, 1.0, 2.0])
        quotient, remainder = divmod(dividend, divisor)
        reconstructed = quotient * divisor + remainder
        for x in (-2.0, -0.5, 0.0, 1.3, 4.0):
            assert reconstructed(x) == pytest.approx(dividend(x))

    def test_quotient_keeps_a_small_leading_coefficient(self):
        """x^5 / (3 + 0.0011x): the quotient's leading 909 x^4 term sits
        beside 5.0e16 and was trimmed as negligible, leaving a cubic whose
        q * d + r read -63904 at x = 2.2 against x^5 = 51.5.  Kept, the
        reconstruction is exact to rounding of the terms it cancels."""
        dividend = Polynomial.monomial(5)
        divisor = Polynomial([3.0, 0.0011])
        quotient, remainder = dividend.divmod(divisor)
        assert quotient.degree() == 4
        assert quotient.leading_coefficient() == 1.0 / 0.0011
        x = 2.2
        terms = sum(
            abs(c) * x**k for k, c in enumerate(quotient.coefficients)
        ) * (3.0 + 0.0011 * x) + abs(remainder(x))
        error = abs(quotient(x) * divisor(x) + remainder(x) - x**5)
        assert error <= 32 * sys.float_info.epsilon * terms

    def test_division_by_zero_raises(self):
        with pytest.raises(AlgebraError):
            Polynomial([1.0, 1.0]).divmod(Polynomial.zero())

    def test_mod_and_floordiv_operators(self):
        dividend = Polynomial([1.0, 0.0, 1.0])
        divisor = Polynomial([1.0, 1.0])
        assert (dividend % divisor).degree() == 0
        assert (dividend // divisor).degree() == 1


class TestCalculusAndComposition:
    def test_derivative(self):
        polynomial = Polynomial([5.0, 3.0, 2.0])  # 2x^2 + 3x + 5
        assert polynomial.derivative().coefficients == (3.0, 4.0)
        assert Polynomial.constant(7.0).derivative().is_zero()

    def test_compose(self):
        outer = Polynomial([0.0, 0.0, 1.0])  # x^2
        inner = Polynomial([1.0, 1.0])  # x + 1
        composed = outer.compose(inner)
        assert composed(2.0) == pytest.approx(9.0)

    def test_shifted(self):
        polynomial = Polynomial([0.0, 0.0, 1.0])  # x^2
        shifted = polynomial.shifted(3.0)  # (x + 3)^2
        assert shifted(0.0) == pytest.approx(9.0)
        assert shifted(-3.0) == pytest.approx(0.0)

    def test_normalized_preserves_roots_and_signs(self):
        polynomial = Polynomial([2000.0, -4000.0, 2000.0])
        normalized = polynomial.normalized()
        assert max(abs(c) for c in normalized.coefficients) == pytest.approx(1.0)
        assert normalized(1.0) == pytest.approx(0.0)
        assert normalized.sign_at(5.0) == polynomial.sign_at(5.0)

    def test_cauchy_root_bound(self):
        polynomial = Polynomial.from_roots([1.0, -3.0, 0.5])
        bound = polynomial.cauchy_root_bound()
        assert bound >= 3.0
