"""Property-based tests (hypothesis) for the library's core invariants.

These encode the paper's structural claims and the substrate's algebraic
invariants as properties over randomly generated inputs:

* Sturm root counting agrees with the factored ground truth;
* polynomial division reconstructs the dividend;
* Lemma 2.3 invariance of the SINR under similarity transforms;
* Theorem 1: segments between points of a reception zone stay in the zone;
* Theorem 2: the measured fatness never exceeds the bound;
* Lemma 2.1 via Sturm: no line crosses a convex zone boundary more than twice;
* the reception polynomial sign test agrees with the SINR threshold rule;
* the point-location answers are one-sided exact.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro import Point, ReceptionZone, SINRDiagram, WirelessNetwork
from repro.algebra import Polynomial, count_real_roots
from repro.geometry import SimilarityTransform, convex_hull, Polygon
from repro.pointlocation import PointLocationStructure, ZoneLabel, explicit_radius_bounds

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
coordinates = st.floats(
    min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False
)
# Root sets for Sturm-counting properties.  Roots are kept pairwise separated:
# with float arithmetic a Sturm sequence cannot reliably distinguish a true
# multiple root from a near-multiple one, so exact-multiplicity inputs are a
# dedicated unit-test case rather than a property-test case.
small_roots = st.lists(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=5,
).filter(
    lambda roots: all(
        abs(a - b) >= 0.05 for i, a in enumerate(roots) for b in roots[i + 1 :]
    )
)


@st.composite
def station_layouts(draw, min_stations=2, max_stations=5, min_separation=1.0):
    """Station location lists with pairwise separation at least ``min_separation``."""
    count = draw(st.integers(min_value=min_stations, max_value=max_stations))
    points = []
    for _ in range(count * 8):
        if len(points) == count:
            break
        candidate = Point(draw(coordinates), draw(coordinates))
        if all(candidate.distance_to(p) >= min_separation for p in points):
            points.append(candidate)
    assume(len(points) == count)
    return points


@st.composite
def uniform_networks(draw, beta_min=1.5, beta_max=6.0):
    """Uniform power networks in the Theorem 1/2 regime."""
    points = draw(station_layouts())
    beta = draw(st.floats(min_value=beta_min, max_value=beta_max))
    noise = draw(st.floats(min_value=0.0, max_value=0.05))
    return WirelessNetwork.uniform(points, noise=noise, beta=beta)


# ----------------------------------------------------------------------
# Algebra invariants
# ----------------------------------------------------------------------
class TestAlgebraProperties:
    @given(small_roots)
    @settings(max_examples=60, deadline=None)
    def test_sturm_counts_distinct_real_roots(self, roots):
        polynomial = Polynomial.from_roots(roots)
        distinct = len({round(r, 9) for r in roots})
        assert count_real_roots(polynomial) == distinct

    @given(
        st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6),
        st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=4),
    )
    # A leading coefficient just above the 1e-3 floor grows the quotient's
    # coefficients like 128**k, and q*d + r cancels terms of ~4.35e10 to
    # give 0.0081 at x = -0.3: a 1.4e-6 error that is 0.14 ulp of the terms.
    @example([0.0, 0.0, 0.0, 0.0, 1.0], [3.0, 0.0078125])
    # The quotient's leading 909 x^4 term sits beside 5.0e16; trimmed as
    # negligible, it left a cubic whose reconstruction missed by 954 eps.
    @example([0.0, 0.0, 0.0, 0.0, 0.0, 1.0], [3.0, 0.0011])
    @settings(max_examples=60, deadline=None)
    def test_polynomial_division_reconstructs_dividend(self, dividend_coefficients, divisor_coefficients):
        dividend = Polynomial(dividend_coefficients)
        divisor = Polynomial(divisor_coefficients)
        assume(not divisor.is_zero(tolerance=1e-9))
        assume(abs(divisor.leading_coefficient()) > 1e-3)
        quotient, remainder = dividend.divmod(divisor)

        def magnitude(polynomial, x):
            """``|p|(|x|)``: the polynomial with absolute coefficients."""
            return sum(
                abs(c) * abs(x) ** k for k, c in enumerate(polynomial.coefficients)
            )

        for x in (-1.7, -0.3, 0.0, 0.9, 2.2):
            reconstructed = quotient(x) * divisor(x) + remainder(x)
            # Rounding in the division and in the evaluation is bounded by
            # a few ulps of the largest terms summed, M; the fixed tolerance
            # stays in force wherever the terms do not cancel.
            terms = (
                magnitude(quotient, x) * magnitude(divisor, x)
                + magnitude(remainder, x)
            )
            tolerance = max(
                1e-6 * abs(dividend(x)), 1e-6, 32 * sys.float_info.epsilon * terms
            )
            assert abs(reconstructed - dividend(x)) <= tolerance

    @given(small_roots, st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=50, deadline=None)
    def test_shift_preserves_root_count(self, roots, offset):
        polynomial = Polynomial.from_roots(roots)
        shifted = polynomial.shifted(offset)
        assert count_real_roots(shifted) == count_real_roots(polynomial)


# ----------------------------------------------------------------------
# Geometry invariants
# ----------------------------------------------------------------------
class TestGeometryProperties:
    @given(st.lists(st.tuples(coordinates, coordinates), min_size=3, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_convex_hull_contains_every_point(self, raw_points):
        points = [Point(x, y) for x, y in raw_points]
        hull = convex_hull(points)
        assume(len(hull) >= 3)
        polygon = Polygon(hull)
        for point in points:
            assert polygon.contains(point, tolerance=1e-7)

    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.2, max_value=3.0),
        st.tuples(coordinates, coordinates),
        st.tuples(coordinates, coordinates),
    )
    @settings(max_examples=60, deadline=None)
    def test_similarity_transforms_scale_distances_uniformly(
        self, angle, scale, raw_p, raw_q
    ):
        transform = SimilarityTransform(angle=angle, scale=scale, offset=Point(1.0, -2.0))
        p, q = Point(*raw_p), Point(*raw_q)
        original = p.distance_to(q)
        mapped = transform.apply(p).distance_to(transform.apply(q))
        assert mapped == pytest.approx(scale * original, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# SINR model invariants (the paper's theorems)
# ----------------------------------------------------------------------
class TestModelProperties:
    @given(uniform_networks(), st.tuples(coordinates, coordinates))
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_lemma_2_3_sinr_invariance(self, network, raw_point):
        point = Point(*raw_point)
        assume(all(s.location.distance_to(point) > 1e-6 for s in network.stations))
        transform = SimilarityTransform(angle=0.9, scale=1.7, offset=Point(2.0, 3.0))
        transformed = network.transformed(transform)
        assert transformed.sinr(0, transform.apply(point)) == pytest.approx(
            network.sinr(0, point), rel=1e-9
        )

    @given(uniform_networks(), st.tuples(coordinates, coordinates))
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_reception_polynomial_sign_matches_sinr_rule(self, network, raw_point):
        point = Point(*raw_point)
        assume(all(s.location.distance_to(point) > 1e-9 for s in network.stations))
        polynomial = network.reception_polynomial(0)
        assert polynomial.is_received(point) == network.is_received(0, point)

    @given(uniform_networks(beta_min=1.5), st.floats(min_value=0.0, max_value=2 * math.pi), st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=2 * math.pi), st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.05, max_value=0.95))
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_theorem_1_segments_between_zone_points_stay_inside(
        self, network, angle_a, radial_a, angle_b, radial_b, interpolation
    ):
        zone = ReceptionZone(network=network, index=0)
        assume(not zone.is_degenerate)
        max_radius = zone.search_radius()
        point_a = zone.station_location + Point(
            math.cos(angle_a), math.sin(angle_a)
        ) * (radial_a * 0.98 * zone.boundary_distance_along_ray(angle_a, max_radius))
        point_b = zone.station_location + Point(
            math.cos(angle_b), math.sin(angle_b)
        ) * (radial_b * 0.98 * zone.boundary_distance_along_ray(angle_b, max_radius))
        assume(zone.contains(point_a) and zone.contains(point_b))
        between = point_a + (point_b - point_a) * interpolation
        assert zone.contains(between)

    @given(uniform_networks(beta_min=1.3))
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_theorem_2_fatness_bound(self, network):
        zone = ReceptionZone(network=network, index=0)
        assume(not zone.is_degenerate)
        measurement = zone.fatness(angles=72)
        beta = network.beta
        bound = (math.sqrt(beta) + 1.0) / (math.sqrt(beta) - 1.0)
        assert measurement.fatness <= bound * (1.0 + 1e-4)

    @given(uniform_networks(beta_min=1.3))
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_theorem_4_1_explicit_bounds_sandwich_measured_radii(self, network):
        assume(not network.location_is_shared(0))
        bounds = explicit_radius_bounds(network, 0)
        zone = ReceptionZone(network=network, index=0)
        measurement = zone.fatness(angles=72)
        assert bounds.delta_lower <= measurement.delta * (1.0 + 1e-6)
        assert bounds.Delta_upper >= measurement.Delta * (1.0 - 1e-6)

    @given(
        uniform_networks(beta_min=1.5),
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=-4.0, max_value=4.0),
    )
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_lemma_2_1_lines_cross_the_boundary_at_most_twice(
        self, network, angle, offset
    ):
        assume(not network.location_is_shared(0))
        polynomial = network.reception_polynomial(0)
        zone = ReceptionZone(network=network, index=0)
        reach = zone.search_radius() * 3.0 + 5.0
        direction = Point(math.cos(angle), math.sin(angle))
        normal = direction.perpendicular()
        anchor = zone.station_location + normal * offset - direction * reach
        end = zone.station_location + normal * offset + direction * reach
        assert polynomial.count_boundary_crossings(anchor, end) <= 2


# ----------------------------------------------------------------------
# Point-location invariants (Theorem 3)
# ----------------------------------------------------------------------
class TestPointLocationProperties:
    @given(
        station_layouts(min_stations=2, max_stations=4, min_separation=2.0),
        st.lists(st.tuples(coordinates, coordinates), min_size=5, max_size=30),
    )
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_answers_are_one_sided_exact(self, layout, raw_queries):
        network = WirelessNetwork.uniform(layout, noise=0.005, beta=2.5)
        structure = PointLocationStructure(network, epsilon=0.5)
        for raw in raw_queries:
            point = Point(*raw)
            answer = structure.locate_answer(point)
            if answer.label is ZoneLabel.INSIDE:
                assert network.is_received(answer.station, point)
            elif answer.label is ZoneLabel.OUTSIDE:
                assert all(
                    not network.is_received(index, point)
                    for index in range(len(network))
                )
