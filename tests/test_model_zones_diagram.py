"""Tests for reception zones and SINR diagrams."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro import (
    NO_RECEPTION,
    Point,
    RasterDiagram,
    ReceptionZone,
    SINRDiagram,
    Station,
    WirelessNetwork,
)
from repro.exceptions import DiagramError, NetworkConfigurationError
from repro.raster import TileCache
from repro.workloads import scenario, uniform_random_network

from seeded_workloads import seeded_network


class TestReceptionZone:
    def test_membership_matches_network_rule(self, noisy_network):
        zone = ReceptionZone(network=noisy_network, index=0)
        rng = random.Random(4)
        for _ in range(200):
            point = Point(rng.uniform(-5, 8), rng.uniform(-5, 8))
            assert zone.contains(point) == noisy_network.is_received(0, point)
        assert Point(0.2, 0.1) in zone

    def test_invalid_index_rejected(self, noisy_network):
        with pytest.raises(NetworkConfigurationError):
            ReceptionZone(network=noisy_network, index=99)

    def test_degenerate_zone(self):
        network = WirelessNetwork.uniform([(0, 0), (0, 0), (4, 0)], beta=2.0)
        zone = ReceptionZone(network=network, index=0)
        assert zone.is_degenerate
        assert zone.inscribed_radius() == 0.0
        assert zone.area_estimate() == 0.0
        with pytest.raises(NetworkConfigurationError):
            zone.boundary_polygon()

    def test_boundary_distance_bisection(self, two_station_network):
        zone = ReceptionZone(network=two_station_network, index=0)
        # The zone of s0 is the Apollonius disk d0 <= d1 / sqrt(2) whose
        # rightmost boundary point on the x-axis is at x = 4/(sqrt(2)+1).
        expected = 4.0 / (math.sqrt(2.0) + 1.0)
        assert zone.boundary_distance_along_ray(0.0) == pytest.approx(expected, abs=1e-6)
        # Leftmost boundary point at distance 4/(sqrt(2)-1).
        expected_far = 4.0 / (math.sqrt(2.0) - 1.0)
        assert zone.boundary_distance_along_ray(math.pi) == pytest.approx(
            expected_far, abs=1e-5
        )

    def test_boundary_points_lie_on_the_boundary(self, noisy_network):
        zone = ReceptionZone(network=noisy_network, index=0)
        polynomial = noisy_network.reception_polynomial(0)
        for k in range(12):
            point = zone.boundary_point_along_ray(2 * math.pi * k / 12)
            scale = max(abs(polynomial(point.x + 1, point.y)), 1.0)
            assert abs(polynomial.evaluate_at_point(point)) <= 1e-4 * scale

    def test_boundary_polygon_is_convex_for_beta_above_one(self, noisy_network):
        zone = ReceptionZone(network=noisy_network, index=0)
        polygon = zone.boundary_polygon(vertices=90)
        assert polygon.is_convex(tolerance=1e-7)

    def test_fatness_measurement_respects_theorem_2(self, noisy_network):
        zone = ReceptionZone(network=noisy_network, index=0)
        measurement = zone.fatness(angles=120)
        bound = (math.sqrt(noisy_network.beta) + 1) / (math.sqrt(noisy_network.beta) - 1)
        assert 1.0 <= measurement.fatness <= bound + 1e-6

    def test_two_station_exact_radii(self, two_station_network):
        # Section 4.2.1: delta = kappa/(sqrt(beta)+1), Delta = kappa/(sqrt(beta)-1).
        zone = ReceptionZone(network=two_station_network, index=0)
        measurement = zone.fatness(angles=256)
        beta, kappa = 2.0, 4.0
        assert measurement.delta == pytest.approx(kappa / (math.sqrt(beta) + 1), rel=1e-3)
        assert measurement.Delta == pytest.approx(kappa / (math.sqrt(beta) - 1), rel=1e-3)

    def test_area_and_perimeter_estimates(self, two_station_network):
        zone = ReceptionZone(network=two_station_network, index=0)
        # The zone is the Apollonius disk of radius sqrt(32).
        radius = math.sqrt(32.0)
        assert zone.area_estimate(vertices=720) == pytest.approx(
            math.pi * radius * radius, rel=2e-2
        )
        assert zone.perimeter_estimate(vertices=720) == pytest.approx(
            2 * math.pi * radius, rel=2e-2
        )

    def test_search_radius_bounds_the_zone(self, noisy_network):
        zone = ReceptionZone(network=noisy_network, index=0)
        radius = zone.search_radius()
        center = zone.station_location
        for k in range(16):
            angle = 2 * math.pi * k / 16
            probe = Point(
                center.x + radius * 1.01 * math.cos(angle),
                center.y + radius * 1.01 * math.sin(angle),
            )
            assert not zone.contains(probe)


def per_ray_bisection(zone, angle, tolerance=1e-10):
    """The per-ray scalar bisection the batched probe replaced, as its oracle."""
    if zone.is_degenerate:
        return 0.0
    center = zone.station_location
    cos, sin = math.cos(angle), math.sin(angle)

    def inside(radius):
        point = Point(center.x + radius * cos, center.y + radius * sin)
        return zone.network.is_received(zone.index, point)

    high = zone.search_radius()
    if inside(high):
        for _ in range(60):
            high *= 2.0
            if not inside(high):
                break
        else:
            return math.inf
    low = 0.0
    while high - low > tolerance * max(1.0, high):
        middle = (low + high) / 2.0
        if inside(middle):
            low = middle
        else:
            high = middle
    return (low + high) / 2.0


ORACLE_NETWORKS = {
    **{
        name: (lambda name=name: scenario(name).network())
        for name in (
            "small-random",
            "clustered",
            "ring",
            "grid",
            "colinear",
            "textbook-beta",
        )
    },
    "beta-0.5": lambda: uniform_random_network(
        5, side=10.0, minimum_separation=1.5, noise=0.01, beta=0.5, seed=3
    ),
    "beta-1.01": lambda: uniform_random_network(
        5, side=10.0, minimum_separation=1.5, noise=0.01, beta=1.01, seed=4
    ),
    "noiseless-pair": lambda: WirelessNetwork.uniform([(0, 0), (4, 0)], beta=2.0),
    # The paper's trivial network (two stations, no noise, beta = 1): its
    # zones are half-planes, unbounded along half of the rays.
    "trivial": lambda: WirelessNetwork.uniform([(0, 0), (4, 0)], beta=1.0),
    "duplicated": lambda: WirelessNetwork.uniform(
        [(0, 0), (0, 0), (4, 0), (1, 3)], noise=0.01, beta=2.0
    ),
    "alpha-3": lambda: WirelessNetwork.uniform(
        [(0, 0), (4, 0), (0, 5), (6, 6), (-3, 2)], noise=0.01, beta=2.0, alpha=3.0
    ),
    "non-uniform-power": lambda: WirelessNetwork(
        [
            Station(Point(0, 0), 1.0),
            Station(Point(4, 0), 3.0),
            Station(Point(0, 5), 0.5),
            Station(Point(6, 6), 2.0),
        ],
        noise=0.01,
        beta=2.0,
    ),
}


class TestBoundaryProbe:
    @pytest.mark.parametrize("name", list(ORACLE_NETWORKS))
    def test_matches_the_per_ray_bisection(self, name):
        network = ORACLE_NETWORKS[name]()
        angles = [2.0 * math.pi * k / 90 for k in range(90)]
        for index in range(len(network)):
            zone = ReceptionZone(network=network, index=index)
            probed = zone.boundary_distances_along_rays(angles).tolist()
            for angle, distance in zip(angles, probed):
                expected = per_ray_bisection(zone, angle)
                if expected == 0.0 or math.isinf(expected):
                    assert distance == expected, (index, angle)
                else:
                    # cos/sin rounding may differ by an ulp across platforms.
                    assert abs(distance - expected) <= 2e-10 * max(1.0, expected)

    def test_trivial_and_degenerate_zones(self):
        angles = [2.0 * math.pi * k / 90 for k in range(90)]
        trivial = ReceptionZone(network=ORACLE_NETWORKS["trivial"](), index=1)
        distances = trivial.boundary_distances_along_rays(angles)
        # Station 1 at (4, 0) hears the half-plane x >= 2: unbounded along the
        # 45 rays within 90 degrees of +x, 2 / |cos| away along the others.
        assert np.isinf(distances[:23]).all() and np.isinf(distances[68:]).all()
        assert distances[45] == pytest.approx(2.0)
        assert np.isfinite(distances[23:68]).all()
        degenerate = ReceptionZone(network=ORACLE_NETWORKS["duplicated"](), index=0)
        assert degenerate.boundary_distances_along_rays(angles).tolist() == [0.0] * 90

    def test_tolerance_below_float_resolution_terminates(self):
        zone = ReceptionZone(network=seeded_network(6, side=10.0, seed=1), index=0)
        fine = zone.boundary_distance_along_ray(0.3, tolerance=1e-300)
        assert fine == pytest.approx(
            zone.boundary_distance_along_ray(0.3), rel=2e-10
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda zone: zone.boundary_distance_along_ray(0.3, tolerance=0.0),
            lambda zone: zone.boundary_distance_along_ray(0.3, tolerance=-1e-9),
            lambda zone: zone.boundary_distance_along_ray(0.3, tolerance=math.nan),
            lambda zone: zone.boundary_distance_along_ray(0.3, tolerance=math.inf),
            lambda zone: zone.boundary_distance_along_ray(0.3, max_radius=math.nan),
            lambda zone: zone.boundary_distance_along_ray(0.3, max_radius=-1.0),
            lambda zone: zone.boundary_distance_along_ray(0.3, max_radius=math.inf),
            lambda zone: zone.boundary_distance_along_ray(math.nan),
            lambda zone: zone.boundary_distance_along_ray(math.inf),
            lambda zone: zone.boundary_distances_along_rays([0.3, math.nan]),
            lambda zone: zone.fatness(angles=0),
            lambda zone: zone.inscribed_radius(0),
            lambda zone: zone.enclosing_radius(-3),
        ],
        ids=[
            "tolerance-zero",
            "tolerance-negative",
            "tolerance-nan",
            "tolerance-inf",
            "max-radius-nan",
            "max-radius-negative",
            "max-radius-inf",
            "angle-nan",
            "angle-inf",
            "batch-angle-nan",
            "fatness-no-rays",
            "inscribed-no-rays",
            "enclosing-negative-rays",
        ],
    )
    def test_rejects_arguments_that_hang_or_mislead(self, call):
        zone = ReceptionZone(network=seeded_network(6, side=10.0, seed=1), index=0)
        with pytest.raises(NetworkConfigurationError):
            call(zone)


class TestSINRDiagram:
    def test_zone_accessors(self, noisy_diagram):
        assert len(noisy_diagram) == 5
        assert len(noisy_diagram.zones) == 5
        assert noisy_diagram.zone(2).index == 2

    def test_station_heard_at_matches_zones(self, noisy_diagram, noisy_network):
        rng = random.Random(8)
        for _ in range(150):
            point = Point(rng.uniform(-5, 8), rng.uniform(-5, 8))
            heard = noisy_diagram.station_heard_at(point)
            memberships = [
                noisy_network.is_received(i, point) for i in range(len(noisy_network))
            ]
            if heard is None:
                assert not any(memberships)
            else:
                assert memberships[heard]

    def test_reception_vector(self, noisy_diagram):
        vector = noisy_diagram.reception_vector(Point(0.2, 0.1))
        assert vector[0] is True
        assert sum(vector) == 1

    def test_rasterize_shapes_and_labels(self, noisy_diagram):
        raster = noisy_diagram.rasterize(Point(-5, -5), Point(8, 8), resolution=60)
        rows, columns = raster.resolution
        assert raster.labels.shape == (rows, columns)
        assert raster.sinr_values.shape == (5, rows, columns)
        assert set(raster.labels.flatten()).issubset(set(range(5)) | {NO_RECEPTION})
        assert 0.0 < raster.coverage_fraction() < 1.0
        assert raster.pixel_area() > 0.0

    def test_rasterize_validation(self, noisy_diagram):
        with pytest.raises(DiagramError):
            noisy_diagram.rasterize(Point(0, 0), Point(0, 5), resolution=50)
        with pytest.raises(DiagramError):
            noisy_diagram.rasterize(Point(0, 0), Point(5, 5), resolution=1)
        # Non-finite corners, an overflowing extent, an infinite side and a
        # subnormal box whose pixel pitch underflows to 0, on the monolithic
        # and the tile-cached path.
        for lower_left, upper_right in [
            (Point(math.nan, 0.0), Point(5.0, 5.0)),
            (Point(0.0, 0.0), Point(5.0, math.nan)),
            (Point(-math.inf, 0.0), Point(5.0, 5.0)),
            (Point(-1e308, -1e308), Point(1e308, 1e308)),
            (Point(0.0, 0.0), Point(math.inf, 1.0)),
            (Point(0.0, 0.0), Point(1e-322, 1e-322)),
        ]:
            for cache in (None, TileCache(tile_size=8)):
                with pytest.raises(DiagramError):
                    noisy_diagram.rasterize(
                        lower_left, upper_right, resolution=50, cache=cache
                    )

    def test_raster_zone_area_close_to_analytic(self, two_station_network):
        diagram = SINRDiagram(two_station_network)
        raster = diagram.rasterize(Point(-16, -12), Point(8, 12), resolution=400)
        expected = math.pi * 32.0  # Apollonius disk of radius sqrt(32)
        assert raster.zone_area(0) == pytest.approx(expected, rel=5e-2)

    def test_raster_label_at(self, noisy_diagram):
        raster = noisy_diagram.rasterize(Point(-5, -5), Point(8, 8), resolution=80)
        assert raster.label_at(Point(0.0, 0.2)) == 0

    def test_raster_label_at_nearest_centre(self, noisy_diagram):
        """Points just above/below a pixel centre map to that centre.

        The old searchsorted-on-centres lookup returned the next pixel
        at-or-above the coordinate, so a point epsilon right of a centre
        mapped one column too far.
        """
        raster = noisy_diagram.rasterize(Point(-5, -5), Point(8, 8), resolution=80)
        dx = raster.xs[1] - raster.xs[0]
        dy = raster.ys[1] - raster.ys[0]
        for column in (0, 1, 37, len(raster.xs) - 1):
            for row in (0, 2, 41, len(raster.ys) - 1):
                centre = Point(raster.xs[column], raster.ys[row])
                expected = int(raster.labels[row, column])
                for nudge_x in (-0.4 * dx, 0.0, 0.4 * dx):
                    for nudge_y in (-0.4 * dy, 0.0, 0.4 * dy):
                        probe = Point(centre.x + nudge_x, centre.y + nudge_y)
                        assert raster.label_at(probe) == expected, (
                            column, row, nudge_x, nudge_y,
                        )

    def test_raster_label_at_outside_box_clamps_to_edge(self, noisy_diagram):
        raster = noisy_diagram.rasterize(Point(-5, -5), Point(8, 8), resolution=40)
        assert raster.label_at(Point(-50.0, -50.0)) == int(raster.labels[0, 0])
        assert raster.label_at(Point(50.0, 50.0)) == int(raster.labels[-1, -1])
        assert raster.label_at(Point(-50.0, 0.0)) == raster.label_at(
            Point(raster.xs[0], 0.0)
        )

    @pytest.mark.parametrize("cache", [None, 8], ids=["monolithic", "tiled"])
    def test_raster_label_at_non_finite_point_hears_no_station(self, cache):
        """searchsorted places NaN past the last midpoint and inf on the last
        pixel; a non-finite point hears no station, so it must answer
        NO_RECEPTION even where the edge pixel is a reception zone."""
        network = uniform_random_network(
            9, side=12.0, minimum_separation=1.5, noise=0.002, beta=3.0, seed=1
        )
        diagram = SINRDiagram(network)
        x0, y0 = network.coords[0]
        raster = diagram.rasterize(
            Point(x0 - 0.5, y0 - 0.5), Point(x0 + 0.1, y0 + 0.1), 16,
            cache=None if cache is None else TileCache(tile_size=cache),
        )
        assert int(raster.labels[-1, -1]) == 0
        for x, y in [
            (math.nan, math.nan), (math.inf, math.inf), (math.nan, y0),
            (x0, math.inf), (-math.inf, y0), (x0, -math.nan),
        ]:
            assert diagram.station_heard_at(Point(x, y)) is None
            assert raster.label_at(Point(x, y)) == NO_RECEPTION, (x, y)

    def test_raster_pixels_tile_the_box_exactly(self, noisy_diagram):
        """Cell-centre sampling: labels.size * pixel_area() == box area.

        Endpoint sampling (the old behaviour) over-counted the box area by
        ~(1 + 1/(cols-1)) * (1 + 1/(rows-1)) and biased every zone_area.
        """
        boxes = [
            (Point(-5.0, -5.0), Point(8.0, 8.0), 200),
            (Point(-5.0, -5.0), Point(8.0, 8.0), 2),
            (Point(-1.3, 0.7), Point(2.9, 1.1), 57),
            (Point(0.0, 0.0), Point(1.0, 10.0), 30),
        ]
        for lower_left, upper_right, resolution in boxes:
            raster = noisy_diagram.rasterize(
                lower_left, upper_right, resolution=resolution
            )
            box_area = (upper_right.x - lower_left.x) * (upper_right.y - lower_left.y)
            assert raster.labels.size * raster.pixel_area() == pytest.approx(
                box_area, rel=1e-12
            )
            # Centres are inset half a pixel from every box edge.
            dx, dy = raster.pitch
            assert raster.xs[0] == pytest.approx(lower_left.x + dx / 2, rel=1e-12)
            assert raster.xs[-1] == pytest.approx(upper_right.x - dx / 2, rel=1e-12)
            assert raster.ys[0] == pytest.approx(lower_left.y + dy / 2, rel=1e-12)
            assert raster.ys[-1] == pytest.approx(upper_right.y - dy / 2, rel=1e-12)

    def test_pixel_area_degenerate_raster(self):
        """A single-row/column raster must not silently zero zone areas."""
        xs = np.array([0.5])
        ys = np.array([0.5, 1.5, 2.5])
        labels = np.zeros((3, 1), dtype=np.intp)
        sinr = np.zeros((2, 3, 1))
        degenerate = RasterDiagram(xs=xs, ys=ys, labels=labels, sinr_values=sinr)
        with pytest.raises(DiagramError):
            degenerate.pixel_area()
        # With an explicit pitch the cell extent is known and the area is real.
        pitched = RasterDiagram(
            xs=xs, ys=ys, labels=labels, sinr_values=sinr, pitch=(1.0, 1.0)
        )
        assert pitched.pixel_area() == 1.0
        assert pitched.zone_area(0) == 3.0

    def test_default_bounding_box_contains_all_stations(self, noisy_diagram, noisy_network):
        lower_left, upper_right = noisy_diagram.default_bounding_box()
        for station in noisy_network.stations:
            assert lower_left.x <= station.x <= upper_right.x
            assert lower_left.y <= station.y <= upper_right.y

    def test_summary_structure(self, noisy_diagram):
        summary = noisy_diagram.summary(resolution=80)
        assert set(summary) == {"network", "zone_areas", "coverage_fraction", "fatness"}
        assert len(summary["zone_areas"]) == 5

    def test_beta_below_one_allows_overlapping_zones(self, sub_unit_beta_network):
        diagram = SINRDiagram(sub_unit_beta_network)
        rng = random.Random(5)
        overlapping = 0
        for _ in range(400):
            point = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
            vector = diagram.reception_vector(point)
            if sum(vector) > 1:
                overlapping += 1
        assert overlapping > 0
