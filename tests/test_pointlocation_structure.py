"""Tests for the boundary cover, the per-zone QDS and the combined DS (Theorem 3)."""

from __future__ import annotations

import math
import random

import pytest

from repro import Point, ReceptionZone, SINRDiagram, WirelessNetwork
from repro.exceptions import PointLocationError
from repro.geometry import Grid
from repro.pointlocation import (
    BruteForceLocator,
    PointLocationStructure,
    SturmSegmentTest,
    VoronoiCandidateLocator,
    ZoneGridIndex,
    ZoneLabel,
    measured_radius_bounds,
    ray_sweep_boundary_cells,
    reconstruct_boundary_cells,
)


@pytest.fixture(scope="module")
def small_network():
    return WirelessNetwork.uniform(
        [(0.0, 0.0), (5.0, 0.0), (0.0, 6.0)], noise=0.01, beta=2.5
    )


@pytest.fixture(scope="module")
def built_structure(small_network):
    return PointLocationStructure(small_network, epsilon=0.4)


class TestBoundaryCover:
    def test_brp_cells_cover_the_boundary(self, small_network):
        zone = ReceptionZone(network=small_network, index=0)
        bounds = measured_radius_bounds(small_network, 0)
        grid = Grid(origin=zone.station_location, spacing=0.1)
        cover = reconstruct_boundary_cells(
            grid=grid,
            segment_test=SturmSegmentTest(small_network.reception_polynomial(0)),
            inside=zone.contains,
            station=zone.station_location,
            delta_lower=bounds.delta_lower,
            Delta_upper=bounds.Delta_upper,
        )
        assert cover.method == "brp"
        assert cover.segment_tests > 0
        # Every boundary point sampled along rays must fall in a covered cell.
        for k in range(72):
            boundary_point = zone.boundary_point_along_ray(2 * math.pi * k / 72)
            assert grid.cell_index_of(boundary_point) in cover.boundary_cells

    def test_ray_sweep_cells_cover_the_boundary(self, small_network):
        zone = ReceptionZone(network=small_network, index=0)
        bounds = measured_radius_bounds(small_network, 0)
        grid = Grid(origin=zone.station_location, spacing=0.1)
        cover = ray_sweep_boundary_cells(
            grid=grid,
            boundary_distance=lambda angle: zone.boundary_distance_along_ray(angle),
            station=zone.station_location,
            Delta_upper=bounds.Delta_upper,
        )
        assert cover.method == "ray_sweep"
        assert cover.boundary_probes > 0
        covered_with_neighbours = set()
        for cell in cover.boundary_cells:
            covered_with_neighbours.update(grid.nine_cell(cell))
        for k in range(72):
            boundary_point = zone.boundary_point_along_ray(2 * math.pi * k / 72)
            assert grid.cell_index_of(boundary_point) in covered_with_neighbours

    def test_brp_and_ray_sweep_agree_on_the_boundary_band(self, small_network):
        zone = ReceptionZone(network=small_network, index=0)
        bounds = measured_radius_bounds(small_network, 0)
        grid = Grid(origin=zone.station_location, spacing=0.15)
        brp = reconstruct_boundary_cells(
            grid=grid,
            segment_test=SturmSegmentTest(small_network.reception_polynomial(0)),
            inside=zone.contains,
            station=zone.station_location,
            delta_lower=bounds.delta_lower,
            Delta_upper=bounds.Delta_upper,
        )
        sweep = ray_sweep_boundary_cells(
            grid=grid,
            boundary_distance=lambda angle: zone.boundary_distance_along_ray(angle),
            station=zone.station_location,
            Delta_upper=bounds.Delta_upper,
        )
        # The sweep may skip cells the boundary merely clips at a corner, but
        # it must never find a cell the BRP missed.
        assert sweep.boundary_cells <= brp.boundary_cells


class TestZoneGridIndex:
    def build_index(self, network, index=0, epsilon=0.4, cover_method="brp"):
        zone = ReceptionZone(network=network, index=index)
        bounds = measured_radius_bounds(network, index)
        return (
            zone,
            ZoneGridIndex(
                inside=zone.contains,
                station=zone.station_location,
                delta_lower=bounds.delta_lower,
                Delta_upper=bounds.Delta_upper,
                epsilon=epsilon,
                segment_test=SturmSegmentTest(network.reception_polynomial(index)),
                boundary_distance=lambda angle: zone.boundary_distance_along_ray(angle),
                cover_method=cover_method,
            ),
        )

    def test_epsilon_validation(self, small_network):
        zone = ReceptionZone(network=small_network, index=0)
        with pytest.raises(PointLocationError):
            ZoneGridIndex(
                inside=zone.contains,
                station=zone.station_location,
                delta_lower=1.0,
                Delta_upper=2.0,
                epsilon=1.5,
                segment_test=SturmSegmentTest(small_network.reception_polynomial(0)),
            )

    def test_classification_is_sound(self, small_network):
        zone, index = self.build_index(small_network)
        rng = random.Random(21)
        for _ in range(800):
            point = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
            label = index.classify(point)
            if label is ZoneLabel.INSIDE:
                assert zone.contains(point)
            elif label is ZoneLabel.OUTSIDE:
                assert not zone.contains(point)

    def test_uncertain_band_area_is_bounded(self, small_network):
        zone, index = self.build_index(small_network, epsilon=0.4)
        zone_area = zone.area_estimate(vertices=360)
        assert index.uncertain_area() <= 0.4 * zone_area
        assert index.uncertain_area() <= index.uncertain_area_bound() + 1e-9

    def test_station_cell_is_inside(self, small_network):
        zone, index = self.build_index(small_network)
        assert index.classify(zone.station_location) is ZoneLabel.INSIDE

    def test_far_away_points_are_outside(self, small_network):
        _, index = self.build_index(small_network)
        assert index.classify(Point(100.0, 100.0)) is ZoneLabel.OUTSIDE
        assert index.classify(Point(-100.0, 50.0)) is ZoneLabel.OUTSIDE

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "point",
        [
            Point(math.nan, 0.0),
            Point(0.0, math.inf),
            Point(-math.inf, 1.0),
            Point(1e308, 1e308),
            Point(1e300, -1e300),
        ],
        ids=["nan", "inf", "minus-inf", "overflowing-cell", "beyond-int64-cell"],
    )
    def test_points_in_no_grid_cell_are_outside(self, small_network, point):
        """A point whose grid cell coordinate is non-finite or beyond int64
        is OUTSIDE on the scalar and the batch path, and does not shift the
        labels of its batch neighbours."""
        zone, index = self.build_index(small_network, cover_method="ray_sweep")
        assert index.classify(point) is ZoneLabel.OUTSIDE
        station = zone.station_location
        assert index.classify_batch([station, point, station]) == [
            ZoneLabel.INSIDE,
            ZoneLabel.OUTSIDE,
            ZoneLabel.INSIDE,
        ]

    def test_ray_sweep_cover_classification_is_sound(self, small_network):
        zone, index = self.build_index(small_network, cover_method="ray_sweep")
        rng = random.Random(33)
        for _ in range(500):
            point = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
            label = index.classify(point)
            if label is ZoneLabel.INSIDE:
                assert zone.contains(point)
            elif label is ZoneLabel.OUTSIDE:
                assert not zone.contains(point)

    def test_unknown_cover_method_rejected(self, small_network):
        zone = ReceptionZone(network=small_network, index=0)
        with pytest.raises(PointLocationError):
            ZoneGridIndex(
                inside=zone.contains,
                station=zone.station_location,
                delta_lower=1.0,
                Delta_upper=2.0,
                epsilon=0.5,
                segment_test=SturmSegmentTest(small_network.reception_polynomial(0)),
                cover_method="nonsense",
            )

    def test_smaller_epsilon_means_more_cells(self, small_network):
        _, coarse = self.build_index(small_network, epsilon=0.6)
        _, fine = self.build_index(small_network, epsilon=0.3)
        assert fine.suspect_cell_count > coarse.suspect_cell_count
        assert fine.report.gamma < coarse.report.gamma


class TestPointLocationStructure:
    def test_preconditions(self):
        low_beta = WirelessNetwork.uniform([(0, 0), (3, 0)], beta=1.0)
        with pytest.raises(PointLocationError):
            PointLocationStructure(low_beta)
        with pytest.raises(PointLocationError):
            PointLocationStructure(
                WirelessNetwork.uniform([(0, 0), (3, 0)], beta=2.0), epsilon=2.0
            )
        alpha_four = WirelessNetwork.uniform([(0, 0), (3, 0)], beta=2.0, alpha=4.0)
        with pytest.raises(PointLocationError):
            PointLocationStructure(alpha_four)

    def test_answers_are_one_sided_exact(self, small_network, built_structure):
        exact = BruteForceLocator(small_network)
        rng = random.Random(13)
        uncertain = 0
        for _ in range(1500):
            point = Point(rng.uniform(-6, 9), rng.uniform(-6, 9))
            answer = built_structure.locate_answer(point)
            truth = exact.locate(point)
            if answer.label is ZoneLabel.INSIDE:
                assert answer.is_certified_reception
                assert truth == answer.station
            elif answer.label is ZoneLabel.OUTSIDE:
                assert answer.is_certified_no_reception
                assert truth == -1
            else:
                uncertain += 1
            # The Locator-protocol surface resolves the band exactly.
            assert built_structure.locate(point) == truth
        # The uncertainty band is thin: only a small fraction of random
        # queries may fall into it.
        assert uncertain < 0.1 * 1500

    def test_reports_and_accessors(self, small_network, built_structure):
        report = built_structure.report
        assert report.station_count == len(small_network)
        assert report.total_suspect_cells == built_structure.size_estimate() > 0
        assert report.build_seconds > 0.0
        assert set(report.per_zone) == {0, 1, 2}
        assert built_structure.zone_index(0) is not None
        assert built_structure.radius_bounds(0) is not None

    def test_locate_answers(self, built_structure):
        answers = built_structure.locate_answers([Point(0, 0), Point(100, 100)])
        assert answers[0].label is ZoneLabel.INSIDE
        assert answers[1].label is ZoneLabel.OUTSIDE

    def test_degenerate_station_is_skipped(self):
        network = WirelessNetwork.uniform(
            [(0.0, 0.0), (0.0, 0.0), (6.0, 0.0)], noise=0.0, beta=2.0
        )
        structure = PointLocationStructure(network, epsilon=0.5)
        assert structure.zone_index(0) is None
        assert structure.zone_index(1) is None
        assert structure.zone_index(2) is not None
        # Queries near the shared location resolve to OUTSIDE (nothing heard).
        assert structure.locate_answer(Point(0.1, 0.1)).label is ZoneLabel.OUTSIDE
        assert structure.locate(Point(0.1, 0.1)) == -1
        # Exactly at the shared location the first co-located station is
        # heard; the Locator surface agrees with brute force there too.
        assert structure.locate_batch([Point(0.0, 0.0)])[0] == 0

    def test_sampling_segment_test_variant(self, small_network):
        structure = PointLocationStructure(
            small_network, epsilon=0.5, segment_test_kind="sampling"
        )
        exact = VoronoiCandidateLocator(small_network)
        rng = random.Random(2)
        for _ in range(400):
            point = Point(rng.uniform(-5, 8), rng.uniform(-5, 8))
            answer = structure.locate_answer(point)
            if answer.label is ZoneLabel.INSIDE:
                assert exact.locate(point) == answer.station
            elif answer.label is ZoneLabel.OUTSIDE:
                assert exact.locate(point) == -1

    def test_unknown_variants_rejected(self, small_network):
        with pytest.raises(PointLocationError):
            PointLocationStructure(small_network, segment_test_kind="bogus")
        with pytest.raises(PointLocationError):
            PointLocationStructure(small_network, cover_method="bogus")


class TestNaiveLocators:
    def test_brute_force_and_voronoi_agree(self, small_network):
        brute = BruteForceLocator(small_network)
        voronoi = VoronoiCandidateLocator(small_network)
        rng = random.Random(77)
        for _ in range(500):
            point = Point(rng.uniform(-6, 9), rng.uniform(-6, 9))
            assert brute.locate(point) == voronoi.locate(point)

    def test_query_costs(self, small_network):
        assert BruteForceLocator(small_network).query_cost() == 9
        assert VoronoiCandidateLocator(small_network).query_cost() == 3
