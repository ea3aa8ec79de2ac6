"""Tests for grids, k-d trees, Voronoi diagrams, fatness and convexity checkers."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.exceptions import GeometryError
from repro.geometry import (
    Ball,
    Grid,
    KDTree,
    Point,
    Polygon,
    VoronoiDiagram,
    check_zone_convexity,
    check_zone_star_shape,
    fatness_of_polygon,
    fatness_of_predicate,
    is_convex_point_set,
    theoretical_fatness_bound,
)


class TestGrid:
    def test_cell_index_and_containment(self):
        grid = Grid(origin=Point(0, 0), spacing=1.0)
        assert grid.cell_index_of(Point(0.5, 0.5)) == (0, 0)
        assert grid.cell_index_of(Point(-0.5, 0.5)) == (-1, 0)
        assert grid.cell_index_of(Point(2.3, -1.7)) == (2, -2)

    def test_half_open_tie_breaking(self):
        grid = Grid(origin=Point(0, 0), spacing=1.0)
        # A point on the shared edge belongs to the cell having it as its
        # west edge (i.e. the cell to the east).
        assert grid.cell_index_of(Point(1.0, 0.5)) == (1, 0)
        assert grid.cell_index_of(Point(0.5, 1.0)) == (0, 1)
        cell = grid.cell(0, 0)
        assert cell.contains(Point(0.0, 0.0))
        assert not cell.contains(Point(1.0, 0.5))

    def test_cell_geometry(self):
        grid = Grid(origin=Point(1, 1), spacing=2.0)
        cell = grid.cell(1, -1)
        assert cell.lower_left == Point(3, -1)
        assert cell.upper_right == Point(5, 1)
        assert cell.center == Point(4, 0)
        assert len(cell.corners()) == 4
        assert len(cell.edges()) == 4
        assert all(edge.length() == pytest.approx(2.0) for edge in cell.edges())

    def test_nine_cell_and_neighbours(self):
        grid = Grid(origin=Point(0, 0), spacing=1.0)
        nine = grid.nine_cell((0, 0))
        assert len(nine) == 9 and (0, 0) in nine and (-1, -1) in nine
        assert len(grid.neighbours((0, 0), diagonal=True)) == 8
        assert len(grid.neighbours((0, 0), diagonal=False)) == 4

    def test_nine_cell_boundary_edges(self):
        grid = Grid(origin=Point(0, 0), spacing=1.0)
        edges = grid.nine_cell_boundary_edges((0, 0))
        assert len(edges) == 12
        assert all(edge.length() == pytest.approx(1.0) for edge in edges)

    def test_cells_in_box(self):
        grid = Grid(origin=Point(0, 0), spacing=1.0)
        cells = list(grid.cells_in_box(Point(0, 0), Point(3, 2)))
        assert len(cells) == 6

    def test_positive_spacing_required(self):
        with pytest.raises(GeometryError):
            Grid(origin=Point(0, 0), spacing=0.0)

    # A point lies in no cell when its cell coordinate
    # ``(x - origin) / spacing`` is non-finite or too large for an int64
    # cell index.
    UNPLACEABLE = {
        "nan-x": (Grid(Point(0, 0), 1.0), Point(math.nan, 0.5)),
        "nan-y": (Grid(Point(0, 0), 1.0), Point(0.5, math.nan)),
        "inf-x": (Grid(Point(0, 0), 1.0), Point(math.inf, 0.5)),
        "minus-inf-y": (Grid(Point(0, 0), 1.0), Point(0.5, -math.inf)),
        "division-overflows": (Grid(Point(0, 0), 0.5), Point(1e308, 0.5)),
        "subtraction-overflows": (Grid(Point(-1e308, 0), 1.0), Point(1e308, 0.5)),
        "beyond-int64": (Grid(Point(0, 0), 1.0), Point(0.5, -1e19)),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(UNPLACEABLE))
    def test_no_cell_contains_an_unplaceable_point(self, case):
        grid, point = self.UNPLACEABLE[case]
        with pytest.raises(GeometryError, match="no grid cell contains"):
            grid.cell_index_of(point)
        with pytest.raises(GeometryError):
            grid.cell_of(point)
        assert not grid.has_cell(np.array([[point.x, point.y]])).any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_has_cell_and_batch_indices_match_the_scalar_path(self):
        grid = Grid(origin=Point(0.25, -0.5), spacing=0.5)
        rng = np.random.default_rng(8)
        finite = rng.uniform(-20.0, 20.0, size=(40, 2))
        finite[:4] = [[0.25, -0.5], [0.75, 0.0], [-1e15, 3.0], [2.0, 1e17]]
        unplaceable = np.array(
            [[point.x, point.y] for _, point in self.UNPLACEABLE.values()]
        )
        points = np.vstack([unplaceable, finite])
        mask = grid.has_cell(points)
        np.testing.assert_array_equal(
            mask, [False] * len(unplaceable) + [True] * len(finite)
        )
        cols, rows = grid.cell_indices_of(points[mask])
        assert cols.dtype == rows.dtype == np.int64
        scalar = [grid.cell_index_of(Point(x, y)) for x, y in points[mask]]
        assert list(zip(cols.tolist(), rows.tolist())) == scalar


class TestKDTree:
    def test_nearest_matches_brute_force(self):
        rng = random.Random(3)
        points = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(60)]
        tree = KDTree(points)
        for _ in range(100):
            query = Point(rng.uniform(-12, 12), rng.uniform(-12, 12))
            expected = min(range(len(points)), key=lambda i: points[i].distance_to(query))
            index, point, dist = tree.nearest(query)
            assert points[index].distance_to(query) == pytest.approx(
                points[expected].distance_to(query)
            )
            assert dist == pytest.approx(point.distance_to(query))

    def test_within_radius(self):
        points = [Point(0, 0), Point(1, 0), Point(5, 5)]
        tree = KDTree(points)
        assert tree.within_radius(Point(0, 0), 1.5) == [0, 1]
        assert tree.within_radius(Point(0, 0), 0.5) == [0]

    def test_empty_input_rejected(self):
        with pytest.raises(GeometryError):
            KDTree([])

    def test_len(self):
        assert len(KDTree([Point(0, 0), Point(1, 1)])) == 2


class TestVoronoi:
    def test_nearest_site_agrees_with_cells(self):
        sites = [Point(0, 0), Point(4, 0), Point(2, 3), Point(-1, 4)]
        diagram = VoronoiDiagram(sites)
        rng = random.Random(11)
        for _ in range(200):
            query = Point(rng.uniform(-3, 6), rng.uniform(-3, 6))
            nearest = min(range(len(sites)), key=lambda i: sites[i].distance_to(query))
            assert diagram.nearest_site(query) == nearest

    def test_cells_partition_and_contain_their_sites(self):
        sites = [Point(0, 0), Point(3, 1), Point(1, 4)]
        diagram = VoronoiDiagram(sites)
        for cell in diagram.cells:
            assert cell.contains(cell.site)

    def test_duplicate_sites_rejected(self):
        with pytest.raises(GeometryError):
            VoronoiDiagram([Point(0, 0), Point(0, 0)])

    def test_locate_returns_owning_cell(self):
        diagram = VoronoiDiagram([Point(0, 0), Point(10, 0)])
        assert diagram.locate(Point(1, 1)).site_index == 0
        assert diagram.locate(Point(9, 1)).site_index == 1


class TestFatness:
    def test_fatness_of_disk_polygon_is_one(self):
        disk = Polygon.regular(Point(0, 0), 2.0, 256)
        measurement = fatness_of_polygon(disk, Point(0, 0))
        assert measurement.fatness == pytest.approx(1.0, rel=1e-3)

    def test_fatness_of_rectangle(self):
        rectangle = Polygon(
            [Point(-4, -1), Point(4, -1), Point(4, 1), Point(-4, 1)]
        )
        measurement = fatness_of_polygon(rectangle, Point(0, 0))
        assert measurement.delta == pytest.approx(1.0)
        assert measurement.Delta == pytest.approx(math.sqrt(17.0))

    def test_fatness_requires_internal_point(self):
        square = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
        with pytest.raises(GeometryError):
            fatness_of_polygon(square, Point(5, 5))

    def test_fatness_of_predicate_ball(self):
        ball = Ball(Point(1, 1), 2.0)
        measurement = fatness_of_predicate(
            ball.contains, Point(1, 1), max_radius=5.0, angles=72
        )
        assert measurement.delta == pytest.approx(2.0, rel=1e-3)
        assert measurement.Delta == pytest.approx(2.0, rel=1e-3)

    def test_theoretical_bound_decreases_with_beta(self):
        assert theoretical_fatness_bound(2.0) > theoretical_fatness_bound(6.0) > 1.0

    def test_theoretical_bound_requires_beta_above_one(self):
        with pytest.raises(GeometryError):
            theoretical_fatness_bound(1.0)


class TestConvexityCheckers:
    def test_convex_point_set(self):
        square = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        assert is_convex_point_set(square)
        concave = [Point(0, 0), Point(2, 0), Point(1, 0.2), Point(1, 2)]
        assert not is_convex_point_set(concave)

    def test_zone_convexity_check_passes_for_disk(self):
        ball = Ball(Point(0, 0), 2.0)
        points = ball.sample_boundary(16)
        points = [p * 0.95 for p in points]
        report = check_zone_convexity(ball.contains, points, samples_per_segment=20)
        assert report.is_consistent

    def test_zone_convexity_check_detects_non_convex_zone(self):
        # Union of two disjoint disks is not convex.
        left = Ball(Point(-3, 0), 1.0)
        right = Ball(Point(3, 0), 1.0)

        def inside(point: Point) -> bool:
            return left.contains(point) or right.contains(point)

        report = check_zone_convexity(
            inside, [Point(-3, 0), Point(3, 0)], samples_per_segment=33
        )
        assert not report.is_consistent
        assert report.violation is not None

    def test_star_shape_check(self):
        ball = Ball(Point(0, 0), 1.0)
        report = check_zone_star_shape(
            ball.contains, Point(0, 0), ball.sample_boundary(12)
        )
        assert report.is_consistent

    def test_star_shape_requires_center_inside(self):
        ball = Ball(Point(0, 0), 1.0)
        with pytest.raises(GeometryError):
            check_zone_star_shape(ball.contains, Point(5, 5), [Point(0, 0)])
