"""Planar-geometry substrate for the SINR-diagram library.

Everything the paper needs from computational geometry is implemented here
from scratch: points and vectors, balls, segments and lines (including the
separation line of two points), similarity transforms realising Lemma 2.3,
polygons with half-plane clipping, convexity / star-shape checkers, polygon
fatness and the paper's fatness bound, gamma-spaced grids with 9-cells, a k-d
tree, and a Voronoi diagram by half-plane intersection.  Reception zones are
measured by :class:`repro.model.reception.ReceptionZone`, not here.
"""

from .ball import Ball, circle_intersection_points
from .convexity import (
    ConvexityReport,
    check_zone_convexity,
    check_zone_star_shape,
    is_convex_point_set,
    segment_membership_profile,
)
from .fatness import (
    FatnessMeasurement,
    fatness_of_polygon,
    theoretical_fatness_bound,
)
from .grid import Grid, GridCell
from .kdtree import KDTree
from .point import (
    ORIGIN,
    Point,
    as_point,
    centroid,
    collinear,
    cross,
    distance,
    dot,
    midpoint,
    orientation,
    squared_distance,
)
from .polygon import Polygon, convex_hull
from .segment import Line, Segment, separation_line
from .transform import SimilarityTransform
from .voronoi import VoronoiCell, VoronoiDiagram

__all__ = [
    "Ball",
    "ConvexityReport",
    "FatnessMeasurement",
    "Grid",
    "GridCell",
    "KDTree",
    "Line",
    "ORIGIN",
    "Point",
    "Polygon",
    "Segment",
    "SimilarityTransform",
    "VoronoiCell",
    "VoronoiDiagram",
    "as_point",
    "centroid",
    "check_zone_convexity",
    "check_zone_star_shape",
    "circle_intersection_points",
    "collinear",
    "convex_hull",
    "cross",
    "distance",
    "dot",
    "fatness_of_polygon",
    "is_convex_point_set",
    "midpoint",
    "orientation",
    "segment_membership_profile",
    "separation_line",
    "squared_distance",
    "theoretical_fatness_bound",
]
