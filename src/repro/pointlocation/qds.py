"""The per-zone grid data structure QDS (Section 5.1 of the paper).

For one reception zone ``Q`` (with an internal point ``s``, a lower bound
``delta_tilde`` on its inscribed radius and an upper bound ``Delta_tilde`` on
its enclosing radius) and a performance parameter ``0 < eps < 1``, QDS
partitions the plane into three zones:

* ``Q+`` — cells certified to be inside ``Q``,
* ``Q-`` — cells certified to be outside ``Q``,
* ``Q?`` — an uncertainty band around the boundary whose total area is at most
  an ``eps``-fraction of ``area(Q)``.

The construction imposes a grid of spacing ``gamma = eps * delta_tilde^2 /
(18 * Delta_tilde)`` aligned at ``s``, covers the boundary with cells (the
Boundary Reconstruction Process or the ray-sweep ablation), takes the 9-cells
of the covered cells as ``Q?``, and classifies the remaining cells per grid
column: a non-suspect cell lying between suspect cells of its column is inside
(by convexity), anything else is outside.  Queries take constant time: locate
the cell, look up its column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..engine.batch import PointsLike, as_points_array
from ..exceptions import GeometryError, PointLocationError
from ..geometry.grid import Grid
from ..geometry.point import Point
from .brp import BoundaryCover, ray_sweep_boundary_cells, reconstruct_boundary_cells
from .segment_test import SamplingSegmentTest, SegmentTest, SturmSegmentTest

__all__ = [
    "ZoneLabel",
    "ZoneGridIndex",
    "QDSBuildReport",
    "INSIDE_CODE",
    "OUTSIDE_CODE",
    "UNCERTAIN_CODE",
]

CellIndex = Tuple[int, int]


class ZoneLabel(str, Enum):
    """Classification of a query point relative to one reception zone."""

    INSIDE = "inside"  # the point is certified to belong to the zone (Q+).
    OUTSIDE = "outside"  # the point is certified to be outside the zone (Q-).
    UNCERTAIN = "uncertain"  # the point falls in the uncertainty band (Q?).


#: Compact integer codes for :class:`ZoneLabel`, used by the batch fast paths
#: (:meth:`ZoneGridIndex.classify_codes_batch`) so per-point answers stay in
#: numpy arrays instead of enum lists.
OUTSIDE_CODE = 0
INSIDE_CODE = 1
UNCERTAIN_CODE = 2

_CODE_TO_LABEL = {
    OUTSIDE_CODE: ZoneLabel.OUTSIDE,
    INSIDE_CODE: ZoneLabel.INSIDE,
    UNCERTAIN_CODE: ZoneLabel.UNCERTAIN,
}


@dataclass(frozen=True)
class QDSBuildReport:
    """Cost and size accounting of one QDS construction."""

    gamma: float
    suspect_cells: int
    segment_tests: int
    boundary_probes: int
    method: str

    @property
    def uncertain_area(self) -> float:
        """Total area of the uncertainty band ``Q?``."""
        return self.suspect_cells * self.gamma * self.gamma


class ZoneGridIndex:
    """The QDS of one zone: grid classification plus constant-time queries.

    Args:
        inside: membership predicate of the zone ``Q``.
        station: an internal point of ``Q`` (the zone's station).
        delta_lower: certified lower bound on the inscribed radius.
        Delta_upper: certified upper bound on the enclosing radius.
        epsilon: performance parameter in ``(0, 1)``.
        segment_test: segment test used by the BRP (required unless
            ``cover_method='ray_sweep'``).
        boundary_distance: angle -> boundary distance function (required for
            ``cover_method='ray_sweep'`` unless the batch variant is given).
        boundary_distance_batch: vectorised angle-array -> distance-array
            function; when provided the ray sweep probes all rays through one
            lockstep engine bisection instead of per-ray scalar loops.
        cover_method: ``"brp"`` (the paper's process, default) or
            ``"ray_sweep"`` (the ablation baseline).
    """

    def __init__(
        self,
        inside: Callable[[Point], bool],
        station: Point,
        delta_lower: float,
        Delta_upper: float,
        epsilon: float,
        segment_test: Optional[SegmentTest] = None,
        boundary_distance: Optional[Callable[[float], float]] = None,
        cover_method: str = "brp",
        boundary_distance_batch: Optional[Callable[[object], object]] = None,
    ):
        if not 0.0 < epsilon < 1.0:
            raise PointLocationError(f"epsilon must be in (0, 1), got {epsilon}")
        if delta_lower <= 0.0 or Delta_upper < delta_lower:
            raise PointLocationError("invalid radius bounds for QDS construction")

        self.inside = inside
        self.station = station
        self.delta_lower = delta_lower
        self.Delta_upper = Delta_upper
        self.epsilon = epsilon

        # The paper's grid spacing gamma = eps * delta_tilde^2 / (18 * Delta_tilde),
        # additionally capped at delta_tilde / 2 so the station's own cell lies
        # fully inside the zone.
        gamma = epsilon * delta_lower * delta_lower / (18.0 * Delta_upper)
        gamma = min(gamma, delta_lower / 2.0)
        self.grid = Grid(origin=station, spacing=gamma)

        cover = self._cover_boundary(
            cover_method, segment_test, boundary_distance, boundary_distance_batch
        )
        self._suspect: FrozenSet[CellIndex] = self._pad_to_nine_cells(
            cover.boundary_cells
        )
        self._columns = self._index_columns(self._suspect)
        self.report = QDSBuildReport(
            gamma=gamma,
            suspect_cells=len(self._suspect),
            segment_tests=cover.segment_tests,
            boundary_probes=cover.boundary_probes,
            method=cover.method,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _cover_boundary(
        self,
        cover_method: str,
        segment_test: Optional[SegmentTest],
        boundary_distance: Optional[Callable[[float], float]],
        boundary_distance_batch: Optional[Callable[[object], object]] = None,
    ) -> BoundaryCover:
        if cover_method == "brp":
            if segment_test is None:
                raise PointLocationError("the BRP cover requires a segment test")
            return reconstruct_boundary_cells(
                grid=self.grid,
                segment_test=segment_test,
                inside=self.inside,
                station=self.station,
                delta_lower=self.delta_lower,
                Delta_upper=self.Delta_upper,
            )
        if cover_method == "ray_sweep":
            if boundary_distance is None and boundary_distance_batch is None:
                raise PointLocationError(
                    "the ray-sweep cover requires a boundary_distance function"
                )
            return ray_sweep_boundary_cells(
                grid=self.grid,
                boundary_distance=boundary_distance,
                station=self.station,
                Delta_upper=self.Delta_upper,
                boundary_distance_batch=boundary_distance_batch,
            )
        raise PointLocationError(f"unknown cover method: {cover_method!r}")

    def _pad_to_nine_cells(self, cells: FrozenSet[CellIndex]) -> FrozenSet[CellIndex]:
        """The union of the 9-cells of every boundary cell (the T? cells)."""
        suspect = set()
        for index in cells:
            suspect.update(self.grid.nine_cell(index))
        return frozenset(suspect)

    @staticmethod
    def _index_columns(
        suspect: FrozenSet[CellIndex],
    ) -> Dict[int, Tuple[int, int, FrozenSet[int]]]:
        """Per-column view: ``col -> (min_row, max_row, rows)`` of suspect cells."""
        by_column: Dict[int, List[int]] = {}
        for col, row in suspect:
            by_column.setdefault(col, []).append(row)
        return {
            col: (min(rows), max(rows), frozenset(rows))
            for col, rows in by_column.items()
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def classify_cell(self, index: CellIndex) -> ZoneLabel:
        """Classify a grid cell as inside / outside / uncertain."""
        col, row = index
        column = self._columns.get(col)
        if column is None:
            return ZoneLabel.OUTSIDE
        min_row, max_row, rows = column
        if row in rows:
            return ZoneLabel.UNCERTAIN
        if min_row < row < max_row:
            # A non-suspect cell strictly between suspect cells of its column
            # is inside the (convex) zone: the boundary crosses the column at
            # most twice, and both crossings are covered by suspect cells.
            return ZoneLabel.INSIDE
        return ZoneLabel.OUTSIDE

    def classify(self, point: Point) -> ZoneLabel:
        """Classify a query point in constant time.

        A point in no grid cell (a non-finite point, or one so far away that
        its cell coordinate overflows) is outside the bounded zone.
        """
        try:
            index = self.grid.cell_index_of(point)
        except GeometryError:
            return ZoneLabel.OUTSIDE
        return self.classify_cell(index)

    def classify_batch(self, points: PointsLike) -> List[ZoneLabel]:
        """Classify a batch of query points.

        The point-to-cell conversion is vectorised (one pass over the
        coordinate array); the per-cell column lookups remain constant-time
        dictionary probes.  Answers agree with :meth:`classify` pointwise.
        """
        return [
            _CODE_TO_LABEL[code]
            for code in self.classify_codes_batch(points).tolist()
        ]

    def classify_codes_batch(self, points: PointsLike) -> np.ndarray:
        """Vectorised :meth:`classify_batch` returning compact integer codes.

        Returns an ``int8`` array with one of :data:`OUTSIDE_CODE`,
        :data:`INSIDE_CODE` or :data:`UNCERTAIN_CODE` per point — the
        representation the network-level locators build their uniform
        ``int64`` answers from.
        """
        pts = as_points_array(points)
        # Points in no grid cell stay OUTSIDE, as in :meth:`classify`.
        out = np.full(len(pts), OUTSIDE_CODE, dtype=np.int8)
        placed = np.flatnonzero(self.grid.has_cell(pts))
        cols, rows = self.grid.cell_indices_of(pts[placed])
        lookup = self._columns.get
        for position, col, row in zip(placed.tolist(), cols.tolist(), rows.tolist()):
            column = lookup(col)
            if column is None:
                continue
            min_row, max_row, cell_rows = column
            if row in cell_rows:
                out[position] = UNCERTAIN_CODE
            elif min_row < row < max_row:
                out[position] = INSIDE_CODE
        return out

    # ------------------------------------------------------------------
    # Size / quality accounting
    # ------------------------------------------------------------------
    @property
    def suspect_cell_count(self) -> int:
        """Number of T? cells (the structure's size is proportional to this)."""
        return len(self._suspect)

    @property
    def column_count(self) -> int:
        """Number of grid columns stored (the paper's vector representation)."""
        return len(self._columns)

    def uncertain_area(self) -> float:
        """Total area of the uncertainty band ``Q?``."""
        return self.report.uncertain_area

    def uncertain_area_bound(self) -> float:
        """The guaranteed ceiling ``eps * pi * delta_tilde^2 <= eps * area(Q)``."""
        return self.epsilon * math.pi * self.delta_lower * self.delta_lower

    def suspect_cells(self) -> FrozenSet[CellIndex]:
        """The T? cell indices (exposed for diagram rendering and tests)."""
        return self._suspect
