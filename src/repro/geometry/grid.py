"""Gamma-spaced grids and 9-cells (Section 5.1 of the paper).

The point-location data structure ``QDS`` is built on a grid ``G_gamma`` of
spacing ``gamma`` aligned so that the station ``s`` is a grid vertex.  The
plane is partitioned into half-open cells; the *9-cell* of a cell ``C`` is the
3x3 block of cells centred at ``C``.  Boundary reconstruction walks along the
zone boundary cell by cell, so the grid exposes:

* point -> cell index conversion (with the paper's tie-breaking: a cell owns
  its south and west edges except the south-east and north-west corners, and
  owns its south-west corner);
* cell -> geometry conversion (corners, edges, centre);
* 9-cell enumeration and neighbour arithmetic.

Cells are identified by integer index pairs ``(col, row)``; the cell
``(0, 0)`` has the alignment point ``origin`` as its south-west corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from ..exceptions import GeometryError
from .point import Point
from .segment import Segment

__all__ = ["Grid", "GridCell"]

CellIndex = Tuple[int, int]

#: Cell coordinates ``(x - origin) / spacing`` of at least this magnitude lie
#: in no cell: the batch path stores cell indices as int64.
MAX_CELL_COORDINATE = 2.0**62


@dataclass(frozen=True, slots=True)
class GridCell:
    """One cell of a :class:`Grid`, identified by ``(col, row)``."""

    col: int
    row: int
    lower_left: Point
    spacing: float

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def upper_right(self) -> Point:
        return Point(self.lower_left.x + self.spacing, self.lower_left.y + self.spacing)

    @property
    def center(self) -> Point:
        half = self.spacing / 2.0
        return Point(self.lower_left.x + half, self.lower_left.y + half)

    def corners(self) -> List[Point]:
        """The four corners in counter-clockwise order starting from south-west."""
        x0, y0 = self.lower_left.x, self.lower_left.y
        s = self.spacing
        return [
            Point(x0, y0),
            Point(x0 + s, y0),
            Point(x0 + s, y0 + s),
            Point(x0, y0 + s),
        ]

    def edges(self) -> List[Segment]:
        """The four boundary edges (south, east, north, west)."""
        sw, se, ne, nw = self.corners()
        return [Segment(sw, se), Segment(se, ne), Segment(ne, nw), Segment(nw, sw)]

    def contains(self, point: Point) -> bool:
        """Membership with the paper's half-open tie-breaking.

        A cell contains all points of its south edge except the south-east
        corner, all points of its west edge except the north-west corner, and
        its south-west corner; it does not contain its north or east edges.
        """
        x0, y0 = self.lower_left.x, self.lower_left.y
        x1, y1 = x0 + self.spacing, y0 + self.spacing
        return x0 <= point.x < x1 and y0 <= point.y < y1

    @property
    def index(self) -> CellIndex:
        return (self.col, self.row)


@dataclass(frozen=True, slots=True)
class Grid:
    """A gamma-spaced grid aligned so that ``origin`` is a grid vertex."""

    origin: Point
    spacing: float

    def __post_init__(self) -> None:
        if self.spacing <= 0.0:
            raise GeometryError(f"grid spacing must be positive, got {self.spacing}")

    # ------------------------------------------------------------------
    # Point <-> cell conversions
    # ------------------------------------------------------------------
    def cell_index_of(self, point: Point) -> CellIndex:
        """Index of the cell containing ``point`` (half-open tie-breaking).

        Raises:
            GeometryError: if no cell contains ``point`` (see :meth:`has_cell`).
        """
        # Python floats overflow to inf silently; numpy scalars would warn.
        spacing = float(self.spacing)
        col_offset = (float(point.x) - float(self.origin.x)) / spacing
        row_offset = (float(point.y) - float(self.origin.y)) / spacing
        if not (
            abs(col_offset) < MAX_CELL_COORDINATE
            and abs(row_offset) < MAX_CELL_COORDINATE
        ):
            raise GeometryError(f"no grid cell contains {point}")
        col = math.floor(col_offset)
        row = math.floor(row_offset)
        # Guard against floating-point drift right at a cell boundary: ensure
        # the computed cell actually contains the point under the half-open rule.
        cell = self.cell(col, row)
        if point.x >= cell.upper_right.x:
            col += 1
        elif point.x < cell.lower_left.x:
            col -= 1
        if point.y >= cell.upper_right.y:
            row += 1
        elif point.y < cell.lower_left.y:
            row -= 1
        return (col, row)

    def has_cell(self, points: np.ndarray) -> np.ndarray:
        """Boolean ``(m,)`` mask of the ``(m, 2)`` points some cell contains.

        A point lies in no cell when its cell coordinate
        ``(x - origin) / spacing`` is not finite (a coordinate is non-finite,
        or so far from the origin that the division overflows) or is too
        large for an int64 cell index (:data:`MAX_CELL_COORDINATE`).
        """
        origin = np.array([self.origin.x, self.origin.y])
        with np.errstate(over="ignore", invalid="ignore"):
            offsets = np.abs((points - origin) / self.spacing)
            return (offsets < MAX_CELL_COORDINATE).all(axis=1)

    def cell_indices_of(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cell_index_of`: ``(cols, rows)`` int arrays.

        Args:
            points: float array of shape ``(m, 2)``, every point in some
                cell (:meth:`has_cell`).

        Applies the same floating-point drift guard as the scalar method (the
        computed cell must actually contain the point under the half-open
        rule), so the answers agree exactly.  Both axes go through each
        numpy call together.
        """
        origin = np.array([self.origin.x, self.origin.y])
        cells = np.floor((points - origin) / self.spacing).astype(np.int64)
        lower = origin + cells * self.spacing
        cells += points >= lower + self.spacing
        cells -= points < lower
        return cells[:, 0], cells[:, 1]

    def cell(self, col: int, row: int) -> GridCell:
        """The cell with the given integer index."""
        lower_left = Point(
            self.origin.x + col * self.spacing,
            self.origin.y + row * self.spacing,
        )
        return GridCell(col=col, row=row, lower_left=lower_left, spacing=self.spacing)

    def cell_of(self, point: Point) -> GridCell:
        """The cell containing ``point``."""
        col, row = self.cell_index_of(point)
        return self.cell(col, row)

    def vertex(self, col: int, row: int) -> Point:
        """The grid vertex at integer coordinates ``(col, row)``."""
        return Point(
            self.origin.x + col * self.spacing,
            self.origin.y + row * self.spacing,
        )

    # ------------------------------------------------------------------
    # Neighbourhoods
    # ------------------------------------------------------------------
    def nine_cell(self, index: CellIndex) -> List[CellIndex]:
        """The 3x3 block of cell indices centred at ``index`` (the 9-cell)."""
        col, row = index
        return [
            (col + dc, row + dr)
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
        ]

    def neighbours(self, index: CellIndex, diagonal: bool = True) -> List[CellIndex]:
        """Neighbouring cell indices (8-connected by default, 4-connected otherwise)."""
        col, row = index
        if diagonal:
            return [cell for cell in self.nine_cell(index) if cell != index]
        return [(col + 1, row), (col - 1, row), (col, row + 1), (col, row - 1)]

    def nine_cell_boundary_edges(self, index: CellIndex) -> List[Segment]:
        """The 12 grid edges forming the outer boundary of the 9-cell of ``index``.

        These are the edges a curve must cross when it leaves the 9-cell,
        which is exactly what the Boundary Reconstruction Process tests.
        """
        col, row = index
        lower_left = self.vertex(col - 1, row - 1)
        size = 3 * self.spacing
        edges: List[Segment] = []
        for i in range(3):
            # South boundary.
            edges.append(
                Segment(
                    Point(lower_left.x + i * self.spacing, lower_left.y),
                    Point(lower_left.x + (i + 1) * self.spacing, lower_left.y),
                )
            )
            # North boundary.
            edges.append(
                Segment(
                    Point(lower_left.x + i * self.spacing, lower_left.y + size),
                    Point(lower_left.x + (i + 1) * self.spacing, lower_left.y + size),
                )
            )
            # West boundary.
            edges.append(
                Segment(
                    Point(lower_left.x, lower_left.y + i * self.spacing),
                    Point(lower_left.x, lower_left.y + (i + 1) * self.spacing),
                )
            )
            # East boundary.
            edges.append(
                Segment(
                    Point(lower_left.x + size, lower_left.y + i * self.spacing),
                    Point(lower_left.x + size, lower_left.y + (i + 1) * self.spacing),
                )
            )
        return edges

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def cells_in_box(
        self, lower_left: Point, upper_right: Point
    ) -> Iterator[GridCell]:
        """All cells whose interior intersects the axis-aligned box."""
        if upper_right.x <= lower_left.x or upper_right.y <= lower_left.y:
            return
        min_col, min_row = self.cell_index_of(lower_left)
        max_col, max_row = self.cell_index_of(
            Point(upper_right.x - 1e-15, upper_right.y - 1e-15)
        )
        for row in range(min_row, max_row + 1):
            for col in range(min_col, max_col + 1):
                yield self.cell(col, row)

    def cell_area(self) -> float:
        """Area of a single grid cell, ``gamma^2``."""
        return self.spacing * self.spacing
