"""Boundary cover computation: the Boundary Reconstruction Process and an ablation.

Section 5.1 of the paper identifies the grid cells met by the zone boundary
``∂Q`` by walking along the boundary cell by cell (the *Boundary
Reconstruction Process*, BRP), using the segment test on grid edges to decide
where the boundary leaves the current 9-cell.  The T? ("suspect") cells are
the 9-cells of the traversed cells; since each traversal step consumes at
least ``gamma`` units of the perimeter, the number of T? cells is
``O(per(Q) / gamma)``.

This module implements two boundary-cover strategies over a common interface:

* :func:`reconstruct_boundary_cells` — the paper's segment-test-driven
  process.  Instead of the strictly clockwise walk of the paper we grow the
  cell set by breadth-first search from the starting cell, expanding only
  through cells whose edges the boundary crosses.  The set of cells crossed by
  a closed convex curve is 8-connected, so BFS visits exactly the same cells
  as the clockwise walk with the same ``O(per(Q)/gamma)`` segment-test budget,
  while being robust to the corner cases (boundary through a grid vertex)
  that make a strict walk fiddly.
* :func:`ray_sweep_boundary_cells` — an ablation baseline that exploits the
  star shape of reception zones (Lemma 3.1): boundary points are sampled
  along rays from the station at an angular resolution fine enough that
  consecutive samples fall in the same or adjacent cells.  All rays go to
  one batched boundary probe
  (:meth:`~repro.model.reception.ReceptionZone.boundary_distances_along_rays`)
  in a single call, at a cell-resolution tolerance.

Both return the set of *boundary* cells; the QDS layer pads them to 9-cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..exceptions import PointLocationError
from ..geometry.grid import Grid
from ..geometry.point import Point
from .segment_test import SegmentTest, SegmentTestResult

__all__ = [
    "BoundaryCover",
    "reconstruct_boundary_cells",
    "ray_sweep_boundary_cells",
]

CellIndex = Tuple[int, int]


@dataclass(frozen=True)
class BoundaryCover:
    """The outcome of a boundary-cover computation.

    Attributes:
        boundary_cells: grid cells met by the zone boundary.
        segment_tests: number of segment tests performed (0 for the ray sweep).
        boundary_probes: number of point-membership probes performed.
        method: ``"brp"`` or ``"ray_sweep"``.
    """

    boundary_cells: frozenset
    segment_tests: int
    boundary_probes: int
    method: str


def reconstruct_boundary_cells(
    grid: Grid,
    segment_test: SegmentTest,
    inside: Callable[[Point], bool],
    station: Point,
    delta_lower: float,
    Delta_upper: float,
    max_cells: Optional[int] = None,
) -> BoundaryCover:
    """The Boundary Reconstruction Process (segment-test driven).

    Args:
        grid: the gamma-spaced grid aligned at the station.
        segment_test: the segment test to use on grid edges.
        inside: zone membership predicate (used only to find the start cell).
        station: the zone's station (a grid vertex by construction).
        delta_lower: certified lower bound on the inscribed radius.
        Delta_upper: certified upper bound on the enclosing radius.
        max_cells: safety cap on the number of boundary cells (default:
            derived from the perimeter bound ``2*pi*Delta_upper / gamma``).

    Raises:
        PointLocationError: if a starting boundary cell cannot be found or the
            cell budget is exceeded (indicating an inconsistent zone).
    """
    gamma = grid.spacing
    if max_cells is None:
        # 9 cells per BRP step, at most ceil(2*pi*Delta/gamma) steps, plus slack.
        max_cells = max(64, int(40.0 * math.pi * Delta_upper / gamma))

    start_cell = _find_starting_cell(grid, inside, station, delta_lower, Delta_upper)

    edge_cache: Dict[Tuple[CellIndex, str], SegmentTestResult] = {}
    tests_performed = 0

    #: Offsets to the neighbour sharing each named edge.
    edge_neighbour = {
        "south": (0, -1),
        "east": (1, 0),
        "north": (0, 1),
        "west": (-1, 0),
    }

    def edge_results(index: CellIndex) -> Dict[str, SegmentTestResult]:
        """Segment-test results of the four edges of one cell (cached per edge)."""
        nonlocal tests_performed
        cell = grid.cell(*index)
        south, east, north, west = cell.edges()
        results: Dict[str, SegmentTestResult] = {}
        for name, edge in (("south", south), ("east", east), ("north", north), ("west", west)):
            key = _canonical_edge_key(index, name)
            result = edge_cache.get(key)
            if result is None:
                result = segment_test.test(edge)
                edge_cache[key] = result
                tests_performed += 1
            results[name] = result
        return results

    start_results = edge_results(start_cell)
    if not any(result.crosses for result in start_results.values()):
        raise PointLocationError(
            "BRP start cell does not meet the zone boundary; "
            "the radius bounds or the segment test are inconsistent"
        )

    # Walk along the boundary: from every cell the boundary passes through,
    # continue into the neighbours across its crossed edges.  The cells a
    # closed curve passes through are connected through crossed edges, so the
    # walk visits them all; a boundary running exactly through a grid vertex
    # (so that the curve hops to a diagonal neighbour without crossing the
    # interior of any shared edge) is handled by also expanding diagonally
    # whenever a cell corner lies (numerically) on the boundary.
    boundary: Set[CellIndex] = set()
    frontier: List[CellIndex] = [start_cell]
    queued: Set[CellIndex] = {start_cell}
    while frontier:
        current = frontier.pop()
        results = edge_results(current)
        crossed_edges = [name for name, result in results.items() if result.crosses]
        if not crossed_edges:
            continue
        boundary.add(current)
        if len(boundary) > max_cells:
            raise PointLocationError(
                f"BRP exceeded the cell budget of {max_cells}; "
                "the zone boundary appears to be unbounded"
            )
        next_cells: List[CellIndex] = []
        for name in crossed_edges:
            dc, dr = edge_neighbour[name]
            next_cells.append((current[0] + dc, current[1] + dr))
        if _corner_on_boundary(grid, current, inside):
            next_cells.extend(grid.neighbours(current, diagonal=True))
        for neighbour in next_cells:
            if neighbour not in queued:
                queued.add(neighbour)
                frontier.append(neighbour)

    return BoundaryCover(
        boundary_cells=frozenset(boundary),
        segment_tests=tests_performed,
        boundary_probes=0,
        method="brp",
    )


def _corner_on_boundary(grid: Grid, index: CellIndex, inside) -> bool:
    """Heuristic degeneracy detector: does a corner of the cell sit on the boundary?

    Only used to decide whether the boundary walk needs to expand diagonally;
    a false positive merely costs a few extra segment tests.
    """
    cell = grid.cell(*index)
    for corner in cell.corners():
        nudge = grid.spacing * 1e-9
        votes = [
            inside(Point(corner.x + dx, corner.y + dy))
            for dx in (-nudge, nudge)
            for dy in (-nudge, nudge)
        ]
        if any(votes) and not all(votes):
            return True
    return False


def ray_sweep_boundary_cells(
    grid: Grid,
    boundary_distance_batch: Callable[..., object],
    station: Optional[Point] = None,
    Delta_upper: Optional[float] = None,
    oversampling: float = 2.0,
) -> BoundaryCover:
    """Boundary cover by angular sweep (ablation baseline).

    Args:
        grid: the gamma-spaced grid aligned at the station.
        boundary_distance_batch: maps an array of ray angles and a
            ``tolerance=`` keyword to the array of distances from the station
            to the zone boundary along those rays (star shape), all in one
            call, e.g. :meth:`ReceptionZone.boundary_distances_along_rays`.
        station: the zone's station.
        Delta_upper: upper bound on the enclosing radius (sets the angular
            resolution).
        oversampling: how many samples per gamma of arc length (>= 1).

    The angular step is chosen so consecutive boundary samples are at most
    ``gamma / oversampling`` apart, hence fall in the same or an adjacent
    cell; together with the QDS 9-cell padding this covers every boundary
    cell.
    """
    if oversampling < 1.0:
        raise PointLocationError("oversampling must be at least 1")
    if station is None:
        raise PointLocationError("the ray sweep needs the zone's station")
    if Delta_upper is None or Delta_upper <= 0.0:
        raise PointLocationError(
            "the ray sweep needs a positive Delta_upper (it sets the angular "
            "resolution)"
        )
    gamma = grid.spacing
    step = gamma / (oversampling * max(Delta_upper, gamma))
    count = max(16, int(math.ceil(2.0 * math.pi / step)))

    angles = 2.0 * math.pi * np.arange(count, dtype=float) / count
    # Cell-resolution tolerance: a boundary sample within a small fraction of
    # gamma of the true boundary point lands in the same or an adjacent cell,
    # which the QDS 9-cell padding absorbs — and it saves half the bisection
    # iterations of the default 1e-10 tolerance.  The bisection treats
    # tolerance as relative (scaled by max(1, high)); dividing by
    # max(1, Delta_upper) makes the stopping gap ~gamma/100 in absolute units
    # at every coordinate scale (high never exceeds ~Delta_upper for the
    # bounded zones this cover is built for).
    distances = np.asarray(
        boundary_distance_batch(
            angles, tolerance=gamma * 1e-2 / max(1.0, Delta_upper)
        ),
        dtype=float,
    )
    points = np.column_stack(
        (
            station.x + distances * np.cos(angles),
            station.y + distances * np.sin(angles),
        )
    )
    cols, rows = grid.cell_indices_of(points)
    return BoundaryCover(
        boundary_cells=frozenset(zip(cols.tolist(), rows.tolist())),
        segment_tests=0,
        boundary_probes=count,
        method="ray_sweep",
    )


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _find_starting_cell(
    grid: Grid,
    inside: Callable[[Point], bool],
    station: Point,
    delta_lower: float,
    Delta_upper: float,
) -> CellIndex:
    """Find the cell north of the station whose west edge meets the boundary.

    The paper performs a binary search over grid vertices directly north of
    ``station`` between distance ``delta_tilde`` (known inside) and
    ``Delta_tilde`` (known outside), costing ``O(log(Delta/delta))``
    membership evaluations.
    """
    gamma = grid.spacing
    low = max(0, int(math.floor(delta_lower / gamma)) - 1)
    high = int(math.ceil(Delta_upper / gamma)) + 1

    def vertex_north(k: int) -> Point:
        return Point(station.x, station.y + k * gamma)

    # Ensure the bracket is valid: low inside (or the station itself), high outside.
    while low > 0 and not inside(vertex_north(low)):
        low -= 1
    while inside(vertex_north(high)):
        high += 1
        if high > 10 * (int(math.ceil(Delta_upper / gamma)) + 2):
            raise PointLocationError(
                "could not bracket the zone boundary north of the station; "
                "Delta_upper appears to be an underestimate"
            )

    while high - low > 1:
        middle = (low + high) // 2
        if inside(vertex_north(middle)):
            low = middle
        else:
            high = middle

    # The boundary crosses the vertical grid line between vertices low and
    # low + 1; the cell east of that edge (sharing it as its west edge) is the
    # starting cell.
    station_cell = grid.cell_index_of(station)
    return (station_cell[0], station_cell[1] + low)


def _canonical_edge_key(index: CellIndex, edge_name: str) -> Tuple[CellIndex, str]:
    """Canonical key so an edge shared by two cells is tested only once.

    Every edge is attributed to the cell having it as its *south* or *west*
    edge.
    """
    col, row = index
    if edge_name == "north":
        return ((col, row + 1), "south")
    if edge_name == "east":
        return ((col + 1, row), "west")
    return (index, edge_name)
