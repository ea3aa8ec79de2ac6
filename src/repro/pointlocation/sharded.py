"""Spatially sharded point location: per-shard locators, exact global answers.

The Theorem 3 structure (and every other locator) serves one flat station
set; at the scales the ROADMAP aims for the station set itself must be
partitioned.  The :class:`ShardedLocator` splits the stations spatially
(:mod:`repro.pointlocation.partition`), builds one *inner* locator per shard
over a :meth:`~repro.model.network.WirelessNetwork.subnetwork` view, and
answers query batches in four steps:

0. **Certify.**  Under uniform power only the nearest station can be heard
   (Observation 2.2), and most points hear nothing.  The full network's
   stations are bucketed in a uniform grid whose cell side is 1.5 mean
   station spacings; each point takes the stations of the 3 x 3 block of
   cells around its own, in ascending index.  The nearest of them is the
   nearest station of the whole network when its squared distance is
   below the point's squared float gap to the block's edges: rounding is
   monotone, so every station beyond an edge has a squared distance, in
   the dense pass's own expression, of at least that gap.  Then, if the
   block's energies, summed row by row in ascending index, give that
   station a partial SINR below ``beta``, the point is silent: a subset
   so summed never exceeds the dense float total (the argument of the
   numpy ``heard_station`` kernel's silence certificate), so no rounding
   margin is needed.  A proved nearest station that is not silent joins
   the verification below as the point's candidate; only the points
   nothing was proved for take steps 1 and 2.  The arithmetic and its
   proof are :func:`repro.engine.kernels.nearest_or_silent`.  On the
   serving benchmark's network (3,200 stations, uniform queries) about
   90% of points are answered silent, 10% proved and 0.1% routed.  Every
   point pays for the widest block, so the grid is built only where the
   shard proposals it replaces cost more: where a point meets at least
   four times that many stations in the shards routed to it (16 shards
   of 200 stations do; 200 stations split four ways do not).
1. **Route.**  Each shard advertises a query box: the bounding box of its
   stations inflated by the shard's *reach* — the largest certified enclosing
   radius (Theorem 4.1) of any of its zones, widened to cover the float64
   kernels' rounding, with edges rounded outward.  A station can only be
   heard inside its zone, and its zone fits inside its reach, so a query point can
   only be answered by shards whose query box contains it (possibly several,
   possibly none — then nothing is heard, certified).
2. **Propose.**  Each routed batch slice is answered by the shard's inner
   locator over the shard's *subnetwork*.  Dropping the other shards'
   stations only removes interference, so a shard-local "nothing heard" is
   already certified globally; a shard-local hit is merely a candidate.
   That holds in floats too, not only in real arithmetic, because every
   shard keeps its station indices ascending: the subnetwork then sums a
   subset of the full network's non-negative energies in the full
   network's order, and rounding is monotone, so its float total never
   exceeds the full float total (the argument behind the numpy
   ``heard_station`` kernel's silence certificate).  A point whose
   full-network SINR is exactly ``beta`` is therefore still proposed.
3. **Verify & merge.**  All candidates are re-checked in one batched
   reception mask over the **full** station set through the active engine
   backend — shards narrow the candidate search, never the interference sum.
   Surviving candidates are merged back in input order (lowest station index
   first, matching the brute-force rule), so the final answers are exactly
   those of :class:`~repro.pointlocation.naive.BruteForceLocator`.

Because the answers are verified against the full network, they are exact
for *any* assignment of stations to shards — the partition affects only how
much candidate work the routing saves.  That partition-independence is what
makes **incremental updates** sound: :meth:`ShardedLocator.updated` applies
a :class:`~repro.model.delta.NetworkDelta` by rebuilding only the shards
whose station sets changed, re-placing arriving/relocated stations into the
nearest existing shard rather than re-partitioning, and refreshing the
routing boxes whose reaches the delta can change.  An untouched station's
certified reach still shifts when its nearest neighbour moved, and the
Theorem 4.1 bound is not monotone in that distance under noise, so a stale
box would not be conservative.  The locator therefore keeps every station's
``kappa**2`` (squared nearest-neighbour distance) beside its reach, both
from one sorted sweep (:func:`~repro.pointlocation.bounds.nearest_squared`)
at construction.  A pure move changes ``kappa`` only for the moved stations
and for stations whose nearest neighbour was, or now is, a moved one, so
the update recomputes just those rows, ``O(n)`` per moved station and
bit-identical to the sweep, and the boxes of the shards holding them; any
other delta, or a move reaching more than 64 rows, runs the sweep again.
On the serving benchmark's network (3,200 stations, 16 kd shards, one
random-waypoint move per update, 2-vCPU VM) a move reaches 1–5 rows, and
the median :meth:`ShardedLocator.updated` takes 0.9–1.0 ms against the
sweep's 4.3–5.0 ms.
Unchanged shards keep their already-built inner locator object: its
subnetwork view contains exactly the same stations, and inner proposals
never depend on the rest of the network.  The grid of step 0 is rebuilt,
except that a pure move (no index shifts) edits only the block columns
around each moved station's old and new cell: in service each numpy call
of a rebuild lets the swap wait for the GIL.

The locator registers as ``"sharded"``; the composed spelling
``"sharded:<inner>"`` (e.g. ``"sharded:theorem3"``) selects the inner
locator by name through the registry.  Because both the inner proposals and
the verification run through the engine's batch entry points, per-shard
dispatch inherits whatever backend is active (numpy, float32-screen,
reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..engine.batch import (
    NO_RECEPTION,
    UNDECIDED,
    PointsLike,
    as_points_array,
    nearest_or_silent_batch,
    received_at,
)
from ..exceptions import PointLocationError, positive_int
from ..geometry.grid import Grid
from ..geometry.point import Point
from ..model.delta import NetworkDelta, diff_networks
from ..model.network import WirelessNetwork
from .bounds import (
    _SWEEP_OFFSETS,
    nearest_squared,
    reach_box,
    reach_formula,
    require_theorem_4_1_regime,
    station_reaches,
)
from .registry import Locator, get_locator, register_locator

__all__ = ["ShardedLocator", "ShardInfo", "ShardUpdateReport"]


#: The grid's cell side, in mean station spacings ``sqrt(area / n)`` of the
#: station bounding box: a 3 x 3 block then holds about 20 stations, and on
#: the serving benchmark's network it proves the nearest station of all but
#: about 0.1% of uniform query points.
_CELL_SPACINGS = 1.5

#: The most stations whose reaches a pure move recomputes row by row.  One
#: pass of the sorted sweep scans ``2 * _SWEEP_OFFSETS`` neighbours of every
#: station, so more rows than that cost more than a pass: past it the move
#: runs the sweep.
_MOST_ROWS = 2 * _SWEEP_OFFSETS

#: What one entry of a block costs the certificate, in stations of a shard
#: proposal: every point pays for the widest block, its entries gathered.
#: The grid is built only where a point meets at least this many times the
#: widest block's stations in the shards it is routed to.  On 200 stations
#: and 20,000-point batches a 32-station block wins against 200 stations
#: met (one shard, 2.3x), splits even against 125 (two: faster under numpy,
#: slower under the float32 screen) and loses against 76 (four).
_BLOCK_COST = 4.0


@dataclass(frozen=True)
class _StationGrid:
    """The full network's stations bucketed in a uniform grid, for the
    certificate in front of the shard routing.

    Cells are ``side``-wide squares of a :class:`~repro.geometry.grid.Grid`
    anchored at the origin.  The side is rounded to two significant bits,
    so every cell edge below ``2**50`` cells is an exact float and
    :meth:`~repro.geometry.grid.Grid.cell_indices_of` places each station
    and each point in the cell whose half-open square holds it exactly.
    The table spans the stations' cells plus one cell all round.  Column
    ``c`` of ``blocks`` lists the stations of cell ``c``'s 3 x 3 block in
    ascending index, padded with ``n``; column ``c`` of ``boxes`` holds the
    block's edges ``x0, y0, x1, y1``, beyond which every other station
    lies.
    """

    grid: Grid
    col0: int
    row0: int
    columns: int
    rows: int
    blocks: np.ndarray
    boxes: np.ndarray

    @classmethod
    def build(cls, coords: np.ndarray, met: float) -> Optional["_StationGrid"]:
        """The grid of ``coords``, or None where it is degenerate (every
        station at one point, or cells too small for exact edges) or
        costs more than the shard proposals: where its widest block holds
        more than ``met`` (the stations a point meets in the shards it is
        routed to) over :data:`_BLOCK_COST` stations."""
        n = len(coords)
        # Reduced over contiguous rows: over axis 0 of (n, 2) it is slower.
        axes = coords.T.copy()
        x_lo, y_lo = axes.min(axis=1).tolist()
        x_hi, y_hi = axes.max(axis=1).tolist()
        width, height = x_hi - x_lo, y_hi - y_lo
        # At least the longer extent over n: a thin box gets O(n) cells.
        side = max(
            _CELL_SPACINGS * math.sqrt(width * height / n), max(width, height) / n
        )
        if not 0.0 < side < math.inf:
            return None
        mantissa, exponent = math.frexp(side)
        side = math.ldexp(round(4.0 * mantissa), exponent - 2)
        if max(-x_lo, x_hi, -y_lo, y_hi) / side >= 2.0**50:
            return None
        grid = Grid(Point(0.0, 0.0), side)
        col0, row0 = grid.cell_index_of(Point(x_lo, y_lo))
        col1, row1 = grid.cell_index_of(Point(x_hi, y_hi))
        columns, rows = col1 - col0 + 3, row1 - row0 + 3
        cols, cell_rows = grid.cell_indices_of(coords)
        # Each station joins the blocks of the nine cells around its own;
        # sorted (cell, station) keys list every block in ascending index.
        shift = n.bit_length()
        own = (cols - (col0 - 1)) * rows + (cell_rows - (row0 - 1))
        around = (np.arange(-1, 2)[:, None] * rows + np.arange(-1, 2)).ravel()
        keys = (((own << shift) + np.arange(n))[:, None] + (around << shift)).ravel()
        keys.sort()
        owner = keys >> shift
        cells = columns * rows
        counts = np.bincount(owner, minlength=cells)
        depth = int(counts.max())
        if not depth * _BLOCK_COST <= met:
            return None
        # Entry k of a cell's run goes to row k of the cell's column.
        flat = (np.arange(len(keys)) - (np.cumsum(counts) - counts)[owner]) * cells
        flat += owner
        blocks = np.full(depth * cells, n, dtype=np.intp)
        blocks[flat] = keys & ((1 << shift) - 1)
        edges_x = (np.arange(col0 - 1, col1 + 2) * side)[:, None]
        edges_y = np.arange(row0 - 1, row1 + 2) * side
        boxes = np.empty((4, columns, rows))
        boxes[0] = edges_x - side
        boxes[1] = edges_y - side
        boxes[2] = edges_x + 2.0 * side
        boxes[3] = edges_y + 2.0 * side
        return cls(
            grid, col0 - 1, row0 - 1, columns, rows,
            blocks.reshape(depth, cells), boxes.reshape(4, cells),
        )

    def moved(
        self, old_coords: np.ndarray, new_coords: np.ndarray, stations: Tuple[int, ...]
    ) -> Optional["_StationGrid"]:
        """This grid with ``stations`` moved (indices unchanged), or None
        where a fresh build is needed: a station left the table's inner
        cells, or a block outgrew the table.  Each move edits the eighteen
        block columns around the station's old and new cell.  In service a
        swap waits for the GIL after each numpy call over thousands of
        entries, and the build makes dozens; these calls are small."""
        blocks = self.blocks.copy()
        padding = len(new_coords)
        for station in stations:
            old = self._cell(old_coords[station])
            new = self._cell(new_coords[station])
            if old is None or new is None:
                return None
            for cell in self._around(old):
                column = blocks[:, cell]
                kept = column[column != station]
                column[: len(kept)] = kept
                column[len(kept):] = padding
            for cell in self._around(new):
                column = blocks[:, cell]
                if column[-1] != padding:
                    return None
                at = int(np.searchsorted(column, station))
                column[at + 1:] = column[at:-1].copy()
                column[at] = station
        return replace(self, blocks=blocks)

    def _cell(self, point: np.ndarray) -> Optional[int]:
        """The table cell of a station, or None outside the inner cells.

        The inner cells' edges are exact floats, so testing against them
        agrees with :meth:`~repro.geometry.grid.Grid.cell_index_of`, and a
        station too far away for a cell index never reaches it.
        """
        side = self.grid.spacing
        x, y = float(point[0]), float(point[1])
        if not (
            (self.col0 + 1) * side <= x < (self.col0 + self.columns - 1) * side
            and (self.row0 + 1) * side <= y < (self.row0 + self.rows - 1) * side
        ):
            return None
        col, row = self.grid.cell_index_of(Point(x, y))
        return (col - self.col0) * self.rows + (row - self.row0)

    def _around(self, cell: int) -> List[int]:
        """The nine cells of the 3 x 3 block centred on ``cell``."""
        return [cell + dc * self.rows + dr for dc in (-1, 0, 1) for dr in (-1, 0, 1)]

    def certify(
        self, network: WirelessNetwork, pts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, labels)``: the rows of ``pts`` inside the table and
        their :func:`~repro.engine.batch.nearest_or_silent_batch` labels."""
        side = self.grid.spacing
        low = np.array([self.col0 * side, self.row0 * side])
        high = low + np.array([self.columns * side, self.rows * side])
        inside = np.flatnonzero(((pts >= low) & (pts < high)).all(axis=1))
        if inside.size < len(pts):
            pts = pts[inside]
        cols, rows = self.grid.cell_indices_of(pts)
        cells = (cols - self.col0) * self.rows + (rows - self.row0)
        return inside, nearest_or_silent_batch(
            network, pts, cells, self.blocks, self.boxes
        )


@dataclass(frozen=True)
class ShardInfo:
    """One shard of a :class:`ShardedLocator` (exposed for tests/benchmarks).

    Attributes:
        indices: global station indices of the shard (``int64``,
            ascending).
        query_box: ``(xmin, ymin, xmax, ymax)`` — the station bounding box
            inflated by the shard's certified reach; only points inside it
            can hear one of the shard's stations.
        locator: the inner locator over the shard's subnetwork, or None for
            single-station shards (whose lone station is proposed directly).
    """

    indices: np.ndarray
    query_box: Tuple[float, float, float, float]
    locator: Optional[Locator]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ShardUpdateReport:
    """What :meth:`ShardedLocator.updated` actually did (the rebuild ledger).

    Attached to the returned locator as ``last_update`` so property tests and
    benchmarks can assert that an incremental update rebuilt exactly the
    expected shard subset — positions refer to the *previous* locator's shard
    list.

    Attributes:
        full_rebuild: True when the update fell back to a from-scratch build
            (parameter change, or no shard survived to anchor placement);
            then ``rebuilt_positions`` covers the fresh locator's shards and
            the other tuples are empty.
        delta: the applied :class:`~repro.model.delta.NetworkDelta`.
        rebuilt_positions: shards whose station set changed — their inner
            locator was built anew over the new subnetwork.
        reused_positions: shards whose station set is unchanged — the same
            inner locator object serves on (its routing box is recomputed
            only where it holds a station whose reach the delta can
            change).
        retired_positions: shards left empty by the delta and dropped.
    """

    full_rebuild: bool
    delta: NetworkDelta
    rebuilt_positions: Tuple[int, ...]
    reused_positions: Tuple[int, ...]
    retired_positions: Tuple[int, ...]

    @property
    def rebuilt(self) -> int:
        return len(self.rebuilt_positions)

    @property
    def reused(self) -> int:
        return len(self.reused_positions)

    def describe(self) -> str:
        """One-line summary for benchmark output."""
        if self.full_rebuild:
            return f"update[{self.delta.describe()}] full rebuild"
        return (
            f"update[{self.delta.describe()}] "
            f"{self.rebuilt} rebuilt / {self.reused} reused"
            + (f" / {len(self.retired_positions)} retired"
               if self.retired_positions else "")
        )


class ShardedLocator:
    """Exact point location over spatially partitioned stations.

    Args:
        network: a uniform power network with ``alpha = 2`` and ``beta > 1``
            (the regime in which Theorem 4.1 certifies the routing reach).
        inner: registry name (or factory) of the per-shard locator —
            ``"voronoi"`` (default), ``"brute-force"``, ``"theorem3"``, or
            even ``"sharded"`` again.
        shards: requested shard count (an integer >= 1; a bool, a float or
            a string raises :class:`~repro.exceptions.PointLocationError`).
        partitioner: ``"kd"`` (default), ``"uniform"``, or a
            :class:`~repro.pointlocation.partition.SpatialPartitioner`.
        inner_options: extra build options forwarded to every inner locator
            (e.g. ``{"epsilon": 0.5}`` for ``inner="theorem3"``).
    """

    name = "sharded"

    def __init__(
        self,
        network: WirelessNetwork,
        inner: str = "voronoi",
        shards: int = 4,
        partitioner: object = "kd",
        inner_options: Optional[dict] = None,
    ):
        require_theorem_4_1_regime(network, "sharded point location")
        shards = positive_int("the shard count", shards, PointLocationError)

        from .partition import get_partitioner

        self.network = network
        self._inner_arg = inner
        self.inner_name = inner if isinstance(inner, str) else getattr(inner, "name", "custom")
        self._requested_shards = shards
        self._partitioner_spec = partitioner
        self.partitioner = get_partitioner(partitioner, shards)
        self._inner_factory = get_locator(inner)
        self.inner_options = dict(inner_options or {})
        self.last_update: Optional[ShardUpdateReport] = None

        coords = network.coords
        self._kappa_squared, self._reaches = self._swept_reaches(network)
        self._shards: List[ShardInfo] = []
        for group in self.partitioner.partition(coords):
            if len(group) == 0:
                continue
            group = np.sort(np.asarray(group, dtype=np.int64))
            self._shards.append(
                ShardInfo(
                    indices=group,
                    query_box=self._query_box(coords, group, self._reaches),
                    locator=self._build_inner(network, group),
                )
            )
        self._grid = self._station_grid(coords, self._shards)

    @classmethod
    def build(cls, network: WirelessNetwork, **options) -> "ShardedLocator":
        """Registry factory: options forward to the constructor."""
        return cls(network, **options)

    @staticmethod
    def _swept_reaches(network: WirelessNetwork) -> Tuple[np.ndarray, np.ndarray]:
        """``(kappa_squared, reaches)`` of every station, from one sweep."""
        kappa_squared = nearest_squared(network.coords)
        return kappa_squared, reach_formula(
            network, np.arange(len(network)), kappa_squared
        )

    def _moved_reaches(
        self, new_network: WirelessNetwork, moved: Tuple[int, ...]
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(kappa_squared, reaches, affected)`` after a pure move of the
        stations ``moved``, recomputed only in the ``affected`` mask's rows;
        None where more than :data:`_MOST_ROWS` rows are affected.

        The affected rows are the moved stations, every ``j`` at most its
        old ``kappa**2`` from a moved station's old position, and every
        ``j`` strictly nearer than that to a new position.  Any other
        ``j``'s minimum was reached at an unmoved station and no moved
        station came as close, so its ``kappa**2`` is the same float: every
        distance here is the sweep's ``dx * dx + dy * dy`` for the same pair
        (``fl(a - b)**2 == fl(b - a)**2``), and an unmoved station's
        coordinates are the same in both networks (:meth:`updated` checks
        that first).  Ties, shared locations and squares that underflow or
        overflow fall in the affected set.  A reach depends on its own
        ``kappa**2`` alone, bit for bit, even where
        :func:`~repro.pointlocation.bounds.reach_formula` reads ``kappa``
        from ``hypot`` distances, whose minimum may sit elsewhere: there
        ``kappa**2`` is infinite, so every move affects the row, or the
        noise term dominates so far that the bound rounds to the same
        float whatever ``kappa`` is.
        """
        if len(moved) > _MOST_ROWS:
            return None
        stations = list(moved)
        centres = np.concatenate(
            (self.network.coords[stations], new_network.coords[stations])
        )
        coords = new_network.coords
        kappa_squared = self._kappa_squared
        with np.errstate(over="ignore"):
            dx = coords[:, 0] - centres[:, 0:1]
            dy = coords[:, 1] - centres[:, 1:2]
            squared = dx * dx + dy * dy
        affected = (squared[: len(stations)] <= kappa_squared).any(axis=0)
        affected |= (squared[len(stations):] < kappa_squared).any(axis=0)
        affected[stations] = True
        rows = np.flatnonzero(affected)
        if rows.size > _MOST_ROWS:
            return None
        kappa_squared = kappa_squared.copy()
        kappa_squared[rows] = nearest_squared(coords, rows)
        reaches = self._reaches.copy()
        reaches[rows] = station_reaches(new_network, rows)
        return kappa_squared, reaches, affected

    @staticmethod
    def _query_box(
        coords: np.ndarray, group: np.ndarray, reaches: np.ndarray
    ) -> Tuple[float, float, float, float]:
        """Station bounding box inflated by the shard's largest certified reach."""
        points = coords[group]
        return reach_box(
            float(points[:, 0].min()),
            float(points[:, 1].min()),
            float(points[:, 0].max()),
            float(points[:, 1].max()),
            float(reaches[group].max()),
        )

    @staticmethod
    def _station_grid(
        coords: np.ndarray, shards: List[ShardInfo]
    ) -> Optional[_StationGrid]:
        """The grid of step 0 over ``shards``.  A point of the stations'
        bounding box lies in a shard's query box with the share of the
        box's area that the query box covers (an axis the stations do not
        spread along is covered whole), so a point meets the shard sizes
        times those shares, summed: the proposals' work per point."""
        boxes = np.array([shard.query_box for shard in shards])
        sizes = np.array([len(shard) for shard in shards])
        low, high = coords.min(axis=0), coords.max(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            covered = np.minimum(boxes[:, 2:], high) - np.maximum(boxes[:, :2], low)
            extent = high - low
            shares = np.divide(
                covered, extent, out=np.ones_like(covered), where=extent > 0
            )
        return _StationGrid.build(coords, float(sizes @ shares.prod(axis=1)))

    def _build_inner(
        self, network: WirelessNetwork, group: np.ndarray
    ) -> Optional[Locator]:
        """The shard's inner locator — None for single-station shards.

        A lone station is too small for a subnetwork; it is proposed directly
        and settled by the full-network verification.
        """
        if len(group) == 1:
            return None
        return self._inner_factory.build(
            network.subnetwork(group), **self.inner_options
        )

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def updated(
        self,
        new_network: WirelessNetwork,
        delta: Optional[NetworkDelta] = None,
    ) -> "ShardedLocator":
        """A locator for ``new_network``, rebuilding only the touched shards.

        Args:
            new_network: the mutated network to serve.
            delta: the :class:`~repro.model.delta.NetworkDelta` from this
                locator's network to ``new_network`` — as returned by the
                ``repro.model.delta`` mutator helpers — or None to recover
                it via :func:`~repro.model.delta.diff_networks`.

        Surviving stations stay in their shard (indices remapped through the
        delta); arriving and relocated stations join the shard whose
        surviving-station bounding box is nearest to their new location
        (ties to the lowest shard position — see :meth:`nearest_shard`).
        Shards that neither lost nor gained a station keep their inner
        locator object.  A delta of pure moves recomputes ``kappa**2`` and
        the reach only of the stations whose nearest-neighbour distance it
        can change (at most 64 of them; past that, and for any other
        delta, every reach comes from a fresh sweep), and the routing box
        only of shards that gained or lost a station or hold one of those
        stations: every other box is the tuple a fresh build would compute,
        bit for bit.  The station grid is rebuilt (or dropped, where it no
        longer pays), except that a delta of pure moves edits only the
        blocks around each moved station and keeps the grid.  Answers are
        bit-identical to a from-scratch build because verification always
        runs over the full new station set, and the grid's proofs hold for
        any grid — the partition and the grid only shape the candidate
        work.

        Falls back to a full rebuild (reported via ``last_update``) when the
        delta changes ``noise``/``beta``/``alpha`` or leaves no surviving
        shard to anchor placements.  The returned locator's ``last_update``
        is a :class:`ShardUpdateReport`; this locator is left untouched.
        Raises :class:`~repro.exceptions.PointLocationError` when the delta
        keeps a station whose location changed.
        """
        if delta is None:
            delta = diff_networks(self.network, new_network)
        if delta.old_count != len(self.network) or delta.new_count != len(new_network):
            raise PointLocationError(
                f"delta spans {delta.old_count} -> {delta.new_count} stations, "
                f"but the locator serves {len(self.network)} and the new "
                f"network has {len(new_network)}"
            )
        if delta.params_changed:
            return self._full_rebuild(new_network, delta)
        require_theorem_4_1_regime(new_network, "sharded point location")

        new_coords = new_network.coords
        mapping = delta.surviving_map()
        self._require_unchanged_survivors(new_network, mapping)
        groups: List[List[int]] = []
        boxes: List[Optional[Tuple[float, float, float, float]]] = []
        changed: List[bool] = []
        for shard in self._shards:
            mapped = mapping[shard.indices]
            kept = mapped[mapped >= 0]
            groups.append(kept.tolist())
            changed.append(kept.size != len(shard))
            if kept.size:
                points = new_coords[kept]
                boxes.append(
                    (
                        float(points[:, 0].min()),
                        float(points[:, 1].min()),
                        float(points[:, 0].max()),
                        float(points[:, 1].max()),
                    )
                )
            else:
                boxes.append(None)

        if all(box is None for box in boxes):
            # Nothing survived anywhere: no box can anchor placement, and a
            # fresh partition of the all-new station set is the right answer.
            return self._full_rebuild(new_network, delta)

        for new_index in delta.touched_new:
            x, y = float(new_coords[new_index, 0]), float(new_coords[new_index, 1])
            position = self.nearest_shard(boxes, x, y)
            groups[position].append(new_index)
            changed[position] = True
            # Later arrivals may cluster with this one rather than with the
            # survivors alone; grow the anchor box so placement sees them.
            box = boxes[position]
            boxes[position] = (
                min(box[0], x), min(box[1], y), max(box[2], x), max(box[3], y)
            ) if box is not None else (x, y, x, y)

        state = None
        if delta.index_preserving:
            state = self._moved_reaches(new_network, delta.touched_new)
        if state is None:
            kappa_squared, reaches = self._swept_reaches(new_network)
            affected = np.ones(len(new_network), dtype=bool)
        else:
            kappa_squared, reaches, affected = state
        shards: List[ShardInfo] = []
        rebuilt: List[int] = []
        reused: List[int] = []
        retired: List[int] = []
        for position, (shard, members) in enumerate(zip(self._shards, groups)):
            if not members:
                retired.append(position)
                continue
            # Arrivals were appended; the survivors are already ascending,
            # as surviving_map preserves order, so a reused inner locator's
            # subnetwork keeps its station order.
            group = np.sort(np.asarray(members, dtype=np.int64))
            if changed[position] or affected[group].any():
                query_box = self._query_box(new_coords, group, reaches)
            else:
                query_box = shard.query_box
            if changed[position]:
                inner = self._build_inner(new_network, group)
                rebuilt.append(position)
            else:
                inner = shard.locator
                reused.append(position)
            shards.append(
                ShardInfo(indices=group, query_box=query_box, locator=inner)
            )

        grid = None
        if self._grid is not None and delta.index_preserving:
            grid = self._grid.moved(
                self.network.coords, new_coords, delta.touched_new
            )
        if grid is None:
            grid = self._station_grid(new_coords, shards)
        clone = self._clone_with_shards(
            new_network, shards, grid, kappa_squared, reaches
        )
        clone.last_update = ShardUpdateReport(
            full_rebuild=False,
            delta=delta,
            rebuilt_positions=tuple(rebuilt),
            reused_positions=tuple(reused),
            retired_positions=tuple(retired),
        )
        return clone

    def _require_unchanged_survivors(
        self, new_network: WirelessNetwork, mapping: np.ndarray
    ) -> None:
        """Refuse a delta that keeps a station whose location changed: its
        shard, grid block and reach would be reused stale.  Powers need no
        comparison, as both networks hold the regime's uniform power."""
        kept = np.flatnonzero(mapping >= 0)
        differs = np.take(self.network.coords, kept, axis=0) != np.take(
            new_network.coords, mapping[kept], axis=0
        )
        changed = differs[:, 0] | differs[:, 1]
        if changed.any():
            station = int(kept[np.argmax(changed)])
            raise PointLocationError(
                f"the delta does not describe the new network: station "
                f"{station} moved, but the delta keeps it as new station "
                f"{int(mapping[station])}"
            )

    @staticmethod
    def nearest_shard(
        boxes: List[Optional[Tuple[float, float, float, float]]], x: float, y: float
    ) -> int:
        """Placement rule for arriving stations: nearest box, ties lowest.

        ``boxes`` are per-shard station bounding boxes (None for empty
        shards).  Distance is the Euclidean distance from ``(x, y)`` to the
        box (zero inside).  Exposed so tests can predict which shards an
        update must rebuild.
        """
        best = -1
        best_squared = math.inf
        for position, box in enumerate(boxes):
            if box is None:
                continue
            xmin, ymin, xmax, ymax = box
            dx = max(xmin - x, 0.0, x - xmax)
            dy = max(ymin - y, 0.0, y - ymax)
            squared = dx * dx + dy * dy
            # Overflowed distances (inf) tie; the first box still counts.
            if best < 0 or squared < best_squared:
                best = position
                best_squared = squared
        if best < 0:
            raise PointLocationError("no non-empty shard to place the station in")
        return best

    def _full_rebuild(
        self, new_network: WirelessNetwork, delta: NetworkDelta
    ) -> "ShardedLocator":
        fresh = ShardedLocator(
            new_network,
            inner=self._inner_arg,
            shards=self._requested_shards,
            partitioner=self._partitioner_spec,
            inner_options=self.inner_options,
        )
        fresh.last_update = ShardUpdateReport(
            full_rebuild=True,
            delta=delta,
            rebuilt_positions=tuple(range(len(fresh._shards))),
            reused_positions=(),
            retired_positions=(),
        )
        return fresh

    def _clone_with_shards(
        self,
        network: WirelessNetwork,
        shards: List[ShardInfo],
        grid: Optional[_StationGrid],
        kappa_squared: np.ndarray,
        reaches: np.ndarray,
    ) -> "ShardedLocator":
        clone = object.__new__(type(self))
        clone.network = network
        clone._inner_arg = self._inner_arg
        clone.inner_name = self.inner_name
        clone._requested_shards = self._requested_shards
        clone._partitioner_spec = self._partitioner_spec
        clone.partitioner = self.partitioner
        clone._inner_factory = self._inner_factory
        clone.inner_options = dict(self.inner_options)
        clone._shards = shards
        clone._grid = grid
        clone._kappa_squared = kappa_squared
        clone._reaches = reaches
        clone.last_update = None
        return clone

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def locate(self, point: Point) -> int:
        """Index of the station heard at ``point``, or ``NO_RECEPTION`` (-1)."""
        return int(self.locate_batch(np.array([[point.x, point.y]]))[0])

    def locate_batch(self, points: PointsLike) -> np.ndarray:
        """Vectorised :meth:`locate`: one ``int64`` label per point.

        Certifies what it can from the station grid, routes the remaining
        points to shards by query box, gathers per-shard proposals from the
        inner locators, verifies every candidate against the full station
        set in one batched reception mask, and merges in input order.
        """
        pts = as_points_array(points)
        count = len(pts)
        out = np.full(count, NO_RECEPTION, dtype=np.int64)
        if count == 0:
            return out

        proposal_rows: List[np.ndarray] = []
        proposal_stations: List[np.ndarray] = []
        routed = np.arange(count)
        if self._grid is not None:
            inside, labels = self._grid.certify(self.network, pts)
            nearest = labels >= 0
            proposal_rows.append(inside[nearest])
            proposal_stations.append(labels[nearest])
            # Silent points are answered and proved nearest stations are
            # candidates; only the undecided rest take the shard proposals.
            undecided = np.ones(count, dtype=bool)
            undecided[inside[labels != UNDECIDED]] = False
            routed = np.flatnonzero(undecided)
        queries = pts[routed]
        for shard in self._shards:
            xmin, ymin, xmax, ymax = shard.query_box
            hits = np.flatnonzero(
                (queries[:, 0] >= xmin)
                & (queries[:, 0] <= xmax)
                & (queries[:, 1] >= ymin)
                & (queries[:, 1] <= ymax)
            )
            if hits.size == 0:
                continue
            if shard.locator is None:
                local = np.zeros(hits.size, dtype=np.int64)
            else:
                local = shard.locator.locate_batch(queries[hits])
            proposed = local >= 0
            if not proposed.any():
                continue
            proposal_rows.append(routed[hits[proposed]])
            proposal_stations.append(shard.indices[local[proposed]])

        if not proposal_rows:
            return out
        rows = np.concatenate(proposal_rows)
        stations = np.concatenate(proposal_stations)

        # One full-network verification for all shards' candidates: the
        # interference sum always runs over every station, so sharding can
        # narrow the search without ever changing an answer.
        verified = received_at(self.network, stations, pts[rows])

        merged = np.full(count, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(merged, rows[verified], stations[verified])
        hit = merged != np.iinfo(np.int64).max
        out[hit] = merged[hit]
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> List[ShardInfo]:
        """The non-empty shards (indices, query boxes, inner locators)."""
        return list(self._shards)

    def shard_sizes(self) -> List[int]:
        """Station count per (non-empty) shard."""
        return [len(shard) for shard in self._shards]

    def describe(self) -> str:
        """One-line summary for benchmark and example output."""
        sizes = self.shard_sizes()
        return (
            f"sharded[{self.partitioner.name}, inner={self.inner_name}] "
            f"{len(sizes)} shards of {min(sizes)}..{max(sizes)} stations"
        )


register_locator("sharded", ShardedLocator)
