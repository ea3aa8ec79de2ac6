"""Spatial partitioners for the sharded point-location subsystem.

A partitioner splits a station coordinate array into disjoint index groups
("shards") by position.  Two strategies are provided:

* :class:`UniformTilePartitioner` — a fixed ``tiles_x x tiles_y`` grid over
  the stations' bounding box.  Simple and cache-friendly, but skewed station
  distributions (clusters, outliers) produce unbalanced and possibly *empty*
  tiles — which the sharded locator must, and does, tolerate.
* :class:`KDMedianPartitioner` — recursive median bisection of the station
  set along the axis of larger spread (the classic k-d construction),
  producing any requested number of shards with sizes balanced to within
  one station regardless of the spatial distribution.

Both return plain ``int64`` index arrays; group order is deterministic.
Empty groups are preserved (not dropped) so callers can account for them
explicitly — the degenerate configurations (one shard, more tiles than
stations) are exercised by the property tests.
"""

from __future__ import annotations

import math
from typing import List, Protocol, runtime_checkable

import numpy as np

from ..exceptions import PointLocationError, positive_int

__all__ = [
    "SpatialPartitioner",
    "UniformTilePartitioner",
    "KDMedianPartitioner",
    "get_partitioner",
]


@runtime_checkable
class SpatialPartitioner(Protocol):
    """The contract of a station partitioner.

    ``partition`` maps an ``(n, 2)`` coordinate array to a list of disjoint
    ``int64`` index arrays covering ``0..n-1`` (some possibly empty).
    """

    name: str

    def partition(self, coords: np.ndarray) -> List[np.ndarray]: ...


def _as_coords(coords) -> np.ndarray:
    array = np.asarray(coords, dtype=float)
    if array.ndim != 2 or array.shape[1] != 2:
        raise PointLocationError(
            f"expected station coordinates of shape (n, 2), got {array.shape}"
        )
    return array


class UniformTilePartitioner:
    """Partition by a uniform ``tiles_x x tiles_y`` grid over the station bbox.

    Args:
        tiles_x: number of tile columns (an integer >= 1).
        tiles_y: number of tile rows; defaults to ``tiles_x``.

    Stations on interior tile boundaries go to the higher tile; the right and
    top border stations are clipped into the last tile, so every station is
    assigned.  Tiles are emitted row-major (south-west first) and may be
    empty under skewed distributions.
    """

    def __init__(self, tiles_x: int, tiles_y: int = None):
        self.tiles_x = positive_int("tiles_x", tiles_x, PointLocationError)
        self.tiles_y = positive_int(
            "tiles_y", tiles_x if tiles_y is None else tiles_y, PointLocationError
        )
        self.name = f"uniform({self.tiles_x}x{self.tiles_y})"

    @classmethod
    def for_shard_count(cls, shards: int) -> "UniformTilePartitioner":
        """The most-square tile grid with at least ``shards`` tiles."""
        shards = positive_int("the shard count", shards, PointLocationError)
        tiles_x = max(1, int(math.floor(math.sqrt(shards))))
        tiles_y = int(math.ceil(shards / tiles_x))
        return cls(tiles_x, tiles_y)

    def partition(self, coords) -> List[np.ndarray]:
        array = _as_coords(coords)
        count = len(array)
        if count == 0:
            return [
                np.empty(0, dtype=np.int64)
                for _ in range(self.tiles_x * self.tiles_y)
            ]
        mins = array.min(axis=0)
        spans = array.max(axis=0) - mins
        spans[spans == 0.0] = 1.0  # all stations colinear along an axis
        cols = np.clip(
            ((array[:, 0] - mins[0]) / spans[0] * self.tiles_x).astype(np.int64),
            0,
            self.tiles_x - 1,
        )
        rows = np.clip(
            ((array[:, 1] - mins[1]) / spans[1] * self.tiles_y).astype(np.int64),
            0,
            self.tiles_y - 1,
        )
        tile_of = rows * self.tiles_x + cols
        return [
            np.flatnonzero(tile_of == tile).astype(np.int64)
            for tile in range(self.tiles_x * self.tiles_y)
        ]


class KDMedianPartitioner:
    """Partition by recursive median bisection along the wider-spread axis.

    Args:
        shards: number of groups to produce (an integer >= 1, need not be a
            power of two — uneven splits distribute stations proportionally).

    Always returns exactly ``shards`` groups with sizes balanced to within
    one station; when there are fewer stations than shards the tail groups
    are empty.
    """

    def __init__(self, shards: int):
        self.shards = positive_int("the shard count", shards, PointLocationError)
        self.name = f"kd({self.shards})"

    def partition(self, coords) -> List[np.ndarray]:
        array = _as_coords(coords)
        all_indices = np.arange(len(array), dtype=np.int64)
        return self._split(array, all_indices, self.shards)

    def _split(
        self, coords: np.ndarray, indices: np.ndarray, shards: int
    ) -> List[np.ndarray]:
        if shards == 1:
            return [indices]
        if len(indices) == 0:
            return [np.empty(0, dtype=np.int64) for _ in range(shards)]
        left_shards = shards // 2
        right_shards = shards - left_shards
        points = coords[indices]
        spreads = points.max(axis=0) - points.min(axis=0)
        axis = 0 if spreads[0] >= spreads[1] else 1
        # Stable sort keeps the split deterministic under coordinate ties.
        order = np.argsort(points[:, axis], kind="stable")
        cut = round(len(indices) * left_shards / shards)
        left = indices[order[:cut]]
        right = indices[order[cut:]]
        return self._split(coords, left, left_shards) + self._split(
            coords, right, right_shards
        )


def get_partitioner(spec, shards: int) -> SpatialPartitioner:
    """Resolve a partitioner: by name (``"kd"`` / ``"uniform"``) or as-is.

    ``shards`` sizes the named strategies; an explicitly constructed
    partitioner object is returned unchanged (its own shard count wins).
    """
    if isinstance(spec, str):
        if spec == "kd":
            return KDMedianPartitioner(shards)
        if spec == "uniform":
            return UniformTilePartitioner.for_shard_count(shards)
        raise PointLocationError(
            f"unknown partitioner {spec!r}; available: ['kd', 'uniform']"
        )
    if isinstance(spec, SpatialPartitioner):
        return spec
    raise PointLocationError(
        f"a partitioner must be 'kd', 'uniform' or provide partition(); got {spec!r}"
    )
