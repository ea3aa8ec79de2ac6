"""The thread-safe LRU tile store behind cached rasterisation.

:class:`TileCache` maps :data:`~repro.raster.tiles.TileKey` tuples to
computed tiles — read-only label arrays — under a configurable byte
budget, evicting least-recently-used tiles when the budget is exceeded.
Every cache is an object its owner creates and passes (``rasterize(...,
cache=cache)``, ``RasterService(network, cache=cache)``); there is no
process-wide one.  It is safe to share one cache between threads (and
hence between the event-loop executor threads of the service's raster
endpoint): lookups and insertions are serialised by a lock, while tile
*computation* happens outside it.  Concurrent requests for the same missing tile are
single-flighted — one caller computes, the others wait for the result —
so a burst of overlapping zoom/pan requests never computes a tile twice.

Statistics (:class:`CacheStats`) count hits, misses, evictions and
rejections (tiles computed but never stored: larger than the whole budget,
or keyed by a retired fingerprint), plus the resident tile count and byte
total.

One cache follows one network lineage.  :meth:`TileCache.invalidate_region`
retires the fingerprint a swap moves away from and remembers the latest
box-granular swap.  A request that straddles that swap is served the
successor network's tile wherever the swap re-keyed (the tile touches
none of its boxes); only the tiles inside the boxes are computed for the
retired network, served and never stored.  Services that share a cache
must swap together: a service still serving a network two swaps old
would get every tile computed and none stored.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import RasterCacheError, positive_int

__all__ = [
    "CacheStats",
    "TileCache",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_TILE_SIZE",
]

#: Default byte budget: 8192 tiles of 64 pixels, since such a tile is a
#: 32 KiB label block whatever the station count.
DEFAULT_MAX_BYTES = 256 * 2**20

#: Default tile side length, in pixels.  Small enough that a request only
#: over-computes a thin margin beyond its box, large enough that the
#: per-tile engine call still amortises its dispatch overhead.
DEFAULT_TILE_SIZE = 64

#: World rectangles ``(xmin, ymin, xmax, ymax)`` a network swap affects.
Boxes = Sequence[Tuple[float, float, float, float]]

#: How many of the most recently retired fingerprints a cache remembers.
#: A request still running after this many further swaps stores its tiles
#: like any other request, and the LRU evicts them.
RETIRED_FINGERPRINTS = 32


class _Flight:
    """One in-flight tile computation: its waiters block on ``done`` and
    then take ``tile``, which stays ``None`` when the computation failed."""

    __slots__ = ("done", "tile")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.tile: object = None


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of one :class:`TileCache`'s counters.

    Attributes:
        hits: lookups answered without computing: from the store, by the
            successor's tile for a key the latest swap retired outside its
            boxes, or by another thread's in-flight computation that the
            caller waited on.
        misses: lookups that had to compute the tile.
        evictions: tiles dropped to get back under the byte budget.
        rejected: computed tiles never stored: the tile alone exceeds the
            whole budget, or its fingerprint was retired by
            :meth:`TileCache.invalidate_region` (a request that straddled
            a swap computed it for a network no longer served: a tile
            inside the latest swap's boxes, or any tile of a fingerprint
            retired before that swap).
        rekeyed: tiles carried across a network swap by
            :meth:`TileCache.invalidate_region` (their content is certified
            unaffected by the mutation).
        invalidated: tiles dropped by :meth:`TileCache.invalidate_region`
            (overlapping an affected region, or swept by a full flush).
        tiles: tiles currently resident.
        stored_bytes: bytes currently resident.
        max_bytes: the configured byte budget.
    """

    hits: int
    misses: int
    evictions: int
    rejected: int
    rekeyed: int
    invalidated: int
    tiles: int
    stored_bytes: int
    max_bytes: int

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0


class TileCache:
    """A byte-budgeted, thread-safe LRU cache of raster tiles.

    Args:
        max_bytes: byte budget for resident tiles; least-recently-used
            tiles are evicted when an insertion exceeds it.
        tile_size: side length of every tile, in pixels.  Part of every
            tile key (two caches with different tile sizes never share
            entries), exposed here so the assembly code and the keys always
            agree.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        tile_size: int = DEFAULT_TILE_SIZE,
    ):
        self.max_bytes = positive_int(
            "the tile-cache byte budget", max_bytes, RasterCacheError
        )
        self.tile_size = positive_int(
            "the tile size in pixels", tile_size, RasterCacheError
        )
        self._lock = threading.Lock()
        self._store: "OrderedDict[tuple, object]" = OrderedDict()
        self._in_flight: Dict[tuple, _Flight] = {}
        # Fingerprints invalidate_region moved away from, oldest first.
        self._retired: "OrderedDict[str, None]" = OrderedDict()
        # The latest box-granular swap: (retired fingerprint, successor
        # fingerprint, boxes), or None after a full flush.
        self._swap: Optional[Tuple[str, str, Boxes]] = None
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._rejected = 0
        self._rekeyed = 0
        self._invalidated = 0

    # -- lookup ----------------------------------------------------------
    def get_or_compute(self, key: tuple, factory: Callable[[], object]):
        """The tile under ``key``, computing it with ``factory`` on a miss.

        A tile is resident for ``key`` when it is stored under ``key``, or
        when the latest swap retired ``key``'s fingerprint and its successor
        holds a tile at ``key``'s place outside the swap's boxes (see
        :meth:`invalidate_region`).

        Concurrent misses of the same key are single-flighted: exactly one
        caller runs ``factory`` (outside the lock) and hands its tile to the
        rest, which count as hits, even when the tile is rejected rather
        than stored.  If the owner's ``factory`` raises, its waiters look
        again and one of them computes.  The tile is computed and inserted
        under ``key`` itself, never under the successor's key, so a tile
        computed for a retired network is served but never stored.
        """
        while True:
            with self._lock:
                resident = self._resident_locked(key)
                if resident is not None:
                    stored_key, tile = resident
                    self._store.move_to_end(stored_key)
                    self._hits += 1
                    return tile
                flight = self._in_flight.get(key)
                if flight is None:
                    flight = _Flight()
                    self._in_flight[key] = flight
                    owner = True
                else:
                    owner = False
            if not owner:
                flight.done.wait()
                if flight.tile is None:
                    continue  # the owner failed: look again, maybe compute
                with self._lock:
                    self._hits += 1
                return flight.tile
            try:
                tile = factory()
            except BaseException:
                # Wake waiters so nobody blocks forever; they find no tile
                # in the flight and retry the lookup themselves.
                with self._lock:
                    self._in_flight.pop(key, None)
                flight.done.set()
                raise
            with self._lock:
                self._misses += 1
                self._insert_locked(key, tile)
                self._in_flight.pop(key, None)
            flight.tile = tile
            flight.done.set()
            return tile

    def lookup(self, keys: Sequence[tuple]) -> Optional[List[object]]:
        """Every tile resident for ``keys``, or ``None`` unless all are.

        One lock acquisition for the whole set, and never a computation.
        Residency is :meth:`get_or_compute`'s rule, the latest swap's
        carried tiles included.  When every tile is resident the caller
        holds them all by reference, each counts as a hit and moves to the
        most-recently-used end, as a :meth:`get_or_compute` hit does;
        otherwise nothing is counted or moved, and the caller fetches
        through :meth:`get_or_compute`.
        """
        with self._lock:
            store = self._store
            stored_keys, tiles = [], []
            for key in keys:
                tile = store.get(key)
                if tile is None:
                    resident = self._resident_locked(key)
                    if resident is None:
                        return None
                    key, tile = resident
                stored_keys.append(key)
                tiles.append(tile)
            for key in stored_keys:
                store.move_to_end(key)
            self._hits += len(tiles)
        return tiles

    def _resident_locked(self, key: tuple) -> Optional[Tuple[tuple, object]]:
        """``(stored key, tile)`` of the tile that answers ``key``, or ``None``.

        The tile stored under ``key``; failing that, when the latest swap
        retired ``key``'s fingerprint and ``key``'s tile touches none of
        that swap's boxes, the successor's tile at the same place — the
        tile the swap re-keyed, or one computed for the successor since.
        Nothing is counted or moved.
        """
        tile = self._store.get(key)
        if tile is not None:
            return key, tile
        swap = self._swap
        if swap is None or key[0] != swap[0]:
            return None
        carried = (swap[1],) + key[1:]
        tile = self._store.get(carried)
        if tile is None or self._tile_touches_any(key, swap[2]):
            return None
        return carried, tile

    def _insert_locked(self, key: tuple, tile) -> None:
        """Store ``tile`` and evict LRU entries back under budget.

        A tile larger than the whole budget, or keyed by a retired
        fingerprint, is not stored and counts as rejected; the caller still
        serves it.  The ``_locked`` suffix is the lock-discipline convention
        (project invariant RL002, ``tests/invariants.py``): the caller
        holds ``self._lock`` for the whole call.
        """
        nbytes = tile.nbytes
        if nbytes > self.max_bytes or key[0] in self._retired:
            self._rejected += 1
            return
        previous = self._store.pop(key, None)
        if previous is not None:
            self._bytes -= previous.nbytes
        self._store[key] = tile
        self._bytes += nbytes
        self._evict_over_budget_locked()

    def _evict_over_budget_locked(self) -> None:
        """Drop LRU tiles until resident bytes fit the budget."""
        while self._bytes > self.max_bytes:
            _, old_tile = self._store.popitem(last=False)
            self._bytes -= old_tile.nbytes
            self._evictions += 1

    # -- invalidation ----------------------------------------------------
    def invalidate_region(
        self,
        old_fingerprint: str,
        new_fingerprint: str,
        boxes: Optional[Boxes],
    ) -> Tuple[int, int]:
        """Carry unaffected tiles across a network swap; drop the rest.

        ``boxes`` are world rectangles ``(xmin, ymin, xmax, ymax)`` that
        certifiably contain every region where the mutation can change tile
        content (see :func:`repro.raster.tiles.affected_boxes`).  Every
        resident tile keyed by ``old_fingerprint`` is tested against them:

        * a tile whose world rectangle intersects *any* box is dropped — a
          changed station could be heard somewhere inside it;
        * every other tile is **re-keyed** to ``new_fingerprint`` in place
          (same backend, lattice and index; same LRU position), so requests
          against the new network hit it without recomputation.

        ``boxes=None`` is the conservative full flush: every
        ``old_fingerprint`` tile is dropped (the behaviour fingerprint
        keying alone gives).  Tiles of other fingerprints are untouched.
        Only callers that certify the box cover — normally
        :func:`repro.raster.tiles.invalidate_for_delta`, which falls back
        to ``None`` whenever it cannot — should pass a box list.

        ``old_fingerprint`` is retired and ``new_fingerprint`` un-retired (a
        network can return to an earlier configuration).  A box list also
        records this swap as the latest, replacing the one before; a full
        flush leaves no swap recorded.  A request that straddles the swap
        still asks for ``old_fingerprint`` tiles: outside the boxes it is
        served the ``new_fingerprint`` tile at the same place (the re-key
        rule, applied at lookup, so a tile computed for the new network
        after the swap serves it too); inside them, or for a fingerprint
        retired by an earlier swap, its tile is computed for the old
        network, served to it and never stored.  Only the most recent
        :data:`RETIRED_FINGERPRINTS` are remembered.

        Returns ``(rekeyed, dropped)`` counts.  Raises
        :class:`~repro.exceptions.RasterCacheError` for equal fingerprints
        or a box with a NaN coordinate (NaN overlaps nothing, so it would
        re-key every tile), before anything changes.
        """
        if new_fingerprint == old_fingerprint:
            raise RasterCacheError(
                "invalidate_region needs distinct old/new fingerprints "
                "(an unchanged network has nothing to invalidate)"
            )
        if boxes is not None:
            boxes = tuple(boxes)
            if any(math.isnan(edge) for box in boxes for edge in box):
                raise RasterCacheError(
                    f"invalidate_region boxes must not hold NaN, got {boxes!r}"
                )
        rekeyed = 0
        dropped = 0
        with self._lock:
            survivors: "OrderedDict[tuple, object]" = OrderedDict()
            for key, tile in self._store.items():
                if key[0] != old_fingerprint:
                    survivors[key] = tile
                    continue
                if boxes is None or self._tile_touches_any(key, boxes):
                    self._bytes -= tile.nbytes
                    dropped += 1
                    continue
                survivors[(new_fingerprint,) + key[1:]] = tile
                rekeyed += 1
            self._store = survivors
            self._rekeyed += rekeyed
            self._invalidated += dropped
            self._retired.pop(new_fingerprint, None)
            self._retired.pop(old_fingerprint, None)
            self._retired[old_fingerprint] = None
            if len(self._retired) > RETIRED_FINGERPRINTS:
                self._retired.popitem(last=False)
            self._swap = None
            if boxes is not None:
                self._swap = (old_fingerprint, new_fingerprint, boxes)
        return rekeyed, dropped

    @staticmethod
    def _tile_touches_any(key: tuple, boxes: Boxes) -> bool:
        """Closed-rectangle overlap of a tile key's world extent with any box.

        The key layout is the :data:`repro.raster.tiles.TileKey` tuple
        ``(fingerprint, backend, tile_size, pitch_x, phase_x, pitch_y,
        phase_y, tile_x, tile_y)``; tile ``t`` on an axis spans
        ``[phase + t * size * pitch, phase + (t + 1) * size * pitch]``,
        which contains all of its pixel centres.
        """
        size = key[2]
        pitch_x, phase_x, pitch_y, phase_y, tile_x, tile_y = key[3:9]
        xmin = phase_x + tile_x * size * pitch_x
        xmax = phase_x + (tile_x + 1) * size * pitch_x
        ymin = phase_y + tile_y * size * pitch_y
        ymax = phase_y + (tile_y + 1) * size * pitch_y
        for bx0, by0, bx1, by1 in boxes:
            if xmin <= bx1 and bx0 <= xmax and ymin <= by1 and by0 <= ymax:
                return True
        return False

    # -- introspection ---------------------------------------------------
    def stats(self) -> CacheStats:
        """A consistent snapshot of the cache counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                rejected=self._rejected,
                rekeyed=self._rekeyed,
                invalidated=self._invalidated,
                tiles=len(self._store),
                stored_bytes=self._bytes,
                max_bytes=self.max_bytes,
            )

    def metrics_sample(self) -> Dict[str, float]:
        """The counters as one flat numeric sample, derived rates included.

        The :class:`~repro.runtime.StatsSource` protocol: every
        :class:`CacheStats` field as a float, plus the derived
        ``requests`` / ``hit_rate``.
        """
        stats = self.stats()
        sample = {name: float(value) for name, value in asdict(stats).items()}
        sample["requests"] = float(stats.requests)
        sample["hit_rate"] = float(stats.hit_rate)
        return sample
