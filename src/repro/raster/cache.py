"""The thread-safe LRU tile store behind cached rasterisation.

:class:`TileCache` maps :data:`~repro.raster.tiles.TileKey` tuples to
computed tiles — read-only label arrays — under a configurable byte
budget, evicting least-recently-used tiles when the budget is exceeded.
It is safe to share one cache between threads (and hence between
the event-loop executor threads of the service's raster endpoint): lookups
and insertions are serialised by a lock, while tile *computation* happens
outside it.  Concurrent requests for the same missing tile are
single-flighted — one caller computes, the others wait for the result —
so a burst of overlapping zoom/pan requests never computes a tile twice.

Statistics (:class:`CacheStats`) count hits, misses, evictions and
rejections (tiles computed but never stored: larger than the whole budget,
or keyed by a retired fingerprint), plus the resident tile count and byte
total.

One cache follows one network lineage.  :meth:`TileCache.invalidate_region`
retires the fingerprint a swap moves away from, so services that share a
cache must swap together: a service still serving a retired network would
get every tile computed and none stored.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..exceptions import RasterCacheError

__all__ = [
    "CacheStats",
    "TileCache",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_TILE_SIZE",
    "default_cache",
    "resolve_cache",
]

#: Default byte budget: 8192 tiles of 64 pixels, since such a tile is a
#: 32 KiB label block whatever the station count.
DEFAULT_MAX_BYTES = 256 * 2**20

#: Default tile side length, in pixels.  Small enough that a request only
#: over-computes a thin margin beyond its box, large enough that the
#: per-tile engine call still amortises its dispatch overhead.
DEFAULT_TILE_SIZE = 64

#: How many of the most recently retired fingerprints a cache remembers.
#: A request still running after this many further swaps stores its tiles
#: like any other request, and the LRU evicts them.
RETIRED_FINGERPRINTS = 32


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of one :class:`TileCache`'s counters.

    Attributes:
        hits: lookups answered from the store (including callers that
            waited on another thread's in-flight computation).
        misses: lookups that had to compute the tile.
        evictions: tiles dropped to get back under the byte budget.
        rejected: computed tiles never stored: the tile alone exceeds the
            whole budget, or its fingerprint was retired by
            :meth:`TileCache.invalidate_region` (a request that straddled
            a swap computed it for a network no longer served).
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
        if max_bytes <= 0:
            raise RasterCacheError(
                f"the tile-cache byte budget must be positive, got {max_bytes}"
            )
        if tile_size < 1:
            raise RasterCacheError(
                f"the tile size must be at least 1 pixel, got {tile_size}"
            )
        self.max_bytes = int(max_bytes)
        self.tile_size = int(tile_size)
        self._lock = threading.Lock()
        self._store: "OrderedDict[tuple, object]" = OrderedDict()
        self._in_flight: Dict[tuple, threading.Event] = {}
        # Fingerprints invalidate_region moved away from, oldest first.
        self._retired: "OrderedDict[str, None]" = OrderedDict()
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

        Concurrent misses of the same key are single-flighted: exactly one
        caller runs ``factory`` (outside the lock), the rest wait and then
        re-check the store.  If the computed tile was rejected or already
        evicted by the time a waiter wakes (pathologically small budgets, or
        a fingerprint retired mid-request), the waiter simply computes its
        own copy — correctness never depends on residency.
        """
        while True:
            with self._lock:
                tile = self._store.get(key)
                if tile is not None:
                    self._store.move_to_end(key)
                    self._hits += 1
                    return tile
                event = self._in_flight.get(key)
                if event is None:
                    event = threading.Event()
                    self._in_flight[key] = event
                    owner = True
                else:
                    owner = False
            if not owner:
                event.wait()
                with self._lock:
                    tile = self._store.get(key)
                    if tile is not None:
                        self._store.move_to_end(key)
                        self._hits += 1
                        return tile
                # Rejected / evicted / failed before we woke: compute our own.
                continue
            try:
                tile = factory()
            except BaseException:
                # Wake waiters so nobody blocks forever; they re-check the
                # store, find nothing, and retry the computation themselves.
                with self._lock:
                    self._in_flight.pop(key, None)
                event.set()
                raise
            with self._lock:
                self._misses += 1
                self._insert_locked(key, tile)
                self._in_flight.pop(key, None)
            event.set()
            return tile

    def _insert_locked(self, key: tuple, tile) -> None:
        """Store ``tile`` and evict LRU entries back under budget.

        A tile larger than the whole budget, or keyed by a retired
        fingerprint, is not stored and counts as rejected; the caller still
        serves it.  The ``_locked`` suffix is the lock-discipline convention
        (reprolint RL002): the caller holds ``self._lock`` for the whole
        call.
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
        boxes: Optional[Sequence[Tuple[float, float, float, float]]],
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
        network can return to an earlier configuration): from now on a tile
        computed for the old network, by a request that straddled the swap,
        is served to that request but never stored.  Only the most recent
        :data:`RETIRED_FINGERPRINTS` are remembered.

        Returns ``(rekeyed, dropped)`` counts.
        """
        if new_fingerprint == old_fingerprint:
            raise RasterCacheError(
                "invalidate_region needs distinct old/new fingerprints "
                "(an unchanged network has nothing to invalidate)"
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
        return rekeyed, dropped

    @staticmethod
    def _tile_touches_any(
        key: tuple, boxes: Sequence[Tuple[float, float, float, float]]
    ) -> bool:
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

    def clear(self) -> None:
        """Drop every resident tile (counters other than bytes/tiles remain)."""
        with self._lock:
            self._store.clear()
            self._bytes = 0


# -- the process-wide default cache --------------------------------------
_default_cache: Optional[TileCache] = None
_default_cache_lock = threading.Lock()


def default_cache() -> TileCache:
    """The process-wide default :class:`TileCache` (created on first use).

    This is the cache ``rasterize(..., cache=True)`` uses; long-lived
    deployments that want a different budget should build their own
    :class:`TileCache` and pass it explicitly.
    """
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None:
            _default_cache = TileCache()
        return _default_cache


def resolve_cache(cache) -> TileCache:
    """Normalise a ``cache=`` argument: ``True`` means the process default."""
    if cache is True:
        return default_cache()
    if isinstance(cache, TileCache):
        return cache
    raise RasterCacheError(
        "cache must be a repro.raster.TileCache or True (the process "
        f"default), got {cache!r}"
    )
