"""The async raster endpoint: cached tiles behind concurrent zoom/pan traffic.

:class:`RasterService` owns one network and one
:class:`~repro.raster.TileCache` and serves ``rasterize`` requests from
asyncio clients.  A request builds its pixel lattices on the event-loop
thread (a bad box or resolution fails there, before any tile work) and
asks the cache for all of its tiles at once.  When every tile is resident
the raster is assembled right there, on the loop thread: a full hit is a
label copy, cheaper than the hand-off to another thread.  Only a request
with a missing tile goes to an event-loop executor thread, because tile
computation is CPU-bound numpy work that would otherwise stall every
other coroutine; the loop thread never computes a tile.  Both paths run
under a copy of the :mod:`contextvars` context captured at construction —
so the engine backend selected when the service was created is the one
that computes missing tiles, mirroring the
:class:`~repro.service.batcher.MicroBatcher` contract.

The cache is thread-safe and single-flights concurrent misses, so a burst
of overlapping zoom/pan requests computes every shared tile exactly once.
Until the first :meth:`RasterService.swap_network`, each response is
bit-identical to an uncached ``SINRDiagram.rasterize`` of the same box;
after a move, re-keyed tiles carry the label caveat that
:func:`~repro.raster.invalidate_for_delta` documents.  Requests with
missing tiles run on the event loop's default executor, which bounds how
many compute at once.
"""

from __future__ import annotations

import asyncio
import contextvars
from functools import partial
from typing import Optional

from .. import raster
from ..exceptions import RasterCacheError, ServiceClosedError, ServiceError
from ..model.diagram import RasterDiagram, raster_lattices
from ..raster import CacheStats, TileCache, invalidate_for_delta, resident_tiles
from ..runtime.component import Component

__all__ = ["RasterService"]


class RasterService(Component):
    """Cached rasterisation of one network for concurrent async clients.

    A :class:`~repro.runtime.Component` with a *passive* startup: the
    service answers requests straight from construction (it owns no tasks),
    so ``start()`` is optional and exists for uniform composition — a
    :class:`~repro.runtime.Runtime` can boot and retire it like any other
    component.  ``stop()`` is final: further requests raise
    :class:`~repro.exceptions.ServiceClosedError`.  Only requests with a
    missing tile use the event loop's executor; a full hit is assembled on
    the loop thread.

    Args:
        network: the :class:`~repro.model.network.WirelessNetwork` served.
        cache: a :class:`~repro.raster.TileCache` to share (e.g. with other
            services over the same network, or a small-tile cache), or
            ``None`` for a private default one.  One cache follows one
            network lineage: a swap retires the old network's fingerprint
            in the cache, so services sharing a cache must swap together.
    """

    def __init__(self, network, *, cache: Optional[TileCache] = None):
        if cache is None:
            cache = TileCache()
        elif not isinstance(cache, TileCache):
            raise RasterCacheError(
                f"cache must be a repro.raster.TileCache or None, got {cache!r}"
            )
        self.network = network
        self.cache = cache
        # Captured once so every rasterisation, on the loop thread or an
        # executor thread, sees the engine-backend selection active when
        # the service was built.
        self._context = contextvars.copy_context()

    # -- lifecycle -------------------------------------------------------
    lifecycle_error = ServiceError
    closed_error = ServiceClosedError

    # -- queries ---------------------------------------------------------
    async def rasterize(
        self, lower_left, upper_right, resolution: int = 200
    ) -> RasterDiagram:
        """Serve one raster request through the shared tile cache.

        Until the first :meth:`swap_network`, bit-identical to
        ``SINRDiagram.rasterize(lower_left, upper_right, resolution)`` on
        the same box (after it, see that method).  Concurrent requests
        share tile computation through the cache's single-flight path.  A
        request whose tiles are all resident is assembled on the calling
        event-loop thread; one with a missing tile goes to the default
        executor.  Either way it makes one
        :func:`~repro.raster.rasterize_tiled` call, handed the tile layout
        and the tiles that the loop thread's lookup found.
        """
        self._ensure_open()
        network, cache = self.network, self.cache
        lattice_x, lattice_y = raster_lattices(lower_left, upper_right, resolution)
        # Context.run cannot be entered concurrently from two threads, so
        # each request runs a fresh copy of the captured context (the same
        # convention as the MicroBatcher's dispatch workers).
        run = self._context.copy().run
        resident = run(resident_tiles, network, lattice_x, lattice_y, cache)
        # Looked up on the package at each call, as SINRDiagram.rasterize
        # does, so a wrapper installed there (perfbench's tracer) sees
        # every request.
        call = partial(
            run, raster.rasterize_tiled, network, lattice_x, lattice_y, cache,
            resident,
        )
        if resident.tiles is not None:
            return call()
        return await asyncio.get_running_loop().run_in_executor(None, call)

    # -- network swaps ---------------------------------------------------
    def swap_network(self, new_network, delta=None) -> tuple:
        """Serve ``new_network`` from now on, keeping certifiably valid tiles.

        Applies :func:`repro.raster.invalidate_for_delta` to the backing
        cache — tiles no changed station's certified reach can touch are
        re-keyed to the new network's fingerprint, overlapping tiles are
        dropped (a full drop when re-keying cannot be justified; see that
        function for the exact contract and its label caveat) — then
        installs the new network.  Returns the
        ``(rekeyed, dropped)`` counts.  Rasters served after the swap
        compute their SINR values from the new network, so those are
        exact; re-keyed labels may drift at other stations' zone
        boundaries.

        Synchronous and lock-protected inside the cache, so it is safe to
        call from async code between requests; requests already running on
        executor threads hold their tiles by reference and complete against
        the network they started with.  Such a request is served the new
        network's tile wherever the swap re-keyed, so its labels carry the
        same caveat; it computes only the tiles inside the swap's boxes,
        and those are served to it but not stored, because the swap
        retired the old network's fingerprint.
        """
        self._ensure_open()
        if new_network.fingerprint != self.network.fingerprint:
            counts = invalidate_for_delta(
                self.cache, self.network, new_network, delta
            )
        else:
            counts = (0, 0)
        self.network = new_network
        return counts

    # -- introspection ---------------------------------------------------
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the backing tile cache."""
        return self.cache.stats()

    def metrics_sample(self) -> "dict[str, float]":
        """The backing cache's sample (:class:`~repro.runtime.StatsSource`)."""
        return self.cache.metrics_sample()
