"""The async raster endpoint: cached tiles behind concurrent zoom/pan traffic.

:class:`RasterService` owns one network and one
:class:`~repro.raster.TileCache` and serves ``rasterize`` requests from
asyncio clients.  Each request runs on an event-loop executor thread (the
tile computation is CPU-bound numpy work that would otherwise stall every
other coroutine), under a :mod:`contextvars` context captured at
construction — so the engine backend selected when the service was created
is the one that computes missing tiles, mirroring the
:class:`~repro.service.batcher.MicroBatcher` contract.

The cache is thread-safe and single-flights concurrent misses, so a burst
of overlapping zoom/pan requests computes every shared tile exactly once
and each response is bit-identical to an uncached
``SINRDiagram.rasterize`` of the same box.  Requests run on the event
loop's default executor, which bounds how many compute at once.
"""

from __future__ import annotations

import asyncio
import contextvars
from functools import partial
from typing import Optional

from ..exceptions import RasterCacheError, ServiceClosedError, ServiceError
from ..model.diagram import RasterDiagram, SINRDiagram
from ..raster import CacheStats, TileCache, invalidate_for_delta
from ..runtime.component import Component

__all__ = ["RasterService"]


class RasterService(Component):
    """Cached rasterisation of one network for concurrent async clients.

    A :class:`~repro.runtime.Component` with a *passive* startup: the
    service answers requests straight from construction (it owns no tasks),
    so ``start()`` is optional and exists for uniform composition — a
    :class:`~repro.runtime.Runtime` can boot and retire it like any other
    component.  ``stop()`` is final: further requests raise
    :class:`~repro.exceptions.ServiceClosedError`.

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
        self.diagram = SINRDiagram(network)
        self.cache = cache
        # Captured once so every executor-thread rasterisation sees the
        # engine-backend selection active when the service was built.
        self._context = contextvars.copy_context()

    # -- lifecycle -------------------------------------------------------
    lifecycle_error = ServiceError
    closed_error = ServiceClosedError

    # -- queries ---------------------------------------------------------
    async def rasterize(
        self, lower_left, upper_right, resolution: int = 200
    ) -> RasterDiagram:
        """Serve one raster request through the shared tile cache.

        Bit-identical to ``SINRDiagram.rasterize(lower_left, upper_right,
        resolution)`` on the same box; concurrent requests share tile
        computation through the cache's single-flight path.
        """
        self._ensure_open()
        # Context.run cannot be entered concurrently from two threads, so
        # each request runs a fresh copy of the captured context (the same
        # convention as the MicroBatcher's dispatch workers).
        call = partial(
            self._context.copy().run,
            partial(
                self.diagram.rasterize,
                lower_left,
                upper_right,
                resolution,
                cache=self.cache,
            ),
        )
        return await asyncio.get_running_loop().run_in_executor(None, call)

    # -- network swaps ---------------------------------------------------
    def swap_network(self, new_network, delta=None) -> tuple:
        """Serve ``new_network`` from now on, keeping certifiably valid tiles.

        Applies :func:`repro.raster.invalidate_for_delta` to the backing
        cache — tiles no changed station's certified reach can touch are
        re-keyed to the new network's fingerprint, overlapping tiles are
        dropped (a full drop when re-keying cannot be justified; see that
        function for the exact contract and its label caveat) — then
        installs the new network and diagram.  Returns the
        ``(rekeyed, dropped)`` counts.  Rasters served after the swap
        compute their SINR values from the new network, so those are
        exact; re-keyed labels may drift at other stations' zone
        boundaries.

        Synchronous and lock-protected inside the cache, so it is safe to
        call from async code between requests; requests already running on
        executor threads hold their tiles by reference and complete against
        the network they started with.  The tiles such a request computes
        are served to it but not stored, because the swap retired the old
        network's fingerprint.
        """
        self._ensure_open()
        if new_network.fingerprint != self.network.fingerprint:
            counts = invalidate_for_delta(
                self.cache, self.network, new_network, delta
            )
        else:
            counts = (0, 0)
        self.network = new_network
        self.diagram = SINRDiagram(new_network)
        return counts

    # -- introspection ---------------------------------------------------
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the backing tile cache."""
        return self.cache.stats()

    def metrics_sample(self) -> "dict[str, float]":
        """The backing cache's sample (:class:`~repro.runtime.StatsSource`)."""
        return self.cache.metrics_sample()
