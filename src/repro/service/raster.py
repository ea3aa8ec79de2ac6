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
``SINRDiagram.rasterize`` of the same box.  An optional semaphore bounds
how many rasterisations may run concurrently (defence against a client
fanning out hundreds of cold requests at once).
"""

from __future__ import annotations

import asyncio
import contextvars
import weakref
from functools import partial
from typing import Callable, Optional

from ..exceptions import ServiceClosedError, ServiceError
from ..model.diagram import RasterDiagram, SINRDiagram
from ..raster import CacheStats, TileCache, invalidate_for_delta
from ..raster.cache import DEFAULT_MAX_BYTES, DEFAULT_TILE_SIZE
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
            services over the same network), or ``None`` to create a
            private one from ``max_bytes`` / ``tile_size``.  One cache
            follows one network lineage: a swap retires the old network's
            fingerprint in the cache, so services sharing a cache must
            swap together.
        max_bytes, tile_size: configuration of the private cache; passing
            them together with an explicit ``cache`` is an error.
        max_concurrency: optional cap on simultaneously running
            rasterisations (``None`` leaves scheduling to the executor).
    """

    def __init__(
        self,
        network,
        *,
        cache: Optional[TileCache] = None,
        max_bytes: Optional[int] = None,
        max_concurrency: Optional[int] = None,
        tile_size: Optional[int] = None,
    ):
        if cache is not None and (max_bytes is not None or tile_size is not None):
            raise ServiceError(
                "pass either an explicit cache or max_bytes/tile_size, not both"
            )
        if cache is None:
            cache = TileCache(
                max_bytes=DEFAULT_MAX_BYTES if max_bytes is None else max_bytes,
                tile_size=DEFAULT_TILE_SIZE if tile_size is None else tile_size,
            )
        if max_concurrency is not None and max_concurrency < 1:
            raise ServiceError(
                f"max_concurrency must be at least 1, got {max_concurrency}"
            )
        self.network = network
        self.diagram = SINRDiagram(network)
        self.cache = cache
        self._max_concurrency = max_concurrency
        # asyncio primitives bind to the loop they were created under, and
        # one long-lived service may be driven from several asyncio.run
        # calls — so the concurrency semaphore is created per event loop
        # (weakly keyed: a closed loop releases its semaphore with it).
        self._semaphores: "weakref.WeakKeyDictionary[asyncio.AbstractEventLoop, asyncio.Semaphore]" = (
            weakref.WeakKeyDictionary()
        )
        # Captured once so every executor-thread rasterisation sees the
        # engine-backend selection active when the service was built.
        self._context = contextvars.copy_context()

    # -- lifecycle -------------------------------------------------------
    lifecycle_error = ServiceError
    closed_error = ServiceClosedError

    async def _run_bounded(self, call: Callable):
        """Run ``call`` on an executor thread, under the concurrency cap."""
        loop = asyncio.get_running_loop()
        if self._max_concurrency is None:
            return await loop.run_in_executor(None, call)
        semaphore = self._semaphores.get(loop)
        if semaphore is None:
            semaphore = asyncio.Semaphore(self._max_concurrency)
            self._semaphores[loop] = semaphore
        async with semaphore:
            return await loop.run_in_executor(None, call)

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
        return await self._run_bounded(call)

    async def summary(self, resolution: int = 300) -> dict:
        """The diagram's :meth:`~repro.model.diagram.SINRDiagram.summary`,
        with its raster served from the tile cache (and counted against
        the same ``max_concurrency`` bound as :meth:`rasterize`)."""
        self._ensure_open()
        call = partial(
            self._context.copy().run,
            partial(self.diagram.summary, resolution, cache=self.cache),
        )
        return await self._run_bounded(call)

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
