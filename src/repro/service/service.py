"""The asyncio query service fronting the locator registry.

:class:`QueryService` owns one locator (built by registry name — any name
:func:`repro.pointlocation.get_locator` accepts, including composed
``"sharded:<inner>"`` spellings — or passed pre-built) and one
:class:`~repro.service.batcher.MicroBatcher`.  Awaiting
:meth:`QueryService.locate` queues the point; the batcher answers it
together with every other query that arrived within the latency budget, as
one vectorised ``locate_batch`` call through the active engine backend.

:func:`serve_points` is the sync facade for scripts and benchmarks: it
spins up an event loop, serves an array of points through a temporary
service with maximal concurrency, and returns the ``int64`` answers.
"""

from __future__ import annotations

import asyncio
import functools
from typing import (
    TYPE_CHECKING, Any, Coroutine, Dict, Mapping, Optional, Tuple, Union,
)

import numpy as np

from ..engine.batch import PointsLike, as_points_array
from ..exceptions import ServiceClosedError, ServiceError
from ..pointlocation.registry import Locator, build_locator
from ..runtime.component import Component
from ..runtime.epoch import EpochCoordinator
from .batcher import MicroBatcher
from .stats import ServiceStats, StatsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..geometry.point import Point
    from ..model.delta import NetworkDelta
    from ..model.network import WirelessNetwork

#: One query point in any form locate() accepts.
PointLike = Union["Point", Tuple[float, float], "np.ndarray"]

__all__ = ["QueryService", "serve_points"]

#: Seconds a network swap waits for the previous epoch's batches to drain
#: before it raises :class:`~repro.exceptions.ServiceError`.
DRAIN_TIMEOUT = 30.0


def _unbuilt(points: np.ndarray) -> np.ndarray:
    """The batcher's answer function until the constructor installs the
    locator's; the batcher cannot start before then."""
    raise ServiceError("the locator is not built yet")


class QueryService(Component):
    """Micro-batched async point location over one locator.

    A :class:`~repro.runtime.Component`: ``start()`` exactly once,
    ``stop(drain=...)`` idempotent and final, usable as an async context
    manager; network swaps delegate to a per-service
    :class:`~repro.runtime.EpochCoordinator`.

    Args:
        network: the :class:`~repro.model.network.WirelessNetwork` served.
        locator: a registry name (``"voronoi"``, ``"theorem3"``,
            ``"sharded:voronoi"``, ...) or an already built locator object
            (anything with a ``locate_batch``).
        build_options: forwarded to the locator factory's ``build`` when
            ``locator`` is a name (e.g. ``{"epsilon": 0.3}`` or
            ``{"shards": 8}``).
        **batcher_options: :class:`MicroBatcher` knobs — ``latency_budget``,
            ``max_batch_size``, ``max_pending``.

    To report into a :class:`~repro.obs.MetricsHub`, register
    :meth:`metrics_sample` as a source (a :class:`~repro.runtime.Runtime`
    does so for every component it composes).

    Use as an async context manager (``async with QueryService(...)``) or
    call :meth:`start` / :meth:`stop` explicitly.  The locator is built
    eagerly in the constructor so that expensive preprocessing (e.g.
    ``theorem3``) happens before the service advertises itself as up; the
    batcher options are checked before it, so a bad one fails at once.
    """

    def __init__(
        self,
        network: "WirelessNetwork",
        locator: Union[str, Locator] = "voronoi",
        *,
        build_options: Optional[Mapping[str, object]] = None,
        **batcher_options: object,
    ) -> None:
        self.network = network
        self._batcher = MicroBatcher(_unbuilt, **batcher_options)
        if isinstance(locator, str):
            self._locator_spec: Optional[str] = locator
            self._build_options = dict(build_options or {})
            self.locator = build_locator(network, locator, **self._build_options)
            self.locator_name = locator
        else:
            if build_options:
                raise ServiceError(
                    "build_options only apply when the locator is built by name"
                )
            if not hasattr(locator, "locate_batch"):
                raise ServiceError(
                    "a pre-built locator must provide locate_batch(points)"
                )
            self._locator_spec = None
            self._build_options = {}
            self.locator = locator
            self.locator_name = getattr(locator, "name", type(locator).__name__)
        self._batcher.set_locate(self.locator.locate_batch)
        self._epoch = EpochCoordinator()

    # -- lifecycle -------------------------------------------------------
    lifecycle_error = ServiceError
    closed_error = ServiceClosedError

    async def _do_start(self) -> None:
        await self._batcher.start()

    async def _do_stop(self, drain: bool) -> None:
        await self._batcher.stop(drain=drain)

    # -- queries ---------------------------------------------------------
    def locate(self, point: "PointLike") -> Coroutine[Any, Any, int]:
        """Answer one query: the heard station's index, or ``-1`` for silence.

        Returns the batcher's ``submit`` coroutine for ``point``; await it.
        The answer is bit-identical to the locator's own ``locate_batch``
        on the same point — micro-batching regroups queries, never changes
        their answers.  A malformed point raises
        :class:`~repro.exceptions.EngineError` when awaited, before
        anything is queued.
        """
        return self._batcher.submit(point)

    async def locate_many(self, points: PointsLike) -> np.ndarray:
        """Submit a whole batch concurrently; answers in query order (int64).

        Every point becomes an individual service query (they may be split
        across several micro-batches); the returned array matches a direct
        ``locate_batch`` on the same points exactly.
        """
        pts = as_points_array(points)
        answers = await asyncio.gather(
            *(self._batcher.submit((x, y)) for x, y in pts)
        )
        return np.asarray(answers, dtype=np.int64)

    # -- epoch swaps -----------------------------------------------------
    async def swap_network(
        self,
        new_network: "WirelessNetwork",
        delta: "Optional[NetworkDelta]" = None,
        *,
        locator: Optional[Locator] = None,
    ) -> Locator:
        """Install ``new_network`` for new batches; drain the old epoch.

        The dynamic-network handoff, in three ordered steps:

        1. **Build off-loop.**  The new locator is produced on an executor
           thread (the event loop keeps sealing batches against the old
           epoch meanwhile): incrementally via the current locator's
           ``updated(new_network, delta)`` when it has one (e.g.
           :class:`~repro.pointlocation.sharded.ShardedLocator`), otherwise
           a fresh registry build with this service's original name and
           build options.  Pass ``locator=`` to install a pre-built one
           instead (then ``delta`` is unused).
        2. **Flip the epoch.**  The batcher's answer function is replaced
           atomically from the loop thread.  Batches sealed before the flip
           keep the old function (captured at seal time), batches sealed
           after use the new one — no torn reads, no mixed-epoch batch, and
           queries queued across the flip are simply answered by the new
           epoch.  ``ServiceStats.record_swap`` stamps the update latency
           (build + flip) and bumps the epoch counter.
        3. **Drain.**  The call returns only after every old-epoch batch
           has resolved its futures, so no in-flight query is lost; the
           wait is bounded by :data:`DRAIN_TIMEOUT` (30 s), after which the
           swap raises :class:`ServiceError` with the new epoch already
           installed.  Cancelling the call during the drain is safe, since
           the flip has already happened when the drain starts.

        Returns the installed locator.  Safe to call before :meth:`start`
        (it just replaces the locator).  The build-flip-record-drain
        choreography itself lives in this service's
        :class:`~repro.runtime.EpochCoordinator`.
        """
        build = None
        if locator is None:
            previous = self.locator
            if hasattr(previous, "updated"):
                build = functools.partial(previous.updated, new_network, delta)
            elif self._locator_spec is not None:
                build = functools.partial(
                    build_locator, new_network, self._locator_spec,
                    **self._build_options,
                )
            else:
                raise ServiceError(
                    "cannot rebuild an opaque pre-built locator for a new "
                    "network; pass locator= to swap_network"
                )
        elif not hasattr(locator, "locate_batch"):
            raise ServiceError(
                "a pre-built locator must provide locate_batch(points)"
            )

        def flip(built: Optional[Locator]) -> None:
            installed = built if built is not None else locator
            assert installed is not None
            self.network = new_network
            self.locator = installed
            self._batcher.set_locate(installed.locate_batch)

        async def drain() -> None:
            if self.running:
                await self._batcher.drain_inflight(timeout=DRAIN_TIMEOUT)

        built = await self._epoch.swap(
            build=build, flip=flip, drain=drain,
            record=self.stats.record_swap,
        )
        installed = built if built is not None else locator
        assert installed is not None
        return installed

    # -- introspection ---------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        return self._batcher.stats

    def stats_snapshot(self) -> StatsSnapshot:
        return self._batcher.stats.snapshot()

    def metrics_sample(self) -> Dict[str, float]:
        """Snapshot counters plus the live batcher gauges, as one flat sample.

        The :class:`~repro.runtime.StatsSource` protocol — what a metrics
        hub samples: the percentile/counter fields of :meth:`stats_snapshot`
        plus ``queue_depth``, ``inflight_batches`` and the current
        ``latency_budget``.
        """
        sample = self.stats.metrics_sample()
        sample.update(self._batcher.metrics_sample())
        return sample


def serve_points(
    network: "WirelessNetwork",
    points: PointsLike,
    locator: Union[str, Locator] = "voronoi",
    *,
    build_options: Optional[Mapping[str, object]] = None,
    return_stats: bool = False,
    **batcher_options: object,
) -> "np.ndarray | Tuple[np.ndarray, StatsSnapshot]":
    """Serve an array of points through a temporary service, synchronously.

    The script-facing facade: runs its own event loop, submits every point
    as an individual concurrent query (so micro-batching genuinely engages),
    and tears the service down cleanly.  Returns the ``int64`` answers — or
    an ``(answers, StatsSnapshot)`` pair with ``return_stats=True`` for
    harnesses that want the batching shape too.

    Must not be called while an event loop is already running in this
    thread (use :class:`QueryService` directly from async code).
    """

    async def _run():
        async with QueryService(
            network, locator, build_options=build_options, **batcher_options
        ) as service:
            answers = await service.locate_many(points)
            return answers, service.stats_snapshot()

    answers, snapshot = asyncio.run(_run())
    if return_stats:
        return answers, snapshot
    return answers
