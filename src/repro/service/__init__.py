"""repro.service — the asyncio micro-batching query service.

Scalar point-location queries arriving one by one (the "millions of users"
traffic shape) would each pay a full Python-call round trip into the engine.
This package amortises them: an asyncio front accumulates concurrent
``locate`` awaitables for a small latency budget (default 2 ms) or until a
batch-size cap, answers the whole group as **one** vectorised
``locate_batch`` call through the active engine backend, and resolves each
submitter's future with its own answer.  Answers are bit-identical to
calling ``locate_batch`` directly on the same points — batching regroups
queries, never changes them — and the property tests in
``tests/test_service.py`` enforce exactly-once delivery under concurrent
submitters, cancellation, and shutdown.

The pieces
==========

:class:`MicroBatcher`
    The batching core: accumulation window, backpressure
    (``max_pending``), cancellation-safe future resolution, clean
    drain/abort shutdown.
:class:`QueryService`
    One locator (any :func:`repro.pointlocation.get_locator` name,
    including ``"sharded:<inner>"`` compositions, or a pre-built object)
    behind a batcher, with per-service :class:`ServiceStats` (batches,
    mean batch size, wait and latency p50/p99).
:func:`serve_points`
    Sync facade for scripts: serve an ``(m, 2)`` array through a temporary
    service and return the ``int64`` answers.
:class:`RasterService`
    The raster endpoint: ``SINRDiagram.rasterize`` requests served through
    a shared :class:`repro.raster.TileCache` on executor threads, so
    concurrent zoom/pan clients reuse each other's tiles (responses stay
    bit-identical to the uncached rasteriser).

Both services implement ``metrics_sample()``; a
:class:`~repro.runtime.Runtime` registers it with its metrics hub, or call
``hub.add_source(name, service.metrics_sample)`` directly.

The engine backend active when the service **starts** is captured (a
:mod:`contextvars` context copy) and used for every batch, which runs on
the batcher's one dispatch thread.  ``numpy`` (the default) and
``float32-screen`` fit the service's typical micro-batch sizes.

Quick use::

    from repro.service import QueryService

    async with QueryService(network, "sharded:voronoi",
                            build_options={"shards": 8},
                            latency_budget=0.002) as service:
        station = await service.locate((3.0, 4.0))   # -1 when silent
"""

from .batcher import (
    DEFAULT_LATENCY_BUDGET,
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_PENDING,
    MicroBatcher,
)
from .raster import RasterService
from .service import QueryService, serve_points
from .stats import ServiceStats, StatsSnapshot

__all__ = [
    "DEFAULT_LATENCY_BUDGET",
    "DEFAULT_MAX_BATCH_SIZE",
    "DEFAULT_MAX_PENDING",
    "MicroBatcher",
    "QueryService",
    "RasterService",
    "ServiceStats",
    "StatsSnapshot",
    "serve_points",
]
