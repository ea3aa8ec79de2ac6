"""Spans around the library's public entry points, recorded from outside.

:func:`install` replaces each entry point where its caller looks it up —
a class attribute, or a module global such as
``repro.pointlocation.sharded.received_at`` — with a wrapper that records
``(id, name, start, end, parent, thread, info)`` while the tracer is
enabled.  Parents come from a per-thread stack, so a span's children are
the spans its own call made on the same thread, and its self time is its
duration minus theirs.  Install before any service is built: the batcher
binds ``locator.locate_batch`` when it is constructed.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from harness import clock

#: ``(id, name, start, end, parent, thread, info)``; parent ``-1`` is a root.
Span = Tuple[int, str, float, float, int, int, Optional[dict]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, name: str, fn: Callable, info: Optional[Callable] = None
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                detail = None
                if info is not None and result is not None:
                    detail = info(args, result)
                tracer.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident(), detail)
                )

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Coroutine entry points interleave on the loop: always roots."""
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            span_id = next(tracer._ids)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.spans.append(
                    (span_id, name, start, clock(), -1, threading.get_ident(), None)
                )

        return traced

    def patch(self, owner: object, attr: str, name: str,
              info: Optional[Callable] = None, is_async: bool = False) -> None:
        original = getattr(owner, attr)
        if is_async:
            wrapped = self.wrap_async(name, original)
        else:
            wrapped = self.wrap(name, original, info)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, thread, detail in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread, "info": detail,
                }) + "\n")


def _points(args, result) -> dict:
    return {"points": int(len(result))}


def _verified(args, result) -> dict:
    return {"points": int(len(result)), "heard": int(np.count_nonzero(result))}


def _rebuilt(args, result) -> dict:
    report = result.last_update
    return {"rebuilt": int(report.rebuilt) if report is not None else 0}


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the workloads exercise."""
    import repro.engine.batch as engine_batch
    import repro.pointlocation.naive as naive
    import repro.pointlocation.sharded as sharded
    import repro.raster as raster
    import repro.raster.tiles as tiles
    import repro.service.raster as service_raster
    from repro.engine.backend import NumpyBackend
    from repro.engine.mixed_precision import Float32ScreenBackend
    from repro.pointlocation import ShardedLocator, VoronoiCandidateLocator
    from repro.raster import TileCache
    from repro.runtime import EpochCoordinator

    patch = tracer.patch
    patch(EpochCoordinator, "swap", "runtime.swap", is_async=True)
    patch(VoronoiCandidateLocator, "locate_batch", "pointlocation.voronoi", _points)
    patch(ShardedLocator, "locate_batch", "pointlocation.sharded", _points)
    patch(ShardedLocator, "updated", "pointlocation.updated", _rebuilt)
    patch(sharded, "station_reaches", "pointlocation.station_reaches")
    patch(sharded, "received_at", "engine.received_at", _verified)
    patch(naive, "received_at", "engine.received_at", _verified)
    patch(Float32ScreenBackend, "received_mask_at", "engine.screen")
    patch(NumpyBackend, "received_mask_at", "engine.exact")
    patch(engine_batch, "sinr_batch", "engine.sinr_batch")
    patch(raster, "rasterize_tiled", "raster.rasterize_tiled")
    patch(tiles, "compute_tile", "raster.compute_tile")
    patch(TileCache, "get_or_compute", "raster.get_or_compute")
    patch(service_raster, "invalidate_for_delta", "raster.invalidate_for_delta")


class SpanIndex:
    """Spans by name and by parent, with self-time arithmetic."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans: Dict[int, Span] = {span[0]: span for span in spans}
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans.values():
            self.by_name[span[1]].append(span)
            if span[4] >= 0:
                self.children[span[4]].append(span)

    @staticmethod
    def duration(span: Span) -> float:
        return span[3] - span[2]

    def self_time(self, span: Span) -> float:
        return self.duration(span) - sum(
            self.duration(child) for child in self.children[span[0]]
        )

    def child_time(self, span: Span, name: str) -> float:
        return sum(
            self.duration(child) for child in self.children[span[0]]
            if child[1] == name
        )

    def named(self, name: str, parent: Optional[str] = None,
              root: bool = False) -> List[Span]:
        """Spans called ``name``; only roots, or only those under a
        ``parent``-named span, when asked."""
        found = self.by_name.get(name, [])
        if root:
            return [span for span in found if span[4] < 0]
        if parent is not None:
            return [
                span for span in found
                if span[4] >= 0 and self.spans[span[4]][1] == parent
            ]
        return list(found)

    def descendants(self, span: Span, name: str) -> int:
        count = 0
        for child in self.children[span[0]]:
            count += (child[1] == name) + self.descendants(child, name)
        return count


def p50_ms(values: Iterable[float]) -> float:
    """Median of seconds, in ms; 0 for a layer the workload never entered."""
    values = list(values)
    return float(np.median(values)) * 1e3 if values else 0.0
