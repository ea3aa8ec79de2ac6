"""Epoch coordination: the one swap protocol behind ``QueryService.swap_network``.

:class:`EpochCoordinator` writes the "build the replacement off-loop, flip
atomically, record, drain the old epoch" choreography once; the service
delegates to it and keeps only what is genuinely its own (what to build,
what a flip installs, what a drain awaits).

The guarantees the coordinator preserves:

* **seal-time answer capture** — the flip runs synchronously on the event
  loop thread, so batches sealed before it keep the answer function
  captured at their seal time and batches sealed after use the new one;
  no batch ever mixes epochs;
* **off-loop builds** — the build callable runs on an executor thread
  under a copy of the caller's :mod:`contextvars` context, so the engine
  backend selection governs the build while the loop keeps sealing
  batches against the old epoch;
* **update-latency accounting** — ``record`` receives build + flip
  seconds, measured before the drain starts: draining overlaps new-epoch
  service and would double-count in-flight engine time.
"""

from __future__ import annotations

import asyncio
import contextvars
from typing import Awaitable, Callable, Optional, TypeVar

__all__ = ["EpochCoordinator"]

T = TypeVar("T")


class EpochCoordinator:
    """Runs one component's network swaps (see the module docstring).

    One coordinator belongs to one owner — services do not share
    coordinators, exactly as their epochs, batchers and stats are
    per-service by design.
    """

    __slots__ = ()

    async def swap(
        self,
        *,
        flip: Callable[[Optional[T]], None],
        build: Optional[Callable[[], T]] = None,
        drain: Optional[Callable[[], Awaitable[None]]] = None,
        record: Optional[Callable[[float], None]] = None,
    ) -> Optional[T]:
        """Run one full swap: build off-loop, flip, record, drain.

        ``build`` (optional) runs on an executor thread under a copy of
        the current context and its result is handed to ``flip``; with no
        ``build``, ``flip(None)`` installs whatever the caller prepared.
        ``record`` receives the build + flip seconds before the drain
        begins; ``drain`` (optional) awaits the old epoch.  Returns the
        built value (``None`` without a ``build``).
        """
        loop = asyncio.get_running_loop()
        started = loop.time()
        built: Optional[T] = None
        if build is not None:
            # Context.run cannot be entered concurrently from two threads,
            # so the build runs a fresh copy of the caller's context (the
            # same convention as batch dispatch).
            context = contextvars.copy_context()
            built = await loop.run_in_executor(None, context.run, build)
        flip(built)
        if record is not None:
            record(loop.time() - started)
        if drain is not None:
            await drain()
        return built
