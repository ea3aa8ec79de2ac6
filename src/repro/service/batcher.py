"""The micro-batching core of the async query service.

A :class:`MicroBatcher` turns many concurrent ``await submit(point)`` calls
into few vectorised ``locate_batch`` calls.  Submitted queries accumulate in
an in-loop queue; a batch is *sealed* (handed to the engine) as soon as
either

* the **latency budget** expires, measured from the submission of the
  oldest query in the accumulating batch (default 2 ms), or
* the batch reaches **max_batch_size** queries,

whichever comes first.  Each submitter's future is resolved with exactly its
own answer from the batch array, so the answers are bit-identical to calling
``locate_batch`` on the same points directly — locators never couple two
query points, which is what makes regrouping sound.

Concurrency contract
====================

* every successfully submitted query is answered exactly once — resolved
  with its own answer, failed with the engine's exception, or failed with
  :class:`~repro.exceptions.ServiceClosedError` on a non-draining shutdown;
* a submitter cancelling its ``submit`` call never disturbs the rest of its
  batch: the cancelled entry is skipped at seal/resolution time;
* **backpressure**: at most ``max_pending`` queries may be queued or in
  flight; further ``submit`` calls wait (asynchronously) for capacity;
* the engine call runs on one dedicated worker thread, so the event loop
  keeps accumulating and sealing batches on schedule while the engine
  computes;
* the :mod:`contextvars` context captured at :meth:`start` is used for
  every engine call, so a ``use_backend(...)`` selection made before
  starting the service applies to dispatched batches even though they
  execute on another thread;
* **epoch capture**: every batch is answered by the ``locate`` function
  installed *when the batch was sealed*.  :meth:`MicroBatcher.set_locate`
  (the serving side of a network swap) therefore never produces a
  mixed-epoch batch — already sealed batches drain against the old
  function, batches sealed afterwards use the new one, and
  :meth:`MicroBatcher.drain_inflight` awaits the boundary.
"""

from __future__ import annotations

import asyncio
import contextvars
import math
import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ServiceClosedError, ServiceError, positive_int
from ..runtime.component import Component
from .stats import ServiceStats

__all__ = [
    "MicroBatcher",
    "DEFAULT_LATENCY_BUDGET",
    "DEFAULT_MAX_BATCH_SIZE",
    "DEFAULT_MAX_PENDING",
]

#: Default accumulation window, in seconds, from the oldest queued query.
DEFAULT_LATENCY_BUDGET = 0.002

#: Default cap on the number of queries sealed into one engine call.
DEFAULT_MAX_BATCH_SIZE = 1024

#: Default backpressure bound on queued + in-flight queries.
DEFAULT_MAX_PENDING = 8192


class _Entry:
    """One submitted query: its coordinates, future, and submission time."""

    __slots__ = ("x", "y", "future", "submitted_at")

    def __init__(self, x: float, y: float, future: "asyncio.Future[int]",
                 submitted_at: float):
        self.x = x
        self.y = y
        self.future = future
        self.submitted_at = submitted_at


def _budget(value: object) -> float:
    """``value`` as a finite ``float`` >= 0; a bool or a non-real value
    (a string, ``None``) is refused."""
    budget = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            budget = float(value)
        except OverflowError:
            budget = math.inf
    # A nan or infinite budget would arm a deadline that never fires,
    # leaving a lone query queued forever.
    if not (math.isfinite(budget) and budget >= 0.0):
        raise ServiceError(
            f"latency_budget must be a finite number >= 0, got {value!r}"
        )
    return budget


def _point_coordinates(point) -> Tuple[float, float]:
    """Coerce a Point / ``(x, y)`` pair / length-2 array into two floats."""
    x = getattr(point, "x", None)
    if x is not None:
        return float(x), float(point.y)
    x, y = point
    return float(x), float(y)


class MicroBatcher(Component):
    """Accumulate async point queries and answer them in vectorised batches.

    A :class:`~repro.runtime.Component`: ``start()`` exactly once,
    ``stop(drain=...)`` idempotent and final, usable as an async context
    manager; lifecycle misuse raises :class:`ServiceError` and use after
    close raises :class:`ServiceClosedError`.

    Args:
        locate: the batch answer function — ``locate(points)`` takes an
            ``(m, 2)`` float array and returns ``m`` int64 answers (any
            registered locator's ``locate_batch`` bound method fits).
        latency_budget: seconds a query may wait for batch-mates, measured
            from the oldest queued query; ``0.0`` seals immediately.
        max_batch_size: seal as soon as this many queries have accumulated.
        max_pending: backpressure bound on queued + in-flight queries.

    The budget must be a finite real number >= 0 (a bool is not one) and
    is stored as a ``float``; both counts must be integers >= 1 (a bool
    is not one).  Anything else raises :class:`ServiceError`.
    The batcher records into its own :class:`~repro.service.stats.ServiceStats`
    (``stats``).
    """

    def __init__(
        self,
        locate: Callable[[np.ndarray], np.ndarray],
        *,
        latency_budget: float = DEFAULT_LATENCY_BUDGET,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_pending: int = DEFAULT_MAX_PENDING,
    ):
        self._locate = locate
        self.latency_budget = _budget(latency_budget)
        self.max_batch_size = positive_int(
            "max_batch_size", max_batch_size, ServiceError
        )
        self.max_pending = positive_int("max_pending", max_pending, ServiceError)
        self.stats = ServiceStats()

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Deque[_Entry] = deque()
        self._capacity: Optional[asyncio.Semaphore] = None
        self._wake: Optional[asyncio.Event] = None
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._inflight: set = set()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._context: Optional[contextvars.Context] = None

    # -- lifecycle -------------------------------------------------------
    lifecycle_error = ServiceError
    closed_error = ServiceClosedError

    async def _do_start(self) -> None:
        """Bind to the running event loop and start the dispatcher task.

        Captures the current :mod:`contextvars` context, so engine backend /
        locator selections active *now* govern every dispatched batch.
        """
        self._loop = asyncio.get_running_loop()
        self._capacity = asyncio.Semaphore(self.max_pending)
        self._wake = asyncio.Event()
        self._context = contextvars.copy_context()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-dispatch"
        )
        self._dispatcher = self._loop.create_task(
            self._dispatch_loop(), name="repro-service-batcher"
        )

    async def _do_stop(self, drain: bool) -> None:
        """Shut down; ``drain=True`` answers everything pending first.

        Draining seals all queued queries immediately (the latency budget no
        longer applies) and waits for in-flight engine calls to resolve
        their futures.  ``drain=False`` aborts instead: queued and in-flight
        queries fail with :class:`ServiceClosedError`.  Either way, new
        ``submit`` calls raise once ``stop`` has begun, and the batcher
        cannot be restarted.
        """
        if self._dispatcher is None:
            return
        self._wake.set()
        if drain:
            await self._dispatcher
            if self._inflight:
                await asyncio.gather(*list(self._inflight), return_exceptions=True)
        else:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            error = ServiceClosedError("service stopped without draining")
            while self._queue:
                entry = self._queue.popleft()
                if not entry.future.done():
                    entry.future.set_exception(error)
                    self.stats.record_failed()
                else:  # cancelled by its submitter while still queued
                    self.stats.record_cancelled()
            for task in list(self._inflight):
                task.cancel()
            if self._inflight:
                await asyncio.gather(*list(self._inflight), return_exceptions=True)
        self._executor.shutdown(wait=drain, cancel_futures=not drain)
        self._executor = None
        self._dispatcher = None

    # -- gauges ----------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Queries queued but not yet sealed into a batch."""
        return len(self._queue)

    @property
    def inflight_batches(self) -> int:
        """Sealed batches whose engine call has not resolved yet.

        A value persistently above one means batches are being sealed
        faster than the dispatch thread answers them.
        """
        return len(self._inflight)

    def metrics_sample(self) -> "dict[str, float]":
        """The live gauges, as one :class:`~repro.runtime.StatsSource` sample."""
        return {
            "queue_depth": float(self.queue_depth),
            "inflight_batches": float(self.inflight_batches),
            "latency_budget": float(self.latency_budget),
        }

    # -- epoch handoff ---------------------------------------------------
    def set_locate(self, locate: Callable[[np.ndarray], np.ndarray]) -> None:
        """Install a new batch answer function for *subsequently sealed* batches.

        Must be called from the event-loop thread (like every other mutation
        here).  Batches already sealed keep the function captured at their
        seal time, so no batch ever mixes answers from two epochs; queued
        but unsealed queries are answered by the new function.
        """
        self._locate = locate

    async def drain_inflight(self, timeout: Optional[float] = None) -> None:
        """Wait until every batch sealed so far has resolved its futures.

        The epoch-swap barrier: after :meth:`set_locate`, awaiting this
        guarantees no batch against the previous function is still running.
        Batches sealed *after* the call are not waited on.  Raises
        :class:`ServiceError` when ``timeout`` (seconds) expires first.
        """
        pending = [task for task in self._inflight if not task.done()]
        if not pending:
            return
        _, not_done = await asyncio.wait(pending, timeout=timeout)
        if not_done:
            raise ServiceError(
                f"{len(not_done)} in-flight batches still running after "
                f"{timeout:g}s drain timeout"
            )

    # -- submission ------------------------------------------------------
    async def submit(self, point) -> int:
        """Queue one point and await its station index (``-1`` for silence).

        Applies backpressure: when ``max_pending`` queries are outstanding,
        this call waits for capacity before queueing.  Raises
        :class:`ServiceClosedError` if the batcher is not accepting queries,
        including when shutdown begins while this call is waiting.
        """
        x, y = _point_coordinates(point)
        if not self.running:
            raise ServiceClosedError("the query service is not accepting queries")
        await self._capacity.acquire()
        try:
            if self.closed:
                raise ServiceClosedError(
                    "the query service closed while this query waited for capacity"
                )
            future: "asyncio.Future[int]" = self._loop.create_future()
            self._queue.append(_Entry(x, y, future, self._loop.time()))
            self.stats.record_submitted()
            # Wake the dispatcher only at the two boundaries it acts on: a
            # queue going non-empty (a new deadline must be armed) and a
            # queue reaching the batch cap (seal early).  In-between
            # arrivals ride the already armed deadline timer instead of
            # paying a dispatcher round trip per query.
            if len(self._queue) == 1 or len(self._queue) >= self.max_batch_size:
                self._wake.set()
            return await future
        finally:
            # Sole release point: runs when the future resolves, fails, or
            # the submitter itself is cancelled — capacity counts queued
            # plus in-flight queries and is never released twice.
            self._capacity.release()

    # -- dispatcher ------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = self._loop
        while True:
            # Clear *before* checking, so a submit landing between the check
            # and the wait is never missed (no await separates clear/check).
            self._wake.clear()
            if not self._queue:
                if self.closed:
                    return
                await self._wake.wait()
                continue
            while not self.closed and len(self._queue) < self.max_batch_size:
                deadline = self._queue[0].submitted_at + self.latency_budget
                remaining = deadline - loop.time()
                if remaining <= 0.0:
                    break
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), remaining)
                except asyncio.TimeoutError:
                    break
            self._seal_batch()

    def _seal_batch(self) -> None:
        """Pop up to ``max_batch_size`` entries and dispatch them as a task."""
        count = min(len(self._queue), self.max_batch_size)
        if count == 0:
            return
        now = self._loop.time()
        entries: List[_Entry] = []
        waits: List[float] = []
        for _ in range(count):
            entry = self._queue.popleft()
            if entry.future.done():  # the submitter cancelled while queued
                self.stats.record_cancelled()
                continue
            entries.append(entry)
            waits.append(now - entry.submitted_at)
        if not entries:
            return
        self.stats.record_batch(len(entries), waits)
        points = np.empty((len(entries), 2), dtype=float)
        for row, entry in enumerate(entries):
            points[row, 0] = entry.x
            points[row, 1] = entry.y
        # The batch's answer function is fixed here, at seal time: a
        # set_locate() racing with dispatch affects only later seals, so a
        # batch never straddles two epochs.
        task = self._loop.create_task(self._run_batch(points, entries, self._locate))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(
        self,
        points: np.ndarray,
        entries: Sequence[_Entry],
        locate: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        try:
            # Each batch runs a fresh copy of the captured context, so a
            # selection one engine call makes never leaks into the next.
            context = self._context.copy()
            answers = await self._loop.run_in_executor(
                self._executor, context.run, locate, points
            )
        except asyncio.CancelledError:
            self._fail_entries(
                entries, ServiceClosedError("service stopped with the batch in flight")
            )
            raise
        except Exception as exc:  # noqa: BLE001 - forwarded to every submitter
            self._fail_entries(entries, exc)
            return
        answers = np.asarray(answers)
        if answers.shape != (len(entries),):
            self._fail_entries(
                entries,
                ServiceError(
                    f"locator returned shape {answers.shape} "
                    f"for a batch of {len(entries)} queries"
                ),
            )
            return
        now = self._loop.time()
        for entry, answer in zip(entries, answers):
            if entry.future.done():  # cancelled while the batch was in flight
                self.stats.record_cancelled()
                continue
            entry.future.set_result(int(answer))
            self.stats.record_completed(now - entry.submitted_at)

    def _fail_entries(self, entries: Sequence[_Entry], error: BaseException) -> None:
        for entry in entries:
            if not entry.future.done():
                entry.future.set_exception(error)
                self.stats.record_failed()
            else:
                self.stats.record_cancelled()
