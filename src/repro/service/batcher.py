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

A query costs the loop thread one future and one ``(x, y, future,
submitted_at)`` tuple; building the batch's points, recording waits,
completions and latencies, and releasing capacity are paid once per batch.

Concurrency contract
====================

* every successfully submitted query is answered exactly once — resolved
  with its own answer, failed with the engine's exception, or failed with
  :class:`~repro.exceptions.ServiceClosedError` on a non-draining shutdown;
* a submitter cancelling its ``submit`` call never disturbs the rest of its
  batch: an entry cancelled while queued is skipped at seal time, one
  cancelled in flight is skipped at resolution time;
* **backpressure**: at most ``max_pending`` queries may be queued or in
  flight.  ``submit`` takes a slot before queueing its query, or parks in a
  FIFO when none is free; a freed slot is handed straight to the oldest
  parked submitter.  A batch releases its queries' slots together, when
  its futures are resolved or failed; a submitter cancelled while its
  query is still queued releases its own slot at once;
* stats are recorded per batch: seal waits when the batch is sealed,
  completions and their latencies when it is resolved;
* the engine call runs on one dedicated worker thread, so the event loop
  keeps accumulating and sealing batches on schedule while the engine
  computes — but on a 2-core machine the worker and the loop share one
  GIL, so every Python step on the loop delays the engine call's own
  Python steps, and the reverse;
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

from ..exceptions import EngineError, ServiceClosedError, ServiceError, positive_int
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

#: One queued query: ``(x, y, future, submitted_at)``.  A query whose
#: submitter was cancelled while it was queued keeps its place with the
#: future replaced by ``None``.
_Query = Tuple[float, float, Optional["asyncio.Future[int]"], float]


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
    """Coerce a Point / ``(x, y)`` pair / length-2 array into two floats.

    Anything else raises :class:`~repro.exceptions.EngineError`, as
    :func:`~repro.engine.batch.as_points_array` does for a malformed batch.
    """
    try:
        x = getattr(point, "x", None)
        if x is not None:
            return float(x), float(point.y)
        x, y = point
        return float(x), float(y)
    except (AttributeError, TypeError, ValueError, OverflowError) as error:
        raise EngineError(
            f"a query point must be a Point or an (x, y) pair of numbers, "
            f"got {point!r}"
        ) from error


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
        self._queue: List[_Query] = []
        # Queries ever taken off the front of the queue: the query a submit
        # appended as the n-th ever sits at index ``n - 1 - _taken`` while
        # it is queued.
        self._taken = 0
        # Queued entries whose future is None (their slots already freed).
        self._vacated = 0
        # Slots held: queued plus in-flight queries, plus slots handed to
        # parked submitters that have not resumed yet.
        self._outstanding = 0
        self._parked: Deque["asyncio.Future[bool]"] = deque()
        # True from start until stop begins: the lifecycle check submit
        # makes per query, as a plain attribute read.
        self._accepting = False
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
        self._wake = asyncio.Event()
        self._context = contextvars.copy_context()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-dispatch"
        )
        self._dispatcher = self._loop.create_task(
            self._dispatch_loop(), name="repro-service-batcher"
        )
        self._accepting = True

    async def _do_stop(self, drain: bool) -> None:
        """Shut down; ``drain=True`` answers everything pending first.

        Draining seals all queued queries immediately (the latency budget no
        longer applies) and waits for in-flight engine calls to resolve
        their futures.  ``drain=False`` aborts instead: queued and in-flight
        queries fail with :class:`ServiceClosedError`.  Either way, new
        ``submit`` calls raise once ``stop`` has begun, submitters parked
        for capacity raise too, and the batcher cannot be restarted.
        """
        self._accepting = False
        while self._parked:
            waiter = self._parked.popleft()
            if not waiter.done():
                waiter.set_result(False)
        if self._dispatcher is None:
            return
        if drain:
            self._wake.set()
            await self._dispatcher
            if self._inflight:
                await asyncio.gather(*list(self._inflight), return_exceptions=True)
        else:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            queued = self._take(len(self._queue))
            self._fail(
                [future for _, _, future, _ in queued],
                ServiceClosedError("service stopped without draining"),
            )
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
        return len(self._queue) - self._vacated

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
        :class:`~repro.exceptions.EngineError` for a malformed point before
        anything is queued or counted, and :class:`ServiceClosedError` if
        the batcher is not accepting queries, including when shutdown
        begins while this call is waiting.
        """
        x, y = _point_coordinates(point)
        # A submitter parks only while every slot is held, and a freed slot
        # goes to the oldest parked submitter first; so a free slot means
        # nobody is parked, and taking it here keeps admission FIFO.
        if self._accepting and self._outstanding < self.max_pending:
            self._outstanding += 1
        else:
            await self._park()
        loop = self._loop
        future = loop.create_future()
        queue = self._queue
        queue.append((x, y, future, loop.time()))
        self.stats.submitted += 1
        queued = len(queue)
        # Wake the dispatcher only at the two boundaries it acts on: a
        # queue going non-empty (a new deadline must be armed) and a queue
        # reaching the batch cap (seal early).  In-between arrivals ride
        # the already armed deadline timer.
        if queued == 1 or queued >= self.max_batch_size:
            self._wake.set()
        ticket = self._taken + queued
        try:
            return await future
        except asyncio.CancelledError:
            if ticket > self._taken:  # still queued: free the slot now
                self._vacate(ticket - 1 - self._taken)
            raise

    async def _park(self) -> None:
        """Wait in FIFO order until a slot is handed over; holds it on return."""
        if not self._accepting:
            raise ServiceClosedError("the query service is not accepting queries")
        waiter = self._loop.create_future()
        self._parked.append(waiter)
        try:
            admitted = await waiter
        except asyncio.CancelledError:
            self._unpark(waiter)
            raise
        if not self._accepting:  # stop began while this call was parked
            if admitted:
                self._release(1)
            raise ServiceClosedError(
                "the query service closed while this query waited for capacity"
            )

    def _unpark(self, waiter: "asyncio.Future[bool]") -> None:
        """A parked submitter was cancelled: leave the FIFO, or pass on the
        slot it was handed before it could resume."""
        if waiter.cancelled():
            if waiter in self._parked:
                self._parked.remove(waiter)
        elif waiter.result():
            self._release(1)

    def _vacate(self, index: int) -> None:
        """Free the slot of the queued query at ``index``, whose submitter
        was cancelled; the seal skips the entry left in its place."""
        x, y, _, submitted_at = self._queue[index]
        self._queue[index] = (x, y, None, submitted_at)
        self._vacated += 1
        self._release(1)

    def _release(self, count: int) -> None:
        """Free ``count`` slots, handing each to the oldest parked submitter."""
        self._outstanding -= count
        parked = self._parked
        while parked and self._outstanding < self.max_pending:
            waiter = parked.popleft()
            if not waiter.done():  # a cancelled submitter leaves on its own
                waiter.set_result(True)
                self._outstanding += 1

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
                deadline = self._queue[0][3] + self.latency_budget
                remaining = deadline - loop.time()
                if remaining <= 0.0:
                    break
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), remaining)
                except asyncio.TimeoutError:
                    break
            self._seal_batch()

    def _take(self, count: int) -> List[_Query]:
        """Remove the oldest ``count`` queue entries; return the live ones.

        A vacated entry is counted cancelled here; its slot is already free.
        """
        taken = self._queue[:count]
        del self._queue[:count]
        self._taken += count
        if not self._vacated:
            return taken
        live = [entry for entry in taken if entry[2] is not None]
        self._vacated -= len(taken) - len(live)
        for _ in range(len(taken) - len(live)):
            self.stats.record_cancelled()
        return live

    def _seal_batch(self) -> None:
        """Take up to ``max_batch_size`` entries and dispatch them as a task."""
        batch = self._take(min(len(self._queue), self.max_batch_size))
        if not batch:
            return
        xs, ys, futures, times = zip(*batch)
        now = self._loop.time()
        self.stats.record_batch(len(batch), [now - t for t in times])
        points = np.array((xs, ys)).T
        # The batch's answer function is fixed here, at seal time: a
        # set_locate() racing with dispatch affects only later seals, so a
        # batch never straddles two epochs.
        task = self._loop.create_task(
            self._run_batch(points, futures, times, self._locate)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(
        self,
        points: np.ndarray,
        futures: Sequence["asyncio.Future[int]"],
        times: Sequence[float],
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
            self._fail(
                futures, ServiceClosedError("service stopped with the batch in flight")
            )
            raise
        except Exception as exc:  # noqa: BLE001 - forwarded to every submitter
            self._fail(futures, exc)
            return
        answers = np.asarray(answers)
        if answers.shape != (len(futures),):
            self._fail(
                futures,
                ServiceError(
                    f"locator returned shape {answers.shape} "
                    f"for a batch of {len(futures)} queries"
                ),
            )
            return
        now = self._loop.time()
        cancelled = 0
        for future, answer in zip(
            futures, answers.astype(np.int64, copy=False).tolist()
        ):
            try:
                future.set_result(answer)
            except asyncio.InvalidStateError:  # cancelled while in flight
                cancelled += 1
        if cancelled:
            times = [
                submitted_at
                for future, submitted_at in zip(futures, times)
                if not future.cancelled()
            ]
            for _ in range(cancelled):
                self.stats.record_cancelled()
        self.stats.record_completed([now - t for t in times])
        self._release(len(futures))

    def _fail(
        self, futures: Sequence["asyncio.Future[int]"], error: BaseException
    ) -> None:
        """Fail a batch's futures with ``error`` and release its slots."""
        for future in futures:
            if not future.done():
                future.set_exception(error)
                self.stats.record_failed()
            else:
                self.stats.record_cancelled()
        self._release(len(futures))
