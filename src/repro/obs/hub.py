"""The metrics hub: periodic snapshots of registered sources, fanned to sinks.

:class:`MetricsHub` is the observability spine of the serving stack.  Code
that owns interesting state registers a *source* — a zero-argument callable
returning a flat ``{metric_name: float}`` mapping, normally a stats
object's bound ``metrics_sample`` method.  On every tick the hub samples
all sources into one immutable :class:`MetricsRecord` and fans it out to
every registered *sink* (anything with an ``emit(record)`` method —
:mod:`repro.obs.sinks` ships a ring buffer, a JSONL writer and a log
line).

The hub runs in either of two modes:

* **pull** — call :meth:`MetricsHub.collect` whenever a snapshot is wanted
  (tests, one-shot scripts, off-loop tooling);
* **periodic** — ``await hub.start()`` inside a running event loop spawns a
  ticker task that collects every ``interval`` seconds until
  ``await hub.stop()``, which drains one final record through the sinks (so
  the tail of a run is never lost) and flushes any sink exposing
  ``flush()``.

The hub is a :class:`~repro.runtime.Component`, so its lifecycle is the
unified one: started at most once, ``stop()`` is final (a stopped hub is
never restarted — build a fresh one), and collecting through a closed hub
raises :class:`~repro.exceptions.ObservabilityClosedError`.  Registration
methods (``add_source`` / ``remove_source`` / ``add_sink`` /
``remove_sink``) stay usable in every state, so a source can be withdrawn
whether or not the hub is still running.

The periodic task splits each tick in two.  Source *sampling* runs inline
on the event loop: the stock sources read loop-owned state (the batcher's
stats are mutated only from the loop thread), so sampling off-thread would
race — and CPU-bound Python in an executor thread holds the GIL in
switch-interval slices, stalling the batcher's seal deadlines far longer
than the sample itself costs.  Sink *fan-out* runs on an executor thread:
sinks may write files, and one slow sink must not stall the loop
(project invariant RL003, ``tests/invariants.py``); the record they
receive is immutable, so handing it across threads is safe.  A source or
sink that raises is skipped for that tick and counted (``source_errors`` /
``sink_errors``); observability failures never take down the service
being observed.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..exceptions import ObservabilityClosedError, ObservabilityError
from ..runtime.component import Component

__all__ = ["MetricSource", "MetricsHub", "MetricsRecord"]

#: A source is any zero-argument callable returning ``{name: number}``.
MetricSource = Callable[[], Mapping[str, float]]

#: Seconds between two periodic collections unless ``interval`` says else.
DEFAULT_INTERVAL = 0.25


@dataclass(frozen=True)
class MetricsRecord:
    """One immutable snapshot of every registered source at a single tick.

    Attributes:
        sequence: 1-based tick counter, monotone per hub (survives
            restarts of the periodic task).
        timestamp: wall-clock seconds (``time.time()``) when sampling began.
        values: ``{source_name: {metric_name: float}}``.  Sources that
            raised during this tick are absent.
    """

    sequence: int
    timestamp: float
    values: Mapping[str, Mapping[str, float]]

    def source(self, name: str) -> Mapping[str, float]:
        """The metrics of one source, or raise if it did not report."""
        try:
            return self.values[name]
        except KeyError:
            raise ObservabilityError(
                f"no source {name!r} in this record (have: "
                f"{sorted(self.values)})"
            ) from None


class MetricsHub(Component):
    """Collects registered sources into records and fans them to sinks.

    Args:
        interval: seconds between periodic collections (default
            :data:`DEFAULT_INTERVAL`, 0.25 s).  Only used by the periodic
            task — pull-mode ``collect()`` ignores it.
    """

    lifecycle_error = ObservabilityError
    closed_error = ObservabilityClosedError

    def __init__(self, interval: float = DEFAULT_INTERVAL):
        if not interval > 0.0:
            raise ObservabilityError(
                f"the metrics interval must be positive, got {interval}"
            )
        self.interval = float(interval)
        self._lock = threading.Lock()
        self._sources: Dict[str, MetricSource] = {}
        self._sinks: List[object] = []
        self._sequence = 0
        self._records = 0
        self._source_errors = 0
        self._sink_errors = 0
        self._task: Optional["asyncio.Task[None]"] = None
        self._wake: Optional[asyncio.Event] = None

    # -- registration ----------------------------------------------------
    def add_source(self, name: str, source: MetricSource) -> None:
        """Register ``source`` under ``name`` (unique per hub)."""
        if not callable(source):
            raise ObservabilityError(
                f"source {name!r} must be a zero-argument callable, got "
                f"{source!r}"
            )
        with self._lock:
            if name in self._sources:
                raise ObservabilityError(
                    f"a source named {name!r} is already registered (use "
                    f"unique_source_name to avoid collisions)"
                )
            self._sources[name] = source

    def unique_source_name(self, base: str) -> str:
        """``base`` if free, else the first free ``base-2``, ``base-3``, …"""
        with self._lock:
            if base not in self._sources:
                return base
            suffix = 2
            while f"{base}-{suffix}" in self._sources:
                suffix += 1
            return f"{base}-{suffix}"

    def remove_source(self, name: str) -> bool:
        """Deregister ``name``; ``False`` if it was not registered."""
        with self._lock:
            return self._sources.pop(name, None) is not None

    def add_sink(self, sink: object) -> None:
        """Register anything with an ``emit(record)`` method."""
        if not callable(getattr(sink, "emit", None)):
            raise ObservabilityError(
                f"a sink must expose an emit(record) method, got {sink!r}"
            )
        with self._lock:
            self._sinks.append(sink)

    def remove_sink(self, sink: object) -> bool:
        """Deregister ``sink``; ``False`` if it was not registered."""
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                return False
            return True

    def source_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._sources)

    # -- collection ------------------------------------------------------
    def collect(self) -> MetricsRecord:
        """Sample every source now and fan the record to every sink.

        Synchronous and thread-safe; pull-mode's entry point.  (The
        periodic task uses the same two halves, but samples on the loop
        and fans out on the executor — see the module docstring.)  Failing
        sources are omitted from the record, failing sinks skipped — each
        failure bumps the matching error counter instead of propagating.
        Raises :class:`~repro.exceptions.ObservabilityClosedError` once
        the hub has stopped (the final record is teardown's last word).
        """
        self._ensure_open()
        record = self._sample()
        self._fan_out(record)
        return record

    def _sample(self) -> MetricsRecord:
        """Read every source into one immutable record (no sink traffic)."""
        with self._lock:
            sources = list(self._sources.items())
            self._sequence += 1
            sequence = self._sequence
        started = time.time()
        values: Dict[str, Mapping[str, float]] = {}
        source_errors = 0
        for name, source in sources:
            try:
                sample = source()
                values[name] = {
                    str(key): float(value) for key, value in dict(sample).items()
                }
            except Exception:
                source_errors += 1
        with self._lock:
            self._records += 1
            self._source_errors += source_errors
        return MetricsRecord(sequence=sequence, timestamp=started, values=values)

    def _fan_out(self, record: MetricsRecord) -> None:
        """Emit ``record`` to every sink, isolating per-sink failures."""
        with self._lock:
            sinks = list(self._sinks)
        sink_errors = 0
        for sink in sinks:
            try:
                sink.emit(record)
            except Exception:
                sink_errors += 1
        if sink_errors:
            with self._lock:
                self._sink_errors += sink_errors

    # -- periodic mode (the Component lifecycle) -------------------------
    async def _do_start(self) -> None:
        """Spawn the periodic collector task on the running event loop."""
        self._wake = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def _do_stop(self, drain: bool) -> Optional[MetricsRecord]:
        """Stop the ticker, drain one final record, flush flushable sinks.

        :meth:`stop` returns the final record (``None`` when the hub never
        ran periodically — stopping a pull-mode hub just seals it).  The
        final record is collected even on an aborting stop: it is cheap,
        and losing the tail of a run is exactly what the drain exists to
        prevent.  Safe to call after the task died or was cancelled
        externally; a stopped hub stays stopped — build a fresh one.
        """
        task, wake = self._task, self._wake
        if task is None:
            return None
        # The Component state is already "stopping", which is what _run's
        # loop condition watches; the wake event just ends the tick sleep.
        if wake is not None:
            wake.set()
        try:
            await task
        except asyncio.CancelledError:
            if not task.cancelled():  # our own stop() was cancelled: re-raise
                raise
        finally:
            self._task = None
            self._wake = None
        record = self._sample()
        await asyncio.get_running_loop().run_in_executor(
            None, self._finish, record
        )
        return record

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        wake = self._wake
        while not self.closed:
            try:
                await asyncio.wait_for(wake.wait(), timeout=self.interval)
            except asyncio.TimeoutError:
                pass
            if self.closed:
                break
            wake.clear()
            record = self._sample()
            await loop.run_in_executor(None, self._fan_out, record)

    def _finish(self, record: MetricsRecord) -> None:
        """Fan out the final record, then flush every flushable sink."""
        self._fan_out(record)
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            flush = getattr(sink, "flush", None)
            if callable(flush):
                try:
                    flush()
                except Exception:
                    with self._lock:
                        self._sink_errors += 1

    # -- introspection ---------------------------------------------------
    @property
    def records(self) -> int:
        """Records collected so far (including failed-source ticks)."""
        with self._lock:
            return self._records

    @property
    def source_errors(self) -> int:
        """Source samplings that raised and were skipped."""
        with self._lock:
            return self._source_errors

    @property
    def sink_errors(self) -> int:
        """Sink emits (and final flushes) that raised and were skipped."""
        with self._lock:
            return self._sink_errors
