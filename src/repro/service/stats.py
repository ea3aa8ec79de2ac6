"""Per-service statistics: counters, batch-size shape, latency percentiles.

The micro-batcher records three kinds of facts while it runs:

* *counters* — queries submitted / completed / cancelled / failed, batches
  dispatched, and the running batch-size aggregate;
* *seal waits* — how long each query sat in the accumulation window before
  its batch was sealed (submission to dispatch decision).  This is the
  quantity the latency budget bounds, independent of how slow the locator
  itself is;
* *end-to-end latencies* — submission to answer, which adds the engine call
  on top of the wait.

The batcher records waits when it seals a batch and completions with
their latencies when it resolves one, a whole batch per call; only the
``submitted`` counter moves once per query.  Waits and latencies are kept
in bounded reservoirs (the most recent :data:`RESERVOIR_SIZE` samples) so
a long-running service never grows without bound; percentiles are computed
on demand from the reservoir.

Everything here is mutated only from the service's event loop thread, so no
locking is needed; :meth:`ServiceStats.snapshot` returns an immutable copy
safe to hand across threads.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, Iterable, Sequence

__all__ = ["ServiceStats", "StatsSnapshot"]

#: Number of wait / latency samples retained for percentiles.
RESERVOIR_SIZE = 4096


def _percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``nan`` when empty).

    Nearest-rank keeps the answer an actually observed value, which is the
    honest choice for small reservoirs; ``fraction`` is in ``[0, 1]``.  The
    rank is the standard ``ceil(fraction * n)`` (1-based): the smallest
    sample with at least ``fraction`` of the data at or below it.  An
    earlier ``round(fraction * (n - 1))`` variant under-reported the tail
    (banker's rounding plus the ``n - 1`` scaling can pick the sample one
    rank *below* the nearest-rank p99), which would mislead every latency
    gate fed from these reservoirs.
    """
    if not samples:
        return float("nan")
    return _ranked(sorted(samples), fraction)


def _ranked(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank pick from an already-sorted ``ordered`` (non-empty)."""
    rank = math.ceil(fraction * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


@dataclass(frozen=True)
class StatsSnapshot:
    """An immutable view of a service's counters and percentile estimates.

    Latency and wait fields are in seconds; ``nan`` where no sample exists
    yet (e.g. ``latency_p50`` before the first answer).
    """

    submitted: int
    completed: int
    cancelled: int
    failed: int
    batches: int
    mean_batch_size: float
    max_batch_size: int
    wait_p50: float
    wait_p99: float
    latency_p50: float
    latency_p99: float
    epoch: int
    swaps: int
    last_swap_seconds: float

    def describe(self) -> str:
        """One human-readable line (used by the example and benchmarks)."""
        line = (
            f"{self.completed}/{self.submitted} answered in {self.batches} "
            f"batches (mean {self.mean_batch_size:.1f}, max "
            f"{self.max_batch_size}); wait p50/p99 "
            f"{self.wait_p50 * 1e3:.2f}/{self.wait_p99 * 1e3:.2f} ms; "
            f"latency p50/p99 {self.latency_p50 * 1e3:.2f}/"
            f"{self.latency_p99 * 1e3:.2f} ms"
        )
        if self.swaps:
            line += (
                f"; epoch {self.epoch} after {self.swaps} swaps "
                f"(last {self.last_swap_seconds * 1e3:.1f} ms)"
            )
        return line


class ServiceStats:
    """Mutable accumulator owned by one :class:`~repro.service.MicroBatcher`."""

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.cancelled = 0
        self.failed = 0
        self.batches = 0
        self.max_batch_size = 0
        self.epoch = 0
        self.swaps = 0
        self.last_swap_seconds = float("nan")
        self._batched_queries = 0
        self._waits: Deque[float] = deque(maxlen=RESERVOIR_SIZE)
        self._latencies: Deque[float] = deque(maxlen=RESERVOIR_SIZE)

    # -- recording (event-loop thread only) -----------------------------
    def record_cancelled(self) -> None:
        self.cancelled += 1

    def record_batch(self, size: int, waits: Iterable[float]) -> None:
        """One sealed batch of ``size`` live queries and their seal waits."""
        self.batches += 1
        self._batched_queries += size
        self.max_batch_size = max(self.max_batch_size, size)
        self._waits.extend(waits)

    def record_completed(self, latencies: Sequence[float]) -> None:
        """One batch's answered queries, by their end-to-end latencies."""
        self.completed += len(latencies)
        self._latencies.extend(latencies)

    def record_failed(self) -> None:
        self.failed += 1

    def record_swap(self, seconds: float) -> None:
        """One completed network swap: bump the epoch, keep update latency.

        ``seconds`` is the swap's update latency — locator build/update up
        to the instant the new epoch started answering sealed batches
        (draining the previous epoch is excluded: it overlaps new-epoch
        service and would double-count in-flight engine time).
        """
        self.epoch += 1
        self.swaps += 1
        self.last_swap_seconds = seconds

    # -- derived views ---------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        return self._batched_queries / self.batches if self.batches else float("nan")

    def wait_percentile(self, fraction: float) -> float:
        return _percentile(tuple(self._waits), fraction)

    def latency_percentile(self, fraction: float) -> float:
        return _percentile(tuple(self._latencies), fraction)

    def metrics_sample(self) -> Dict[str, float]:
        """The snapshot's fields as one flat numeric sample.

        The :class:`~repro.runtime.StatsSource` protocol: every field of
        :class:`StatsSnapshot` is numeric, so the sample is the snapshot,
        coerced to floats (``nan`` percentile fields included).
        """
        return {
            name: float(value)
            for name, value in asdict(self.snapshot()).items()
        }

    def snapshot(self) -> StatsSnapshot:
        # Sort each reservoir once and take both percentiles from the
        # sorted copy: snapshot() is on the metrics hub's per-tick path,
        # where resorting 4096 samples per percentile is measurable.
        waits = sorted(self._waits)
        latencies = sorted(self._latencies)
        nan = float("nan")
        return StatsSnapshot(
            submitted=self.submitted,
            completed=self.completed,
            cancelled=self.cancelled,
            failed=self.failed,
            batches=self.batches,
            mean_batch_size=self.mean_batch_size,
            max_batch_size=self.max_batch_size,
            wait_p50=_ranked(waits, 0.50) if waits else nan,
            wait_p99=_ranked(waits, 0.99) if waits else nan,
            latency_p50=_ranked(latencies, 0.50) if latencies else nan,
            latency_p99=_ranked(latencies, 0.99) if latencies else nan,
            epoch=self.epoch,
            swaps=self.swaps,
            last_swap_seconds=self.last_swap_seconds,
        )
