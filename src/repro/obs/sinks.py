"""Stock metric sinks: ring buffer, JSONL file, log line.

A sink is anything with ``emit(record)``; these three cover the common
consumers.  :class:`MemorySink` keeps the last N records for tests and
in-process dashboards; :class:`JsonlSink` appends one JSON object per
record for offline analysis; :class:`LogSink` writes a one-line summary
through :mod:`logging`.  All are thread-safe — the hub emits from executor
threads, and pull-mode callers may collect from anywhere.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
from collections import deque
from typing import Deque, Optional, Tuple

from ..exceptions import ObservabilityError
from .hub import MetricsRecord

__all__ = ["JsonlSink", "LogSink", "MemorySink"]


class MemorySink:
    """Keeps the most recent ``capacity`` records in a ring buffer."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ObservabilityError(
                f"the memory-sink capacity must be at least 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._ring: Deque[MetricsRecord] = deque(maxlen=self.capacity)

    def emit(self, record: MetricsRecord) -> None:
        with self._lock:
            self._ring.append(record)

    def records(self) -> Tuple[MetricsRecord, ...]:
        """The retained records, oldest first."""
        with self._lock:
            return tuple(self._ring)

    def last(self) -> Optional[MetricsRecord]:
        """The most recent record, or ``None`` before the first emit."""
        with self._lock:
            return self._ring[-1] if self._ring else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class JsonlSink:
    """Appends one JSON object per record to a file (lazily opened).

    Non-finite metric values (``nan``, ``±inf`` — e.g. percentile fields
    before the first sample) are written as ``null`` so every line is
    strict JSON for any downstream parser.  Call :meth:`close` (or use the
    sink as a context manager) when done; the hub's ``stop()`` calls
    :meth:`flush` but never closes a sink it does not own.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._handle = None

    def emit(self, record: MetricsRecord) -> None:
        line = json.dumps(self._payload(record), sort_keys=True)
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")

    @staticmethod
    def _payload(record: MetricsRecord) -> dict:
        return {
            "sequence": record.sequence,
            "timestamp": record.timestamp,
            "values": {
                source: {
                    name: (value if math.isfinite(value) else None)
                    for name, value in metrics.items()
                }
                for source, metrics in record.values.items()
            },
        }

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LogSink:
    """Writes one compact summary line per record through :mod:`logging`."""

    def __init__(
        self,
        logger: Optional[logging.Logger] = None,
        level: int = logging.INFO,
    ):
        self._logger = logger if logger is not None else logging.getLogger("repro.obs")
        self._level = level

    def emit(self, record: MetricsRecord) -> None:
        parts = []
        for source in sorted(record.values):
            metrics = record.values[source]
            rendered = ", ".join(
                f"{name}={metrics[name]:.6g}" for name in sorted(metrics)
            )
            parts.append(f"{source}[{rendered}]")
        self._logger.log(
            self._level,
            "metrics #%d @%.3f %s",
            record.sequence,
            record.timestamp,
            " ".join(parts) if parts else "(no sources)",
        )
