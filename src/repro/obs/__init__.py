"""Observability layer: a metrics hub and stock sinks.

The hub (:class:`MetricsHub`) periodically samples registered *sources*
(zero-argument callables returning ``{metric: float}``) into immutable
:class:`MetricsRecord` snapshots and fans each one out to registered
*sinks* (anything with ``emit(record)``); ring-buffer, JSONL and log sinks
live in :mod:`repro.obs.sinks`.  Every first-party stats object implements
``metrics_sample()``, and that bound method is the source:
``hub.add_source(name, component.metrics_sample)`` — which is exactly how a
:class:`~repro.runtime.Runtime` wires the components it composes.
"""

from .hub import MetricSource, MetricsHub, MetricsRecord
from .sinks import JsonlSink, LogSink, MemorySink

__all__ = [
    "JsonlSink",
    "LogSink",
    "MemorySink",
    "MetricSource",
    "MetricsHub",
    "MetricsRecord",
]
