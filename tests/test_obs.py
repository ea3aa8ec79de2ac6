"""Contract of the observability layer (:mod:`repro.obs`).

The hub invariants under test: records are immutable per-tick snapshots of
every registered source; one failing source or sink is skipped and counted,
never propagated into the service being observed; the periodic task keeps
collecting across epoch swaps; and ``stop()`` always drains one final
record through the sinks (plus a flush), so the tail of a run is never
lost.  Sinks are exercised for thread-safety-adjacent basics and strict
JSON output (non-finite percentiles become ``null``).
"""

from __future__ import annotations

import asyncio
import json
import logging
import math

import numpy as np
import pytest

from repro.exceptions import ObservabilityClosedError, ObservabilityError
from repro.engine import ScreenStats
from repro.obs import JsonlSink, LogSink, MemorySink, MetricsHub, MetricsRecord
from repro.raster import TileCache
from repro.service import MicroBatcher, QueryService, ServiceStats

from test_service import FakeLocator, GatedLocator, fingerprint_answers


def run(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


# ----------------------------------------------------------------------
# Records and registration
# ----------------------------------------------------------------------
class TestHubBasics:
    def test_collect_builds_record_from_all_sources(self):
        hub = MetricsHub(interval=1.0)
        hub.add_source("a", lambda: {"x": 1, "y": 2.5})
        hub.add_source("b", lambda: {"z": -3})
        record = hub.collect()
        assert record.sequence == 1
        assert record.source("a") == {"x": 1.0, "y": 2.5}
        assert record.source("b") == {"z": -3.0}
        assert hub.records == 1
        second = hub.collect()
        assert second.sequence == 2
        assert second.timestamp >= record.timestamp

    def test_missing_source_accessor_raises(self):
        record = MetricsRecord(sequence=1, timestamp=0.0, values={"a": {}})
        with pytest.raises(ObservabilityError, match="no source 'b'"):
            record.source("b")

    def test_duplicate_source_name_rejected(self):
        hub = MetricsHub(interval=1.0)
        hub.add_source("svc", lambda: {})
        with pytest.raises(ObservabilityError, match="already registered"):
            hub.add_source("svc", lambda: {})

    def test_unique_source_name_suffixes(self):
        hub = MetricsHub(interval=1.0)
        assert hub.unique_source_name("svc") == "svc"
        hub.add_source("svc", lambda: {})
        assert hub.unique_source_name("svc") == "svc-2"
        hub.add_source("svc-2", lambda: {})
        assert hub.unique_source_name("svc") == "svc-3"

    def test_remove_source_and_sink(self):
        hub = MetricsHub(interval=1.0)
        hub.add_source("svc", lambda: {"x": 1})
        sink = MemorySink()
        hub.add_sink(sink)
        assert hub.remove_source("svc") is True
        assert hub.remove_source("svc") is False
        assert hub.remove_sink(sink) is True
        assert hub.remove_sink(sink) is False
        record = hub.collect()
        assert record.values == {} and len(sink) == 0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsHub(interval=0.0)
        with pytest.raises(ObservabilityError):
            MetricsHub(interval=-1.0)
        hub = MetricsHub(interval=1.0)
        with pytest.raises(ObservabilityError):
            hub.add_source("svc", object())
        with pytest.raises(ObservabilityError):
            hub.add_sink(object())  # no emit()

    def test_interval_defaults_to_a_quarter_second(self):
        from repro.obs.hub import DEFAULT_INTERVAL

        assert DEFAULT_INTERVAL == 0.25
        assert MetricsHub().interval == DEFAULT_INTERVAL
        assert MetricsHub(interval=0.125).interval == 0.125

    def test_failing_source_is_skipped_and_counted(self):
        hub = MetricsHub(interval=1.0)
        hub.add_source("good", lambda: {"x": 1})
        hub.add_source("bad", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        record = hub.collect()
        assert record.source("good") == {"x": 1.0}
        assert "bad" not in record.values
        assert hub.source_errors == 1 and hub.records == 1

    def test_failing_sink_is_skipped_and_counted(self):
        class ExplodingSink:
            def emit(self, record):
                raise RuntimeError("boom")

        hub = MetricsHub(interval=1.0)
        hub.add_source("svc", lambda: {"x": 1})
        good = MemorySink()
        hub.add_sink(ExplodingSink())
        hub.add_sink(good)
        record = hub.collect()
        assert hub.sink_errors == 1
        assert good.last() is record  # the good sink still got the record


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TestSinks:
    def test_memory_sink_is_a_ring(self):
        sink = MemorySink(capacity=3)
        hub = MetricsHub(interval=1.0)
        hub.add_source("svc", lambda: {"x": 1})
        hub.add_sink(sink)
        records = [hub.collect() for _ in range(5)]
        assert len(sink) == 3
        assert sink.records() == tuple(records[-3:])
        assert sink.last() is records[-1]
        with pytest.raises(ObservabilityError):
            MemorySink(capacity=0)

    def test_jsonl_sink_writes_strict_json(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        hub = MetricsHub(interval=1.0)
        stats = ServiceStats()  # all percentiles still nan
        hub.add_source("service", stats.metrics_sample)
        hub.add_source("plain", lambda: {"x": 1.5, "inf": math.inf})
        with JsonlSink(path) as sink:
            hub.add_sink(sink)
            hub.collect()
            hub.collect()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for sequence, line in enumerate(lines, start=1):
            payload = json.loads(line)  # must be strict JSON
            assert payload["sequence"] == sequence
            assert payload["values"]["service"]["wait_p99"] is None  # nan
            assert payload["values"]["plain"]["inf"] is None
            assert payload["values"]["plain"]["x"] == 1.5

    def test_log_sink_emits_one_line_per_record(self, caplog):
        hub = MetricsHub(interval=1.0)
        hub.add_source("svc", lambda: {"x": 1.25})
        hub.add_sink(LogSink(logging.getLogger("repro.obs.test")))
        with caplog.at_level(logging.INFO, logger="repro.obs.test"):
            hub.collect()
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "metrics #1" in message and "svc[x=1.25]" in message


# ----------------------------------------------------------------------
# metrics_sample: the one source shape
# ----------------------------------------------------------------------
class TestMetricsSamples:
    def test_service_stats_sample_flattens_snapshot(self):
        stats = ServiceStats()
        stats.submitted += 1
        stats.record_batch(1, [0.001])
        stats.record_completed([0.002])
        sample = stats.metrics_sample()
        assert sample["submitted"] == 1.0
        assert sample["batches"] == 1.0
        assert sample["wait_p99"] == pytest.approx(0.001)
        assert math.isnan(sample["last_swap_seconds"])

    def test_cache_sample_includes_derived_rates(self):
        cache = TileCache(max_bytes=1 << 20)
        sample = cache.metrics_sample()
        assert sample["hits"] == 0.0 and sample["hit_rate"] == 0.0
        assert sample["max_bytes"] == float(1 << 20)
        assert sample["requests"] == 0.0

    def test_screen_stats_sample(self):
        stats = ScreenStats()
        stats.screened, stats.verified = 10, 4
        assert stats.metrics_sample() == {
            "screened": 10.0, "verified": 4.0, "verify_fraction": 0.4,
        }

    def test_batcher_and_service_gauges(self, ten_station_network):
        async def main():
            fake = FakeLocator()
            batcher = MicroBatcher(fake.locate_batch, latency_budget=0.001)
            await batcher.start()
            try:
                assert batcher.metrics_sample() == {
                    "queue_depth": 0.0,
                    "inflight_batches": 0.0,
                    "latency_budget": 0.001,
                }
            finally:
                await batcher.stop()

            service = QueryService(ten_station_network, "voronoi")
            async with service:
                await service.locate((1.0, 1.0))
                sample = service.metrics_sample()
            assert sample["completed"] == 1.0
            assert sample["queue_depth"] == 0.0
            assert sample["latency_budget"] == service._batcher.latency_budget

        run(main())

    def test_gauges_expose_queue_and_inflight(self):
        async def main():
            gated = GatedLocator()
            batcher = MicroBatcher(gated.locate_batch, latency_budget=0.001)
            await batcher.start()
            try:
                pending = asyncio.ensure_future(batcher.submit((1.0, 2.0)))
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, gated.entered.wait, 5)
                assert batcher.inflight_batches == 1  # sealed, executing
                assert batcher.queue_depth == 0
                gated.gate.set()
                await asyncio.wait_for(pending, 10.0)
                assert batcher.inflight_batches == 0
            finally:
                await batcher.stop()

        run(main())


# ----------------------------------------------------------------------
# Periodic collection against a live service
# ----------------------------------------------------------------------
class TestPeriodicCollection:
    def test_periodic_ticks_and_final_drain(self, ten_station_network):
        async def main():
            hub = MetricsHub(interval=0.02)
            sink = MemorySink(capacity=1024)
            hub.add_sink(sink)
            async with QueryService(ten_station_network, "voronoi") as service:
                hub.add_source("service", service.metrics_sample)
                await hub.start()
                assert hub.running
                pts = query_box_points(ten_station_network)
                await service.locate_many(pts)
                await asyncio.sleep(0.1)
                periodic_count = len(sink)
                final = await hub.stop()
                assert not hub.running
            return sink, periodic_count, final

        sink, periodic_count, final = run(main())
        assert periodic_count >= 2  # the ticker actually ticked
        # The final drain record reached the sink and is the newest one.
        assert sink.last() is final
        assert final.source("service")["completed"] == 60.0

    def test_stop_drains_final_snapshot_even_without_ticks(self):
        async def main():
            hub = MetricsHub(interval=30.0)  # ticker will never fire
            sink = MemorySink()
            hub.add_sink(sink)
            seen = []
            hub.add_source("probe", lambda: seen.append(1) or {"n": len(seen)})
            await hub.start()
            final = await hub.stop()
            return sink, final, seen

        sink, final, seen = run(main())
        assert len(seen) == 1  # exactly the final drain sampled it
        assert sink.last() is final and final.source("probe") == {"n": 1.0}

    def test_hub_lifecycle_is_terminal(self):
        """A stopped hub is closed for good: no restart, no ``collect()``."""

        async def main():
            hub = MetricsHub(interval=0.01)
            hub.add_source("svc", lambda: {"x": 1})
            await hub.start()
            await asyncio.sleep(0.03)
            final = await hub.stop()
            assert final is not None and hub.records >= 1
            with pytest.raises(ObservabilityError, match="cannot be restarted"):
                await hub.start()
            with pytest.raises(ObservabilityClosedError):
                hub.collect()
            # Registration stays open after stop: services withdraw their
            # sources during their own teardown, which may outlive the hub.
            assert hub.remove_source("svc")
            assert await hub.stop() is None  # idempotent

        run(main())

    def test_double_start_rejected(self):
        async def main():
            hub = MetricsHub(interval=1.0)
            await hub.start()
            try:
                with pytest.raises(ObservabilityError, match="already running"):
                    await hub.start()
            finally:
                await hub.stop()

        run(main())

    def test_stop_without_start_is_a_noop(self):
        async def main():
            hub = MetricsHub(interval=1.0)
            assert await hub.stop() is None
            assert hub.records == 0

        run(main())

    def test_collection_continues_across_epoch_swap(self, ten_station_network):
        """The hub keeps sampling through swap_network; epoch metric moves."""

        async def main():
            hub = MetricsHub(interval=0.01)
            sink = MemorySink(capacity=4096)
            hub.add_sink(sink)
            async with QueryService(ten_station_network, "voronoi") as service:
                hub.add_source("service", service.metrics_sample)
                await hub.start()
                await service.locate((1.0, 1.0))
                await asyncio.sleep(0.05)
                shifted = FakeLocator()
                await service.swap_network(
                    ten_station_network, locator=shifted
                )
                answer = await service.locate((1.5, 2.5))
                assert answer == int(
                    fingerprint_answers(np.array([[1.5, 2.5]]))[0]
                )
                await asyncio.sleep(0.05)
                await hub.stop()
            return sink

        sink = run(main())
        epochs = [record.source("service")["epoch"] for record in sink.records()]
        assert 0.0 in epochs and 1.0 in epochs  # sampled both sides of the swap


def query_box_points(network, count: int = 60):
    from seeded_workloads import query_box_array

    return query_box_array(network, count, seed=11, margin=2.0)
