"""Lifecycle conformance battery over every :class:`repro.runtime.Component`.

One parametrized contract for the whole stack: every component starts at
most once, rejects restart after stop, stops idempotently, raises its
layer's ``*ClosedError`` when used after close, and drains cleanly as an
async context manager.  Below the battery: the :class:`Runtime`
composition root — declaration-order boot, reverse-order shutdown,
automatic stats wiring into an owned or caller-supplied hub, and
startup-failure rollback — and the :class:`EpochCoordinator` swap
protocol (build off-loop, flip, record, then drain).
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
import time

import numpy as np
import pytest

from repro import Point
from repro.exceptions import (
    ComponentError,
    ObservabilityClosedError,
    ServiceClosedError,
)
from repro.obs import MetricsHub
from repro.raster import TileCache
from repro.runtime import Component, EpochCoordinator, Runtime
from repro.service import MicroBatcher, QueryService
from repro.service.raster import RasterService


def run(coro, timeout: float = 60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _zeros_locate(points) -> np.ndarray:
    return np.zeros(len(np.asarray(points, dtype=float)), dtype=np.int64)


def _build(name: str, network):
    """One (component, use_op) pair per stack layer.

    ``use_op`` is the layer's natural request entry point; after ``stop``
    it must raise the component's ``closed_error``.
    """
    if name == "batcher":
        component = MicroBatcher(_zeros_locate, latency_budget=0.005)

        async def op(c):
            return await c.submit((1.0, 2.0))

    elif name == "query-service":
        component = QueryService(network, "voronoi", latency_budget=0.005)

        async def op(c):
            return await c.locate((1.0, 2.0))

    elif name == "raster-service":
        component = RasterService(network, cache=TileCache(max_bytes=1 << 20))

        async def op(c):
            return await c.rasterize(Point(0.0, 0.0), Point(2.0, 2.0), resolution=8)

    elif name == "hub":
        component = MetricsHub(interval=0.02)

        async def op(c):
            return c.collect()

    elif name == "runtime":
        component = Runtime(metrics_interval=0.02)
        component.add(
            "query", QueryService(network, "voronoi", latency_budget=0.005)
        )

        async def op(c):
            return await c.component("query").locate((1.0, 2.0))

    else:  # pragma: no cover - parametrization mismatch
        raise AssertionError(name)
    return component, op


COMPONENTS = [
    "batcher",
    "query-service",
    "raster-service",
    "hub",
    "runtime",
]

CLOSED_ERRORS = {
    "batcher": ServiceClosedError,
    "query-service": ServiceClosedError,
    "raster-service": ServiceClosedError,
    "hub": ObservabilityClosedError,
    # The runtime stops what it composes: its services refuse requests.
    "runtime": ServiceClosedError,
}


@pytest.mark.parametrize("name", COMPONENTS)
class TestLifecycleConformance:
    def test_double_start_raises_the_layer_error(self, name, ten_station_network):
        async def main():
            component, _ = _build(name, ten_station_network)
            try:
                await component.start()
                assert component.running and not component.closed
                with pytest.raises(
                    component.lifecycle_error, match="already running"
                ):
                    await component.start()
            finally:
                await component.stop()

        run(main())

    def test_stop_is_idempotent_and_final(self, name, ten_station_network):
        async def main():
            component, _ = _build(name, ten_station_network)
            await component.start()
            await component.stop()
            assert component.closed and not component.running
            assert await component.stop() is None
            with pytest.raises(
                component.lifecycle_error, match="cannot be restarted"
            ):
                await component.start()

        run(main())

    def test_stop_from_new_still_seals_the_component(
        self, name, ten_station_network
    ):
        async def main():
            component, _ = _build(name, ten_station_network)
            await component.stop()  # never started; teardown must not blow up
            assert component.closed

        run(main())

    def test_use_after_close_raises_the_closed_error(
        self, name, ten_station_network
    ):
        async def main():
            component, op = _build(name, ten_station_network)
            await component.start()
            await component.stop()
            with pytest.raises(CLOSED_ERRORS[name]):
                await op(component)

        run(main())

    def test_async_with_starts_and_drains(self, name, ten_station_network):
        async def main():
            component, op = _build(name, ten_station_network)
            async with component:
                assert component.running
                await op(component)
            assert component.closed

        run(main())


class Recorder(Component):
    """A trivial component journaling its transitions into a shared log."""

    def __init__(self, tag: str, log: list, fail_start: bool = False) -> None:
        self.tag = tag
        self.log = log
        self.fail_start = fail_start

    async def _do_start(self) -> None:
        if self.fail_start:
            raise ComponentError(f"{self.tag} refuses to start")
        self.log.append(("start", self.tag))

    async def _do_stop(self, drain: bool) -> None:
        self.log.append(("stop", self.tag, drain))


class Sampling(Recorder):
    def metrics_sample(self):
        return {"ticks": 1.0}


class TestRuntimeComposition:
    def test_boots_in_declaration_order_and_stops_in_reverse(self):
        async def main():
            log: list = []
            runtime = Runtime()
            runtime.add("a", Recorder("a", log))
            runtime.add("b", Recorder("b", log), after=("a",))
            runtime.add("c", Recorder("c", log), after=("b",))
            assert runtime.component_names() == ("a", "b", "c")
            assert runtime.dependencies("c") == ("b",)
            async with runtime:
                assert [entry[1] for entry in log] == ["a", "b", "c"]
            stops = [entry for entry in log if entry[0] == "stop"]
            assert [entry[1] for entry in stops] == ["c", "b", "a"]
            assert all(entry[2] for entry in stops)  # clean exit drains

        run(main())

    def test_owned_hub_is_created_and_wired_from_stats_sources(self):
        async def main():
            log: list = []
            runtime = Runtime(metrics_interval=5.0)
            runtime.add("sampler", Sampling("sampler", log))
            runtime.add("mute", Recorder("mute", log))
            assert runtime.metrics is None
            await runtime.start()
            try:
                hub = runtime.metrics
                assert isinstance(hub, MetricsHub) and hub.running
                assert "sampler" in hub.source_names()
                assert "mute" not in hub.source_names()
            finally:
                await runtime.stop()
            assert runtime.metrics.closed  # stopped before the components

        run(main())

    def test_no_sources_means_no_hub(self):
        async def main():
            runtime = Runtime()
            runtime.add("mute", Recorder("mute", []))
            async with runtime:
                assert runtime.metrics is None

        run(main())

    def test_startup_failure_rolls_back_started_components(self):
        async def main():
            log: list = []
            runtime = Runtime()
            runtime.add("first", Recorder("first", log))
            runtime.add("boom", Recorder("boom", log, fail_start=True))
            runtime.add("never", Recorder("never", log))
            with pytest.raises(ComponentError, match="refuses to start"):
                await runtime.start()
            # The failed boot aborted the already-started prefix...
            assert ("stop", "first", False) in log
            # ...and never reached the component after the failure.
            assert not any(entry[1] == "never" for entry in log)
            assert not runtime.running

        run(main())

    def test_declaration_errors(self):
        runtime = Runtime()
        runtime.add("a", Recorder("a", []))
        with pytest.raises(ComponentError, match="already declared"):
            runtime.add("a", Recorder("a2", []))
        with pytest.raises(ComponentError, match="undeclared"):
            runtime.add("b", Recorder("b", []), after=("ghost",))
        with pytest.raises(ComponentError, match="not a runtime Component"):
            runtime.add("c", object())  # type: ignore[arg-type]
        with pytest.raises(ComponentError, match="no component named"):
            runtime.component("ghost")

    def test_add_after_start_is_rejected(self):
        async def main():
            runtime = Runtime()
            runtime.add("a", Recorder("a", []))
            async with runtime:
                with pytest.raises(ComponentError, match="before the runtime"):
                    runtime.add("late", Recorder("late", []))

        run(main())

    @pytest.mark.parametrize("lent_running", [False, True])
    def test_caller_supplied_hub(self, lent_running):
        """A hub passed in gets the sources; the runtime starts and stops
        it only when it was not already running."""

        async def main():
            hub = MetricsHub(interval=5.0)
            if lent_running:
                await hub.start()
            runtime = Runtime(metrics=hub)
            runtime.add("sampler", Sampling("sampler", []))
            async with runtime:
                assert hub.running
                assert hub.collect().source("sampler") == {"ticks": 1.0}
            assert hub.running is lent_running
            await hub.stop()

        run(main())

    def test_source_names_taken_on_the_hub_get_a_suffix(self):
        async def main():
            hub = MetricsHub(interval=5.0)
            hub.add_source("sampler", lambda: {"outer": 1.0})
            runtime = Runtime(metrics=hub)
            runtime.add("sampler", Sampling("sampler", []))
            async with runtime:
                return hub.collect()

        record = run(main())
        assert record.source("sampler") == {"outer": 1.0}
        assert record.source("sampler-2") == {"ticks": 1.0}

    def test_stop_failure_still_stops_the_rest_and_surfaces(self):
        class FailingStop(Recorder):
            async def _do_stop(self, drain: bool) -> None:
                await super()._do_stop(drain)
                raise ComponentError(f"{self.tag} failed to stop")

        log: list = []
        runtime = Runtime()
        runtime.add("a", Recorder("a", log))
        runtime.add("b", FailingStop("b", log))
        runtime.add("c", Recorder("c", log))

        async def main():
            await runtime.start()
            await runtime.stop()

        with pytest.raises(ComponentError, match="b failed to stop"):
            run(main())
        assert [entry[1] for entry in log if entry[0] == "stop"] == ["c", "b", "a"]
        assert runtime.closed

    def test_error_inside_async_with_aborts_every_component(self):
        log: list = []
        runtime = Runtime()
        runtime.add("a", Recorder("a", log))
        runtime.add("b", Recorder("b", log))

        async def main():
            async with runtime:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run(main())
        assert log[2:] == [("stop", "b", False), ("stop", "a", False)]


# ----------------------------------------------------------------------
# EpochCoordinator: the swap protocol behind QueryService.swap_network
# ----------------------------------------------------------------------
EPOCH_TAG: "contextvars.ContextVar[str]" = contextvars.ContextVar(
    "epoch_tag", default="unset"
)


async def logged_swap(log: list, build=None, drain_error=None):
    """One swap whose flip, record and drain steps append to ``log``."""

    async def drain():
        if drain_error is not None:
            raise drain_error
        log.append("drain")

    return await EpochCoordinator().swap(
        build=build,
        flip=lambda value: log.append(("flip", value)),
        drain=drain,
        record=lambda seconds: log.append("record"),
    )


class TestEpochCoordinator:
    def test_build_flip_record_drain_in_order(self):
        log: list = []

        def build():
            log.append("build")
            return "epoch-2"

        assert run(logged_swap(log, build)) == "epoch-2"
        assert log == ["build", ("flip", "epoch-2"), "record", "drain"]

    def test_without_build_flip_installs_what_the_caller_prepared(self):
        log: list = []
        assert run(logged_swap(log)) is None
        assert log == [("flip", None), "record", "drain"]

    def test_failed_build_leaves_the_old_epoch_untouched(self):
        log: list = []

        def build():
            raise ValueError("cannot build")

        with pytest.raises(ValueError, match="cannot build"):
            run(logged_swap(log, build))
        assert log == []

    def test_failed_drain_surfaces_after_the_flip_is_recorded(self):
        log: list = []
        with pytest.raises(ServiceClosedError, match="drain failed"):
            run(logged_swap(log, drain_error=ServiceClosedError("drain failed")))
        assert log == [("flip", None), "record"]

    def test_record_times_build_and_flip_but_not_the_drain(self):
        recorded: list = []

        async def main():
            await EpochCoordinator().swap(
                build=lambda: time.sleep(0.05),
                flip=lambda value: None,
                drain=lambda: asyncio.sleep(1.0),
                record=recorded.append,
            )

        run(main())
        assert 0.04 <= recorded[0] < 1.0

    def test_build_runs_off_the_loop_so_the_loop_keeps_serving(self):
        """The build blocks on an event only a loop task sets: it would
        time out if it ran on the event-loop thread."""
        gate = threading.Event()

        async def main():
            asyncio.get_running_loop().call_later(0.01, gate.set)
            return await EpochCoordinator().swap(
                build=lambda: gate.wait(10.0), flip=lambda value: None
            )

        assert run(main()) is True

    def test_build_sees_the_callers_context_without_leaking_back(self):
        seen: dict = {}

        def build():
            seen["tag"], seen["thread"] = EPOCH_TAG.get(), threading.get_ident()
            EPOCH_TAG.set("build")

        async def main():
            EPOCH_TAG.set("caller")
            await EpochCoordinator().swap(build=build, flip=lambda value: None)
            return EPOCH_TAG.get(), threading.get_ident()

        after, loop_thread = run(main())
        assert seen["tag"] == after == "caller"
        assert seen["thread"] != loop_thread
