"""Concurrency and correctness contract of the async query service.

The centrepiece invariant: **every successfully submitted query is answered
exactly once, with the bit-identical answer a direct ``locate_batch`` on
the same locator would give** — no drops, no duplicates, no cross-talk
between the queries that happen to share a micro-batch.  The suite drives
the service with hundreds of concurrent submitters, mixed batch boundaries,
cancellation mid-batch, shutdown with queries in flight, backpressure
saturation, and slow/fake/failing locators, and checks the latency budget
is honoured within tolerance.

No pytest-asyncio dependency: every test drives its coroutine with
``asyncio.run`` through the :func:`run` helper (which adds a watchdog
timeout so a service deadlock fails the test instead of hanging the
suite).
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.engine import use_backend
from repro.exceptions import ServiceClosedError, ServiceError
from repro.pointlocation import build_locator
from repro.service import (
    MicroBatcher,
    QueryService,
    ServiceStats,
    serve_points,
)
from repro.workloads import (
    burst_schedule,
    poisson_schedule,
    run_bursts,
    run_closed_loop,
    run_poisson,
    run_scheduled,
)

from seeded_workloads import query_box_array


def run(coro, timeout: float = 120.0):
    """Drive a coroutine from sync test code, with a deadlock watchdog."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


@pytest.fixture(scope="module")
def network(ten_station_network):
    return ten_station_network


@pytest.fixture(scope="module")
def queries(network):
    return query_box_array(network, 900, seed=77, margin=3.0)


@pytest.fixture(scope="module")
def truth(network, queries):
    return build_locator(network, "voronoi").locate_batch(queries)


# ----------------------------------------------------------------------
# Test doubles
# ----------------------------------------------------------------------
def fingerprint_answers(points) -> np.ndarray:
    """A deterministic, per-point-unique-ish answer: detects cross-talk."""
    pts = np.asarray(points, dtype=float)
    return (np.abs(pts[:, 0] * 1e6 + pts[:, 1] * 1e3).astype(np.int64)) % 100003


class FakeLocator:
    """A locator double answering with a per-point fingerprint.

    ``delay`` seconds of blocking sleep per batch model a slow engine call;
    every call is recorded (thread-safely) for batch-shape assertions.
    """

    name = "fake"

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.calls = []
        self._lock = threading.Lock()

    def locate_batch(self, points):
        if self.delay:
            time.sleep(self.delay)
        points = np.asarray(points, dtype=float)
        with self._lock:
            self.calls.append(len(points))
        return fingerprint_answers(points)


class GatedLocator(FakeLocator):
    """A fake locator that blocks until the test opens its gate."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def locate_batch(self, points):
        self.entered.set()
        if not self.gate.wait(timeout=30.0):
            raise TimeoutError("test gate never opened")
        return super().locate_batch(points)


class FlakyOnceLocator(FakeLocator):
    """Fails its first batch with ValueError, then behaves."""

    def __init__(self):
        super().__init__()
        self._failed = False

    def locate_batch(self, points):
        if not self._failed:
            self._failed = True
            raise ValueError("transient engine failure")
        return super().locate_batch(points)


# ----------------------------------------------------------------------
# Exactly-once, bit-identical delivery
# ----------------------------------------------------------------------
class TestExactness:
    def test_hundreds_of_concurrent_submitters(self, network, queries, truth,
                                               seeded_rng):
        """300 submitter tasks, jittered arrivals: every answer is the
        direct ``locate_batch`` answer for that submitter's own point."""
        jitter = seeded_rng.uniform(0.0, 0.01, size=len(queries))
        chunks = np.array_split(np.arange(len(queries)), 300)

        async def main():
            received = {}

            async def submitter(indices):
                for i in indices:
                    await asyncio.sleep(jitter[i])
                    answer = await service.locate(queries[i])
                    assert i not in received, "duplicate answer"
                    received[i] = answer

            async with QueryService(
                network, "voronoi", latency_budget=0.003, max_batch_size=97
            ) as service:
                await asyncio.gather(*(submitter(c) for c in chunks))
                snapshot = service.stats_snapshot()
            return received, snapshot

        received, snapshot = run(main())
        assert len(received) == len(queries)
        answers = np.array([received[i] for i in range(len(queries))])
        np.testing.assert_array_equal(answers, truth)
        # Exactly-once at the service level too: nothing dropped or retried.
        assert snapshot.submitted == len(queries)
        assert snapshot.completed == len(queries)
        assert snapshot.cancelled == 0 and snapshot.failed == 0
        # Micro-batching genuinely engaged (not one call per query).
        assert snapshot.batches < len(queries)
        assert snapshot.mean_batch_size > 1.0

    def test_mixed_batch_boundaries_preserve_identity(self, network, queries,
                                                      truth):
        """Odd max_batch_size: queries split across many seals at varying
        positions, yet answers stay in bijection with their queries."""

        async def main():
            async with QueryService(
                network, "voronoi", latency_budget=0.001, max_batch_size=7
            ) as service:
                answers = await service.locate_many(queries[:350])
                return answers, service.stats_snapshot()

        answers, snapshot = run(main())
        np.testing.assert_array_equal(answers, truth[:350])
        assert answers.dtype == np.int64
        assert snapshot.max_batch_size <= 7
        assert snapshot.batches >= 50  # 350 queries / max 7 per batch

    def test_no_cross_talk_between_interleaved_clients(self, network):
        """Two clients with disjoint fingerprinted points, interleaved
        submissions: each gets its own fingerprints back."""
        fake = FakeLocator()
        a_pts = query_box_array(network, 120, seed=5)
        b_pts = query_box_array(network, 120, seed=6) + 1000.0

        async def client(service, pts):
            return np.array(
                [await service.locate((x, y)) for x, y in pts], dtype=np.int64
            )

        async def main():
            async with QueryService(network, fake, latency_budget=0.002) as service:
                return await asyncio.gather(
                    client(service, a_pts), client(service, b_pts)
                )

        got_a, got_b = run(main())
        np.testing.assert_array_equal(got_a, fingerprint_answers(a_pts))
        np.testing.assert_array_equal(got_b, fingerprint_answers(b_pts))

    @pytest.mark.parametrize("locator,options", [
        ("brute-force", {}),
        ("sharded:voronoi", {"shards": 3}),
        ("theorem3", {"epsilon": 0.5, "cover_method": "ray_sweep"}),
    ])
    def test_every_registered_locator_kind_serves_exactly(self, network, queries,
                                                          truth, locator, options):
        answers = serve_points(
            network, queries[:300], locator, build_options=options,
            max_batch_size=64,
        )
        np.testing.assert_array_equal(answers, truth[:300])

    def test_acceptance_scale_network_serves_exactly(self, fifty_station_network):
        """The bench workload's 50-station network (same seed and box as
        benchmarks/bench_service.py) through the service, vs brute force."""
        pts = query_box_array(fifty_station_network, 1000, seed=17, margin=2.0)
        truth = build_locator(fifty_station_network, "brute-force").locate_batch(pts)
        for locator, options in (
            ("voronoi", {}),
            ("sharded:voronoi", {"shards": 8}),
        ):
            answers, snapshot = serve_points(
                fifty_station_network, pts, locator, build_options=options,
                max_batch_size=256, return_stats=True,
            )
            np.testing.assert_array_equal(answers, truth)
            assert snapshot.mean_batch_size > 1.0


# ----------------------------------------------------------------------
# Load shapes (the async load generator)
# ----------------------------------------------------------------------
class TestLoadShapes:
    def test_schedules_are_deterministic_and_shaped(self):
        first = poisson_schedule(64, rate=1000.0, seed=9)
        second = poisson_schedule(64, rate=1000.0, seed=9)
        np.testing.assert_array_equal(first, second)
        assert np.all(np.diff(first) >= 0.0)
        assert len(poisson_schedule(0, rate=10.0)) == 0

        bursts = burst_schedule(10, burst_size=4, gap=0.01)
        np.testing.assert_allclose(bursts, [0, 0, 0, 0, .01, .01, .01, .01, .02, .02])
        with pytest.raises(ValueError):
            poisson_schedule(4, rate=0.0)
        with pytest.raises(ValueError):
            burst_schedule(4, burst_size=0, gap=0.01)

    def test_all_load_shapes_round_trip(self, network, queries, truth):
        subset = queries[:240]

        async def main():
            async with QueryService(
                network, "voronoi", latency_budget=0.002, max_batch_size=128
            ) as service:
                poisson = await run_poisson(service, subset, rate=60_000.0, seed=4)
                burst = await run_bursts(service, subset, burst_size=48, gap=0.003)
                closed = await run_closed_loop(service, subset, clients=24)
                return poisson, burst, closed

        for answers in run(main()):
            np.testing.assert_array_equal(answers, truth[:240])

    def test_scheduled_offsets_must_match_points(self, network):
        async def main():
            async with QueryService(network, "voronoi") as service:
                with pytest.raises(ValueError):
                    await run_scheduled(service, np.zeros((3, 2)), [0.0, 0.1])

        run(main())


# ----------------------------------------------------------------------
# Latency budget
# ----------------------------------------------------------------------
class TestLatencyBudget:
    def test_deadline_respected_on_slow_locator(self, network):
        """A slow engine call must not stretch the accumulation window:
        batches keep sealing on budget while earlier calls still run."""
        fake = FakeLocator(delay=0.05)
        pts = query_box_array(network, 40, seed=8)
        offsets = np.linspace(0.0, 0.3, len(pts))
        budget = 0.05

        async def main():
            async with QueryService(
                network, fake, latency_budget=budget, max_batch_size=1024,
            ) as service:
                answers = await run_scheduled(service, pts, offsets)
                return answers, service.stats_snapshot()

        answers, snapshot = run(main())
        np.testing.assert_array_equal(answers, fingerprint_answers(pts))
        # The budget split the 0.3 s trickle into several batches...
        assert snapshot.batches >= 3
        # ... and no query waited much past the budget for its seal (the
        # tolerance absorbs event-loop scheduling noise on shared runners).
        assert snapshot.wait_p99 <= budget + 0.05

    def test_zero_budget_seals_immediately(self, network, queries, truth):
        async def main():
            async with QueryService(
                network, "voronoi", latency_budget=0.0, max_batch_size=1024
            ) as service:
                return await service.locate_many(queries[:100]), \
                    service.stats_snapshot()

        answers, snapshot = run(main())
        np.testing.assert_array_equal(answers, truth[:100])
        assert snapshot.completed == 100

    def test_full_batch_seals_before_budget(self, network):
        """When max_batch_size arrives instantly, sealing must not wait out
        a long latency budget."""
        fake = FakeLocator()
        pts = query_box_array(network, 64, seed=12)

        async def main():
            started = time.perf_counter()
            async with QueryService(
                network, fake, latency_budget=5.0, max_batch_size=16
            ) as service:
                await service.locate_many(pts)
            return time.perf_counter() - started

        elapsed = run(main())
        assert elapsed < 2.5  # nowhere near the 5 s budget
        assert max(fake.calls) <= 16


# ----------------------------------------------------------------------
# Batcher mechanics: batch caps, seal-time capture, the drain barrier
# ----------------------------------------------------------------------
class TestBatcherMechanics:
    def test_batches_are_capped_and_a_drain_flushes_the_rest(self):
        fake = FakeLocator()

        async def main():
            batcher = MicroBatcher(
                fake.locate_batch, latency_budget=60.0, max_batch_size=3
            )
            await batcher.start()
            pending = [
                asyncio.ensure_future(batcher.submit((float(i), 0.0)))
                for i in range(7)
            ]
            # Two full batches seal at once; the seventh query waits out
            # the 60 s budget until the draining stop seals it.
            while batcher.stats.completed < 6:
                await asyncio.sleep(0.005)
            assert batcher.queue_depth == 1
            await batcher.stop()
            return await asyncio.gather(*pending), batcher.stats.snapshot()

        answers, snapshot = run(main())
        expected = fingerprint_answers([(float(i), 0.0) for i in range(7)])
        np.testing.assert_array_equal(answers, expected)
        assert fake.calls == [3, 3, 1]
        assert snapshot.batches == 3 and snapshot.max_batch_size == 3

    def test_queued_queries_use_the_function_installed_at_seal_time(self):
        old, new = FakeLocator(), ShiftedLocator()

        async def main():
            batcher = MicroBatcher(old.locate_batch, latency_budget=60.0)
            await batcher.start()
            pending = asyncio.ensure_future(batcher.submit((1.0, 2.0)))
            while batcher.queue_depth == 0:
                await asyncio.sleep(0.001)
            batcher.set_locate(new.locate_batch)
            await batcher.stop()  # the drain seals the queued query now
            return await pending

        answer = run(main())
        expected = fingerprint_answers([(1.0, 2.0)])[0]
        assert answer == expected + ShiftedLocator.EPOCH_OFFSET
        assert old.calls == [] and new.calls == [1]

    def test_drain_inflight_times_out_with_a_service_error(self):
        gated = GatedLocator()

        async def main():
            batcher = MicroBatcher(gated.locate_batch, latency_budget=0.0)
            await batcher.start()
            try:
                pending = asyncio.ensure_future(batcher.submit((1.0, 2.0)))
                await asyncio.to_thread(gated.entered.wait, 10.0)
                with pytest.raises(ServiceError, match="drain timeout"):
                    await batcher.drain_inflight(timeout=0.05)
                gated.gate.set()
                await batcher.drain_inflight(timeout=10.0)
                assert pending.done()
                return pending.result()
            finally:
                gated.gate.set()
                await batcher.stop()

        assert run(main()) == fingerprint_answers([(1.0, 2.0)])[0]

    @pytest.mark.parametrize(
        "bad",
        [None, (1.0,), (1.0, 2.0, 3.0), ("x", "y")],
        ids=["none", "one-coordinate", "three-coordinates", "non-numeric"],
    )
    def test_malformed_point_is_rejected_before_queueing(self, bad):
        fake = FakeLocator()

        async def main():
            batcher = MicroBatcher(fake.locate_batch, latency_budget=0.001)
            async with batcher:
                with pytest.raises((TypeError, ValueError)):
                    await batcher.submit(bad)
                assert batcher.stats.submitted == 0
                # The batcher keeps serving well-formed queries.
                return await batcher.submit((1.0, 2.0))

        assert run(main()) == fingerprint_answers([(1.0, 2.0)])[0]
        assert fake.calls == [1]


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
class TestCancellation:
    def test_cancel_while_queued_spares_batch_mates(self, network):
        fake = FakeLocator()
        pts = query_box_array(network, 10, seed=3)
        expected = fingerprint_answers(pts)

        async def main():
            async with QueryService(
                network, fake, latency_budget=0.1, max_batch_size=1024
            ) as service:
                tasks = [
                    asyncio.ensure_future(service.locate((x, y))) for x, y in pts
                ]
                await asyncio.sleep(0.01)  # all queued, none sealed yet
                for task in tasks[::2]:
                    task.cancel()
                results = await asyncio.gather(*tasks, return_exceptions=True)
                return results, service.stats_snapshot()

        results, snapshot = run(main())
        for index, result in enumerate(results):
            if index % 2 == 0:
                assert isinstance(result, asyncio.CancelledError)
            else:
                assert result == expected[index]
        assert snapshot.cancelled == 5
        assert snapshot.completed == 5

    def test_cancel_mid_flight_spares_batch_mates(self, network):
        gated = GatedLocator()
        pts = query_box_array(network, 8, seed=4)
        expected = fingerprint_answers(pts)

        async def main():
            async with QueryService(
                network, gated, latency_budget=0.001, max_batch_size=1024
            ) as service:
                tasks = [
                    asyncio.ensure_future(service.locate((x, y))) for x, y in pts
                ]
                # Wait until the batch is sealed and inside the engine call,
                # then cancel half of its members mid-flight.
                await asyncio.get_running_loop().run_in_executor(
                    None, gated.entered.wait
                )
                for task in tasks[:4]:
                    task.cancel()
                gated.gate.set()
                results = await asyncio.gather(*tasks, return_exceptions=True)
                return results, service.stats_snapshot()

        try:
            results, snapshot = run(main())
        finally:
            gated.gate.set()
        for index, result in enumerate(results):
            if index < 4:
                assert isinstance(result, asyncio.CancelledError)
            else:
                assert result == expected[index]
        assert snapshot.completed == 4
        assert snapshot.cancelled == 4


# ----------------------------------------------------------------------
# Shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    def test_drain_answers_in_flight_queries_immediately(self, network):
        """stop(drain=True) with a huge budget: queued queries are sealed
        at once (the budget no longer applies) and all answered."""
        fake = FakeLocator()
        pts = query_box_array(network, 20, seed=6)

        async def main():
            service = await QueryService(
                network, fake, latency_budget=30.0, max_batch_size=1024
            ).start()
            tasks = [
                asyncio.ensure_future(service.locate((x, y))) for x, y in pts
            ]
            await asyncio.sleep(0.01)
            started = time.perf_counter()
            await service.stop(drain=True)
            elapsed = time.perf_counter() - started
            return await asyncio.gather(*tasks), elapsed, service.stats_snapshot()

        answers, elapsed, snapshot = run(main())
        np.testing.assert_array_equal(np.array(answers), fingerprint_answers(pts))
        assert elapsed < 5.0  # nowhere near the 30 s budget
        assert snapshot.completed == len(pts)

    def test_abort_fails_queued_and_in_flight_queries(self, network):
        gated = GatedLocator()
        pts = query_box_array(network, 12, seed=7)

        async def main():
            service = await QueryService(
                network, gated, latency_budget=0.001, max_batch_size=6
            ).start()
            tasks = [
                asyncio.ensure_future(service.locate((x, y))) for x, y in pts
            ]
            await asyncio.get_running_loop().run_in_executor(
                None, gated.entered.wait
            )
            # One batch of 6 is blocked inside the gate; more are queued.
            await service.stop(drain=False)
            results = await asyncio.gather(*tasks, return_exceptions=True)
            with pytest.raises(ServiceClosedError):
                await service.locate((0.0, 0.0))
            return results

        try:
            results = run(main())
        finally:
            gated.gate.set()
        assert all(isinstance(r, ServiceClosedError) for r in results)

    def test_abort_accounts_cancelled_queued_entries(self, network):
        """Regression: a query cancelled while queued is counted as
        cancelled (not silently dropped) when the abort flushes the queue —
        submitted == completed + cancelled + failed must keep holding."""

        async def main():
            service = await QueryService(
                network, FakeLocator(), latency_budget=30.0, max_batch_size=1024
            ).start()
            first = asyncio.ensure_future(service.locate((0.0, 0.0)))
            second = asyncio.ensure_future(service.locate((1.0, 1.0)))
            await asyncio.sleep(0.01)  # both queued, far from the seal
            first.cancel()
            await asyncio.sleep(0)
            await service.stop(drain=False)
            await asyncio.gather(first, second, return_exceptions=True)
            return service.stats_snapshot()

        snapshot = run(main())
        assert snapshot.submitted == 2
        assert snapshot.cancelled == 1
        assert snapshot.failed == 1
        assert snapshot.completed == 0

    def test_submit_after_close_and_lifecycle_misuse(self, network):
        async def main():
            service = QueryService(network, "voronoi")
            with pytest.raises(ServiceClosedError):
                await service.locate((0.0, 0.0))  # not started yet
            await service.start()
            with pytest.raises(ServiceError):
                await service.start()  # double start
            assert service.running
            await service.stop()
            assert not service.running
            await service.stop()  # idempotent
            with pytest.raises(ServiceClosedError):
                await service.locate((0.0, 0.0))
            with pytest.raises(ServiceError):
                await service.start()  # no restart after stop

        run(main())

    def test_context_manager_drains_on_success(self, network, queries, truth):
        async def main():
            async with QueryService(network, "voronoi") as service:
                return await service.locate_many(queries[:50])

        np.testing.assert_array_equal(run(main()), truth[:50])


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_bounded_pending_throttles_admission(self, network):
        gated = GatedLocator()
        pts = query_box_array(network, 30, seed=9)

        async def main():
            async with QueryService(
                network, gated, latency_budget=0.001, max_batch_size=4,
                max_pending=8,
            ) as service:
                tasks = [
                    asyncio.ensure_future(service.locate((x, y))) for x, y in pts
                ]
                await asyncio.sleep(0.05)
                # With the engine gated shut, admission stops at max_pending:
                # the remaining submitters are parked on the capacity gate.
                admitted_while_gated = service.stats.submitted
                gated.gate.set()
                answers = await asyncio.gather(*tasks)
                return admitted_while_gated, answers, service.stats_snapshot()

        try:
            admitted, answers, snapshot = run(main())
        finally:
            gated.gate.set()
        assert admitted == 8
        np.testing.assert_array_equal(np.array(answers), fingerprint_answers(pts))
        assert snapshot.completed == len(pts)

    def test_invalid_configuration_rejected(self, network):
        for bad in (
            {"latency_budget": -0.1},
            # Non-finite budgets arm a deadline that never fires: a lone
            # query would wait forever.
            {"latency_budget": float("nan")},
            {"latency_budget": float("inf")},
            {"max_batch_size": 0},
            {"max_pending": 0},
        ):
            with pytest.raises(ServiceError):
                QueryService(network, "voronoi", **bad)
        with pytest.raises(ServiceError):
            QueryService(network, object())  # no locate_batch
        with pytest.raises(ServiceError):
            # build_options are meaningless with a pre-built locator.
            QueryService(network, FakeLocator(), build_options={"shards": 2})

    @pytest.mark.parametrize("bad", [2.5, 2.0, "8", None, True],
                             ids=["fraction", "integral-float", "string", "none",
                                  "bool"])
    @pytest.mark.parametrize("option", ["max_batch_size", "max_pending"])
    def test_batch_counts_must_be_integers(self, network, option, bad):
        """Regression: ``max_batch_size=2.5`` was accepted, and the first
        seal then raised ``TypeError`` (``range(2.5)``) inside the
        dispatcher task, so every ``locate`` hung until ``stop()``
        re-raised it.  Both counts are checked at construction now, and
        ``True`` is refused as it is by ``TileCache`` rather than read as
        1."""
        with pytest.raises(ServiceError, match=f"{option} must be an integer"):
            QueryService(network, "voronoi", **{option: bad})
        with pytest.raises(ServiceError, match=f"{option} must be an integer"):
            MicroBatcher(FakeLocator().locate_batch, **{option: bad})

    def test_integer_types_are_accepted_as_counts(self):
        batcher = MicroBatcher(
            FakeLocator().locate_batch,
            max_batch_size=np.int64(3),
            max_pending=np.int32(8),
        )
        assert (batcher.max_batch_size, batcher.max_pending) == (3, 8)
        assert type(batcher.max_batch_size) is int

    @pytest.mark.parametrize(
        "bad",
        [{"max_batch_size": 0}, {"max_pending": 2.5},
         {"latency_budget": float("nan")}, {"latency_budget": "0.002"}],
        ids=["zero-batch", "fractional-pending", "nan-budget", "string-budget"],
    )
    def test_bad_batcher_option_fails_before_the_locator_is_built(
        self, network, bad
    ):
        """Regression: the locator was built first, so a bad option raised
        only after the whole preprocessing (13.4 s of ``theorem3`` on eight
        stations).  A counting factory sees no build now."""
        from repro.pointlocation import registry, register_locator

        builds = []

        class Counting:
            @classmethod
            def build(cls, network, **options):
                builds.append(network)
                return FakeLocator()

        register_locator("counting-builds", Counting)
        try:
            with pytest.raises(ServiceError):
                QueryService(network, "counting-builds", **bad)
            assert builds == []
            QueryService(network, "counting-builds")
            assert len(builds) == 1
        finally:
            registry.LOCATORS.unregister("counting-builds")

    @pytest.mark.parametrize(
        "bad",
        ["0.002", None, True, False, np.bool_(True), 1j, -1e-9, 10**400],
        ids=["string", "none", "true", "false", "numpy-bool", "complex",
             "negative", "overflowing-int"],
    )
    def test_latency_budget_must_be_a_real_number(self, bad):
        """Regression: a string or ``None`` raised a bare ``TypeError`` from
        ``math.isfinite``, and ``True`` was stored as ``True`` (a
        one-second budget)."""
        with pytest.raises(ServiceError, match="latency_budget must be"):
            MicroBatcher(FakeLocator().locate_batch, latency_budget=bad)

    @pytest.mark.parametrize(
        "budget", [0, 3, np.float32(0.25), np.int64(2)],
        ids=["zero", "int", "numpy-float", "numpy-int"],
    )
    def test_latency_budget_is_stored_as_a_float(self, budget):
        batcher = MicroBatcher(FakeLocator().locate_batch, latency_budget=budget)
        assert type(batcher.latency_budget) is float
        assert batcher.latency_budget == float(budget)


# ----------------------------------------------------------------------
# Engine failures
# ----------------------------------------------------------------------
class TestEngineFailures:
    def test_engine_exception_reaches_every_submitter_once(self, network):
        flaky = FlakyOnceLocator()
        pts = query_box_array(network, 16, seed=10)

        async def main():
            async with QueryService(
                network, flaky, latency_budget=0.02, max_batch_size=1024
            ) as service:
                first = await asyncio.gather(
                    *(service.locate((x, y)) for x, y in pts),
                    return_exceptions=True,
                )
                # The service survives the failed batch and keeps serving.
                second = await service.locate_many(pts)
                return first, second, service.stats_snapshot()

        first, second, snapshot = run(main())
        assert all(isinstance(r, ValueError) for r in first)
        np.testing.assert_array_equal(second, fingerprint_answers(pts))
        assert snapshot.failed == len(pts)
        assert snapshot.completed == len(pts)

    def test_wrong_answer_shape_is_a_service_error(self, network):
        class Broken:
            name = "broken"

            def locate_batch(self, points):
                return np.zeros(len(points) + 1, dtype=np.int64)

        async def main():
            async with QueryService(network, Broken()) as service:
                with pytest.raises(ServiceError):
                    await service.locate((0.0, 0.0))

        run(main())


# ----------------------------------------------------------------------
# Engine backend interplay
# ----------------------------------------------------------------------
class TestBackendInterplay:
    def test_backend_selection_propagates_to_dispatch_thread(self, network,
                                                             queries, truth):
        """use_backend() before start() governs dispatched batches even
        though they run on a worker thread (context capture)."""
        from repro.engine import NumpyBackend

        class SpyBackend:
            name = "spy"

            def __init__(self):
                self.inner = NumpyBackend()
                self.calls = 0

            def __getattr__(self, attr):
                target = getattr(self.inner, attr)
                if not callable(target):
                    return target

                def counted(*args, **kwargs):
                    self.calls += 1
                    return target(*args, **kwargs)

                return counted

        spy = SpyBackend()

        async def main():
            with use_backend(spy):
                async with QueryService(network, "voronoi") as service:
                    return await service.locate_many(queries[:64])

        answers = run(main())
        np.testing.assert_array_equal(answers, truth[:64])
        assert spy.calls > 0


# ----------------------------------------------------------------------
# Facade, stats
# ----------------------------------------------------------------------
class TestFacadeAndStats:
    def test_reservoir_keeps_only_the_newest_samples(self):
        from repro.service.stats import RESERVOIR_SIZE

        stats = ServiceStats()
        for latency in (9e9, 9e9, 9e9):
            stats.record_completed(latency)
        for latency in range(RESERVOIR_SIZE):
            stats.record_completed(float(latency))
        # The three oldest (and largest) samples fell out of the reservoir.
        assert stats.latency_percentile(1.0) == RESERVOIR_SIZE - 1
        assert stats.latency_percentile(0.0) == 0.0
        # Counters are not reservoir-bounded.
        assert stats.completed == RESERVOIR_SIZE + 3

    def test_serve_points_facade_with_stats(self, network, queries, truth):
        answers, snapshot = serve_points(
            network, queries[:200], "voronoi", max_batch_size=64,
            return_stats=True,
        )
        np.testing.assert_array_equal(answers, truth[:200])
        assert snapshot.submitted == 200
        assert snapshot.completed == 200
        assert snapshot.mean_batch_size > 1.0
        assert "answered" in snapshot.describe()

    def test_stats_percentiles_and_empty_snapshot(self):
        stats = ServiceStats()
        empty = stats.snapshot()
        assert np.isnan(empty.latency_p50) and np.isnan(empty.mean_batch_size)
        stats.record_batch(5, [0.001, 0.002, 0.003, 0.004, 0.005])
        for latency in (0.01, 0.02, 0.03, 0.04, 0.05):
            stats.record_completed(latency)
        snapshot = stats.snapshot()
        assert snapshot.wait_p50 == pytest.approx(0.003, abs=1e-9)
        assert snapshot.wait_p99 == pytest.approx(0.005, abs=1e-9)
        assert snapshot.latency_p99 == pytest.approx(0.05, abs=1e-9)
        assert snapshot.mean_batch_size == 5.0

    def test_percentile_is_nearest_rank_regression(self):
        """Pin the nearest-rank ``ceil(f*n)`` percentile definition.

        The earlier ``round(fraction * (n - 1))`` variant under-reported
        the tail: banker's rounding plus the ``n - 1`` scaling could pick
        the sample one rank below nearest-rank, so every assertion here
        fails on the pre-fix code (67 samples: p99 was 66.0; 4 and 8
        samples: p50 was the rank *above* the median).
        """
        stats = ServiceStats()
        stats.record_batch(67, [float(value) for value in range(1, 68)])
        # Nearest rank: ceil(0.99 * 67) = 67th sample -> 67.0 (pre-fix 66.0).
        assert stats.wait_percentile(0.99) == 67.0
        assert stats.wait_percentile(0.50) == 34.0

        four = ServiceStats()
        four.record_batch(4, [1.0, 2.0, 3.0, 4.0])
        # ceil(0.5 * 4) = 2nd sample -> 2.0 (pre-fix round(1.5) -> 3.0).
        assert four.wait_percentile(0.50) == 2.0

        eight = ServiceStats()
        eight.record_batch(8, [float(value) for value in range(1, 9)])
        # ceil(0.5 * 8) = 4th sample -> 4.0 (pre-fix round(3.5) -> 5.0).
        assert eight.wait_percentile(0.50) == 4.0
        # Fraction edges stay clamped to the observed extremes.
        assert eight.wait_percentile(0.0) == 1.0
        assert eight.wait_percentile(1.0) == 8.0
        # Latencies go through the same reservoir percentile.
        for value in range(1, 5):
            eight.record_completed(float(value))
        assert eight.latency_percentile(0.50) == 2.0

    def test_micro_batcher_accepts_point_objects(self, network):
        from repro import Point

        fake = FakeLocator()

        async def main():
            batcher = MicroBatcher(fake.locate_batch, latency_budget=0.001)
            await batcher.start()
            try:
                return await batcher.submit(Point(1.5, 2.5))
            finally:
                await batcher.stop()

        answer = run(main())
        assert answer == int(fingerprint_answers(np.array([[1.5, 2.5]]))[0])


# ----------------------------------------------------------------------
# Epoch-versioned network swaps
# ----------------------------------------------------------------------
class ShiftedLocator(FakeLocator):
    """A second-epoch spy: fingerprint answers shifted out of the old range."""

    EPOCH_OFFSET = 1_000_000

    def locate_batch(self, points):
        return super().locate_batch(points) + self.EPOCH_OFFSET


class TestEpochSwap:
    """``swap_network``: zero lost queries, no mixed-epoch batch."""

    @staticmethod
    def _moved(network):
        from repro import Point
        from repro.model import move_station

        station = network.stations[0]
        return move_station(
            network, 0, Point(station.x + 0.4, station.y - 0.3)
        )

    def test_swap_under_live_traffic_loses_nothing(self, network, queries,
                                                   truth):
        """Every query submitted across the swap is answered exactly once,
        by one of the two epochs — never dropped, never cross-bred."""
        moved, delta = self._moved(network)
        new_truth = build_locator(moved, "voronoi").locate_batch(queries)
        count = 400

        async def main():
            async with QueryService(
                network, "voronoi", latency_budget=0.002, max_batch_size=64
            ) as service:

                async def submitter(i):
                    await asyncio.sleep((i % 40) * 0.001)
                    return i, await service.locate(queries[i])

                tasks = [
                    asyncio.create_task(submitter(i)) for i in range(count)
                ]
                await asyncio.sleep(0.01)
                await service.swap_network(moved, delta)
                answered = dict(await asyncio.gather(*tasks))
                post = await service.locate_many(queries[:100])
                return answered, post, service.stats_snapshot()

        answered, post, snapshot = run(main())
        assert len(answered) == count  # exactly once each, none lost
        for i, answer in answered.items():
            assert answer in (truth[i], new_truth[i])
        # Once the swap returns, only the new epoch answers.
        np.testing.assert_array_equal(post, new_truth[:100])
        assert snapshot.epoch == 1 and snapshot.swaps == 1
        assert snapshot.completed == count + 100 and snapshot.failed == 0

    def test_in_flight_batch_stays_on_old_epoch(self, network):
        """Spy locators across a forced in-flight swap: the sealed batch
        drains against the old epoch, post-flip batches use the new one,
        and no batch ever mixes the two."""
        old_spy = GatedLocator()
        new_spy = ShiftedLocator()
        pts = query_box_array(network, 16, seed=5)

        async def main():
            async with QueryService(
                network, old_spy, latency_budget=0.05, max_batch_size=8
            ) as service:
                wave_a = [
                    asyncio.create_task(service.locate(p)) for p in pts[:8]
                ]
                # The full batch seals and enters the gated locator.
                await asyncio.to_thread(old_spy.entered.wait, 10.0)

                swap = asyncio.create_task(
                    service.swap_network(network, locator=new_spy)
                )
                await asyncio.sleep(0.05)
                wave_b = [
                    asyncio.create_task(service.locate(p)) for p in pts[8:]
                ]
                await asyncio.sleep(0.05)
                # The flip already happened, but the drain must hold the
                # swap open while the old-epoch batch is still in flight.
                assert service.locator is new_spy
                assert not swap.done()

                old_spy.gate.set()
                answers_a = await asyncio.gather(*wave_a)
                await swap
                answers_b = await asyncio.gather(*wave_b)
                return answers_a, answers_b

        answers_a, answers_b = run(main())
        expected = fingerprint_answers(pts)
        # The in-flight batch was answered entirely by the old epoch...
        np.testing.assert_array_equal(answers_a, expected[:8])
        # ...post-flip queries entirely by the new one: no mixed batch.
        np.testing.assert_array_equal(
            answers_b, expected[8:] + ShiftedLocator.EPOCH_OFFSET
        )
        assert old_spy.calls == [8]
        assert new_spy.calls == [8]

    def test_swap_updates_sharded_locator_incrementally(self, network,
                                                        queries):
        from repro.pointlocation import ShardedLocator, get_locator

        moved, delta = self._moved(network)

        async def main():
            async with QueryService(
                network, "sharded:voronoi", build_options={"shards": 4}
            ) as service:
                installed = await service.swap_network(moved, delta)
                answers = await service.locate_many(queries[:200])
                return installed, answers, service.locator

        installed, answers, live = run(main())
        assert live is installed and isinstance(installed, ShardedLocator)
        report = installed.last_update
        assert report is not None and not report.full_rebuild
        assert 1 <= report.rebuilt <= 2  # one move touches at most 2 shards
        fresh = get_locator("sharded:voronoi").build(moved, shards=4)
        np.testing.assert_array_equal(
            answers, fresh.locate_batch(queries[:200])
        )

    @pytest.mark.parametrize("locator,options", [
        ("brute-force", {}),
        ("voronoi", {}),
        ("sharded:voronoi", {"shards": 3}),
        ("theorem3", {"epsilon": 0.5, "cover_method": "ray_sweep"}),
    ])
    def test_swap_serves_every_locator_kind_on_the_new_network(
        self, network, queries, truth, locator, options
    ):
        """One service per locator over the same network: each swap installs
        that locator for the moved network, rebuilt or updated in place."""
        moved, delta = self._moved(network)
        new_truth = build_locator(moved, "brute-force").locate_batch(queries[:150])

        async def main():
            async with QueryService(
                network, locator, build_options=options
            ) as service:
                before = await service.locate_many(queries[:150])
                await service.swap_network(moved, delta)
                after = await service.locate_many(queries[:150])
                return before, after, service.network, service.stats_snapshot()

        before, after, served, snapshot = run(main())
        np.testing.assert_array_equal(before, truth[:150])
        np.testing.assert_array_equal(after, new_truth)
        assert served is moved
        assert snapshot.epoch == 1 and snapshot.failed == 0

    def test_swap_before_start_and_stats_line(self, network, queries):
        moved, delta = self._moved(network)
        new_truth = build_locator(moved, "voronoi").locate_batch(queries[:50])

        async def main():
            service = QueryService(network, "voronoi")
            await service.swap_network(moved, delta)  # not running yet: ok
            assert service.network is moved
            async with service:
                answers = await service.locate_many(queries[:50])
            return answers, service.stats_snapshot()

        answers, snapshot = run(main())
        np.testing.assert_array_equal(answers, new_truth)
        assert snapshot.epoch == 1
        assert "epoch 1 after 1 swaps" in snapshot.describe()

    def test_short_drain_timeout_fails_the_swap_after_the_flip(
        self, network, monkeypatch
    ):
        """A drain that outlives ``DRAIN_TIMEOUT`` raises, but only after
        the new epoch is installed: later batches answer from it, and the
        stuck old-epoch batch still answers its own queries."""
        from repro.service import service as service_module

        monkeypatch.setattr(service_module, "DRAIN_TIMEOUT", 0.05)
        old_spy = GatedLocator()
        new_spy = ShiftedLocator()
        pts = query_box_array(network, 8, seed=5)

        async def main():
            async with QueryService(
                network, old_spy, latency_budget=0.05, max_batch_size=8
            ) as service:
                wave = [asyncio.create_task(service.locate(p)) for p in pts]
                await asyncio.to_thread(old_spy.entered.wait, 10.0)
                with pytest.raises(ServiceError, match="drain timeout"):
                    await service.swap_network(network, locator=new_spy)
                assert service.locator is new_spy
                fresh = asyncio.create_task(service.locate(pts[0]))
                old_spy.gate.set()
                return (
                    await asyncio.gather(*wave),
                    await fresh,
                    service.stats_snapshot(),
                )

        answers, fresh, snapshot = run(main())
        expected = fingerprint_answers(pts)
        np.testing.assert_array_equal(answers, expected)
        assert fresh == expected[0] + ShiftedLocator.EPOCH_OFFSET
        assert snapshot.swaps == 1 and snapshot.failed == 0

    def test_opaque_prebuilt_locator_cannot_rebuild(self, network):
        moved, delta = self._moved(network)

        async def main():
            async with QueryService(network, FakeLocator()) as service:
                with pytest.raises(ServiceError):
                    await service.swap_network(moved, delta)
                with pytest.raises(ServiceError):
                    await service.swap_network(moved, locator=object())

        run(main())
