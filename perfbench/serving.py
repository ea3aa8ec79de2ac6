"""serve-small and serve-large: closed-loop clients of ``QueryService``.

Every client is a persistent coroutine that awaits ``service.locate(p)``,
writes the answer and both timestamps into preallocated flat buffers, and
only then takes the next operation.  Network moves are applied by one swapper
coroutine after every ``swap_every`` completed queries, so a run does the
same work — the same queries and the same moves at the same completion
counts — however fast the machine is.
"""

from __future__ import annotations

import asyncio
import gc
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import WirelessNetwork
from repro.engine import get_backend, use_backend
from repro.pointlocation import get_locator
from repro.service import QueryService
from repro.workloads import random_waypoint_walk, uniform_random_network

from harness import (
    clock,
    metric,
    peak_rss_mb,
    percentile,
    percentile_label,
    sub_seeds,
    tail_fraction,
)

#: Persistent client coroutines: twice the batcher's default 1024 cap, so
#: batches seal on size with two in flight instead of on the 2 ms timer.
CLIENTS = 2048

#: The batcher's default seal cap; the fewest batches a run can seal is
#: ``ops / BATCH_CAP``, which is what the tail percentile is sized for.
BATCH_CAP = 1024

#: Answer recorded for a query whose ``locate`` raised.
FAILED = -2


@dataclass(frozen=True)
class ServeSpec:
    name: str
    stations: int
    locator: str
    build_options: Dict[str, object]
    backend: str
    swap_every: int
    #: Queries per second this workload sustains on a 2-vCPU machine; the
    #: fixed work of a run is ``seconds * nominal_rate`` queries.
    nominal_rate: float
    oracle: str
    oracle_sample: int
    bring_ups: int


SPECS = {
    "serve-small": ServeSpec(
        name="serve-small",
        stations=50,
        locator="voronoi",
        build_options={},
        backend="numpy",
        swap_every=20_000,
        nominal_rate=80_000.0,
        oracle="brute-force",
        oracle_sample=16_384,
        bring_ups=10,
    ),
    "serve-large": ServeSpec(
        name="serve-large",
        stations=3200,
        locator="sharded:voronoi",
        build_options={"shards": 16, "partitioner": "kd"},
        backend="float32-screen",
        swap_every=40_000,
        nominal_rate=40_000.0,
        oracle="voronoi",
        oracle_sample=4_096,
        bring_ups=6,
    ),
}


@dataclass
class Queries:
    """Query coordinates as two flat buffers: a few bytes per query, and
    nothing the cyclic GC has to walk (a list of tuples would be both
    larger than the service under test and a stall at every collection)."""

    xs: array
    ys: array

    @classmethod
    def uniform(cls, count: int, low: float, high: float, seed: int) -> "Queries":
        xy = np.random.default_rng(seed).uniform(low, high, size=(count, 2))
        return cls(array("d", xy[:, 0].tobytes()), array("d", xy[:, 1].tobytes()))

    def __len__(self) -> int:
        return len(self.xs)

    def rows(self, rows: np.ndarray) -> np.ndarray:
        return np.column_stack(
            (np.frombuffer(self.xs)[rows], np.frombuffer(self.ys)[rows])
        )


@dataclass
class ServeInputs:
    network: WirelessNetwork
    networks: List[WirelessNetwork]  # epoch e serves networks[e]
    steps: list  # MobilityStep per swap, in order
    points: Queries
    warm_points: Queries
    probe: Tuple[float, float]
    check_rows: np.ndarray  # sampled operations checked against the oracle


def op_count(spec: ServeSpec, seconds: float) -> int:
    return max(4 * spec.swap_every, int(round(seconds * spec.nominal_rate)))


def swap_count(ops: int, swap_every: int) -> int:
    """Moves applied in a run: one per ``swap_every`` completions, none at
    the very last completion (nothing would be served after it)."""
    return (ops - 1) // swap_every


def make_network(stations: int, seed: int) -> WirelessNetwork:
    side = 4.0 * math.sqrt(stations)
    return uniform_random_network(
        stations, side=side, minimum_separation=1.5, noise=0.002, beta=3.0,
        seed=seed,
    )


def make_inputs(spec: ServeSpec, seed: int, ops: int) -> ServeInputs:
    """Everything a run feeds the service, from the run's one seed."""
    net_seed, query_seed, walk_seed, warm_seed, check_seed = sub_seeds(seed, 5)
    network = make_network(spec.stations, net_seed)
    side = 4.0 * math.sqrt(spec.stations)
    steps = list(
        random_waypoint_walk(
            network, swap_count(ops, spec.swap_every), movers=1, seed=walk_seed
        )
    )
    check_rng = np.random.default_rng(check_seed)
    check_rows = np.sort(
        check_rng.choice(ops, size=min(spec.oracle_sample, ops), replace=False)
    )
    return ServeInputs(
        network=network,
        networks=[network] + [step.network for step in steps],
        steps=steps,
        points=Queries.uniform(ops, -2.0, side + 2.0, query_seed),
        warm_points=Queries.uniform(
            max(BATCH_CAP * 4, ops // 20), -2.0, side + 2.0, warm_seed
        ),
        probe=(side / 2.0, side / 2.0),
        check_rows=check_rows,
    )


def fresh_copy(network: WirelessNetwork) -> WirelessNetwork:
    """An equal network with none of the original's lazily cached arrays,
    so every bring-up pays the same first-use costs."""
    return WirelessNetwork(
        network.stations, noise=network.noise, beta=network.beta,
        alpha=network.alpha,
    )


@dataclass
class LoopResult:
    submit: np.ndarray
    done: np.ndarray
    answers: np.ndarray
    failures: List[str]
    wall: float
    swap_starts: List[float] = field(default_factory=list)
    swap_ends: List[float] = field(default_factory=list)
    swap_builds: List[float] = field(default_factory=list)

    @property
    def latencies(self) -> np.ndarray:
        return self.done - self.submit

    @property
    def swap_walls(self) -> List[float]:
        return [end - start for start, end in zip(self.swap_starts, self.swap_ends)]


async def closed_loop(
    service: QueryService,
    points: Queries,
    clients: int,
    steps: Sequence = (),
    swap_every: int = 0,
) -> LoopResult:
    """Serve ``points`` from ``clients`` persistent coroutines; apply
    ``steps[k]`` once ``(k + 1) * swap_every`` queries have completed."""
    count = len(points)
    submit = array("d", bytes(8 * count))
    done = array("d", bytes(8 * count))
    answers = array("q", bytes(8 * count))
    failures: List[str] = []
    swap_starts: List[float] = []
    swap_ends: List[float] = []
    swap_builds: List[float] = []
    trigger = asyncio.Event()
    next_op = 0
    completed = 0
    locate = service.locate
    xs, ys = points.xs, points.ys

    async def client() -> None:
        nonlocal next_op, completed
        while next_op < count:
            op = next_op
            next_op += 1
            submit[op] = clock()
            try:
                answers[op] = await locate((xs[op], ys[op]))
            except Exception as exc:  # noqa: BLE001 - a failed operation
                failures.append(f"op {op}: {exc!r}")
                answers[op] = FAILED
            done[op] = clock()
            completed += 1
            if swap_every and completed % swap_every == 0:
                trigger.set()

    async def swapper() -> None:
        for index, step in enumerate(steps, start=1):
            while completed < index * swap_every:
                trigger.clear()
                await trigger.wait()
            started = clock()
            await service.swap_network(step.network, step.delta)
            swap_ends.append(clock())
            swap_starts.append(started)
            swap_builds.append(service.stats.last_swap_seconds)

    started = clock()
    await asyncio.gather(swapper(), *(client() for _ in range(clients)))
    wall = clock() - started
    return LoopResult(
        submit=np.asarray(submit),
        done=np.asarray(done),
        answers=np.asarray(answers, dtype=np.int64),
        failures=failures,
        wall=wall,
        swap_starts=swap_starts,
        swap_ends=swap_ends,
        swap_builds=swap_builds,
    )


# -- correctness -----------------------------------------------------------
def epoch_bounds(
    submit: np.ndarray,
    done: np.ndarray,
    swap_starts: Sequence[float],
    swap_ends: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """The epochs that could have answered each query.

    Swap ``k`` (1-based) flips to epoch ``k`` somewhere inside its call
    ``[start_k, end_k]`` and has drained epoch ``k - 1`` when it returns.
    A query submitted at ``s`` and answered at ``d`` was sealed at some
    ``t`` in ``[s, d]``, so its epoch is at least the number of swaps that
    had returned by ``s`` and at most the number that had begun by ``d``.
    """
    low = np.searchsorted(np.asarray(swap_ends), submit, side="right")
    high = np.searchsorted(np.asarray(swap_starts), done, side="right")
    return low, high


def count_mismatches(
    points: np.ndarray,
    answers: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    oracle: Callable[[int, np.ndarray], np.ndarray],
) -> int:
    """Queries whose answer matches the oracle of no epoch in ``[low, high]``."""
    matched = np.zeros(len(points), dtype=bool)
    if len(points) == 0:
        return 0
    for epoch in range(int(low.min()), int(high.max()) + 1):
        rows = np.flatnonzero((low <= epoch) & (epoch <= high) & ~matched)
        if rows.size:
            matched[rows] = oracle(epoch, points[rows]) == answers[rows]
    return int(np.count_nonzero(~matched))


def epoch_oracle(
    networks: Sequence[WirelessNetwork], name: str, chunk: int = 1024
) -> Callable[[int, np.ndarray], np.ndarray]:
    """Exact answers of epoch ``e``: ``name`` built over ``networks[e]``,
    evaluated on the numpy backend in bounded chunks."""
    built: Dict[int, object] = {}

    def answer(epoch: int, points: np.ndarray) -> np.ndarray:
        locator = built.get(epoch)
        if locator is None:
            locator = built[epoch] = get_locator(name).build(networks[epoch])
        with use_backend("numpy"):
            parts = [
                locator.locate_batch(points[start:start + chunk])
                for start in range(0, len(points), chunk)
            ]
        return np.concatenate(parts).astype(np.int64)

    return answer


def check_answers(
    spec: ServeSpec, inputs: ServeInputs, result: LoopResult
) -> Tuple[int, int]:
    """``(mismatches, checked)`` over the sampled served answers (failed
    operations are counted separately and skipped here)."""
    rows = inputs.check_rows
    rows = rows[result.answers[rows] != FAILED]
    points = inputs.points.rows(rows)
    low, high = epoch_bounds(
        result.submit[rows], result.done[rows], result.swap_starts, result.swap_ends
    )
    mismatches = count_mismatches(
        points, result.answers[rows], low, high,
        epoch_oracle(inputs.networks, spec.oracle),
    )
    return mismatches, len(rows)


# -- one run ---------------------------------------------------------------
@dataclass
class ServeRun:
    spec: ServeSpec
    ops: int
    tail: float
    setup: List[float]
    result: LoopResult
    rss_mb: float
    mismatches: int
    checked: int
    stats_before: object
    stats_after: object
    screen_before: Tuple[int, int]
    screen_after: Tuple[int, int]
    mean_wait: float

    @property
    def failed(self) -> int:
        return len(self.result.failures) + self.mismatches

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.checked > 0

    def end_to_end(self) -> Dict[str, Dict[str, object]]:
        latencies = self.result.latencies * 1e3
        completed = self.ops - len(self.result.failures)
        return {
            "setup_s": metric(float(np.median(self.setup)), "s"),
            "ops_per_s": metric(completed / self.result.wall, "1/s"),
            "p50_ms": metric(percentile(latencies, 0.5), "ms"),
            "swap_p50_ms": metric(float(np.median(self.result.swap_walls)) * 1e3, "ms"),
            "peak_rss_mb": metric(self.rss_mb, "MB"),
        }

    def tail_ms(self) -> float:
        return percentile(self.result.latencies * 1e3, self.tail)

    def report(self) -> List[str]:
        before, after = self.stats_before, self.stats_after
        return [
            f"workload {self.spec.name}: {self.spec.stations} stations, "
            f"{self.spec.locator} on {self.spec.backend}, {CLIENTS} clients, "
            f"{self.ops} queries, {len(self.result.swap_walls)} moves "
            f"(one per {self.spec.swap_every} completions)",
            f"tail_ms {self.tail_ms():.3f} ms at {percentile_label(self.tail)} "
            f"(>= {self.ops // BATCH_CAP} sealed batches; "
            f"{after.batches - before.batches} sealed this run)",
            f"ops attempted {self.ops}, succeeded "
            f"{self.ops - len(self.result.failures)}, failed "
            f"{len(self.result.failures)}; oracle mismatches {self.mismatches} "
            f"of {self.checked} sampled answers",
            f"ServiceStats failed {after.failed - before.failed}, "
            f"cancelled {after.cancelled - before.cancelled}",
            f"setup bring-ups (s): "
            + ", ".join(f"{value:.4f}" for value in self.setup),
        ] + [f"failure: {line}" for line in self.result.failures[:5]]


def freeze_inputs() -> None:
    """Move every object alive now — the run's inputs and the imported
    modules — out of the cyclic GC's reach, so full collections during
    the run walk what the service allocates, not the harness's networks
    and mobility steps."""
    gc.collect()
    gc.freeze()


def screen_counts() -> Tuple[int, int]:
    stats = get_backend("float32-screen").stats
    return int(stats.screened), int(stats.verified)


def mean_wait_seconds(service: QueryService, quantiles: int = 200) -> float:
    """Mean seal wait of the stats reservoir, integrated over its quantiles
    (the stats object exposes percentiles, not the mean)."""
    stats = service.stats
    return float(
        np.mean([
            stats.wait_percentile((index + 0.5) / quantiles)
            for index in range(quantiles)
        ])
    )


async def bring_up(
    spec: ServeSpec, network: WirelessNetwork, probe: Tuple[float, float]
) -> Tuple[float, QueryService]:
    """Build a service over ``network``, start it and answer one query."""
    started = clock()
    service = QueryService(network, spec.locator, build_options=spec.build_options)
    await service.start()
    await service.locate(probe)
    return clock() - started, service


async def serve_phase(
    spec: ServeSpec,
    inputs: ServeInputs,
    bring_ups: int,
    on_timed: Optional[Callable[[bool], None]] = None,
) -> ServeRun:
    """Bring-ups, warm-up, the timed phase, the correctness pass, and the
    remaining bring-ups: spreading them over the run keeps a short shift
    of the machine from moving their median."""
    setup: List[float] = []
    service: Optional[QueryService] = None
    freeze_inputs()
    for _ in range((bring_ups + 1) // 2):
        if service is not None:
            await service.stop()
        elapsed, service = await bring_up(
            spec, fresh_copy(inputs.network), inputs.probe
        )
        setup.append(elapsed)
    assert service is not None
    try:
        warm = await closed_loop(service, inputs.warm_points, CLIENTS)
        if warm.failures:
            raise RuntimeError(f"warm-up failed: {warm.failures[0]}")
        # The default executor runs swap builds; start its thread now so
        # the first timed swap does not pay for it.
        await asyncio.get_running_loop().run_in_executor(None, int)
        gc.collect()
        stats_before = service.stats_snapshot()
        screen_before = screen_counts()
        if on_timed is not None:
            on_timed(True)
        result = await closed_loop(
            service, inputs.points, CLIENTS, inputs.steps, spec.swap_every
        )
        if on_timed is not None:
            on_timed(False)
        rss = peak_rss_mb()
        stats_after = service.stats_snapshot()
        screen_after = screen_counts()
        mean_wait = mean_wait_seconds(service)
    finally:
        await service.stop()
    mismatches, checked = check_answers(spec, inputs, result)
    for _ in range(bring_ups // 2):
        elapsed, extra = await bring_up(spec, fresh_copy(inputs.network), inputs.probe)
        await extra.stop()
        setup.append(elapsed)
    ops = len(inputs.points)
    return ServeRun(
        spec=spec,
        ops=ops,
        tail=tail_fraction(ops // BATCH_CAP),
        setup=setup,
        result=result,
        rss_mb=rss,
        mismatches=mismatches,
        checked=checked,
        stats_before=stats_before,
        stats_after=stats_after,
        screen_before=screen_before,
        screen_after=screen_after,
        mean_wait=mean_wait,
    )


def run_serve(
    name: str,
    seed: int,
    seconds: float,
    bring_ups: Optional[int] = None,
    on_timed: Optional[Callable[[bool], None]] = None,
) -> ServeRun:
    spec = SPECS[name]
    inputs = make_inputs(spec, seed, op_count(spec, seconds))

    async def main() -> ServeRun:
        with use_backend(spec.backend):
            return await serve_phase(
                spec, inputs,
                spec.bring_ups if bring_ups is None else bring_ups,
                on_timed,
            )

    return asyncio.run(main())
