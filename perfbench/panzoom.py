"""raster-panzoom: two closed-loop pan/zoom sessions against ``RasterService``.

Each session walks its own seeded viewport trace — 256 x 256 px views that
pan by whole 64-px tiles, zoom through three levels and often return to a
recent view — and requests the next view only after the previous one has
arrived.  One station moves after every :data:`SWAP_EVERY` completed
requests, through ``RasterService.swap_network``.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import Point, SINRDiagram, WirelessNetwork
from repro.service import RasterService
from repro.workloads import random_waypoint_walk

from harness import (
    clock,
    metric,
    peak_rss_mb,
    percentile,
    percentile_label,
    sub_seeds,
    tail_fraction,
)
from serving import freeze_inputs, fresh_copy, make_network

STATIONS = 50
SESSIONS = 2
VIEW_PX = 256
TILE_PX = 64
VIEW_TILES = VIEW_PX // TILE_PX
#: World units per pixel of the three zoom levels (powers of two, so every
#: view origin sits exactly on its level's tile lattice).
PITCHES = (1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0)
#: Views pan over the station square plus this margin (world units).  With
#: it the three levels hold 152 distinct tiles, just under the 160 that the
#: default 256 MiB cache keeps at 50 stations; the tiles that a request
#: straddling a move recomputes under the old network push it over.
MARGIN = 4.0
SWAP_EVERY = 60
#: Requests per second on a 2-vCPU machine; a run makes
#: ``seconds * NOMINAL_RATE`` requests.
NOMINAL_RATE = 110.0
BRING_UPS = 6
#: The viewport walk: requests per zoom level before the next zoom, the
#: chance a request revisits a recent view (else it pans), and how many
#: recent views it chooses from.
STINT = 20
P_REVISIT = 0.6
RECENT = 6

View = Tuple[int, int, int]  # (level, tile_x, tile_y) of the lower-left tile


def level_ranges(side: float) -> List[Tuple[int, int]]:
    """Per level, the range of view-origin tile indices (both axes)."""
    ranges = []
    for pitch in PITCHES:
        tile = TILE_PX * pitch
        low = math.floor(-MARGIN / tile)
        high = max(low, math.ceil((side + MARGIN) / tile) - VIEW_TILES)
        ranges.append((low, high))
    return ranges


def view_box(view: View) -> Tuple[Point, Point]:
    level, tile_x, tile_y = view
    pitch = PITCHES[level]
    size = TILE_PX * pitch
    x0, y0 = tile_x * size, tile_y * size
    span = VIEW_PX * pitch
    return Point(x0, y0), Point(x0 + span, y0 + span)


def serpentine(low: int, high: int) -> List[Tuple[int, int]]:
    """Every view origin of a level, each one tile from the one before:
    rows left to right, then right to left."""
    path = []
    for row, tile_y in enumerate(range(low, high + 1)):
        columns = range(low, high + 1) if row % 2 == 0 else range(high, low - 1, -1)
        path.extend((tile_x, tile_y) for tile_x in columns)
    return path


def session_trace(seed: int, count: int, side: float) -> List[View]:
    """One user's views: stints at one zoom level, then a zoom.

    Every :data:`STINT` requests the session zooms one level along the
    cycle 0, 1, 2, 1, 0, ...  At each level it follows a serpentine path
    over all of the level's views, resuming where it left that level:
    each request revisits one of the last :data:`RECENT` views with
    probability :data:`P_REVISIT`, else pans one tile along the path.  The
    fixed zoom cycle and the path give every seed the same time at each
    level and the same coverage of the area, so seeds differ in where the
    views start and which ones are revisited, not in how much they cost.
    """
    rng = np.random.default_rng(seed)
    paths = [serpentine(low, high) for low, high in level_ranges(side)]
    cursors = [int(rng.integers(len(path))) for path in paths]
    cycle = list(range(len(PITCHES))) + list(range(len(PITCHES) - 2, 0, -1))
    phase = int(rng.integers(len(cycle)))
    recent: deque = deque(maxlen=RECENT)
    trace: List[View] = []
    view: Optional[View] = None
    for step in range(count):
        if step % STINT == 0:
            if step:
                phase = (phase + 1) % len(cycle)
            recent.clear()
        level = cycle[phase]
        choices = [old for old in recent if old != view]
        same_level = view is not None and view[0] == level
        if same_level and choices and rng.random() < P_REVISIT:
            view = choices[int(rng.integers(len(choices)))]
        elif same_level:
            cursors[level] = (cursors[level] + 1) % len(paths[level])
            view = (level,) + paths[level][cursors[level]]
        else:  # a zoom: resume the level's path where the session left it
            view = (level,) + paths[level][cursors[level]]
        trace.append(view)
        recent.append(view)
    return trace


@dataclass
class RasterInputs:
    network: WirelessNetwork
    networks: List[WirelessNetwork]
    steps: list
    traces: List[List[View]]
    warm_traces: List[List[View]]
    probe: View


def op_count(seconds: float) -> int:
    return max(4 * SWAP_EVERY, int(round(seconds * NOMINAL_RATE)))


def make_inputs(seed: int, ops: int) -> RasterInputs:
    net_seed, walk_seed, *trace_seeds = sub_seeds(seed, 2 + 2 * SESSIONS)
    network = make_network(STATIONS, net_seed)
    side = 4.0 * math.sqrt(STATIONS)
    per_session = ops // SESSIONS
    steps = list(random_waypoint_walk(
        network, (per_session * SESSIONS - 1) // SWAP_EVERY, movers=1, seed=walk_seed
    ))
    traces = [session_trace(s, per_session, side) for s in trace_seeds[:SESSIONS]]
    warm = [session_trace(s, max(8, per_session // 8), side)
            for s in trace_seeds[SESSIONS:]]
    return RasterInputs(
        network=network,
        networks=[network] + [step.network for step in steps],
        steps=steps,
        traces=traces,
        warm_traces=warm,
        probe=traces[0][0],
    )


#: Requests (session, index) whose response must equal the uncached raster
#: bit for bit; they come before the first move.
FULL_CHECKS = ((0, 4), (1, 4), (0, 12))
#: Every this many requests a session keeps the labels it was served, for
#: the label-drift count after moves.
LABEL_EVERY = 100


@dataclass
class SessionsResult:
    latencies: np.ndarray
    failures: List[str]
    wall: float
    swap_walls: List[float]
    held: Dict[Tuple[int, int], Tuple[int, object]] = field(default_factory=dict)


async def run_sessions(
    service: RasterService,
    traces: Sequence[Sequence[View]],
    steps: Sequence = (),
    hold: bool = False,
) -> SessionsResult:
    """Serve each trace from its own closed-loop session; apply ``steps``.

    The session that completes every :data:`SWAP_EVERY`-th request applies
    the next move right after another session has handed its next request
    to the executor.  That request then straddles the move: it finishes
    against the old network, whose tiles the move has just re-keyed, so
    every tile it still needs is a miss.  Placing the move there makes
    that cost the same in every run instead of depending on how far the
    straddling request had got.
    """
    offsets = np.cumsum([0] + [len(trace) for trace in traces])
    latencies = [0.0] * int(offsets[-1])
    failures: List[str] = []
    swap_walls: List[float] = []
    held: Dict[Tuple[int, int], Tuple[int, object]] = {}
    submitted = asyncio.Event()
    active = len(traces)
    completed = 0
    epoch = 0

    async def session(index: int, trace: Sequence[View]) -> None:
        nonlocal active, completed, epoch
        for position, view in enumerate(trace):
            submitted_epoch = epoch
            started = clock()
            request = service.rasterize(*view_box(view), VIEW_PX)
            submitted.set()
            try:
                raster = await request
            except Exception as exc:  # noqa: BLE001 - a failed operation
                failures.append(f"session {index} request {position}: {exc!r}")
                raster = None
            latencies[offsets[index] + position] = clock() - started
            if hold and raster is not None:
                if (index, position) in FULL_CHECKS and submitted_epoch == 0:
                    held[(index, position)] = (submitted_epoch, raster_digest(raster))
                elif position % LABEL_EVERY == LABEL_EVERY - 1 and submitted_epoch > 0:
                    held[(index, position)] = (submitted_epoch, raster.labels)
            del raster
            completed += 1
            if completed % SWAP_EVERY == 0 and epoch < len(steps):
                submitted.clear()
                if active > 1:
                    await submitted.wait()
                step = steps[epoch]
                swap_started = clock()
                service.swap_network(step.network, step.delta)
                swap_walls.append(clock() - swap_started)
                epoch += 1
        active -= 1
        submitted.set()

    started = clock()
    await asyncio.gather(*(session(i, trace) for i, trace in enumerate(traces)))
    return SessionsResult(
        latencies=np.asarray(latencies),
        failures=failures,
        wall=clock() - started,
        swap_walls=swap_walls,
        held=held,
    )


def raster_digest(raster) -> bytes:
    """Hash of the labels and SINR values, bit for bit (a served response
    is 26 MB; holding a digest instead keeps it out of the peak RSS)."""
    digest = hashlib.blake2b(digest_size=16)
    for values in (raster.labels, raster.sinr_values):
        values = np.ascontiguousarray(values)
        digest.update(f"{values.dtype.str}{values.shape}".encode())
        digest.update(memoryview(values).cast("B"))
    return digest.digest()


def check_rasters(
    inputs: RasterInputs, result: SessionsResult, count_drift: bool
) -> Tuple[int, int, int, int]:
    """``(full checks, full mismatches, label px checked, label px wrong)``.

    Requests served before the first move must equal the uncached raster
    bit for bit.  Later ones may differ in labels where re-keyed tiles went
    stale; that drift is counted, not failed, and only when asked (each
    count costs one uncached raster).
    """
    full = wrong = px_checked = px_wrong = 0
    for (index, position), (epoch, served) in sorted(result.held.items()):
        view = inputs.traces[index][position]
        if (index, position) in FULL_CHECKS:
            exact = SINRDiagram(inputs.networks[0]).rasterize(*view_box(view), VIEW_PX)
            full += 1
            wrong += served != raster_digest(exact)
        elif count_drift:
            exact = SINRDiagram(inputs.networks[epoch]).rasterize(
                *view_box(view), VIEW_PX
            )
            px_checked += served.size
            px_wrong += int(np.count_nonzero(served != exact.labels))
    return full, wrong, px_checked, px_wrong


@dataclass
class RasterRun:
    ops: int
    tail: float
    setup: List[float]
    result: SessionsResult
    rss_mb: float
    full_checked: int
    full_wrong: int
    px_checked: int
    px_wrong: int
    cache_before: object
    cache_after: object

    @property
    def failed(self) -> int:
        return len(self.result.failures) + self.full_wrong

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.full_checked > 0

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
        return [
            f"workload raster-panzoom: {STATIONS} stations, {SESSIONS} sessions, "
            f"{self.ops} requests of {VIEW_PX}x{VIEW_PX} px, "
            f"{len(self.result.swap_walls)} moves (one per {SWAP_EVERY} completions)",
            f"tail_ms {self.tail_ms():.3f} ms at {percentile_label(self.tail)} "
            f"({self.ops} independent requests)",
            f"ops attempted {self.ops}, succeeded "
            f"{self.ops - len(self.result.failures)}, failed "
            f"{len(self.result.failures)}; pre-move rasters bit-identical "
            f"{self.full_checked - self.full_wrong} of {self.full_checked}",
            "setup bring-ups (s): " + ", ".join(f"{v:.4f}" for v in self.setup),
        ] + [f"failure: {line}" for line in self.result.failures[:5]]


async def bring_up(
    network: WirelessNetwork, probe: View
) -> Tuple[float, RasterService]:
    """Build a service over ``network`` and serve one cold request."""
    started = clock()
    service = RasterService(network)
    await service.rasterize(*view_box(probe), VIEW_PX)
    return clock() - started, service


async def raster_phase(
    inputs: RasterInputs,
    bring_ups: int,
    on_timed: Optional[Callable[[bool], None]] = None,
    count_drift: bool = False,
) -> RasterRun:
    setup: List[float] = []
    service: Optional[RasterService] = None
    freeze_inputs()
    for _ in range((bring_ups + 1) // 2):
        if service is not None:
            await service.stop()
            service = None
            gc.collect()
        elapsed, service = await bring_up(fresh_copy(inputs.network), inputs.probe)
        setup.append(elapsed)
    assert service is not None
    try:
        warm = await run_sessions(service, inputs.warm_traces)
        if warm.failures:
            raise RuntimeError(f"warm-up failed: {warm.failures[0]}")
        gc.collect()
        cache_before = service.cache_stats()
        if on_timed is not None:
            on_timed(True)
        result = await run_sessions(service, inputs.traces, inputs.steps, hold=True)
        if on_timed is not None:
            on_timed(False)
        rss = peak_rss_mb()
        cache_after = service.cache_stats()
    finally:
        await service.stop()
    del service
    gc.collect()
    ops = len(result.latencies)
    full, wrong, px_checked, px_wrong = check_rasters(inputs, result, count_drift)
    result.held.clear()
    for _ in range(bring_ups // 2):
        gc.collect()
        elapsed, extra = await bring_up(fresh_copy(inputs.network), inputs.probe)
        await extra.stop()
        setup.append(elapsed)
        del extra
    return RasterRun(
        ops=ops,
        tail=tail_fraction(ops),
        setup=setup,
        result=result,
        rss_mb=rss,
        full_checked=full,
        full_wrong=wrong,
        px_checked=px_checked,
        px_wrong=px_wrong,
        cache_before=cache_before,
        cache_after=cache_after,
    )


def run_raster(
    seed: int,
    seconds: float,
    bring_ups: int = BRING_UPS,
    on_timed: Optional[Callable[[bool], None]] = None,
    count_drift: bool = False,
) -> RasterRun:
    inputs = make_inputs(seed, op_count(seconds))
    return asyncio.run(raster_phase(inputs, bring_ups, on_timed, count_drift))
