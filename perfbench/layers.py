"""Plain and traced runs, and the per-layer metrics read from the spans.

Every per-layer metric is reported for every workload so the traced output
always has the same keys; a layer a workload bypasses reads 0.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from harness import metric
from tracing import SpanIndex, Tracer, install, p50_ms

LOCATE_ROOTS = ("pointlocation.sharded", "pointlocation.voronoi")

#: Per-layer metric names and units, in report order.
LAYER_UNITS = {
    "service.batches": "count",
    "service.batch_size_mean": "count",
    "service.seal_wait_p50_ms": "ms",
    "service.seal_wait_p99_ms": "ms",
    "service.overhead_x": "x",
    "service.hop_resolve_ms_mean": "ms",
    "service.failed": "count",
    "service.cancelled": "count",
    "runtime.swap_build_ms_p50": "ms",
    "runtime.swap_drain_ms_p50": "ms",
    "pointlocation.locate_ms_p50": "ms",
    "pointlocation.route_ms_p50": "ms",
    "pointlocation.propose_ms_p50": "ms",
    "pointlocation.verify_ms_p50": "ms",
    "pointlocation.candidates_per_query": "ratio",
    "pointlocation.heard_per_candidate": "ratio",
    "pointlocation.update_ms_p50": "ms",
    "pointlocation.update_reaches_ms_p50": "ms",
    "pointlocation.shards_rebuilt_mean": "count",
    "engine.received_at_calls": "count",
    "engine.received_at_ms_p50": "ms",
    "engine.screen_ms_p50": "ms",
    "engine.exact_ms_p50": "ms",
    "engine.verify_fraction": "ratio",
    "engine.sinr_batch_calls": "count",
    "engine.sinr_batch_ms_p50": "ms",
    "raster.tile_hits": "count",
    "raster.tile_misses": "count",
    "raster.hit_rate": "ratio",
    "raster.evictions": "count",
    "raster.rekeyed": "count",
    "raster.invalidated": "count",
    "raster.tile_compute_ms_p50": "ms",
    "raster.lookup_ms_p50": "ms",
    "raster.assemble_ms_p50": "ms",
    "raster.invalidate_ms_p50": "ms",
    "raster.full_hit_share": "ratio",
    "raster.label_mismatch_px": "px",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_pct": "%",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def serve_layers(index: SpanIndex, run) -> Dict[str, float]:
    """Service, runtime, pointlocation and engine figures of a served run."""
    before, after = run.stats_before, run.stats_after
    batches = after.batches - before.batches
    batched = (after.mean_batch_size * after.batches
               - (before.mean_batch_size * before.batches if before.batches else 0.0))
    roots = [span for name in LOCATE_ROOTS for span in index.named(name, root=True)]
    root_points = sum(span[6]["points"] for span in roots)
    root_seconds = sum(index.duration(span) for span in roots)
    verify = [
        span for span in index.named("engine.received_at")
        if span[4] >= 0 and index.spans[span[4]][1] in LOCATE_ROOTS
        and index.spans[span[4]][4] < 0
    ]
    sharded = [span for span in roots if span[1] == "pointlocation.sharded"]
    flat = [span for span in roots if span[1] == "pointlocation.voronoi"]
    propose = (
        [index.child_time(span, "pointlocation.voronoi") for span in sharded]
        + [index.self_time(span) for span in flat]
    )
    weighted_locate = _ratio(
        sum(index.duration(span) * span[6]["points"] for span in roots), root_points
    )
    latencies = run.result.latencies
    swaps = index.named("runtime.swap", root=True)
    screened = run.screen_after[0] - run.screen_before[0]
    verified = run.screen_after[1] - run.screen_before[1]
    updates = index.named("pointlocation.updated")
    return {
        "service.batches": batches,
        "service.batch_size_mean": _ratio(batched, batches),
        "service.seal_wait_p50_ms": after.wait_p50 * 1e3,
        "service.seal_wait_p99_ms": after.wait_p99 * 1e3,
        "service.overhead_x": _ratio(
            run.result.wall / run.ops, _ratio(root_seconds, root_points)
        ),
        "service.hop_resolve_ms_mean": (
            float(latencies.mean()) - run.mean_wait - weighted_locate
        ) * 1e3,
        "service.failed": after.failed - before.failed,
        "service.cancelled": after.cancelled - before.cancelled,
        "runtime.swap_build_ms_p50": p50_ms(run.result.swap_builds),
        "runtime.swap_drain_ms_p50": p50_ms(
            index.duration(span) - build
            for span, build in zip(sorted(swaps, key=lambda s: s[2]),
                                   run.result.swap_builds)
        ),
        "pointlocation.locate_ms_p50": p50_ms(index.duration(s) for s in roots),
        "pointlocation.route_ms_p50": p50_ms(index.self_time(s) for s in sharded),
        "pointlocation.propose_ms_p50": p50_ms(propose),
        "pointlocation.verify_ms_p50": p50_ms(
            index.child_time(s, "engine.received_at") for s in roots
        ),
        "pointlocation.candidates_per_query": _ratio(
            sum(span[6]["points"] for span in verify), root_points
        ),
        "pointlocation.heard_per_candidate": _ratio(
            sum(span[6]["heard"] for span in verify),
            sum(span[6]["points"] for span in verify),
        ),
        "pointlocation.update_ms_p50": p50_ms(index.duration(s) for s in updates),
        "pointlocation.update_reaches_ms_p50": p50_ms(
            index.duration(s)
            for s in index.named("pointlocation.station_reaches",
                                 parent="pointlocation.updated")
        ),
        "pointlocation.shards_rebuilt_mean": (
            float(np.mean([s[6]["rebuilt"] for s in updates])) if updates else 0.0
        ),
        "engine.verify_fraction": _ratio(verified, screened),
    }


def raster_layers(index: SpanIndex, run) -> Tuple[Dict[str, float], List[str]]:
    """Raster-layer figures and the request-class histogram of the trace."""
    before, after = run.cache_before, run.cache_after
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    requests = index.named("raster.rasterize_tiled", root=True)
    computed = [index.descendants(span, "raster.compute_tile") for span in requests]
    classes = {"0": 0, "1": 0, "2-4": 0, "5-15": 0, "16+": 0}
    for count in computed:
        key = ("0" if count == 0 else "1" if count == 1 else "2-4" if count <= 4
               else "5-15" if count <= 15 else "16+")
        classes[key] += 1
    lines = [
        "request classes by tiles computed: "
        + ", ".join(f"{key}: {value}" for key, value in classes.items()),
        f"label drift after moves: {run.px_wrong} of {run.px_checked} px "
        "differ from the exact raster",
    ]
    return {
        "raster.tile_hits": hits,
        "raster.tile_misses": misses,
        "raster.hit_rate": _ratio(hits, hits + misses),
        "raster.evictions": after.evictions - before.evictions,
        "raster.rekeyed": after.rekeyed - before.rekeyed,
        "raster.invalidated": after.invalidated - before.invalidated,
        "raster.tile_compute_ms_p50": p50_ms(
            index.duration(s) for s in index.named("raster.compute_tile")
        ),
        "raster.lookup_ms_p50": p50_ms(
            index.self_time(s) for s in index.named("raster.get_or_compute")
        ),
        "raster.assemble_ms_p50": p50_ms(index.self_time(s) for s in requests),
        "raster.invalidate_ms_p50": p50_ms(
            index.duration(s) for s in index.named("raster.invalidate_for_delta")
        ),
        "raster.full_hit_share": _ratio(classes["0"], len(requests)),
        "raster.label_mismatch_px": run.px_wrong,
    }, lines


def engine_layers(index: SpanIndex) -> Dict[str, float]:
    received = index.named("engine.received_at")
    sinr = index.named("engine.sinr_batch")
    return {
        "engine.received_at_calls": len(received),
        "engine.received_at_ms_p50": p50_ms(index.duration(s) for s in received),
        "engine.screen_ms_p50": p50_ms(
            index.self_time(s) for s in index.named("engine.screen")
        ),
        "engine.exact_ms_p50": p50_ms(
            index.duration(s)
            for s in index.named("engine.exact", parent="engine.screen")
        ),
        "engine.sinr_batch_calls": len(sinr),
        "engine.sinr_batch_ms_p50": p50_ms(index.duration(s) for s in sinr),
    }


def _run(workload: str, seed: int, seconds: float, **options):
    if workload == "raster-panzoom":
        from panzoom import run_raster

        return run_raster(seed, seconds, **options)
    from serving import run_serve

    return run_serve(workload, seed, seconds, **options)


def plain_run(workload: str, seed: int, seconds: float):
    run = _run(workload, seed, seconds)
    return run, run.end_to_end(), run.report()


def traced_run(workload: str, seed: int, seconds: float, out_dir: Path):
    """The seed's inputs served untraced, then traced, in one process.

    The traced pass regenerates its inputs from the seed rather than
    reusing the first pass's objects, whose networks already hold every
    lazily cached array and would make the second pass's swaps cheaper.
    """
    untraced = _run(workload, seed, seconds, bring_ups=1)
    tracer = Tracer()
    install(tracer)

    def toggle(on: bool) -> None:
        tracer.enabled = on

    options = {"count_drift": True} if workload == "raster-panzoom" else {}
    try:
        run = _run(workload, seed, seconds, bring_ups=1, on_timed=toggle, **options)
    finally:
        tracer.restore()
    index = SpanIndex(tracer.spans)
    values = {name: 0.0 for name in LAYER_UNITS}
    lines = list(run.report())
    if workload == "raster-panzoom":
        raster_values, raster_lines = raster_layers(index, run)
        values.update(raster_values)
        lines += raster_lines
    else:
        values.update(serve_layers(index, run))
    values.update(engine_layers(index))
    plain_rate = untraced.end_to_end()["ops_per_s"]["value"]
    traced_rate = run.end_to_end()["ops_per_s"]["value"]
    values["trace.ops_per_s_untraced"] = plain_rate
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.overhead_pct"] = (plain_rate / traced_rate - 1.0) * 100.0
    lines.append(
        f"tracing overhead: {plain_rate:.1f} ops/s untraced vs {traced_rate:.1f} "
        f"traced ({values['trace.overhead_pct']:+.2f}%), {len(tracer.spans)} spans"
    )
    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    lines.append(f"spans written to {spans_path.relative_to(out_dir.parent.parent)}")
    if not untraced.correct:
        lines.append(f"untraced pass failed {untraced.failed} operations")
    metrics = {
        name: metric(values[name], unit) for name, unit in LAYER_UNITS.items()
    }
    return _Combined(run, untraced), metrics, lines


class _Combined:
    """Both passes of a traced run count toward correctness."""

    def __init__(self, traced, untraced) -> None:
        self.ops = traced.ops + untraced.ops
        self.failed = traced.failed + untraced.failed
        self.correct = traced.correct and untraced.correct
