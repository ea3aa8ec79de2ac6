"""Self-tests of the benchmark harness (pytest; run from the repo root)."""

from __future__ import annotations

import asyncio
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for entry in (HERE, HERE.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from harness import (  # noqa: E402
    MIN_BEYOND,
    percentile,
    percentile_label,
    tail_fraction,
)
from tracing import SpanIndex, Tracer  # noqa: E402
import panzoom  # noqa: E402
import serving  # noqa: E402


# -- percentiles and the tail-sample rule ---------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 0.0) == 1
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


@pytest.mark.parametrize(
    "independent, expected",
    [(1000, 0.99), (5000, 0.99), (703, 0.985), (175, 0.942), (600, 0.983), (11, 0.09)],
)
def test_tail_fraction_pinned(independent, expected):
    assert tail_fraction(independent) == pytest.approx(expected, abs=1e-12)


def test_tail_fraction_leaves_ten_beyond_and_is_highest():
    for independent in range(MIN_BEYOND + 1, 3000):
        fraction = tail_fraction(independent)
        beyond = independent - math.ceil(round(fraction * independent, 9))
        assert beyond >= MIN_BEYOND, independent
        higher = round(fraction + 0.001, 3)
        if higher <= 0.99:
            assert independent - math.ceil(round(higher * independent, 9)) < MIN_BEYOND
    with pytest.raises(ValueError):
        tail_fraction(MIN_BEYOND)


def test_percentile_label():
    assert percentile_label(0.99) == "p99"
    assert percentile_label(0.985) == "p98.5"
    assert percentile_label(0.5) == "p50"


# -- spans -----------------------------------------------------------------
def test_self_time_subtracts_children():
    spans = [
        (0, "root", 0.0, 10.0, -1, 1, None),
        (1, "child", 1.0, 4.0, 0, 1, None),
        (2, "child", 5.0, 6.5, 0, 1, None),
        (3, "grandchild", 2.0, 3.0, 1, 1, None),
        (4, "other", 0.0, 2.0, -1, 2, None),
    ]
    index = SpanIndex(spans)
    assert index.self_time(index.spans[0]) == pytest.approx(10.0 - 3.0 - 1.5)
    assert index.self_time(index.spans[1]) == pytest.approx(3.0 - 1.0)
    assert index.self_time(index.spans[3]) == pytest.approx(1.0)
    assert index.child_time(index.spans[0], "child") == pytest.approx(4.5)
    assert index.descendants(index.spans[0], "grandchild") == 1
    assert [s[0] for s in index.named("child", parent="root")] == [1, 2]
    assert [s[0] for s in index.named("other", root=True)] == [4]


def test_tracer_links_parents_per_thread_and_restores():
    class Layer:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    tracer = Tracer()
    original = Layer.outer
    tracer.patch(Layer, "outer", "outer")
    tracer.patch(Layer, "inner", "inner", info=lambda args, result: {"value": result})
    layer = Layer()
    assert layer.outer(3) == 7
    assert tracer.spans == []  # disabled: no spans
    tracer.enabled = True
    worker = threading.Thread(target=layer.inner, args=(5,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert layer.outer(3) == 7
    tracer.enabled = False
    tracer.restore()
    assert Layer.outer is original
    index = SpanIndex(tracer.spans)
    (outer,) = index.named("outer")
    inners = index.named("inner")
    assert [s[4] for s in index.named("inner", parent="outer")] == [outer[0]]
    assert sorted(s[4] for s in inners) == [-1, outer[0]]  # thread's call is a root
    assert {s[6]["value"] for s in inners} == {6, 10}


# -- seeded inputs ---------------------------------------------------------
def test_same_seed_same_operations_and_moves():
    spec = serving.SPECS["serve-small"]
    ops = 4 * spec.swap_every
    first = serving.make_inputs(spec, 7, ops)
    second = serving.make_inputs(spec, 7, ops)
    other = serving.make_inputs(spec, 8, ops)
    assert first.points.xs == second.points.xs and first.points.ys == second.points.ys
    assert first.points.xs != other.points.xs
    assert len(first.steps) == serving.swap_count(ops, spec.swap_every) == 3
    assert [s.delta for s in first.steps] == [s.delta for s in second.steps]
    assert [n.fingerprint for n in first.networks] == [
        n.fingerprint for n in second.networks
    ]
    assert np.array_equal(first.check_rows, second.check_rows)
    assert first.network.fingerprint != other.network.fingerprint

    raster_a = panzoom.make_inputs(3, 240)
    raster_b = panzoom.make_inputs(3, 240)
    assert raster_a.traces == raster_b.traces
    assert raster_a.traces != panzoom.make_inputs(4, 240).traces
    assert [s.delta for s in raster_a.steps] == [s.delta for s in raster_b.steps]
    assert len(raster_a.steps) == (240 - 1) // panzoom.SWAP_EVERY


def test_raster_digest_is_bit_exact():
    from repro.model.diagram import RasterDiagram

    labels = np.zeros((4, 4), dtype=np.intp)
    sinr = np.random.default_rng(0).random((3, 4, 4))

    def digest(labels, sinr):
        axis = np.arange(4.0)
        return panzoom.raster_digest(
            RasterDiagram(xs=axis, ys=axis, labels=labels, sinr_values=sinr)
        )

    assert digest(labels, sinr) == digest(labels.copy(), sinr.copy())
    nudged = sinr.copy()
    nudged[1, 2, 3] = np.nextafter(nudged[1, 2, 3], 2.0)
    assert digest(labels, nudged) != digest(labels, sinr)
    relabeled = labels.copy()
    relabeled[0, 0] = 1
    assert digest(relabeled, sinr) != digest(labels, sinr)


def test_views_stay_on_the_tile_lattice():
    trace = panzoom.session_trace(5, 400, 4.0 * math.sqrt(panzoom.STATIONS))
    ranges = panzoom.level_ranges(4.0 * math.sqrt(panzoom.STATIONS))
    for view in trace:
        level, tile_x, tile_y = view
        low, high = ranges[level]
        assert low <= tile_x <= high and low <= tile_y <= high
        lower_left, upper_right = panzoom.view_box(view)
        pitch = panzoom.PITCHES[level]
        assert (upper_right.x - lower_left.x) / panzoom.VIEW_PX == pitch
        assert lower_left.x / (pitch * panzoom.TILE_PX) == tile_x


# -- the oracle check ------------------------------------------------------
def test_epoch_bounds():
    swap_starts, swap_ends = [10.0, 20.0], [12.0, 22.0]
    submit = np.array([0.0, 11.0, 13.0, 13.0, 21.0, 30.0])
    done = np.array([5.0, 11.5, 14.0, 20.5, 23.0, 31.0])
    low, high = serving.epoch_bounds(submit, done, swap_starts, swap_ends)
    assert low.tolist() == [0, 0, 1, 1, 1, 2]
    assert high.tolist() == [0, 1, 1, 2, 2, 2]


def test_oracle_check_catches_a_planted_wrong_answer():
    spec = serving.SPECS["serve-small"]
    inputs = serving.make_inputs(spec, 11, 4 * spec.swap_every)
    count = 6000
    points = serving.Queries(inputs.points.xs[:count], inputs.points.ys[:count])
    steps = inputs.steps[:2]

    async def serve():
        service = serving.QueryService(inputs.network, spec.locator)
        async with service:
            return await serving.closed_loop(service, points, 256, steps, 2000)

    result = asyncio.run(serve())
    assert not result.failures and len(result.swap_walls) == 2
    inputs.points = points
    inputs.check_rows = np.arange(count)
    assert serving.check_answers(spec, inputs, result) == (0, count)

    # An answer no epoch could give — on a query served wholly after the
    # last swap returned, where only one epoch qualifies.
    late = np.flatnonzero(result.submit > result.swap_ends[-1])
    row = int(late[0])
    truth = serving.epoch_oracle(inputs.networks, spec.oracle)(
        2, points.rows(np.asarray([row]))
    )[0]
    result.answers[row] = 0 if truth != 0 else 1
    assert serving.check_answers(spec, inputs, result) == (1, count)
