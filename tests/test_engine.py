"""Tests for the batched query engine (`repro.engine`).

Four families:

* backend equivalence — every registered backend (numpy, float32-screen)
  agrees with the pure-Python reference backend on randomized networks
  within 1e-9, including the coincident-point and
  overflow-close columns, and ``nearest_received`` equals the nearest
  station plus its reception check on every backend, at stations,
  Voronoi midpoints and points a hair off them;
* backend selection — the ContextVar-backed registry: nesting, exception
  safety, cross-thread isolation, and re-registration taking effect while a
  name is active;
* batch-vs-scalar agreement — every locator's ``locate_batch`` and every
  batch query function reproduces the scalar code path pointwise;
* edge cases — empty and single-point batches, coincident points, and the
  zero-distance / overflow regression of the scalar-kernel contract.
"""

from __future__ import annotations

import contextvars
import math
import threading

import numpy as np
import pytest

from repro import Point, SINRDiagram, Station, WirelessNetwork
from repro.engine import (
    NO_RECEPTION,
    NumpyBackend,
    QueryBackend,
    active_backend,
    as_points_array,
    available_backends,
    get_backend,
    heard_station_batch,
    kernels,
    nearest_received_batch,
    nearest_station_batch,
    points_per_chunk,
    received_at,
    received_mask,
    register_backend,
    sinr_batch,
    use_backend,
)
from repro.engine import backend as backend_module
from repro.engine import batch as batch_module
from repro.exceptions import EngineError, ReproError
from repro.model.diagram import raster_labels
from repro.model.sinr import received_energy, sinr_ratio
from repro.pointlocation import (
    BruteForceLocator,
    PointLocationStructure,
    VoronoiCandidateLocator,
    get_locator,
)
from repro.service import serve_points
from repro.workloads import random_query_array, uniform_random_network
from seeded_workloads import (
    boundary_grids,
    query_box_array,
    seeded_network,
    serving_network,
)

#: Every backend that must agree with the "reference" ground truth; newly
#: registered backends join automatically.
CANDIDATE_BACKENDS = sorted(set(available_backends()) - {"reference"})


@pytest.fixture(params=CANDIDATE_BACKENDS)
def candidate_backend(request):
    return get_backend(request.param)


def random_network(seed: int, noise: float = 0.005, beta: float = 3.0):
    # The shared seeded construction (tests/seeded_workloads.py), at the
    # engine suite's standard 6-station scale.
    return seeded_network(6, side=14.0, seed=seed, noise=noise, beta=beta)


def queries_for(network, count: int = 200, seed: int = 1) -> np.ndarray:
    return query_box_array(network, count, seed=seed, margin=3.0)


# ----------------------------------------------------------------------
# Points coercion
# ----------------------------------------------------------------------
class TestAsPointsArray:
    def test_accepts_array_points_and_tuples(self):
        array = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert as_points_array(array) is not None
        from_points = as_points_array([Point(0.0, 1.0), Point(2.0, 3.0)])
        from_tuples = as_points_array([(0.0, 1.0), (2.0, 3.0)])
        np.testing.assert_array_equal(from_points, array)
        np.testing.assert_array_equal(from_tuples, array)

    def test_single_point_and_pair(self):
        assert as_points_array(Point(1.0, 2.0)).shape == (1, 2)
        assert as_points_array((1.0, 2.0)).shape == (1, 2)
        assert as_points_array(np.array([1.0, 2.0])).shape == (1, 2)

    def test_empty_batch(self):
        assert as_points_array([]).shape == (0, 2)
        assert as_points_array(np.empty((0, 2))).shape == (0, 2)

    def test_empty_ndarray_is_empty_batch(self):
        # np.array([]) has shape (0,); it must coerce like the empty list.
        assert as_points_array(np.array([])).shape == (0, 2)
        assert as_points_array(np.zeros((0,))).shape == (0, 2)
        # Zero-size but malformed 2-d shapes stay errors: a (5, 0) array is
        # five queries whose coordinate axis was sliced away, not a batch.
        with pytest.raises(ValueError):
            as_points_array(np.zeros((5, 0)))
        with pytest.raises(ValueError):
            as_points_array(np.zeros((0, 3)))

    def test_single_point_promotions(self):
        single = as_points_array([Point(3.0, 4.0)])
        np.testing.assert_array_equal(single, [[3.0, 4.0]])
        flat = as_points_array(np.array([3.0, 4.0]))
        np.testing.assert_array_equal(flat, [[3.0, 4.0]])
        for pair in ((np.int64(3), np.int64(4)), (np.float32(3.0), np.float32(4.0))):
            np.testing.assert_array_equal(as_points_array(pair), [[3.0, 4.0]])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            as_points_array(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            as_points_array(np.zeros((4,)))
        with pytest.raises(ValueError):
            as_points_array(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            as_points_array([1.0])  # a lone coordinate is not a point
        for ragged in ([(1.0, 2.0), (3.0,)], "ab"):
            with pytest.raises(EngineError, match=r"\(x, y\) pairs"):
                as_points_array(ragged)


# ----------------------------------------------------------------------
# Backend registry / selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_default_is_numpy(self):
        assert active_backend().name == "numpy"

    def test_use_backend_context_restores(self):
        with use_backend("reference") as backend:
            assert backend.name == "reference"
            assert active_backend().name == "reference"
        assert active_backend().name == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(ReproError, match="available"):
            get_backend("gpu-of-the-future")
        with pytest.raises(ReproError, match="gpu-of-the-future"):
            use_backend("gpu-of-the-future")

    def test_registered_backend_matrix(self):
        assert set(available_backends()) == {"numpy", "reference", "float32-screen"}

    def test_use_backend_nesting_unwinds_in_order(self):
        with use_backend("reference"):
            assert active_backend().name == "reference"
            with use_backend("float32-screen"):
                assert active_backend().name == "float32-screen"
            assert active_backend().name == "reference"
        assert active_backend().name == "numpy"

    def test_use_backend_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_backend("reference"):
                assert active_backend().name == "reference"
                raise RuntimeError("boom")
        assert active_backend().name == "numpy"

    def test_use_backend_is_isolated_across_threads(self):
        barrier = threading.Barrier(2, timeout=10.0)
        seen = {}
        errors = []

        def worker(name):
            try:
                with use_backend(name):
                    barrier.wait()  # both threads hold their selection...
                    seen[name] = active_backend().name
                    barrier.wait()  # ...and observe it concurrently
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(name,))
            for name in ("reference", "float32-screen")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert seen == {"reference": "reference", "float32-screen": "float32-screen"}
        # The main thread's selection never saw either of them.
        assert active_backend().name == "numpy"

    def test_use_backend_accepts_backend_object(self):
        backend = NumpyBackend()
        with use_backend(backend) as selected:
            assert selected is backend
            assert active_backend() is backend
        assert active_backend() is get_backend("numpy")

    @pytest.mark.parametrize("bad", [123, None, object()],
                             ids=["number", "none", "object"])
    def test_a_selection_that_is_no_backend_is_refused(self, bad):
        """Regression: ``use_backend(123)`` was accepted and poisoned its
        context (every later engine call there raised a bare
        ``AttributeError: 'int' object has no attribute 'sinr_matrix'``),
        and ``sinr_batch(..., backend=object())`` failed the same way.
        Both are refused where the value is passed."""
        network = random_network(seed=1)
        points = queries_for(network, count=8)

        def select():
            with pytest.raises(ReproError, match="registered name or an object"):
                use_backend(bad)
            return active_backend(), sinr_batch(network, points)

        # A copied context, so a selection that slips through cannot leak.
        selected, values = contextvars.copy_context().run(select)
        assert selected is get_backend("numpy")
        np.testing.assert_array_equal(
            values, sinr_batch(network, points, backend="numpy")
        )
        if bad is not None:  # backend=None means the active backend
            with pytest.raises(ReproError, match="registered name or an object"):
                sinr_batch(network, points, backend=bad)

    def test_reregistration_takes_effect_while_active(self):
        class First:
            name = "first"

        class Second:
            name = "second"

        try:
            register_backend("ephemeral", First())
            with use_backend("ephemeral"):
                assert active_backend().name == "first"
                register_backend("ephemeral", Second())
                # A name-based selection re-resolves: no stale object.
                assert active_backend().name == "second"
        finally:
            backend_module.BACKENDS.unregister("ephemeral")

    def test_per_call_backend_override(self):
        network = random_network(seed=2)
        points = queries_for(network, count=16)
        default = sinr_batch(network, points)
        explicit = sinr_batch(network, points, backend="numpy")
        np.testing.assert_array_equal(default, explicit)


# ----------------------------------------------------------------------
# The backend protocol: four required methods, no optional capabilities
# ----------------------------------------------------------------------
PROTOCOL_METHODS = (
    "sinr_matrix",
    "received_mask_at",
    "nearest_received",
    "heard_station",
)


class TestBackendProtocol:
    def test_protocol_declares_the_four_methods(self):
        declared = {
            name
            for name, value in vars(QueryBackend).items()
            if callable(value) and not name.startswith("_")
        }
        assert declared == set(PROTOCOL_METHODS)

    @pytest.mark.parametrize("name", sorted(available_backends()))
    def test_every_backend_defines_every_method(self, name):
        backend = get_backend(name)
        missing = [
            method
            for method in PROTOCOL_METHODS
            if not callable(getattr(backend, method, None))
        ]
        assert missing == []


# ----------------------------------------------------------------------
# Backend equivalence (every registered backend vs pure-Python reference)
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sinr_matrix_agrees(self, seed, candidate_backend):
        network = random_network(seed=seed, noise=0.01 * seed, beta=2.0 + seed)
        points = queries_for(network, count=120, seed=seed + 10)
        candidate_result = sinr_batch(network, points, backend=candidate_backend)
        reference_result = sinr_batch(network, points, backend="reference")
        np.testing.assert_allclose(candidate_result, reference_result, rtol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_masks_and_argmax_agree(self, seed, candidate_backend):
        network = random_network(seed=seed)
        points = queries_for(network, count=120, seed=seed + 20)
        for index in range(len(network)):
            np.testing.assert_array_equal(
                received_mask(network, index, points, backend=candidate_backend),
                received_mask(network, index, points, backend="reference"),
            )
        np.testing.assert_array_equal(
            heard_station_batch(network, points, backend=candidate_backend),
            heard_station_batch(network, points, backend="reference"),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_received_at_agrees(self, seed, candidate_backend):
        network = random_network(seed=seed, noise=0.02, beta=1.5)
        points = queries_for(network, count=150, seed=seed + 30)
        # One asked-about station per point, rotated so every point is
        # asked about every station across the sweep.
        for shift in range(len(network)):
            indices = (np.arange(len(points)) + shift) % len(network)
            np.testing.assert_array_equal(
                received_at(network, indices, points, backend=candidate_backend),
                received_at(network, indices, points, backend="reference"),
            )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_low_beta_masks_agree(self, seed, candidate_backend):
        """beta < 1: several stations can be received at one point."""
        network = random_network(seed=seed, noise=0.001, beta=0.5)
        points = queries_for(network, count=120, seed=seed + 40)
        masks = [
            received_mask(network, index, points, backend="reference")
            for index in range(len(network))
        ]
        assert (np.sum(masks, axis=0) > 1).any()  # the regime is exercised
        for index, expected in enumerate(masks):
            np.testing.assert_array_equal(
                received_mask(network, index, points, backend=candidate_backend),
                expected,
            )
        np.testing.assert_array_equal(
            heard_station_batch(network, points, backend=candidate_backend),
            heard_station_batch(network, points, backend="reference"),
        )

    def test_equivalence_includes_coincident_and_overflow_columns(
        self, candidate_backend
    ):
        network = random_network(seed=5)
        # Station locations (coincident columns), points overflow-close to a
        # station, and ordinary query points, all in one batch.
        points = np.vstack(
            [
                network.coords,
                network.coords[0] + np.array([1e-200, 0.0]),
                network.coords[1] + np.array([0.0, 1e-160]),
                queries_for(network, count=20),
            ]
        )
        candidate = sinr_batch(network, points, backend=candidate_backend)
        np.testing.assert_allclose(
            candidate,
            sinr_batch(network, points, backend="reference"),
            rtol=1e-9,
        )
        assert not np.isnan(candidate).any()
        np.testing.assert_array_equal(
            heard_station_batch(network, points, backend=candidate_backend),
            heard_station_batch(network, points, backend="reference"),
        )


# ----------------------------------------------------------------------
# nearest_received: the Voronoi candidate and its reception in one query
# ----------------------------------------------------------------------
def nearest_received_networks():
    """``(id, network)`` pairs: the regimes the candidate rule must survive."""
    base = random_network(seed=30)
    stations = base.stations
    return [
        ("random-0", random_network(seed=31)),
        ("random-1", random_network(seed=32, noise=0.0, beta=1.5)),
        ("beta-0.5", random_network(seed=33, noise=0.001, beta=0.5)),
        (
            "non-uniform-powers",
            WirelessNetwork(
                [
                    Station(s.location, power=0.5 + i)
                    for i, s in enumerate(stations)
                ],
                noise=0.01,
                beta=1.2,
            ),
        ),
        (
            "alpha-3",
            WirelessNetwork(stations, noise=0.005, beta=2.0, alpha=3.0),
        ),
        ("duplicated", base.with_station(stations[2])),
    ]


def voronoi_probe_points(network, seed: int) -> np.ndarray:
    """Stations, exact pair midpoints (float64 ties: the lowest index
    wins), points 1e-7 relative either side of them, and generic points."""
    coords = network.coords
    first, second = np.triu_indices(len(coords), k=1)
    midpoints = (coords[first] + coords[second]) / 2.0
    return np.vstack(
        [
            coords,
            midpoints,
            midpoints * (1.0 + 1e-7),
            midpoints * (1.0 - 1e-7),
            queries_for(network, count=120, seed=seed),
        ]
    )


def nearest_then_received(network, points, backend):
    candidates = nearest_station_batch(network, points)
    heard = received_at(network, candidates, points, backend=backend)
    return np.where(heard, candidates, NO_RECEPTION)


class TestNearestReceived:
    @pytest.mark.parametrize(
        "network",
        [network for _, network in nearest_received_networks()],
        ids=[name for name, _ in nearest_received_networks()],
    )
    @pytest.mark.parametrize("backend", ["numpy", "reference", "float32-screen"])
    def test_equals_nearest_station_then_received_at(self, network, backend):
        points = voronoi_probe_points(network, seed=len(network))
        got = nearest_received_batch(network, points, backend=backend)
        np.testing.assert_array_equal(
            got, nearest_then_received(network, points, backend)
        )
        np.testing.assert_array_equal(
            got, nearest_received_batch(network, points, backend="numpy")
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_reference(self, seed, candidate_backend):
        network = random_network(seed=seed, noise=0.01 * seed, beta=1.5 + seed)
        points = voronoi_probe_points(network, seed=seed + 50)
        np.testing.assert_array_equal(
            nearest_received_batch(network, points, backend=candidate_backend),
            nearest_received_batch(network, points, backend="reference"),
        )

    @pytest.mark.parametrize("backend", ["numpy", "reference", "float32-screen"])
    def test_one_station_has_no_runner_up(self, backend):
        """A network needs two stations, but a backend serves raw arrays of
        one (a sharded locator's lone-station shard is such a case)."""
        coords = np.array([[2.0, -1.0]])
        powers = np.array([1.0])
        points = np.vstack(
            [coords, coords + 0.05, coords + 40.0, queries_for(random_network(1))]
        )
        indices = np.zeros(len(points), dtype=np.intp)
        for noise, beta in ((0.01, 2.0), (0.0, 1.5)):
            heard = kernels.received_mask_at(
                coords, powers, points, indices, noise, beta, 2.0
            )
            got = get_backend(backend).nearest_received(
                coords, powers, points, noise, beta, 2.0, NO_RECEPTION
            )
            np.testing.assert_array_equal(got, np.where(heard, 0, NO_RECEPTION))
            # Without noise and interference the lone station is heard
            # everywhere; with noise, not 40 units away.
            assert heard[:2].all() and heard[2] == (noise == 0.0)

    def test_points_whose_float32_energies_vanish_go_exact(self):
        """Without noise and with beta < 1 the nearest station is heard far
        away.  There float32 energies underflow to 0 (weak stations), or the
        squared distances overflow: the screen must flag the vanished total
        and the unseparated infinite distances, not answer from 0/0."""
        network = WirelessNetwork(
            [
                Station.at(0.0, 0.0, power=1e-20),
                Station.at(2.0, 0.0, power=1e-20),
                Station.at(1.0, 40.0, power=1e-20),
            ],
            noise=0.0,
            beta=0.3,
        )
        points = np.array(
            [[3e13, 7e13], [-1e15, 2e14], [3e19, 7e19], [5e22, -1e22], [1e25, 1e25]]
        )
        want = nearest_received_batch(network, points, backend="numpy")
        assert (want >= 0).all()
        for backend in ("reference", "float32-screen"):
            np.testing.assert_array_equal(
                nearest_received_batch(network, points, backend=backend), want
            )
        # A clearly nearest station whose float32 energies are subnormal:
        # they round to 71 and 7 steps of 2**-149, so a float32 SINR of 10.14
        # would certify reception where the float64 SINR is 10 < beta.
        x = math.sqrt(1e23)
        network = WirelessNetwork(
            [Station.at(0.0, 0.0, power=1e-20), Station.at(x + 1e12, 0.0, power=1e-20)],
            noise=0.0,
            beta=10.05,
        )
        for backend in ("numpy", "reference", "float32-screen"):
            assert nearest_received_batch(
                network, [(x, 0.0)], backend=backend
            ).tolist() == [NO_RECEPTION]

    def test_midpoint_ties_go_to_the_lowest_index(self):
        # beta < 1: both tied stations are received on their bisector.
        network = WirelessNetwork.uniform(
            [(0.0, 0.0), (2.0, 0.0), (1.0, 40.0)], noise=0.0, beta=0.5
        )
        points = np.array([[1.0, 0.0], [1.0, 0.5]])
        for backend in ("numpy", "reference", "float32-screen"):
            np.testing.assert_array_equal(
                nearest_received_batch(network, points, backend=backend), [0, 0]
            )

    def test_screen_verifies_only_uncertain_points_exactly(self, monkeypatch):
        """The screen makes no float64 ``(n, m)`` distance pass for a batch
        it certifies whole, and makes it over exactly the uncertain points
        otherwise (here: the points on stations)."""
        from repro.engine import Float32ScreenBackend

        network = seeded_network(12, side=20.0, seed=34)
        coords = network.coords
        near = coords + np.array([0.05, -0.03])
        calls = []
        real = kernels.pairwise_squared_distances

        def spy(station_coordinates, points):
            calls.append(len(points))
            return real(station_coordinates, points)

        monkeypatch.setattr(kernels, "pairwise_squared_distances", spy)
        screen = Float32ScreenBackend()
        expected = np.arange(len(coords))

        got = nearest_received_batch(network, near, backend=screen)
        np.testing.assert_array_equal(got, expected)
        assert screen.stats.verified == 0
        assert calls == []

        k = 4
        batch = np.vstack([near, coords[:k]])
        got = nearest_received_batch(network, batch, backend=screen)
        np.testing.assert_array_equal(got, np.concatenate([expected, expected[:k]]))
        assert screen.stats.verified == k
        assert calls and set(calls) == {k}


# ----------------------------------------------------------------------
# Memory-bounded chunking
# ----------------------------------------------------------------------
def peak_of(fn):
    """``(fn(), tracemalloc peak in bytes)`` of one call."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def set_chunk_bytes(monkeypatch, budget: int) -> None:
    """Run the rest of the test under another chunk byte budget."""
    monkeypatch.setattr(batch_module, "CHUNK_BYTES", budget)


class TestChunkedBatch:
    def test_points_per_chunk_never_below_one(self, monkeypatch):
        set_chunk_bytes(monkeypatch, 1)
        assert points_per_chunk(10_000) == 1

    @pytest.mark.parametrize("backend_name", ["numpy", "float32-screen"])
    @pytest.mark.parametrize("budget", [1, 40_000, 300_000, 5_000_000])
    def test_results_bit_identical_across_chunk_sizes(
        self, monkeypatch, backend_name, budget
    ):
        """Chunking is invisible: every query family, four budgets apart.

        The baseline runs under the 32 MiB budget (one single chunk at
        this scale), the comparison under budgets small enough for tens
        of chunks, down to one point per chunk — results must match to the
        bit.  Twelve stations, because numpy sums a lone column pairwise
        only from eight entries on: a smaller network could not show a
        one-point chunk rounding its interference total differently.
        """
        network = seeded_network(12, side=20.0, seed=50)
        points = np.vstack([queries_for(network, count=1500, seed=51),
                            network.coords])
        indices = np.arange(len(points)) % len(network)
        xs = np.linspace(-2.0, 22.0, 40)
        ys = np.linspace(-2.0, 22.0, 30)
        families = [
            lambda b: sinr_batch(network, points, backend=b),
            lambda b: raster_labels(network, xs, ys, b),
            lambda b: heard_station_batch(network, points, backend=b),
            lambda b: received_mask(network, 2, points, backend=b),
            lambda b: received_at(network, indices, points, backend=b),
            lambda b: nearest_received_batch(network, points, backend=b),
        ]
        baselines = [fn(backend_name) for fn in families]
        set_chunk_bytes(monkeypatch, budget)
        for fn, expected in zip(families, baselines):
            np.testing.assert_array_equal(fn(backend_name), expected)

    def test_peak_allocation_stays_bounded(self, monkeypatch):
        """The satellite regression: temporaries obey the byte budget.

        50 stations x 60k points would materialise ~24 MB per ``(n, m)``
        float64 temporary unchunked (several of them live at once); under a
        2 MiB budget the tracemalloc peak must stay near the budget plus the
        inherent output, an order of magnitude below the unchunked run —
        with bit-identical answers.
        """
        network = seeded_network(50, side=30.0, seed=77)
        points = query_box_array(network, 60_000, seed=78)
        budget = 2 * 2**20
        set_chunk_bytes(monkeypatch, budget)
        chunked, peak_chunked = peak_of(
            lambda: heard_station_batch(network, points)
        )
        set_chunk_bytes(monkeypatch, 1 << 34)
        unchunked, peak_unchunked = peak_of(
            lambda: heard_station_batch(network, points)
        )
        np.testing.assert_array_equal(chunked, unchunked)
        # Budgeted temporaries + the (m,) intp output + small slack; the
        # queries array itself was allocated before tracing started.
        inherent = len(points) * np.dtype(np.intp).itemsize
        assert peak_chunked <= budget + inherent + (1 << 20)
        assert peak_unchunked > 4 * peak_chunked

    @pytest.mark.parametrize(
        "locator_class", [BruteForceLocator, VoronoiCandidateLocator]
    )
    def test_locator_passes_stay_bounded(self, monkeypatch, locator_class):
        """The brute-force mask pass and the nearest-station candidate pass
        (shared by ``voronoi`` and ``theorem3``) obey the byte budget too."""
        network = seeded_network(50, side=30.0, seed=77)
        points = query_box_array(network, 30_000, seed=79)
        locator = locator_class(network)

        budget = 2**20
        set_chunk_bytes(monkeypatch, budget)
        chunked, peak_chunked = peak_of(lambda: locator.locate_batch(points))
        set_chunk_bytes(monkeypatch, 1 << 34)
        unchunked, peak_unchunked = peak_of(lambda: locator.locate_batch(points))
        np.testing.assert_array_equal(chunked, unchunked)
        # Budgeted temporaries + a few (m,) label / candidate / mask arrays.
        inherent = 4 * len(points) * np.dtype(np.int64).itemsize
        assert peak_chunked <= budget + inherent + (1 << 20)
        assert peak_unchunked > 4 * peak_chunked

    def test_rasters_inherit_chunking(self, monkeypatch):
        """Raster labels and their SINR values run through the chunked
        batch API, bit-identically."""
        diagram = SINRDiagram(random_network(seed=52))
        box = (Point(-1.0, -1.0), Point(15.0, 11.0), 64)
        raster = diagram.rasterize(*box)
        labels, values = raster.labels, raster.sinr_values
        set_chunk_bytes(monkeypatch, 40000)
        chunked = diagram.rasterize(*box)
        np.testing.assert_array_equal(chunked.labels, labels)
        np.testing.assert_array_equal(chunked.sinr_values, values)


class TestColumnTotals:
    """A column's interference total has the same bits however many points
    share its kernel call: the kernels add every block row by row."""

    @pytest.mark.parametrize("n", [8, 9, 50, 3200])
    def test_a_column_total_does_not_depend_on_the_call_width(self, n):
        rng = np.random.default_rng(n)
        side = 4.0 * math.sqrt(n)
        coords = rng.uniform(0.0, side, size=(n, 2))
        powers = rng.uniform(0.5, 2.0, size=n)
        points = rng.uniform(-4.0, side + 4.0, size=(1024, 2))
        energies = powers[:, None] / kernels.pairwise_squared_distances(
            coords, points
        )
        # The row-by-row order: a running sum down each column.
        running = np.add.accumulate(energies, axis=0)[-1]
        sinr = kernels.sinr_matrix(coords, powers, points, 0.01)
        blocks = [
            slice(start, start + m)
            for m in (1, 2, 3, 1024)
            for start in range(0, 1024 - m + 1, m)
        ]
        for block in blocks:
            np.testing.assert_array_equal(
                kernels.sinr_matrix(coords, powers, points[block], 0.01),
                sinr[:, block],
            )
        for block in blocks:
            np.testing.assert_array_equal(
                kernels._column_totals(np.ascontiguousarray(energies[:, block])),
                running[block],
            )


# ----------------------------------------------------------------------
# A point's answer does not depend on the points sharing its engine call
# ----------------------------------------------------------------------
#: Station 0's SINR at this point is within an ulp of beta = 3 on a
#: 9-station network: summed pairwise, as numpy sums one contiguous column,
#: it rounded to 3.0000000000000013; summed row by row, as in any wider
#: block, to 2.9999999999999996.
ONE_POINT_PROBE = (0.7497123076938413, 10.667261030678043)

#: Registered locators and the build options that keep them fast here.
LOCATOR_BUILDS = {
    "brute-force": {},
    "voronoi": {},
    "sharded:voronoi": {"shards": 2},
    "theorem3": {"epsilon": 0.4, "cover_method": "ray_sweep"},
}


def one_point_probe_network():
    return seeded_network(
        9, side=12.0, seed=1, minimum_separation=1.5, noise=0.002, beta=3.0
    )


class TestAnswersIndependentOfBatching:
    @pytest.mark.parametrize("backend", ["numpy", "float32-screen"])
    @pytest.mark.parametrize("name", sorted(LOCATOR_BUILDS))
    def test_alone_in_a_batch_and_as_brute_force(self, name, backend):
        """One answer for the probe: alone (a one-point kernel call), beside
        a far point (a two-point call for the dense locators; the sharded
        and theorem3 verifies still check it alone), beside itself, and
        the numpy brute-force answer of the two-point batch."""
        network = one_point_probe_network()
        probe, far = ONE_POINT_PROBE, (100.0, 100.0)
        want = BruteForceLocator(network).locate_batch([probe, far])[0]
        with use_backend(backend):
            locator = get_locator(name).build(network, **LOCATOR_BUILDS[name])
            got = [
                locator.locate_batch([probe])[0],
                locator.locate_batch([probe, far])[0],
                locator.locate_batch([probe, probe])[0],
            ]
        assert [int(label) for label in got] == [want] * 3

    def test_micro_batching_does_not_change_an_answer(self):
        network = one_point_probe_network()
        points = [ONE_POINT_PROBE, ONE_POINT_PROBE]
        np.testing.assert_array_equal(
            serve_points(network, points, "brute-force", max_batch_size=1),
            serve_points(network, points, "brute-force"),
        )


# ----------------------------------------------------------------------
# Non-finite query points (the as_points_array contract)
# ----------------------------------------------------------------------
NON_FINITE = np.array(
    [
        [np.nan, 1.0],
        [1.0, np.nan],
        [np.nan, np.nan],
        [np.inf, 1.0],
        [-np.inf, 2.0],
        [1.0, -np.inf],
        [np.inf, np.nan],
        # Finite, but every squared distance overflows: infinitely far too.
        [1e308, 1e308],
        [-1e308, 2.0],
    ]
)


class TestNonFinitePoints:
    """A point with a non-finite coordinate, or one so far away that every
    energy is 0, hears no station, on every backend and whether or not the
    network has noise (without noise such a point divides 0 by 0, which is
    no infinite SINR)."""

    @pytest.mark.parametrize("noise", [0.005, 0.0])
    @pytest.mark.parametrize("backend", ["numpy", "reference", "float32-screen"])
    def test_no_station_is_received(self, backend, noise):
        network = random_network(seed=12, noise=noise)
        finite = queries_for(network, count=30, seed=13)
        points = np.vstack([NON_FINITE, finite])
        labels = heard_station_batch(network, points, backend=backend)
        assert (labels[: len(NON_FINITE)] == NO_RECEPTION).all()
        np.testing.assert_array_equal(
            labels[len(NON_FINITE):],
            heard_station_batch(network, finite, backend=backend),
        )
        with use_backend(backend):
            brute = BruteForceLocator(network).locate_batch(NON_FINITE)
        assert (brute == NO_RECEPTION).all()
        for index in range(len(network)):
            assert not received_mask(
                network, index, NON_FINITE, backend=backend
            ).any()
        indices = np.arange(len(NON_FINITE)) % len(network)
        assert not received_at(network, indices, NON_FINITE, backend=backend).any()
        nearest = nearest_received_batch(network, points, backend=backend)
        assert (nearest[: len(NON_FINITE)] == NO_RECEPTION).all()
        np.testing.assert_array_equal(
            nearest[len(NON_FINITE):],
            nearest_received_batch(network, finite, backend=backend),
        )
        sinr = sinr_batch(network, NON_FINITE, backend=backend)
        assert not (sinr >= network.beta).any()
        nan_only = np.isnan(NON_FINITE).any(axis=1) & ~np.isinf(NON_FINITE).any(axis=1)
        assert np.isnan(sinr[:, nan_only]).all()


# ----------------------------------------------------------------------
# Batch vs scalar agreement
# ----------------------------------------------------------------------
class TestBatchMatchesScalar:
    def test_sinr_batch_matches_scalar_sinr(self):
        network = random_network(seed=3)
        points = queries_for(network, count=150)
        matrix = sinr_batch(network, points)
        for index in range(len(network)):
            scalar = [network.sinr(index, Point(x, y)) for x, y in points]
            np.testing.assert_allclose(matrix[index], scalar, rtol=1e-12)

    def test_received_mask_matches_is_received(self):
        network = random_network(seed=4)
        points = np.vstack([network.coords, queries_for(network, count=150)])
        for index in range(len(network)):
            mask = received_mask(network, index, points)
            scalar = [network.is_received(index, Point(x, y)) for x, y in points]
            np.testing.assert_array_equal(mask, scalar)

    def test_received_mask_at_kernel_matches_matrix_rows(self):
        network = random_network(seed=5)
        # Include exactly-coincident and overflow-close columns: the gathered
        # kernel must reproduce every edge case of the full matrix.
        points = np.vstack(
            [
                network.coords,
                network.coords[:3] + 1e-200,
                queries_for(network, count=120),
            ]
        )
        # The full mask: every SINR row against beta, except that a point
        # occupied by stations is received exactly by the co-located ones.
        at_station = kernels.coincidence_matrix(network.coords, points)
        full = np.where(
            at_station.any(axis=0),
            at_station,
            kernels.sinr_matrix(
                network.coords, network.powers_array(), points,
                network.noise, network.alpha,
            ) >= network.beta,
        )
        for index in range(len(network)):
            row = kernels.received_mask_at(
                network.coords, network.powers_array(), points,
                np.full(len(points), index, dtype=np.intp),
                network.noise, network.beta, network.alpha,
            )
            np.testing.assert_array_equal(row, full[index])
        # The per-point-index gather variant must match the matrix gather.
        rng = np.random.default_rng(0)
        indices = rng.integers(0, len(network), size=len(points))
        gathered = kernels.received_mask_at(
            network.coords, network.powers_array(), points, indices,
            network.noise, network.beta, network.alpha,
        )
        np.testing.assert_array_equal(
            gathered, full[indices, np.arange(len(points))]
        )

    def test_received_mask_agrees_on_the_reference_backend(self):
        # The reference backend gathers its received_mask_at from its full
        # mask matrix; received_mask must agree with the numpy kernel.
        network = random_network(seed=4)
        points = queries_for(network, count=40)
        with use_backend("reference"):
            fallback = received_mask(network, 0, points)
        np.testing.assert_array_equal(fallback, received_mask(network, 0, points))

    def test_heard_station_batch_matches_diagram(self):
        network = random_network(seed=6)
        diagram = SINRDiagram(network)
        points = queries_for(network, count=150)
        labels = heard_station_batch(network, points)
        for (x, y), label in zip(points, labels):
            scalar = diagram.station_heard_at(Point(x, y))
            assert (scalar if scalar is not None else -1) == label

    def test_heard_station_batch_matches_diagram_beta_below_one(self):
        network = random_network(seed=7, beta=0.3, noise=0.05)
        diagram = SINRDiagram(network)
        points = queries_for(network, count=150)
        labels = heard_station_batch(network, points)
        for (x, y), label in zip(points, labels):
            scalar = diagram.station_heard_at(Point(x, y))
            assert (scalar if scalar is not None else -1) == label


class TestLocatorBatches:
    @pytest.mark.parametrize("beta", [3.0, 0.5])
    def test_brute_force_locate_batch(self, beta):
        network = random_network(seed=9, beta=beta, noise=0.01)
        locator = BruteForceLocator(network)
        points = queries_for(network, count=200)
        labels = locator.locate_batch(points)
        assert labels.dtype == np.int64
        for (x, y), label in zip(points, labels):
            assert locator.locate(Point(x, y)) == label

    def test_voronoi_candidate_locate_batch(self):
        network = random_network(seed=10)
        locator = VoronoiCandidateLocator(network)
        points = queries_for(network, count=200)
        labels = locator.locate_batch(points)
        assert labels.dtype == np.int64
        for (x, y), label in zip(points, labels):
            assert locator.locate(Point(x, y)) == label

    def test_structure_locate_batch(self):
        network = random_network(seed=11)
        structure = PointLocationStructure(network, epsilon=0.4)
        points = queries_for(network, count=200)
        labels = structure.locate_batch(points)
        assert labels.dtype == np.int64
        for (x, y), label in zip(points, labels):
            assert structure.locate(Point(x, y)) == label

    def test_structure_locate_answers_match_answer(self):
        network = random_network(seed=11)
        structure = PointLocationStructure(network, epsilon=0.4)
        points = queries_for(network, count=100)
        answers = structure.locate_answers(points)
        for (x, y), answer in zip(points, answers):
            scalar = structure.locate_answer(Point(x, y))
            assert scalar.station == answer.station
            assert scalar.label == answer.label

    def test_empty_and_single_point_batches(self):
        network = random_network(seed=14)
        structure = PointLocationStructure(network, epsilon=0.4)
        voronoi = VoronoiCandidateLocator(network)
        brute = BruteForceLocator(network)

        assert structure.locate_batch([]).shape == (0,)
        assert structure.locate_answers([]) == []
        assert voronoi.locate_batch([]).shape == (0,)
        assert brute.locate_batch(np.empty((0, 2))).shape == (0,)
        assert sinr_batch(network, []).shape == (len(network), 0)

        single = structure.locate_batch(Point(1.0, 1.0))
        assert single.shape == (1,)
        assert single[0] == structure.locate(Point(1.0, 1.0))
        assert voronoi.locate_batch(Point(1.0, 1.0)).shape == (1,)


# ----------------------------------------------------------------------
# One heard-station rule below beta = 1
# ----------------------------------------------------------------------
class TestOneHeardStationRule:
    """Below ``beta = 1`` several stations can be received at one point;
    the station heard is the one with the highest SINR.  Brute force (batch
    and scalar), ``voronoi``, the engine's ``heard_station``, the diagram's
    scalar query and raster labels all answer by that one rule, on every
    backend."""

    @pytest.mark.parametrize("backend", ["numpy", "reference", "float32-screen"])
    @pytest.mark.parametrize("beta", [0.3, 0.5])
    def test_every_path_agrees(self, beta, backend):
        network = uniform_random_network(
            12, side=12.0, minimum_separation=1.5, noise=0.001, beta=beta,
            seed=3,
        )
        count, resolution = (1000, 30) if backend == "reference" else (3000, 90)
        points = random_query_array(count, Point(-3, -3), Point(15, 15), seed=0)
        diagram = SINRDiagram(network)
        brute = BruteForceLocator(network)
        with use_backend(backend):
            heard = heard_station_batch(network, points)
            brute_batch = brute.locate_batch(points)
            voronoi = VoronoiCandidateLocator(network).locate_batch(points)
            raster = diagram.rasterize(Point(-3, -3), Point(15, 15), resolution)
            grid_x, grid_y = np.meshgrid(raster.xs, raster.ys)
            pixels = np.column_stack((grid_x.ravel(), grid_y.ravel()))
            pixel_brute = brute.locate_batch(pixels)

        # The points tell the rules apart: where several stations are
        # received, the lowest received index is not always the one heard.
        received = sinr_batch(network, points) >= beta
        lowest = np.where(received.any(axis=0), np.argmax(received, axis=0), -1)
        assert (lowest != heard).any()

        np.testing.assert_array_equal(brute_batch, heard)
        np.testing.assert_array_equal(voronoi, heard)
        np.testing.assert_array_equal(raster.labels.ravel(), pixel_brute)
        sample = points[:300]
        scalar_brute = [brute.locate(Point(x, y)) for x, y in sample]
        scalar_diagram = [
            diagram.station_heard_at(Point(x, y)) for x, y in sample
        ]
        np.testing.assert_array_equal(scalar_brute, heard[:300])
        np.testing.assert_array_equal(
            [NO_RECEPTION if h is None else h for h in scalar_diagram],
            heard[:300],
        )


# ----------------------------------------------------------------------
# Zero-distance / overflow regression (satellite of the engine PR)
# ----------------------------------------------------------------------
class TestCoincidentAndOverflowEdges:
    def network(self):
        return WirelessNetwork.uniform(
            [(0.0, 0.0), (4.0, 0.0), (1.0, 5.0)], noise=0.01, beta=2.0
        )

    def test_scalar_energy_is_inf_at_station_and_under_overflow(self):
        station = Point(0.0, 0.0)
        assert received_energy(station, 1.0, Point(0.0, 0.0)) == math.inf
        # 1e-200 ** -2 overflows the float range: saturates to inf.
        assert received_energy(station, 1.0, Point(1e-200, 0.0)) == math.inf

    def test_kernel_energy_agrees_with_scalar_at_edges(self):
        network = self.network()
        points = np.array([[0.0, 0.0], [1e-200, 0.0], [1e-160, 0.0], [0.5, 0.5]])
        matrix = sinr_batch(network, points)
        for i in range(len(network)):
            mask = received_mask(network, i, points)
            for j, (x, y) in enumerate(points):
                point = Point(x, y)
                assert mask[j] == network.is_received(i, point)
                energies = [network.energy(k, point) for k in range(len(network))]
                if math.isinf(energies[i]):
                    # The edge contract: a coincident or overflowing energy
                    # is an infinite SINR, received.
                    assert matrix[i, j] == math.inf and mask[j]
                elif any(math.isinf(energy) for energy in energies):
                    # Drowned by a competitor's infinite energy.
                    assert matrix[i, j] == 0.0 and not mask[j]
                else:
                    # Ordinary points: hypot-then-power vs squared-power may
                    # differ in the last ulp.
                    assert matrix[i, j] == pytest.approx(
                        network.sinr(i, point), rel=1e-12
                    )

    def test_scalar_sinr_ratio_no_nan_at_overflow_points(self):
        network = self.network()
        # Not a station location (so no exception), but overflow-close to s0.
        point = Point(1e-160, 0.0)
        ratio = sinr_ratio(
            network.locations(), network.powers(), 0, point, network.noise
        )
        assert ratio == math.inf
        drowned = sinr_ratio(
            network.locations(), network.powers(), 1, point, network.noise
        )
        assert drowned == 0.0

    def test_no_nan_leakage_through_batch_sinr(self, candidate_backend):
        network = self.network()
        points = np.array(
            [[0.0, 0.0], [4.0, 0.0], [1e-200, 0.0], [1e-160, 0.0], [2.0, 1.0]]
        )
        for backend in (candidate_backend, "reference"):
            matrix = sinr_batch(network, points, backend=backend)
            assert not np.isnan(matrix).any()
        # The co-located station owns its point: inf for it, 0 for the rest.
        matrix = sinr_batch(network, points)
        assert matrix[0, 0] == math.inf and matrix[1, 0] == 0.0
        assert matrix[1, 1] == math.inf and matrix[0, 1] == 0.0

    def test_shared_location_heard_by_first_station_only(self):
        network = WirelessNetwork(
            stations=(
                Station.at(0.0, 0.0),
                Station.at(0.0, 0.0),
                Station.at(5.0, 0.0),
            ),
            noise=0.0,
            beta=2.0,
        )
        points = np.array([[0.0, 0.0]])
        for index in range(3):
            mask = received_mask(network, index, points)
            assert mask[0] == network.is_received(index, Point(0.0, 0.0))
        assert heard_station_batch(network, points)[0] == 0
        # The scalar diagram query uses the same first-co-located convention.
        assert SINRDiagram(network).station_heard_at(Point(0.0, 0.0)) == 0


# ----------------------------------------------------------------------
# Cached network arrays
# ----------------------------------------------------------------------
class TestCachedNetworkArrays:
    def test_coords_and_powers_are_cached_and_read_only(self):
        network = random_network(seed=15)
        assert network.coords is network.coords
        assert network.powers_array() is network.powers_array()
        with pytest.raises(ValueError):
            network.coords[0, 0] = 99.0
        with pytest.raises(ValueError):
            network.powers_array()[0] = 99.0

    def test_mutated_networks_get_fresh_caches(self):
        network = random_network(seed=16)
        _ = network.coords
        moved = network.with_station_moved(0, Point(100.0, 100.0))
        assert moved.coords[0, 0] == 100.0
        assert network.coords[0, 0] != 100.0
        shrunk = network.without_station(0)
        assert shrunk.coords.shape == (len(network) - 1, 2)

    def test_coords_values_match_locations(self):
        network = random_network(seed=17)
        np.testing.assert_array_equal(
            network.coords,
            np.array([[p.x, p.y] for p in network.locations()]),
        )


# ----------------------------------------------------------------------
# The in-place energy pass and its rare columns
# ----------------------------------------------------------------------
def rare_and_ordinary_points(coords: np.ndarray, seed: int) -> np.ndarray:
    """Ordinary points interleaved with every kind of rare column: on a
    station (a duplicated one too), overflow-close and subnormal offsets,
    NaN, infinite and +-1e308 coordinates."""
    rng = np.random.default_rng(seed)
    ordinary = rng.uniform(-2.0, coords.max() + 2.0, size=(40, 2))
    rare = np.vstack([
        coords,
        coords[:3] + 1e-170,
        coords[:3] + np.array([5e-324, -2.2e-308]),
        [[math.nan, 1.0], [2.0, math.nan], [math.inf, 0.0],
         [-math.inf, -math.inf], [1e308, 1e308], [-1e308, 1e308]],
    ])
    mixed = np.vstack([ordinary, rare])
    return mixed[rng.permutation(len(mixed))]


def lean_kernel_cases():
    """Raw-array networks: a duplicated station, noise 0 or not, three
    exponents, uniform and non-uniform powers, and powers whose energy
    totals overflow."""
    coords = np.array(
        [[0.0, 0.0], [3.0, 0.5], [3.0, 0.5], [1.0, 4.0], [5.0, 5.0], [-2.0, 3.0]]
    )
    uneven = np.array([1.0, 0.5, 2.0, 1.5, 0.7, 3.0])
    return [
        (coords, np.ones(6), 0.01, 3.0, 2.0),
        (coords, uneven, 0.0, 0.5, 2.0),
        (coords, uneven, 0.002, 1.01, 3.0),
        (coords, np.ones(6), 0.0, 0.3, 4.5),
        (coords, np.full(6, 1e307), 0.0, 1.0, 2.0),
    ]


class TestLeanKernels:
    """Each kernel decides every column in one in-place energy pass and
    overrides the rare ones (zero distance, non-finite total) in the pass's
    own output; a batch mixing both answers every point as a one-point
    call does, and decides as the reference backend does."""

    @staticmethod
    def calls(coords, powers, noise, beta, alpha):
        reference = get_backend("reference")
        n = len(coords)
        return {
            "sinr_matrix": (
                lambda pts, idx: kernels.sinr_matrix(coords, powers, pts, noise, alpha),
                None,
            ),
            "heard_station": (
                lambda pts, idx: kernels.heard_station(
                    coords, powers, pts, noise, beta, alpha, NO_RECEPTION
                ),
                lambda pts, idx: reference.heard_station(
                    coords, powers, pts, noise, beta, alpha, NO_RECEPTION
                ),
            ),
            "received_mask_at": (
                lambda pts, idx: kernels.received_mask_at(
                    coords, powers, pts, idx, noise, beta, alpha
                ),
                lambda pts, idx: reference.received_mask_at(
                    coords, powers, pts, idx, noise, beta, alpha
                ),
            ),
            "nearest_received": (
                lambda pts, idx: kernels.nearest_received(
                    coords, powers, pts, noise, beta, alpha, NO_RECEPTION
                ),
                lambda pts, idx: reference.nearest_received(
                    coords, powers, pts, noise, beta, alpha, NO_RECEPTION
                ),
            ),
        }, n

    @pytest.mark.parametrize("case", range(len(lean_kernel_cases())))
    def test_mixed_batch_equals_one_point_calls_and_reference(self, case):
        coords, powers, noise, beta, alpha = lean_kernel_cases()[case]
        points = rare_and_ordinary_points(coords, seed=case)
        calls, n = self.calls(coords, powers, noise, beta, alpha)
        indices = np.arange(len(points)) % n
        with np.errstate(all="ignore"):
            for name, (kernel, reference) in calls.items():
                batch = kernel(points, indices)
                for j in range(len(points)):
                    one = kernel(points[j : j + 1], indices[j : j + 1])
                    np.testing.assert_array_equal(
                        one, batch[..., j : j + 1], err_msg=f"{name} point {j}"
                    )
                if reference is not None:
                    np.testing.assert_array_equal(
                        batch, reference(points, indices), err_msg=name
                    )

    def test_candidate_indices_may_be_a_list(self):
        """The rare columns' overrides select their candidates by index,
        which a plain list of indices must survive too."""
        coords, powers, noise, beta, alpha = lean_kernel_cases()[0]
        points = rare_and_ordinary_points(coords, seed=9)
        indices = [j % len(coords) for j in range(len(points))]
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(
                kernels.received_mask_at(
                    coords, powers, points, indices, noise, beta, alpha
                ),
                kernels.received_mask_at(
                    coords, powers, points, np.array(indices), noise, beta, alpha
                ),
            )

    @pytest.mark.parametrize(
        "name", ["sinr_matrix", "heard_station", "received_mask_at", "nearest_received"]
    )
    def test_peak_memory_is_about_two_blocks(self, name):
        """A 50-station x 4,096-point call (one 64 px raster tile) holds
        the squared distances turned energies, and the SINR matrix where
        one is formed: its tracemalloc peak stays under 3.5 ``(n, m)``
        float64 blocks."""
        rng = np.random.default_rng(24)
        coords = rng.uniform(0.0, 28.0, size=(50, 2))
        points = rng.uniform(-4.0, 32.0, size=(4096, 2))
        calls, n = self.calls(coords, np.ones(50), 0.002, 3.0, 2.0)
        indices = rng.integers(0, n, size=len(points))
        kernel = calls[name][0]
        kernel(points, indices)
        _, peak = peak_of(lambda: kernel(points, indices))
        assert peak < 3.5 * 50 * 4096 * 8

    @pytest.mark.parametrize("kind", ["on_stations", "nan"])
    @pytest.mark.parametrize(
        "name", ["sinr_matrix", "heard_station", "received_mask_at", "nearest_received"]
    )
    def test_a_chunk_of_rare_columns_fits_the_budget(self, name, kind):
        """A chunk of ``points_per_chunk(n)`` points that all sit on
        stations (two of them co-located), or all have a NaN coordinate, is
        answered wholly by the rare-column overrides: its tracemalloc peak
        stays under the byte budget the chunk was sized by."""
        rng = np.random.default_rng(28)
        coords = rng.uniform(0.0, 28.0, size=(50, 2))
        coords[-1] = coords[0]
        m = points_per_chunk(len(coords))
        if kind == "on_stations":
            points = coords[np.arange(m) % len(coords)]
        else:
            points = np.column_stack([np.full(m, math.nan), rng.uniform(0.0, 28.0, m)])
        calls, n = self.calls(coords, np.ones(50), 0.002, 3.0, 2.0)
        indices = rng.integers(0, n, size=m)
        kernel = calls[name][0]
        with np.errstate(all="ignore"):
            kernel(points, indices)
            _, peak = peak_of(lambda: kernel(points, indices))
        assert peak < batch_module.CHUNK_BYTES



# ----------------------------------------------------------------------
# The silence certificate of the numpy heard_station kernel
# ----------------------------------------------------------------------
CERTIFIED_BACKENDS = ["numpy", "float32-screen"]


def dense_rule(network, points, backend):
    """The heard-station rule rebuilt from ``sinr_batch``: the SINR argmax,
    heard where it reaches beta."""
    ratio = sinr_batch(network, points, backend=backend)
    best = np.argmax(ratio, axis=0)
    heard = ratio[best, np.arange(len(points))] >= network.beta
    return np.where(heard, best, NO_RECEPTION)


def count_dense_points(monkeypatch):
    """A one-item list counting the points sent to ``kernels.sinr_matrix``."""
    sent = [0]
    real = kernels.sinr_matrix

    def counting(coords, powers, points, *args):
        sent[0] += len(points)
        return real(coords, powers, points, *args)

    monkeypatch.setattr(kernels, "sinr_matrix", counting)
    return sent


def assert_dense_rule(monkeypatch, network, grids, backend) -> int:
    """``heard_station_batch`` equals :func:`dense_rule` on every grid, each
    grid one kernel call; returns how many points the certificate decided."""
    sent = count_dense_points(monkeypatch)
    certified = 0
    for points in grids:
        want = dense_rule(network, points, backend)
        before = sent[0]
        got = heard_station_batch(network, points, backend=backend)
        certified += len(points) - (sent[0] - before)
        np.testing.assert_array_equal(got, want)
    return certified


def pixel_grid(x0, y0, pitch, size=64):
    """The pixel centres of a ``size`` x ``size`` tile with corner (x0, y0)."""
    centres = (np.arange(size) + 0.5) * pitch
    xs, ys = np.meshgrid(x0 + centres, y0 + centres)
    return np.column_stack([xs.ravel(), ys.ravel()])


def tiles_over(network, pitch, count, seed):
    """``count`` 64 px tiles at ``pitch``: half around stations, half at
    random spots of the deployment."""
    rng = np.random.default_rng(seed)
    coords = network.coords
    around = coords[rng.choice(len(coords), count // 2, replace=False)]
    spots = rng.uniform(-4.0, coords.max() + 4.0, size=(count - count // 2, 2))
    corners = np.vstack([around - 32 * pitch, spots])
    return [pixel_grid(x, y, pitch) for x, y in corners]


class TestSilenceCertificate:
    """``heard_station`` certifies silent points from the stations nearest
    the call's box and sends only the rest to the dense pass.  The
    certificate has no margin, so its answers must be the dense rule's
    bits: on tiles, across powers, thresholds, noise and scales, at
    co-located stations and on-station pixels, on ulp-pitch grids across
    zone boundaries, and where the partial sum equals the total."""

    @pytest.mark.parametrize("backend", CERTIFIED_BACKENDS)
    @pytest.mark.parametrize("n", [13, 50, 200])
    def test_tiles_of_serving_networks(self, monkeypatch, n, backend):
        network = serving_network(n)
        grids = tiles_over(network, 1 / 16, 8, seed=n)
        grids += tiles_over(network, 1 / 8, 4, seed=n + 1)
        assert assert_dense_rule(monkeypatch, network, grids, backend) > 0

    @pytest.mark.parametrize("backend", CERTIFIED_BACKENDS)
    @pytest.mark.parametrize("noise", [0.0, 0.002])
    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.0, 1.0 + 1e-7, 3.0])
    def test_uneven_powers_thresholds_and_noise(
        self, monkeypatch, beta, noise, backend
    ):
        powers = np.random.default_rng(5).uniform(0.2, 5.0, size=50)
        network = serving_network(50, seed=2, noise=noise, beta=beta, powers=powers)
        grids = tiles_over(network, 1 / 8, 4, seed=3)
        assert_dense_rule(monkeypatch, network, grids, backend)

    @pytest.mark.parametrize("backend", CERTIFIED_BACKENDS)
    @pytest.mark.parametrize("scale", [1e-150, 1e-75, 1e75, 1e150])
    def test_extreme_scales(self, monkeypatch, scale, backend):
        """Coordinates times ``scale`` and noise over its square: the same
        diagram, with energies near the overflow and subnormal ranges."""
        base = serving_network(50, seed=4)
        network = WirelessNetwork.uniform(
            base.coords * scale, noise=base.noise / scale**2, beta=base.beta
        )
        grids = [grid * scale for grid in tiles_over(base, 1 / 8, 6, seed=5)]
        grids += [grid * scale for grid in boundary_grids(base, [9], rays=2)]
        assert assert_dense_rule(monkeypatch, network, grids, backend) > 0

    @pytest.mark.parametrize("backend", CERTIFIED_BACKENDS)
    def test_co_located_stations_and_on_station_pixels(self, monkeypatch, backend):
        """Stations sit exactly on pixel centres of the tiles, four of them
        twice over: those pixels hear the first co-located station."""
        pitch = 1 / 16
        snapped = (np.floor(serving_network(30, seed=6).coords / pitch) + 0.5) * pitch
        network = WirelessNetwork.uniform(
            np.vstack([snapped, snapped[:4]]), noise=0.002, beta=3.0
        )
        grids = [
            pixel_grid(*((np.floor(station / pitch) - 32) * pitch), pitch)
            for station in snapped[:6]
        ]
        for grid, station in zip(grids, snapped):
            assert (grid == station).all(axis=1).any()
        assert assert_dense_rule(monkeypatch, network, grids, backend) > 0

    @pytest.mark.parametrize("backend", CERTIFIED_BACKENDS)
    def test_ulp_pitch_grids_across_zone_boundaries(self, monkeypatch, backend):
        """32 x 32 grids centred on zone boundary points found along rays,
        at pitches from 3 ulps to 1e-3: both sides of each boundary, and
        points within a few ulps of it."""
        network = serving_network(50, seed=7)
        grids = boundary_grids(network, [3, 17, 29], rays=4)
        assert_dense_rule(monkeypatch, network, grids, backend)
        ulp_pitched = heard_station_batch(network, np.vstack(grids[::4]))
        assert (ulp_pitched == NO_RECEPTION).any() and (ulp_pitched >= 0).any()

    @pytest.mark.parametrize("backend", CERTIFIED_BACKENDS)
    def test_a_cluster_far_from_the_rest(self, monkeypatch, backend):
        """Twelve stations within a few units and twenty about 1e8 away,
        whose energies add up to about an ulp of the total: the partial sum
        is within two ulps of the total, so certified pixels sit within
        ulps of the zone boundaries."""
        cluster = serving_network(12, seed=9).coords
        far = 1e8 + np.random.default_rng(8).uniform(0.0, 1e6, size=(20, 2))
        network = WirelessNetwork.uniform(
            np.vstack([far[:10], cluster, far[10:]]), noise=0.002, beta=3.0
        )
        tiles = [pixel_grid(x, y, 1 / 16) for x, y in cluster[:4] - 2.0]
        assert assert_dense_rule(monkeypatch, network, tiles, backend) > 0
        ulp_pitched = boundary_grids(network, [10, 15], rays=3)[::4]
        assert assert_dense_rule(monkeypatch, network, ulp_pitched, backend) > 0

    @pytest.mark.parametrize("backend", CERTIFIED_BACKENDS)
    def test_pixels_whose_sinr_is_exactly_beta(self, monkeypatch, backend):
        """Twelve stations and one 1e9 away, whose energy is below half an
        ulp of the others' total, so the partial sum is the total and the
        certified ratio is the dense SINR.  With beta set to the SINR of a
        pixel next to a zone boundary, the dense pass hears the station
        there, and the certificate must not call that pixel silent."""
        cluster = serving_network(12, seed=9).coords
        base = WirelessNetwork.uniform(
            np.vstack([cluster, [[1e9, 1e9]]]), noise=0.002, beta=3.0
        )
        grid = boundary_grids(base, [4], rays=1)[0]  # at a 3-ulp pitch
        best = sinr_batch(base, grid).max(axis=0)
        for pixel in range(0, len(grid), 128):
            network = base.with_beta(float(best[pixel]))
            assert assert_dense_rule(monkeypatch, network, [grid], backend) > 0
            assert heard_station_batch(network, grid, backend=backend)[pixel] == 4

    @pytest.mark.parametrize("backend", CERTIFIED_BACKENDS)
    def test_a_strong_station_just_outside_the_box(self, monkeypatch, backend):
        """Twelve stations inside a tile and a stronger thirteenth just
        outside it, heard over part of the tile: the certificate sums the
        twelve, and must leave to the dense pass every pixel where the
        thirteenth's energy can exceed theirs."""
        grid = pixel_grid(0.0, 0.0, 1 / 16)
        edge = grid[:, 0].max()
        for seed, (beta, gap, power) in enumerate(
            [(0.5, 0.05, 30.0), (1.0, 0.3, 4.0), (3.0, 0.05, 4.0), (3.0, 1.0, 30.0)]
        ):
            rng = np.random.default_rng(seed)
            inside = [Station.at(x, y) for x, y in rng.uniform(0.2, 3.8, size=(12, 2))]
            strong = Station.at(edge + gap, grid[rng.integers(len(grid)), 1], power)
            network = WirelessNetwork(inside + [strong], noise=0.002, beta=beta)
            assert (heard_station_batch(network, grid) == 12).any()
            assert_dense_rule(monkeypatch, network, [grid], backend)

    def test_a_finest_zoom_view_runs_a_quarter_of_its_pixels_dense(
        self, monkeypatch
    ):
        """The 16 tiles of a 256 px view at pitch 1/16 over the middle of
        the serving network send at most a quarter of their pixels to the
        dense pass (every pixel went there before the certificate)."""
        from repro.model.diagram import RasterLattice
        from repro.raster import compute_tile

        network = serving_network(50)
        lattice = RasterLattice(pitch=1 / 16, phase=0.0, start=128, count=256)
        sent = count_dense_points(monkeypatch)
        for tile_x in range(2, 6):
            for tile_y in range(2, 6):
                compute_tile(network, lattice, lattice, tile_x, tile_y, 64, "numpy")
        assert 0 < sent[0] <= 0.25 * 16 * 64 * 64

    def test_the_chunks_of_a_large_networks_tiles_are_certified(self, monkeypatch):
        """On 800 stations the batch API splits every 64 px tile into
        chunks of under 1,024 points; the certificate's point floor falls
        as the network grows, so a finest-zoom view over the middle of the
        network still sends at most a quarter of its pixels to the dense
        pass, with the dense rule's labels."""
        from repro.model.diagram import RasterLattice
        from repro.raster import compute_tile

        network = serving_network(800)
        assert points_per_chunk(len(network)) < 1024
        lattice = RasterLattice(pitch=1 / 16, phase=0.0, start=768, count=256)
        tiles = [(x, y) for x in range(12, 16) for y in range(12, 16)]
        sent = count_dense_points(monkeypatch)
        labels = [
            compute_tile(network, lattice, lattice, x, y, 64, "numpy")
            for x, y in tiles
        ]
        assert 0 < sent[0] <= 0.25 * 16 * 64 * 64
        for (x, y), got in zip(tiles, labels):
            grid = pixel_grid(x * 4.0, y * 4.0, 1 / 16)
            want = dense_rule(network, grid, "numpy")
            np.testing.assert_array_equal(got, want.reshape(64, 64))

    def test_random_batches_and_other_exponents_run_dense(self, monkeypatch):
        """A batch over the whole deployment holds more stations in its box
        than the certificate sums, and alpha != 2 is never certified: every
        point runs the dense pass."""
        network = serving_network(50)
        points = query_box_array(network, 4096, seed=10)
        cubic = WirelessNetwork(network.stations, noise=0.002, beta=3.0, alpha=3.0)
        tile = tiles_over(network, 1 / 16, 2, seed=11)[1]
        sent = count_dense_points(monkeypatch)
        heard_station_batch(network, points, backend="numpy")
        assert sent[0] == len(points)
        assert assert_dense_rule(monkeypatch, cubic, [tile], "numpy") == 0
        assert assert_dense_rule(monkeypatch, network, [tile], "numpy") > 0
