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

import math
import threading

import numpy as np
import pytest

from repro import Point, SINRDiagram, Station, WirelessNetwork
from repro.engine import (
    DEFAULT_CHUNK_BYTES,
    NO_RECEPTION,
    NumpyBackend,
    QueryBackend,
    active_backend,
    as_points_array,
    available_backends,
    chunk_byte_budget,
    energy_batch,
    first_received_batch,
    get_backend,
    heard_station_batch,
    kernels,
    locate_batch,
    nearest_received_batch,
    nearest_station_batch,
    points_per_chunk,
    received_at,
    received_mask,
    register_backend,
    sinr_batch,
    strongest_station_batch,
    use_backend,
)
from repro.engine import backend as backend_module
from repro.exceptions import ReproError
from repro.model.sinr import received_energy, sinr_ratio
from repro.pointlocation import (
    BruteForceLocator,
    PointLocationStructure,
    VoronoiCandidateLocator,
)
from seeded_workloads import query_box_array, seeded_network

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

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            as_points_array(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            as_points_array(np.zeros((4,)))
        with pytest.raises(ValueError):
            as_points_array(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            as_points_array([1.0])  # a lone coordinate is not a point


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
# The backend protocol: seven required methods, no optional capabilities
# ----------------------------------------------------------------------
PROTOCOL_METHODS = (
    "energy_matrix",
    "sinr_matrix",
    "strongest_station",
    "received_mask_matrix",
    "received_mask_at",
    "nearest_received",
    "heard_station",
)


class TestBackendProtocol:
    def test_protocol_declares_the_seven_methods(self):
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
            strongest_station_batch(network, points, backend=candidate_backend),
            strongest_station_batch(network, points, backend="reference"),
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
        np.testing.assert_allclose(
            energy_batch(network, points, backend=candidate_backend),
            energy_batch(network, points, backend="reference"),
            rtol=1e-9,
        )
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


class TestChunkedBatch:
    def test_invalid_budget_warns_and_uses_default(self, monkeypatch):
        for bogus in ("banana", "-5", "0"):
            monkeypatch.setenv("REPRO_ENGINE_CHUNK_BYTES", bogus)
            with pytest.warns(UserWarning, match="REPRO_ENGINE_CHUNK_BYTES"):
                assert chunk_byte_budget() == DEFAULT_CHUNK_BYTES
        monkeypatch.delenv("REPRO_ENGINE_CHUNK_BYTES")
        assert chunk_byte_budget() == DEFAULT_CHUNK_BYTES

    def test_points_per_chunk_never_below_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_CHUNK_BYTES", "1")
        assert points_per_chunk(10_000) == 1

    @pytest.mark.parametrize("backend_name", ["numpy", "float32-screen"])
    @pytest.mark.parametrize("budget", [40_000, 300_000, 5_000_000])
    def test_results_bit_identical_across_chunk_sizes(
        self, monkeypatch, backend_name, budget
    ):
        """Chunking is invisible: every query family, three budgets apart.

        The baseline runs under the default 64 MiB budget (one single chunk
        at this scale), the comparison under budgets small enough for tens
        of chunks — results must match to the bit.
        """
        network = random_network(seed=50)
        points = np.vstack([queries_for(network, count=1500, seed=51),
                            network.coords])
        indices = np.arange(len(points)) % len(network)
        families = [
            lambda b: sinr_batch(network, points, backend=b),
            lambda b: energy_batch(network, points, backend=b),
            lambda b: strongest_station_batch(network, points, backend=b),
            lambda b: heard_station_batch(network, points, backend=b),
            lambda b: received_mask(network, 2, points, backend=b),
            lambda b: received_at(network, indices, points, backend=b),
            lambda b: nearest_received_batch(network, points, backend=b),
        ]
        monkeypatch.delenv("REPRO_ENGINE_CHUNK_BYTES", raising=False)
        baselines = [fn(backend_name) for fn in families]
        monkeypatch.setenv("REPRO_ENGINE_CHUNK_BYTES", str(budget))
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
        monkeypatch.setenv("REPRO_ENGINE_CHUNK_BYTES", str(budget))
        chunked, peak_chunked = peak_of(
            lambda: strongest_station_batch(network, points)
        )
        monkeypatch.setenv("REPRO_ENGINE_CHUNK_BYTES", str(1 << 34))
        unchunked, peak_unchunked = peak_of(
            lambda: strongest_station_batch(network, points)
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
        monkeypatch.setenv("REPRO_ENGINE_CHUNK_BYTES", str(budget))
        chunked, peak_chunked = peak_of(lambda: locator.locate_batch(points))
        monkeypatch.setenv("REPRO_ENGINE_CHUNK_BYTES", str(1 << 34))
        unchunked, peak_unchunked = peak_of(lambda: locator.locate_batch(points))
        np.testing.assert_array_equal(chunked, unchunked)
        # Budgeted temporaries + a few (m,) label / candidate / mask arrays.
        inherent = 4 * len(points) * np.dtype(np.int64).itemsize
        assert peak_chunked <= budget + inherent + (1 << 20)
        assert peak_unchunked > 4 * peak_chunked

    def test_raster_block_inherits_chunking(self, monkeypatch):
        """Tile rasters run through the chunked batch API, bit-identically."""
        from repro.model.diagram import raster_block

        network = random_network(seed=52)
        xs = np.linspace(-1.0, 15.0, 64)
        ys = np.linspace(-1.0, 15.0, 48)
        monkeypatch.delenv("REPRO_ENGINE_CHUNK_BYTES", raising=False)
        labels, values = raster_block(network, xs, ys)
        monkeypatch.setenv("REPRO_ENGINE_CHUNK_BYTES", "40000")
        labels_chunked, values_chunked = raster_block(network, xs, ys)
        np.testing.assert_array_equal(labels_chunked, labels)
        np.testing.assert_array_equal(values_chunked, values)


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
        first = first_received_batch(network, NON_FINITE, backend=backend)
        assert (first == NO_RECEPTION).all()
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
        full = kernels.received_mask_matrix(
            network.coords, network.powers_array(), points,
            network.noise, network.beta, network.alpha,
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

    def test_strongest_station_matches_scalar(self):
        network = random_network(seed=8)
        points = queries_for(network, count=150)
        batch = strongest_station_batch(network, points)
        for (x, y), index in zip(points, batch):
            assert network.strongest_station(Point(x, y)) == index


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

    def test_generic_locate_batch_dispatch(self):
        network = random_network(seed=12)
        locator = VoronoiCandidateLocator(network)
        points = queries_for(network, count=50)
        np.testing.assert_array_equal(
            locate_batch(locator, points), locator.locate_batch(points)
        )

    def test_generic_locate_batch_fallback_loops_scalar(self):
        network = random_network(seed=13)

        class ScalarOnly:
            def locate(self, point):
                return network.heard_station(point)

        points = queries_for(network, count=30)
        fallback = locate_batch(ScalarOnly(), points)
        assert fallback == [
            network.heard_station(Point(x, y)) for x, y in points
        ]

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
        matrix = energy_batch(network, points)
        for i in range(len(network)):
            for j, (x, y) in enumerate(points):
                scalar = network.energy(i, Point(x, y))
                if math.isinf(scalar):
                    # The edge contract: exact agreement on the inf cases.
                    assert matrix[i, j] == scalar
                else:
                    # Ordinary points: hypot-then-power vs squared-power may
                    # differ in the last ulp.
                    assert matrix[i, j] == pytest.approx(scalar, rel=1e-12)

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

    def test_float32_views_cached_read_only_and_rounded(self):
        network = random_network(seed=18)
        assert network.coords32 is network.coords32
        assert network.powers32 is network.powers32
        assert network.coords32.dtype == np.float32
        assert network.powers32.dtype == np.float32
        assert network.coords32.flags["C_CONTIGUOUS"]
        with pytest.raises(ValueError):
            network.coords32[0, 0] = 1.0
        with pytest.raises(ValueError):
            network.powers32[0] = 1.0
        np.testing.assert_array_equal(
            network.coords32, network.coords.astype(np.float32)
        )
        np.testing.assert_array_equal(
            network.powers32, network.powers_array().astype(np.float32)
        )

    def test_float32_views_track_mutated_networks(self):
        network = random_network(seed=19)
        _ = network.coords32
        moved = network.with_station_moved(0, Point(100.0, 100.0))
        assert moved.coords32[0, 0] == np.float32(100.0)
        assert network.coords32[0, 0] != np.float32(100.0)
        assert network.subnetwork([1, 2]).coords32.shape == (2, 2)
