"""Adversarial tests of the float32 screen-then-verify precision tier.

The general property suite (``test_engine.py``) already runs
``float32-screen`` through the full backend-equivalence matrix; this module
attacks the *margin* machinery directly with inputs built to sit exactly
where a float32 screen alone would go wrong:

* points whose SINR *equals* beta (zero decision margin), constructed by
  setting beta to the computed SINR, plus straddles a hair either side;
* exact nearest-station ties (duplicated stations) where the runner-up
  separation is zero;
* overflow-close and float32-coincident points (float64-distinct
  coordinates that round onto a station in float32);
* the late-binding contract of the verify path and of the delegated
  ``heard_station``: a ``register_backend("numpy", ...)`` overwrite must
  reach an already-constructed screen backend;
* end-to-end round trips through every layer that routes by backend name —
  ``sharded:`` locators, the micro-batching service, and the raster tiles.

Everything asserts bit-identity against the numpy float64 backend (itself
property-tested against ``reference``), and — where the point of the test
is the verify path — that the screen really did route points through it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Point, SINRDiagram, TileCache
from repro.engine import (
    Float32ScreenBackend,
    NumpyBackend,
    get_backend,
    heard_station_batch,
    nearest_received_batch,
    nearest_station_batch,
    received_at,
    received_mask,
    register_backend,
    sinr_batch,
    use_backend,
)
from repro.pointlocation import build_locator
from repro.service import serve_points
from seeded_workloads import query_box_array, seeded_network

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def network_6(seed: int = 60, **kwargs):
    return seeded_network(6, side=14.0, seed=seed, **kwargs)


def assert_decisions_identical(network, points, backend, reference="numpy"):
    """Every decision family, bit-identical between two backends."""
    indices = np.arange(len(points)) % len(network)
    pairs = [
        heard_station_batch(network, points, backend=backend),
        received_mask(network, 0, points, backend=backend),
        received_at(network, indices, points, backend=backend),
        nearest_received_batch(network, points, backend=backend),
    ]
    expected = [
        heard_station_batch(network, points, backend=reference),
        received_mask(network, 0, points, backend=reference),
        received_at(network, indices, points, backend=reference),
        nearest_received_batch(network, points, backend=reference),
    ]
    for got, want in zip(pairs, expected):
        np.testing.assert_array_equal(got, want)


class TestAdversarialMargins:
    def test_zero_margin_reception_boundary(self):
        """Points whose SINR is *exactly* beta, plus straddles either side.

        ``with_beta(sinr(point))`` puts the point on the decision boundary
        to the last bit: any float32 rounding of the screen would flip the
        ``>=`` test, so these points must all ride the verify path.
        """
        base = network_6()
        probes = query_box_array(base, 40, seed=61, margin=1.0)
        sinr = sinr_batch(base, probes, backend="numpy")
        screen = Float32ScreenBackend()
        for j in (0, 7, 19, 33):
            best = int(np.argmax(sinr[:, j]))
            value = float(sinr[best, j])
            if not (0.0 < value < np.inf):
                continue
            network = base.with_beta(value)
            jitter = np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12])
            points = np.vstack([probes, probes[j] * jitter[:, None]])
            screen.stats.reset()
            assert_decisions_identical(network, points, screen)
            assert screen.stats.verified > 0

    def test_duplicated_stations_tie_everywhere(self):
        """Two co-located equal-power stations: every point is a tie."""
        network = network_6(seed=63)
        first = network.stations[0]
        duplicated = network.with_station(first)
        points = query_box_array(duplicated, 120, seed=64)
        screen = Float32ScreenBackend()
        screen.stats.reset()
        got = nearest_received_batch(duplicated, points, backend=screen)
        want = nearest_received_batch(duplicated, points, backend="numpy")
        np.testing.assert_array_equal(got, want)
        # Wherever the duplicated pair is nearest, d1 == d2 exactly, so the
        # separation test must have routed those points through the verify
        # path (elsewhere a separated nearest may legitimately be certified).
        nearest = nearest_station_batch(duplicated, points)
        tied_wins = int(np.count_nonzero(nearest == 0))
        assert tied_wins > 0
        assert screen.stats.verified >= tied_wins

    def test_overflow_close_and_float32_coincident_columns(self):
        """Station-adjacent pathologies route exact, answers identical.

        Three families: exact station locations (float64 coincidence),
        points ~1e-200 from the origin station (float64-distinct but the
        power law overflows both precisions), and offsets ~1e-9 from the
        far stations (finite in float64 yet rounding *onto* the station in
        float32 — the screen sees a zero distance where the exact path sees
        none).
        """
        from repro import WirelessNetwork

        network = WirelessNetwork.uniform(
            [(0.0, 0.0), (4.0, 0.0), (1.0, 5.0)], noise=0.01, beta=2.0
        )
        coords = network.coords
        points = np.vstack(
            [
                coords,
                [[1e-200, 0.0], [1e-160, 0.0], [0.0, 1e-170]],
                coords[1:] + np.array([1e-9, -1e-9]),
                query_box_array(network, 60, seed=66),
            ]
        )
        screen = Float32ScreenBackend()
        screen.stats.reset()
        assert_decisions_identical(network, points, screen)
        assert screen.stats.verified >= 3 * len(coords)

    def test_screen_actually_screens_generic_points(self):
        """On generic workloads the verify fraction stays small (< 20%)."""
        network = seeded_network(30, side=30.0, seed=67)
        points = query_box_array(network, 4000, seed=68)
        screen = Float32ScreenBackend()
        screen.stats.reset()
        assert_decisions_identical(network, points, screen)
        assert 0.0 <= screen.stats.verify_fraction() < 0.2

    def test_low_beta_regime_with_ties(self):
        """beta < 1: several stations heard at once, highest-SINR tie-break."""
        network = network_6(seed=69, beta=0.2)
        points = np.vstack(
            [query_box_array(network, 400, seed=70), network.coords]
        )
        assert_decisions_identical(network, points, "float32-screen")

    def test_unscreenable_parameters_fall_back_to_exact(self):
        """Absurd beta values bypass the reception screens entirely."""
        network = network_6(seed=71).with_beta(1e-31)
        points = query_box_array(network, 100, seed=72)
        indices = np.zeros(len(points), dtype=np.intp)
        screen = Float32ScreenBackend()
        screen.stats.reset()
        np.testing.assert_array_equal(
            heard_station_batch(network, points, backend=screen),
            heard_station_batch(network, points, backend="numpy"),
        )
        np.testing.assert_array_equal(
            received_mask(network, 0, points, backend=screen),
            received_mask(network, 0, points, backend="numpy"),
        )
        np.testing.assert_array_equal(
            received_at(network, indices, points, backend=screen),
            received_at(network, indices, points, backend="numpy"),
        )
        assert screen.stats.screened == 0  # delegated, not screened

    def test_value_queries_delegate_to_numpy_exactly(self):
        network = network_6(seed=73)
        points = query_box_array(network, 80, seed=74)
        np.testing.assert_array_equal(
            sinr_batch(network, points, backend="float32-screen"),
            sinr_batch(network, points, backend="numpy"),
        )

    def test_station_points_verify_every_point(self):
        """A batch of station coordinates lies wholly inside the geometry
        guard, so every screened point takes the exact path."""
        network = network_6(seed=75)
        points = network.coords
        screen = Float32ScreenBackend()
        assert_decisions_identical(network, points, screen)
        assert screen.stats.screened > 0
        assert screen.stats.verified == screen.stats.screened


class _CountingNumpy(NumpyBackend):
    """A numpy backend that counts how often its kernels are reached."""

    def __init__(self, name):
        self.name = name
        self.mask_calls = 0
        self.heard_calls = 0

    def received_mask_at(self, *args, **kwargs):
        self.mask_calls += 1
        return super().received_mask_at(*args, **kwargs)

    def heard_station(self, *args, **kwargs):
        self.heard_calls += 1
        return super().heard_station(*args, **kwargs)


class TestLateBoundVerifyPath:
    """The verify path and the delegated ``heard_station`` re-resolve
    ``"numpy"`` by name on every call."""

    def _adversarial_workload(self):
        # Station coordinates are in the batch, so verification is forced.
        network = network_6(seed=80)
        points = np.vstack(
            [network.coords, query_box_array(network, 50, seed=81)]
        )
        indices = np.arange(len(points)) % len(network)
        return network, points, indices

    def test_overwriting_numpy_reaches_the_verify_path(self):
        network, points, indices = self._adversarial_workload()
        expected = received_at(network, indices, points, backend="numpy")
        screen = Float32ScreenBackend()
        first = _CountingNumpy("numpy")
        second = _CountingNumpy("numpy")
        try:
            register_backend("numpy", first)
            got = received_at(network, indices, points, backend=screen)
            assert first.mask_calls > 0 and second.mask_calls == 0
            np.testing.assert_array_equal(got, expected)
            register_backend("numpy", second)
            received_at(network, indices, points, backend=screen)
            assert second.mask_calls > 0
        finally:
            register_backend("numpy", NumpyBackend())
        assert screen.stats.verified > 0

    def test_heard_station_delegates_to_the_registered_numpy(self):
        """``heard_station`` is numpy's kernel, reached by name and never
        screened, so it equals numpy at beta < 1 and on stations too."""
        network = network_6(seed=82, beta=0.5)
        points = np.vstack(
            [query_box_array(network, 300, seed=83), network.coords]
        )
        expected = heard_station_batch(network, points, backend="numpy")
        screen = Float32ScreenBackend()
        counting = _CountingNumpy("numpy")
        try:
            register_backend("numpy", counting)
            got = heard_station_batch(network, points, backend=screen)
        finally:
            register_backend("numpy", NumpyBackend())
        np.testing.assert_array_equal(got, expected)
        assert counting.heard_calls > 0 and counting.mask_calls == 0
        assert screen.stats.screened == 0


class TestRoutedEndToEnd:
    """The new names flow through every layer that routes by backend."""

    def test_sharded_locator_under_screen_backend(self):
        network = seeded_network(24, side=28.0, seed=90)
        points = np.vstack(
            [query_box_array(network, 600, seed=91), network.coords]
        )
        expected = build_locator(network, "brute-force").locate_batch(points)
        with use_backend("float32-screen"):
            sharded = build_locator(network, "sharded:voronoi")
            got = sharded.locate_batch(points)
        np.testing.assert_array_equal(got, expected)

    def test_micro_batched_service_under_screen_backend(self):
        network = seeded_network(12, side=20.0, seed=92)
        points = query_box_array(network, 200, seed=93)
        expected = serve_points(network, points, locator="voronoi")
        with use_backend("float32-screen"):
            got = serve_points(network, points, locator="voronoi")
        np.testing.assert_array_equal(got, expected)

    def test_rasters_under_screen_backend(self):
        diagram = SINRDiagram(network_6(seed=94))
        box = (Point(-2.0, -2.0), Point(16.0, 12.0), 80)
        exact = diagram.rasterize(*box)
        with use_backend("float32-screen"):
            screened = diagram.rasterize(*box)
            tiled = diagram.rasterize(*box, cache=TileCache(tile_size=16))
        # Labels (heard_station) and value planes (sinr_matrix) both
        # delegate to the exact numpy backend, so the whole raster — labels
        # *and* SINR values, cached or not — is bit-identical to numpy.
        for raster in (screened, tiled):
            np.testing.assert_array_equal(raster.labels, exact.labels)
            np.testing.assert_array_equal(raster.sinr_values, exact.sinr_values)
