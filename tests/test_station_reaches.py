"""``station_reaches``: the sorted sweep against the dense ``n x n`` pass.

Every sharded routing box and raster invalidation box is a Theorem 4.1
reach.  The sweep that computes them must return the same bits as the
dense nearest-neighbour pass it replaced, on every layout the sort and
its certificate could get wrong (duplicates, ties, one-axis layouts,
clusters far apart, distances whose square underflows or overflows), in
``O(n)`` memory.  Where the bound is tight, every point the float64
kernels hear must still fall inside the reach and its routing box.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Point, WirelessNetwork
from repro.model import move_station
from repro.pointlocation import explicit_radius_bounds, station_reaches
from repro.pointlocation.bounds import reach_margin
from repro.pointlocation.registry import get_locator
from repro.raster import affected_boxes
from repro.workloads import uniform_random_network
from seeded_workloads import ulps_past

MIB = 2**20


def dense_reaches(network: WirelessNetwork) -> np.ndarray:
    """The reference: one ``(n, n, 2)`` difference array, as the code had it,
    then widened by the rounding margin and one ulp."""
    coords = network.coords
    deltas = coords[:, None, :] - coords[None, :, :]
    squared = np.einsum("ijk,ijk->ij", deltas, deltas)
    np.fill_diagonal(squared, np.inf)
    kappa_squared = squared.min(axis=1)
    kappa = np.sqrt(kappa_squared)

    out = np.zeros(len(network), dtype=float)
    live = kappa > 0.0
    out[live] = kappa[live] / (
        np.sqrt(network.beta * (1.0 + network.noise * kappa_squared[live])) - 1.0
    )
    margin = reach_margin(len(network), network.beta)
    out[live] = np.nextafter(out[live] * (1.0 + margin), np.inf)
    return out


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def network_from(xy, noise: float = 0.002, beta: float = 3.0) -> WirelessNetwork:
    return WirelessNetwork.uniform(
        [(float(x), float(y)) for x, y in np.asarray(xy, dtype=float)],
        noise=noise,
        beta=beta,
    )


def column(stations: int) -> np.ndarray:
    """A vertical column of evenly spaced stations, listed in shuffled order."""
    y = np.random.default_rng(stations).permutation(stations) * 1.7
    return np.column_stack([np.zeros(stations), y])


def huge_network(noise: float = 0.002) -> WirelessNetwork:
    """Four stations 1e160 apart: ``kappa**2`` overflows for every one."""
    return network_from(
        [(0.0, 0.0), (1e160, 0.0), (0.0, 1e160), (1e160, 1e160)], noise=noise
    )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
LAYOUTS = (
    "uniform",
    "duplicates",
    "column",
    "row",
    "integer-grid",
    "clusters",
    "tiny-offsets",
    "tall-clusters",
)


@st.composite
def layouts(draw):
    """``(layout name, (n, 2) coordinates)`` for the sweep's hard cases."""
    layout = draw(st.sampled_from(LAYOUTS))
    count = draw(st.integers(min_value=2, max_value=120))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if layout == "uniform":
        xy = rng.uniform(-50.0, 50.0, size=(count, 2))
    elif layout == "duplicates":
        base = rng.uniform(0.0, 20.0, size=(max(1, count // 3), 2))
        xy = base[rng.integers(0, len(base), size=count)]
    elif layout == "column":
        xy = np.column_stack([np.full(count, 3.25), rng.uniform(0.0, 40.0, count)])
    elif layout == "row":
        xy = np.column_stack([rng.uniform(0.0, 40.0, count), np.full(count, -7.5)])
    elif layout == "integer-grid":
        xy = rng.integers(-6, 7, size=(count, 2)).astype(float)
    elif layout == "clusters":
        xy = rng.uniform(0.0, 10.0, size=(count, 2))
        xy[: count // 2] += 1e6
    elif layout == "tiny-offsets":  # distinct, but the squares underflow
        scale = draw(st.sampled_from([1e-200, 1e-160, 1e-150]))
        xy = rng.uniform(0.0, 10.0, size=(count, 2))
        xy[: count // 2] = rng.uniform(-1.0, 1.0, size=(count // 2, 2)) * scale
    else:  # tall-clusters: spread along x, so each cluster's stations sit
        # in sorted order with shuffled y and the nearest neighbour lies
        # dozens of positions away, where the certificate decides.
        width = draw(st.floats(min_value=0.2, max_value=2.0))
        size = draw(st.integers(min_value=40, max_value=150))
        clusters = draw(st.integers(min_value=2, max_value=3))
        xy = rng.uniform(0.0, 1.0, size=(size * clusters, 2)) * (width, 50.0)
        xy[:, 0] += 1000.0 * (np.arange(size * clusters) % clusters)
    return layout, xy


noises = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.1))
betas = st.one_of(
    st.sampled_from([1.0 + 1e-9, 1.0000001, 1.001, 1.01]),
    st.floats(min_value=1.01, max_value=5.0),
)


# ----------------------------------------------------------------------
# Differential: the sweep against the dense pass
# ----------------------------------------------------------------------
class TestSweepMatchesDensePass:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(layouts(), noises, betas)
    def test_bit_identical_to_dense_pass(self, layout, noise, beta):
        _, xy = layout
        network = network_from(xy, noise=noise, beta=beta)
        assert_same_bits(station_reaches(network), dense_reaches(network))

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(layouts(), noises, st.data())
    def test_rows_equal_the_full_array(self, layout, noise, data):
        _, xy = layout
        network = network_from(xy, noise=noise)
        indices = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(xy) - 1), max_size=12)
        )
        assert_same_bits(
            station_reaches(network, indices), station_reaches(network)[indices]
        )

    @pytest.mark.parametrize(
        "indices",
        [[], [3, 3, 3], [7, 0, 5, 0], np.array([9, 1], dtype=np.int32), (4,)],
        ids=["empty", "repeated", "unsorted", "int32-array", "tuple"],
    )
    def test_rows_edge_cases(self, indices):
        network = uniform_random_network(
            10, side=16.0, minimum_separation=1.0, noise=0.01, beta=2.0, seed=5
        )
        rows = station_reaches(network, indices)
        assert_same_bits(rows, station_reaches(network)[np.asarray(indices, dtype=int)])
        assert_same_bits(rows, dense_reaches(network)[np.asarray(indices, dtype=int)])

    def test_rows_validate_the_regime_even_when_empty(self):
        from repro.exceptions import PointLocationError

        network = WirelessNetwork.uniform([(0.0, 0.0), (1.0, 0.0)], beta=0.5)
        with pytest.raises(PointLocationError):
            station_reaches(network, [])

    @pytest.mark.parametrize("alpha", [1.5, 3.0, 4.0])
    def test_only_alpha_two_has_a_reach(self, alpha):
        """The bound is Theorem 4.1's for alpha = 2; at alpha = 4 a
        two-station zone reaches 3.16 kappa, past the 1.37 kappa bound."""
        from repro.exceptions import PointLocationError

        network = WirelessNetwork.uniform(
            [(0.0, 0.0), (1.0, 0.0)], beta=3.0, alpha=alpha
        )
        with pytest.raises(PointLocationError, match="alpha = 2"):
            station_reaches(network)
        with pytest.raises(PointLocationError, match="alpha = 2"):
            station_reaches(network, [0])

    def test_bit_identical_where_the_certificate_binds(self):
        """Past ~4000 uniform stations a nearest neighbour is often more than
        one pass of offsets away in sorted order; compare against dense
        rows, a block at a time."""
        side = 4.0 * 6000**0.5
        network = network_from(
            np.random.default_rng(6000).uniform(0.0, side, size=(6000, 2))
        )
        reaches = station_reaches(network)
        for start in range(0, 6000, 250):
            rows = np.arange(start, start + 250)
            assert_same_bits(station_reaches(network, rows), reaches[rows])

    @pytest.mark.parametrize("transpose", [False, True], ids=["column", "row"])
    def test_sorts_along_the_larger_spread(self, monkeypatch, transpose):
        """Sorted on x, a column's stations would sit in shuffled y order,
        and each would scan most of the column before its certificate held."""
        xy = column(200)
        if transpose:
            xy = xy[:, ::-1]
        network = network_from(xy)
        keys = []
        argsort = np.argsort

        def spy(values, *args, **kwargs):
            keys.append(np.array(values))
            return argsort(values, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        reaches = station_reaches(network)
        monkeypatch.undo()
        assert len(keys) == 1
        np.testing.assert_array_equal(keys[0], xy[:, 0 if transpose else 1])
        assert_same_bits(reaches, dense_reaches(network))


class TestAgreesWithExplicitBounds:
    """The vectorised reach is per-station ``explicit_radius_bounds``,
    widened by no more than twice the rounding margin."""

    @pytest.mark.parametrize(
        "network",
        [
            uniform_random_network(
                40, side=25.0, minimum_separation=1.0, noise=0.01, beta=2.5, seed=9
            ),
            network_from(
                np.random.default_rng(4).integers(0, 8, size=(30, 2)), noise=0.0
            ),
            network_from(
                np.vstack(
                    [
                        np.random.default_rng(5).uniform(0, 10, (12, 2)),
                        np.random.default_rng(6).uniform(0, 10, (12, 2)) + 1e6,
                    ]
                ),
                beta=1.01,
            ),
            huge_network(),
            huge_network(noise=0.0),
        ],
        ids=["uniform", "integer-grid", "clusters", "huge", "huge-noiseless"],
    )
    def test_matches_explicit_delta_upper(self, network):
        reaches = station_reaches(network)
        checked = 0
        for index in range(len(network)):
            if network.location_is_shared(index):
                assert reaches[index] == 0.0
                continue
            expected = explicit_radius_bounds(network, index).Delta_upper
            margin = reach_margin(len(network), network.beta)
            assert expected <= reaches[index] <= expected * (1.0 + 2.0 * margin)
            checked += 1
        assert checked > 0


# ----------------------------------------------------------------------
# Huge coordinates: kappa**2 overflows
# ----------------------------------------------------------------------
class TestOverflowingKappa:
    QUERIES = np.array([[0.5, 0.0], [1e160, 0.3], [3.0, 4.0]])

    def test_reaches_and_boxes_are_finite_without_warnings(self):
        network = huge_network()
        moved, delta = move_station(network, 1, Point(2e160, 5.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reaches = station_reaches(network)
            rows = station_reaches(network, [2, 0])
            boxes = affected_boxes(network, moved, delta)
        assert np.isfinite(reaches).all() and (reaches > 0.0).all()
        # With every neighbour ~1e160 away the zone is the noise-limited
        # disk of radius 1 / sqrt(beta * N); the bound rounds up.
        limit = 1.0 / np.sqrt(network.beta * network.noise)
        assert (reaches >= limit).all()
        assert reaches == pytest.approx(limit, rel=1e-12)
        assert_same_bits(rows, reaches[[2, 0]])
        assert np.isfinite(np.asarray(boxes)).all()

    def test_sharded_voronoi_hears_what_brute_force_hears(self):
        network = huge_network()
        answers = {}
        # The engine kernels' own overflow warnings on these coordinates
        # are a separate matter; only the answers are compared here.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for name in ("brute-force", "voronoi", "sharded:voronoi"):
                locator = get_locator(name).build(network)
                answers[name] = locator.locate_batch(self.QUERIES)
        np.testing.assert_array_equal(answers["brute-force"], [0, 1, 0])
        for name in ("voronoi", "sharded:voronoi"):
            np.testing.assert_array_equal(answers[name], answers["brute-force"])

    def test_noiseless_reach_is_kappa_over_sqrt_beta_minus_one(self):
        network = huge_network(noise=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reaches = station_reaches(network)
        expected = 1e160 / (np.sqrt(network.beta) - 1.0)
        assert reaches == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------------------
# Tight bounds: two stations, no noise
# ----------------------------------------------------------------------
KAPPAS = np.logspace(-3.0, 6.0, 10)


class TestTightReachRouting:
    """With no noise and one interferer, Theorem 4.1's ``Delta_upper`` is
    attained on the axis, so the float64 kernels hear points a few ulps past
    the exact bound.  Unwidened reaches and nearest-rounded box edges
    dropped those points from ``sharded:voronoi``'s routing (for example
    kappa = 1, beta = 3: brute force hears station 0 at
    ``(-1.366025403784439, 0)``)."""

    @pytest.mark.parametrize(
        "beta", [1.0 + 1e-6, 1.01, 1.21, 1.5, 2.0, 3.0, 9.0]
    )
    @pytest.mark.parametrize("x0", [0.0, 1e6, -12345.678])
    def test_sharded_hears_what_brute_force_hears_past_the_bound(self, x0, beta):
        for kappa in KAPPAS:
            network = network_from([(x0, 0.0), (x0 + kappa, 0.0)], noise=0.0, beta=beta)
            exact = kappa / (np.sqrt(beta) - 1.0)
            xs = np.concatenate(
                [
                    ulps_past(x0 - exact, -np.inf, 200),
                    ulps_past(x0 + kappa + exact, np.inf, 200),
                ]
            )
            points = np.column_stack([xs, np.zeros_like(xs)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                want = get_locator("brute-force").build(network).locate_batch(points)
                got = (
                    get_locator("sharded:voronoi")
                    .build(network, shards=2)
                    .locate_batch(points)
                )
            np.testing.assert_array_equal(got, want, err_msg=f"kappa={kappa}")

    def test_reach_covers_every_point_the_kernels_hear(self):
        network = network_from([(0.0, 0.0), (1.0, 0.0)], noise=0.0, beta=3.0)
        reach = station_reaches(network)[0]
        xs = ulps_past(-1.3660254037844388, -np.inf, 2000)
        points = np.column_stack([xs, np.zeros_like(xs)])
        heard = get_locator("brute-force").build(network).locate_batch(points) == 0
        assert heard[1]  # one ulp past the unwidened bound
        assert (-xs[heard] <= reach).all()

    def test_margin_grows_as_beta_nears_one(self):
        assert reach_margin(2, 3.0) < reach_margin(2, 1.01) < reach_margin(2, 1.0 + 1e-6)
        assert reach_margin(3200, 3.0) < 1e-10
        # beta within rounding of 1: no finite reach is certified.
        network = network_from([(0.0, 0.0), (1.0, 0.0)], noise=0.0, beta=1.0 + 2**-52)
        assert reach_margin(2, network.beta) == np.inf
        assert (station_reaches(network) == np.inf).all()


# ----------------------------------------------------------------------
# Only the touched rows for raster invalidation
# ----------------------------------------------------------------------
def test_affected_boxes_computes_only_touched_reaches(monkeypatch):
    from repro.pointlocation import bounds

    network = uniform_random_network(
        30, side=20.0, minimum_separation=1.0, noise=0.01, beta=2.0, seed=2
    )
    moved, delta = move_station(network, 4, Point(3.5, 11.0))
    expected = []
    for net, touched in ((network, delta.touched_old), (moved, delta.touched_new)):
        reaches = station_reaches(net)
        for index in touched:
            x, y = net.coords[index]
            r = reaches[index]
            expected.append(
                (
                    np.nextafter(x - r, -np.inf),
                    np.nextafter(y - r, -np.inf),
                    np.nextafter(x + r, np.inf),
                    np.nextafter(y + r, np.inf),
                )
            )

    calls = []
    real = bounds.station_reaches

    def spy(net, indices=None):
        calls.append(None if indices is None else tuple(indices))
        return real(net, indices)

    monkeypatch.setattr(bounds, "station_reaches", spy)
    boxes = affected_boxes(network, moved, delta)
    assert calls == [delta.touched_old, delta.touched_new] == [(4,), (4,)]
    assert boxes == expected


# ----------------------------------------------------------------------
# Memory at scale
# ----------------------------------------------------------------------
def traced_peak(network: WirelessNetwork) -> int:
    network.coords  # built and cached outside the measurement
    tracemalloc.start()
    try:
        station_reaches(network)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """The dense pass peaked at ~235 MiB for 3200 stations; the sweep is O(n)."""

    def test_3200_uniform_stations(self):
        network = uniform_random_network(
            3200,
            side=4.0 * 3200**0.5,
            minimum_separation=1.5,
            noise=0.002,
            beta=3.0,
            seed=1,
        )
        assert traced_peak(network) < 16 * MIB

    def test_3200_station_vertical_column(self):
        network = network_from(column(3200))
        assert traced_peak(network) < 16 * MIB

    def test_12800_uniform_stations(self):
        side = 4.0 * 12800**0.5
        xy = np.random.default_rng(12800).uniform(0.0, side, size=(12800, 2))
        assert traced_peak(network_from(xy)) < 64 * MIB
