"""The unified Locator protocol: registry behaviour and the shared contract.

Every registered locator (and the sharded compositions) must satisfy one
contract: ``locate_batch`` returns an ``int64`` array with ``-1`` as the
no-reception sentinel, agreeing pointwise with the scalar ``locate``; on the
paper's ``beta > 1`` regime all of them agree with brute force exactly.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import Point
from repro.exceptions import PointLocationError
from repro.pointlocation import (
    BruteForceLocator,
    Locator,
    active_locator,
    available_locators,
    get_locator,
    register_locator,
    use_locator,
)
from repro.engine import use_backend
from repro.workloads import random_query_array

from seeded_workloads import seeded_network

#: Build options that keep the sweep fast; every name resolves via the
#: registry exactly as harness code would.
CONTRACT_SWEEP = [
    ("brute-force", {}),
    ("voronoi", {}),
    ("theorem3", {"epsilon": 0.5}),
    ("sharded:voronoi", {"shards": 3}),
    ("sharded:brute-force", {"shards": 2, "partitioner": "uniform"}),
    (
        "sharded:theorem3",
        {"shards": 2, "inner_options": {"epsilon": 0.5, "cover_method": "ray_sweep"}},
    ),
]


@pytest.fixture(scope="module")
def network(ten_station_network):
    # The suite-standard 10-station network (tests/conftest.py).
    return ten_station_network


@pytest.fixture(scope="module")
def queries(network, query_box):
    return query_box(network, 800, seed=21, margin=3.0)


@pytest.fixture(scope="module")
def truth(network, queries):
    return BruteForceLocator(network).locate_batch(queries)


class TestRegistry:
    def test_base_locators_are_registered(self):
        names = available_locators()
        for expected in ("brute-force", "voronoi", "theorem3", "sharded"):
            assert expected in names
        # Composed names resolve (see the contract sweep) without ever
        # being registered.
        assert "sharded:voronoi" not in names

    def test_unknown_name_raises(self):
        with pytest.raises(PointLocationError, match="sharded:<inner>"):
            get_locator("nope")
        with pytest.raises(PointLocationError):
            get_locator("sharded:nope")  # inner names are validated eagerly

    def test_composed_names_cannot_be_registered(self):
        with pytest.raises(
            PointLocationError,
            match=(
                r"locator names must not contain ':'; composed names like "
                r"'sharded:voronoi' are derived, not registered"
            ),
        ):
            register_locator("bad:name", BruteForceLocator)

    def test_registering_and_overwriting(self, network):
        class Custom(BruteForceLocator):
            name = "custom"

        try:
            register_locator("custom", Custom)
            assert get_locator("custom") is Custom
            built = get_locator("custom").build(network)
            assert isinstance(built, Locator)
            # Overwriting is allowed and visible immediately, also through
            # an active by-name selection.
            with use_locator("custom"):
                register_locator("custom", BruteForceLocator)
                assert active_locator() is BruteForceLocator
        finally:
            from repro.pointlocation import registry

            registry.LOCATORS.unregister("custom")

    def test_use_locator_scoping_and_default(self):
        assert active_locator() is get_locator("voronoi")
        with use_locator("brute-force") as factory:
            assert factory is get_locator("brute-force")
            assert active_locator() is get_locator("brute-force")
        assert active_locator() is get_locator("voronoi")

    def test_use_locator_is_thread_isolated(self):
        seen = {}

        def worker():
            seen["worker"] = active_locator()

        with use_locator("theorem3"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert active_locator() is get_locator("theorem3")
        assert seen["worker"] is get_locator("voronoi")

    def test_factory_objects_pass_through(self):
        assert get_locator(BruteForceLocator) is BruteForceLocator


class TestLocatorContract:
    """The satellite contract: int64 dtype, -1 sentinel, scalar agreement."""

    @pytest.mark.parametrize("name,options", CONTRACT_SWEEP)
    def test_uniform_int64_contract(self, network, queries, truth, name, options):
        locator = get_locator(name).build(network, **options)
        labels = locator.locate_batch(queries)
        assert isinstance(labels, np.ndarray)
        assert labels.dtype == np.int64
        assert labels.shape == (len(queries),)
        # The sentinel is -1 and station labels are in range.
        assert labels.min() >= -1
        assert labels.max() < len(network)
        assert (labels == -1).any()  # the query box extends past every zone
        # Exactness on the beta > 1 regime: identical to brute force.
        np.testing.assert_array_equal(labels, truth)

    @pytest.mark.parametrize("name,options", CONTRACT_SWEEP)
    def test_scalar_locate_agrees_with_batch(self, network, queries, name, options):
        locator = get_locator(name).build(network, **options)
        sample = queries[:60]
        labels = locator.locate_batch(sample)
        for (x, y), label in zip(sample, labels):
            scalar = locator.locate(Point(x, y))
            assert isinstance(scalar, (int, np.integer))
            assert scalar == label

    @pytest.mark.parametrize("name,options", CONTRACT_SWEEP)
    def test_empty_and_single_batches(self, network, name, options):
        locator = get_locator(name).build(network, **options)
        empty = locator.locate_batch([])
        assert empty.dtype == np.int64
        assert empty.shape == (0,)
        single = locator.locate_batch(Point(0.5, 0.5))
        assert single.shape == (1,)

    @pytest.mark.parametrize("name,options", CONTRACT_SWEEP)
    def test_protocol_conformance(self, network, name, options):
        locator = get_locator(name).build(network, **options)
        assert isinstance(locator, Locator)
        assert locator.network is network or locator.network == network
        assert isinstance(locator.name, str)

    def test_ray_sweep_structure_is_exact_at_large_coordinate_scale(self):
        """Regression: boundary-probe tolerances must not degrade with the
        absolute coordinate scale (the bisection tolerance is relative)."""
        from repro.geometry.transform import SimilarityTransform

        base = seeded_network(8, side=12.0, seed=6, noise=0.01)
        scaled = base.transformed(SimilarityTransform.scaling(1000.0))
        queries = random_query_array(
            600, Point(-2000.0, -2000.0), Point(14000.0, 14000.0), seed=2
        )
        truth = get_locator("brute-force").build(scaled).locate_batch(queries)
        structure = get_locator("theorem3").build(
            scaled, epsilon=0.5, cover_method="ray_sweep"
        )
        np.testing.assert_array_equal(structure.locate_batch(queries), truth)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFinitePoints:
    """A point with a non-finite coordinate, or one so far away that its
    distances or its theorem3 grid cell index overflow, hears no station:
    every locator answers -1 for it on every backend, and so does the
    serving path, without a warning."""

    POINTS = np.array(
        [
            [np.nan, 1.0],
            [1.0, np.nan],
            [np.inf, 1.0],
            [-np.inf, 2.0],
            [3.0, np.inf],
            [np.inf, -np.inf],
            [1e308, 1e308],
            [-1e308, 2.0],
            [1e300, -1e300],
            [1e20, 0.0],
        ]
    )

    @pytest.fixture(scope="class", params=[0.005, 0.0], ids=["noisy", "noiseless"])
    def built(self, request, network):
        noisy = network.with_noise(request.param)
        locators = {
            # The fast ray-sweep cover keeps the two theorem3 builds cheap.
            name: get_locator(name).build(
                noisy,
                **(dict(options, cover_method="ray_sweep")
                   if name == "theorem3" else options),
            )
            for name, options in CONTRACT_SWEEP
        }
        return noisy, locators

    @pytest.mark.parametrize("backend", ["numpy", "reference", "float32-screen"])
    def test_every_locator_answers_no_reception(self, built, queries, backend):
        network, locators = built
        finite = queries[:40]
        points = np.vstack([self.POINTS, finite])
        with use_backend(backend):
            truth = locators["brute-force"].locate_batch(finite)
            for name, locator in locators.items():
                labels = locator.locate_batch(points)
                assert (labels[: len(self.POINTS)] == -1).all(), name
                np.testing.assert_array_equal(
                    labels[len(self.POINTS):], truth, err_msg=name
                )

    def test_scalar_locate_agrees(self, built):
        _, locators = built
        for name, locator in locators.items():
            answers = [locator.locate(Point(x, y)) for x, y in self.POINTS]
            assert answers == [-1] * len(self.POINTS), name

    @pytest.mark.parametrize("backend", ["numpy", "reference", "float32-screen"])
    @pytest.mark.parametrize("name", ["brute-force", "voronoi"])
    def test_query_service_answers_no_reception(self, built, backend, name):
        from repro.service import QueryService

        network, _ = built

        async def main():
            async with QueryService(network, name) as service:
                return [await service.locate(tuple(p)) for p in self.POINTS]

        with use_backend(backend):
            answers = asyncio.run(asyncio.wait_for(main(), 60.0))
        assert answers == [-1] * len(self.POINTS)


@pytest.mark.filterwarnings("error")
class TestSubnormalPoints:
    """Points a subnormal distance off a station or the origin: every
    locator, on every backend, batch and scalar, answers what the scalar
    ``station_heard_at`` does, without a warning."""

    OFFSETS = (5e-324, 1e-320, 1e-310, 2.2e-308)

    @pytest.fixture(scope="class", params=[0.002, 0.0], ids=["noisy", "noiseless"])
    def built(self, request):
        from repro import SINRDiagram
        from repro.workloads import uniform_random_network

        network = uniform_random_network(
            9, side=12.0, minimum_separation=1.5, noise=request.param,
            beta=3.0, seed=1,
        )
        points = [(d, d) for d in self.OFFSETS] + [(0.0, d) for d in self.OFFSETS]
        for x, y in network.coords:
            for d in self.OFFSETS:
                for sign in (1.0, -1.0):
                    points += [(x + sign * d, y), (x, y + sign * d)]
        points = np.array(points)
        diagram = SINRDiagram(network)
        heard = [diagram.station_heard_at(Point(x, y)) for x, y in points]
        truth = np.array([-1 if h is None else h for h in heard], dtype=np.int64)
        locators = {
            "brute-force": get_locator("brute-force").build(network),
            "voronoi": get_locator("voronoi").build(network),
            "sharded": get_locator("sharded").build(network, shards=2),
            "theorem3": get_locator("theorem3").build(
                network, epsilon=0.5, cover_method="ray_sweep"
            ),
        }
        return points, truth, locators

    @pytest.mark.parametrize("backend", ["numpy", "float32-screen", "reference"])
    def test_batch_and_scalar_agree_with_station_heard_at(self, built, backend):
        points, truth, locators = built
        with use_backend(backend):
            for name, locator in locators.items():
                np.testing.assert_array_equal(
                    locator.locate_batch(points), truth, err_msg=name
                )
                scalar = [locator.locate(Point(x, y)) for x, y in points]
                np.testing.assert_array_equal(scalar, truth, err_msg=name)
