"""The serving stack's surface, cut to the options its callers set.

Every parameter, knob and export left on the services, the raster entry
points and the registry is one that code outside the tests sets or calls,
or a seam through which tests pass fakes and small-tile caches.  The
options nothing set were deleted; this test pins what is left, so an
option comes back only by changing this file on purpose.
"""

from __future__ import annotations

import importlib.util
import inspect

import pytest

import repro.pointlocation
import repro.raster
import repro.runtime
from repro import Point, SINRDiagram
from repro.exceptions import RasterCacheError, ServiceError
from repro.raster import TileCache
from repro.runtime import Registry
from repro.service import (
    MicroBatcher,
    QueryService,
    RasterService,
    ServiceStats,
    serve_points,
)
from repro.service import service as service_module


def shape(function) -> str:
    """``function``'s signature with its annotations left out."""
    signature = inspect.signature(function)
    return str(
        signature.replace(
            parameters=[
                parameter.replace(annotation=inspect.Parameter.empty)
                for parameter in signature.parameters.values()
            ],
            return_annotation=inspect.Signature.empty,
        )
    )


def test_the_serving_surface_is_what_its_callers_set(ten_station_network):
    network = ten_station_network
    assert shape(QueryService.__init__) == (
        "(self, network, locator='voronoi', *, build_options=None, "
        "**batcher_options)"
    )
    assert shape(QueryService.swap_network) == (
        "(self, new_network, delta=None, *, locator=None)"
    )
    assert shape(serve_points) == (
        "(network, points, locator='voronoi', *, build_options=None, "
        "return_stats=False, **batcher_options)"
    )
    assert shape(MicroBatcher.__init__) == (
        "(self, locate, *, latency_budget=0.002, max_batch_size=1024, "
        "max_pending=8192)"
    )
    assert shape(ServiceStats.__init__) == "(self)"
    assert shape(ServiceStats.record_failed) == "(self)"
    assert shape(RasterService) == "(network, *, cache=None)"
    assert not hasattr(RasterService, "summary")
    assert shape(SINRDiagram.rasterize) == (
        "(self, lower_left, upper_right, resolution=200, *, cache=None)"
    )
    assert shape(SINRDiagram.summary) == "(self, resolution=300)"
    assert shape(Registry.__init__) == (
        "(self, kind, *, label=None, default=None, "
        "error=<class 'repro.exceptions.ReproError'>)"
    )
    assert not hasattr(TileCache, "clear")

    # The library declares no environment knob (the bench harness reads
    # the two there are).
    assert importlib.util.find_spec("repro.env") is None
    # The retired drain knob's default is the fixed timeout (the metrics
    # interval's is pinned in tests/test_obs.py).
    assert service_module.DRAIN_TIMEOUT == 30.0

    for module, deleted in (
        (repro.pointlocation, ("use_locator", "active_locator")),
        (repro.raster, ("default_cache", "resolve_cache")),
        (repro.runtime, ("drain_timeout",)),
    ):
        for name in deleted:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in module.__all__

    with pytest.raises(RasterCacheError):
        SINRDiagram(network).rasterize(
            Point(-4.0, -4.0), Point(4.0, 4.0), 32, cache=True
        )
    with pytest.raises(ServiceError):
        QueryService(network, None)
