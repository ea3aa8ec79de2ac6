"""The engine's surface, cut to the queries and options its callers use.

The float32 screen derives its tolerance and takes no options, screens only
``received_mask_at`` and ``nearest_received``, and delegates the rest; the
backend protocol has four methods; ``sinr_batch`` returns the whole
matrix.  The radius bounds take their probe gap and pad from
``repro.engine.certify`` and no tolerance option.  These tests pin what is
left, so an option or a query comes back only by changing this file on
purpose.
"""

from __future__ import annotations

import inspect
import math

import repro.engine
from repro.engine import Float32ScreenBackend, QueryBackend, sinr_batch
from repro.engine import mixed_precision
from repro.pointlocation import improved_radius_bounds, measured_radius_bounds

QUERIES = ["heard_station", "nearest_received", "received_mask_at", "sinr_matrix"]


def public_methods(cls) -> list:
    return sorted(
        name for name, value in vars(cls).items()
        if callable(value) and not name.startswith("_")
    )


def test_the_engine_surface_is_what_its_callers_use():
    assert list(inspect.signature(Float32ScreenBackend).parameters) == []
    assert list(inspect.signature(sinr_batch).parameters) == [
        "network", "points", "backend",
    ]
    assert public_methods(QueryBackend) == QUERIES
    assert public_methods(Float32ScreenBackend) == QUERIES
    for module in (mixed_precision, repro.engine):
        assert not hasattr(module, "DEFAULT_DECISION_MARGIN")
        assert "DEFAULT_DECISION_MARGIN" not in module.__all__


def parameters(function) -> list:
    return [
        (name, parameter.default)
        for name, parameter in inspect.signature(function).parameters.items()
    ]


def test_the_radius_bounds_take_no_tolerance_options():
    required = inspect.Parameter.empty
    assert parameters(measured_radius_bounds) == [
        ("network", required), ("index", required), ("rays", 48),
    ]
    assert parameters(improved_radius_bounds) == [
        ("network", required), ("index", required), ("probe_angle", math.pi / 2.0),
    ]
