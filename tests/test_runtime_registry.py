"""Contract of the unified registry framework (:mod:`repro.runtime.registry`).

The invariants under test: one :class:`Registry` implementation backs both
the engine-backend and locator surfaces; ``available()`` (and both public
``available_*`` call sites) is sorted, hence deterministic across runs;
and selections nest and restore with ContextVar token semantics.
"""

from __future__ import annotations

import pytest

from repro.engine import backend as backend_module
from repro.engine.backend import (
    BACKENDS,
    available_backends,
    use_backend,
)
from repro.exceptions import ReproError
from repro.pointlocation import registry as locator_module
from repro.pointlocation.registry import LOCATORS, available_locators
from repro.runtime import Registry, Selection


class TestOneImplementation:
    def test_both_surfaces_are_registry_instances(self):
        assert isinstance(BACKENDS, Registry)
        assert isinstance(LOCATORS, Registry)
        assert BACKENDS.kind == "backend"
        assert LOCATORS.kind == "locator"

    def test_module_aliases_point_at_the_instances(self):
        assert backend_module.BACKENDS is BACKENDS
        assert locator_module.LOCATORS is LOCATORS


class TestSortedAvailability:
    """Both public call sites return sorted names — deterministic output."""

    def test_available_backends_is_sorted(self):
        names = list(available_backends())
        assert names == sorted(names) and "numpy" in names

    def test_available_locators_is_sorted(self):
        names = list(available_locators())
        assert names == sorted(names) and "voronoi" in names

    def test_registry_available_is_sorted_after_unsorted_insertion(self):
        scratch = Registry("scratch-sorted")
        for name in ("zeta", "alpha", "mid"):
            scratch.register(name, object())
        assert scratch.available() == ["alpha", "mid", "zeta"]
        assert list(scratch.snapshot()) == ["alpha", "mid", "zeta"]


class TestSelectionSemantics:
    def test_nested_selections_unwind_in_order(self):
        default = BACKENDS.active()
        with use_backend("reference"):
            assert type(BACKENDS.active()).__name__ == "ReferenceBackend"
            with use_backend("numpy"):
                assert type(BACKENDS.active()).__name__ == "NumpyBackend"
            assert type(BACKENDS.active()).__name__ == "ReferenceBackend"
        assert BACKENDS.active() is default

    def test_selection_value_tracks_reregistration(self):
        scratch = Registry("scratch-reregister", default="thing")
        first, second = object(), object()
        scratch.register("thing", first)
        selection = scratch.use("thing")
        assert selection.value is first
        scratch.register("thing", second)
        assert selection.value is second  # names re-resolve on access
        assert scratch.active() is second
        assert isinstance(selection, Selection)

    def test_unregister_then_resolve_fails_with_available_list(self):
        scratch = Registry("scratch-unregister")
        scratch.register("gone", object())
        assert scratch.unregister("gone")
        assert not scratch.unregister("gone")
        with pytest.raises(ReproError, match="available"):
            scratch.get("gone")

    def test_contains_and_default_error(self):
        scratch = Registry("scratch-contains")
        scratch.register("present", object())
        assert "present" in scratch and "absent" not in scratch
        with pytest.raises(ReproError, match="no default"):
            scratch.active()

