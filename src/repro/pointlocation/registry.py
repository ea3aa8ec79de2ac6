"""The unified ``Locator`` protocol and the name-based locator registry.

Every network-level point-location implementation in this package answers the
same question — "which station (if any) hears this point?" — but the
implementations historically grew ad-hoc surfaces.  This module pins down the
one contract they all share and makes them discoverable by name, mirroring
the engine's backend registry (:mod:`repro.engine.backend`):

The ``Locator`` contract
========================

* ``locate(point) -> int`` — the index of the station heard at the point, or
  :data:`repro.engine.batch.NO_RECEPTION` (``-1``) when nothing is heard;
* ``locate_batch(points) -> numpy.ndarray`` — the same answer for an
  ``(m, 2)`` batch, always as an ``int64`` array with ``-1`` as the
  no-reception sentinel, in query order;
* a ``network`` attribute and a class-level ``build(network, **options)``
  factory, which is what the registry hands out.

The registry
============

``register_locator(name, factory)`` / ``get_locator(name)`` /
``available_locators()`` manage the name -> factory mapping behind a lock, so
registration is safe from any thread.  ``use_locator(name)`` selects a
default locator factory for the current thread / asyncio task (a
:class:`contextvars.ContextVar`, usable as a context manager exactly like
:func:`repro.engine.backend.use_backend`), which lets harnesses sweep
locators without threading a parameter through every call.

Composed names: ``"sharded:<inner>"`` resolves to a factory that builds a
:class:`~repro.pointlocation.sharded.ShardedLocator` wrapping the named inner
locator per shard, so e.g. ``get_locator("sharded:theorem3")`` works anywhere
a plain name does.  The registered locator matrix lives in the package
docstring (:mod:`repro.pointlocation`).

The registry machinery is one :class:`repro.runtime.Registry`
instantiation (:data:`LOCATORS`, kind ``"locator"``, with the composed-name
hook enabled): this module contributes the protocols and the composition
semantics and keeps the function surface as thin delegates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Protocol, runtime_checkable

import numpy as np

from ..exceptions import PointLocationError
from ..geometry.point import Point
from ..runtime.registry import Registry, Selection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..model.network import WirelessNetwork

__all__ = [
    "Locator",
    "LocatorFactory",
    "LOCATORS",
    "register_locator",
    "available_locators",
    "get_locator",
    "build_locator",
    "active_locator",
    "use_locator",
]


@runtime_checkable
class Locator(Protocol):
    """The contract every network-level point locator implements.

    ``locate`` answers one query with the heard station's index (``-1`` when
    no station is heard); ``locate_batch`` answers an ``(m, 2)`` batch with an
    ``int64`` array using the same sentinel.  Batch answers agree with the
    scalar loop pointwise (away from measure-zero nearest-station ties, where
    tie-breaks may differ between scalar and vectorised front-ends).
    """

    name: str

    def locate(self, point: Point) -> int: ...

    def locate_batch(self, points: object) -> np.ndarray: ...


@runtime_checkable
class LocatorFactory(Protocol):
    """Anything with a ``build(network, **options) -> Locator`` entry point.

    Locator classes themselves satisfy this via a ``build`` classmethod; the
    registry also hands out bound factories for composed names such as
    ``"sharded:voronoi"``.
    """

    def build(self, network: "WirelessNetwork", **options: object) -> Locator: ...


class _ComposedFactory:
    """Factory for a composed name: binds the inner locator name as an option.

    ``get_locator("sharded:voronoi")`` returns one of these; its ``build``
    forwards to the outer factory with ``inner="voronoi"`` merged into the
    options (explicitly passed options win).
    """

    def __init__(self, outer: LocatorFactory, inner_name: str) -> None:
        self._outer = outer
        self._inner_name = inner_name

    def build(self, network: "WirelessNetwork", **options: object) -> Locator:
        options.setdefault("inner", self._inner_name)
        return self._outer.build(network, **options)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ComposedFactory({self._outer!r}, inner={self._inner_name!r})"


#: The locator registry — a :class:`repro.runtime.Registry` instantiation
#: with the composed-name hook enabled: ``"sharded:<inner>"`` resolves to a
#: :class:`_ComposedFactory` without ever being registered.  The ContextVar
#: selection defaults to ``"voronoi"``.
LOCATORS: Registry[LocatorFactory] = Registry(
    "locator",
    label="locator",
    default="voronoi",
    error=PointLocationError,
    compose=_ComposedFactory,
    compose_example="sharded:voronoi",
    unknown_hint=" (plus 'sharded:<inner>' compositions)",
)


def register_locator(name: str, factory: LocatorFactory) -> None:
    """Register ``factory`` under ``name`` (overwriting any previous one).

    Safe to call from any thread.  Composed names cannot be registered
    directly — the ``sharded:`` prefix is resolved dynamically so that every
    registered inner locator is immediately sweepable through it.
    """
    LOCATORS.register(name, factory)


def available_locators() -> Dict[str, LocatorFactory]:
    """Name -> factory mapping of everything registered (a snapshot copy).

    Sorted by name, so iteration order is deterministic across runs and
    interpreters regardless of registration order.  Only base names are
    listed; every name that supports inner composition (currently
    ``"sharded"``) additionally accepts the ``sharded:<inner>`` spelling
    through :func:`get_locator`.
    """
    return LOCATORS.snapshot()


def get_locator(name: "str | LocatorFactory | None" = None) -> LocatorFactory:
    """Resolve a locator factory: None -> the active one, a str -> by name.

    Composed names (``"sharded:voronoi"``, ``"sharded:theorem3"``, even
    ``"sharded:sharded:voronoi"``) resolve recursively: the prefix must be a
    registered factory that accepts an ``inner=`` build option, and the
    remainder must itself resolve.  Anything that is not ``None`` or a string
    is returned as-is (an explicitly constructed factory).
    """
    return LOCATORS.get(name)


def build_locator(
    network: "WirelessNetwork",
    name: "str | LocatorFactory | None" = None,
    **options: object,
) -> Locator:
    """Resolve and build in one call: the service-layer lookup hook.

    ``build_locator(network, "sharded:voronoi", shards=8)`` is exactly
    ``get_locator("sharded:voronoi").build(network, shards=8)``; ``None``
    builds the context's active selection (:func:`use_locator`).  The async
    query service (:mod:`repro.service`) and harnesses that take a locator
    spec as data go through this instead of pairing the two calls.
    """
    return get_locator(name).build(network, **options)


def active_locator() -> LocatorFactory:
    """The locator factory harnesses use when none is named explicitly.

    Resolved from the current context's selection, so each thread and async
    task sees its own :func:`use_locator` choices (falling back to
    ``"voronoi"`` — the exact ``O(n)``-per-query baseline — where none was
    made).
    """
    return LOCATORS.active()


def use_locator(name: "str | LocatorFactory") -> Selection[LocatorFactory]:
    """Make ``name`` the active locator selection in the current context.

    Takes effect immediately for the current thread / async task; as a
    context manager the previous selection is restored on exit, also when an
    exception escapes the block, and nested selections unwind in order.
    """
    return LOCATORS.use(name)
