"""The unified component runtime: registry, lifecycle, epoch coordination.

Three pieces of cross-cutting machinery that every layer of the serving
stack used to hand-roll now live here, written once:

* :mod:`repro.runtime.registry` — the generic name -> item
  :class:`Registry` with ContextVar-scoped selection and composed-name
  resolution (``"sharded:voronoi"``).  The engine backend and locator
  registries are thin instantiations of it.
* :mod:`repro.runtime.component` — the :class:`Component` lifecycle
  (``new -> running -> stopping -> stopped``, terminal, async context
  manager, per-layer ``*ClosedError`` guards) adopted by the batcher,
  services and hub, plus the :class:`Runtime`
  composition root that boots components in dependency order, stops them
  in reverse and auto-wires every :class:`StatsSource` into an owned
  metrics hub.
* :mod:`repro.runtime.epoch` — the :class:`EpochCoordinator` that owns
  the build-flip-record-drain swap protocol
  :meth:`~repro.service.QueryService.swap_network` delegates to.

Everything above the foundations (engine, pointlocation, service, raster,
obs) builds on this package; reprolint rule RL010 keeps it that
way by flagging ad-hoc ContextVar registries and hand-rolled start/stop
state machines anywhere else.
"""

from .component import Component, Runtime, StatsSource
from .epoch import EpochCoordinator, drain_timeout
from .registry import Registry, Selection

__all__ = [
    "Component",
    "EpochCoordinator",
    "Registry",
    "Runtime",
    "Selection",
    "StatsSource",
    "drain_timeout",
]
