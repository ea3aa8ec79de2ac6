"""The one component lifecycle and the composition root that boots it.

Every long-lived object in the serving stack — the micro-batcher, the
query and raster services, the metrics hub — used to carry its own
hand-rolled start/stop state machine.  :class:`Component` is that machine
written once:

* states progress ``new -> running -> stopping -> stopped`` and the
  terminal state is final — a component is started at most once and never
  restarted (the contract the micro-batcher always had, now uniform);
* ``start()`` raises the component's ``lifecycle_error`` on double start
  or restart; ``stop(drain=True)`` is idempotent and returns whatever the
  component's teardown produces (the hub returns its final record);
* ``closed`` is ``True`` from the moment ``stop`` begins; using a closed
  component raises its ``closed_error`` (each layer keeps its taxonomy
  branch: :class:`~repro.exceptions.ServiceClosedError`,
  :class:`~repro.exceptions.ObservabilityClosedError`, ...);
* ``async with component:`` starts on entry and stops on exit, draining
  when the block exits cleanly and aborting when an exception escapes.

Subclasses implement only :meth:`Component._do_start` and
:meth:`Component._do_stop`; the guards, the state, and the context
manager live here — which is also what makes project invariant RL010
(``tests/invariants.py``) enforceable: a class outside :mod:`repro.runtime`
that defines its own ``start``/``stop`` pair is re-growing the machinery
this module unified.

:class:`Runtime` is the composition root of one serving process: declare
named components (dependencies first), ``start()`` boots them in
declaration order and stops them in reverse, and any component exposing
:meth:`Component.stats_source` is automatically wired into a metrics hub
the runtime owns.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Type,
    runtime_checkable,
)

from ..exceptions import ComponentClosedError, ComponentError, ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..obs import MetricsHub

__all__ = ["Component", "Runtime", "StatsSource"]

_NEW = "new"
_RUNNING = "running"
_STOPPING = "stopping"
_STOPPED = "stopped"


@runtime_checkable
class StatsSource(Protocol):
    """Anything that can report a flat numeric sample of its own state.

    The one protocol behind every metrics wiring in the stack:
    ``metrics_sample()`` returns ``{metric_name: float}`` — exactly the
    shape a :class:`~repro.obs.MetricsHub` source produces.  Stats-bearing
    objects (service stats, batcher gauges, tile caches, screen counters)
    implement it, the bound method is itself a hub source, and
    :class:`Runtime` auto-registers every component whose
    :meth:`Component.stats_source` yields one.
    """

    def metrics_sample(self) -> Mapping[str, float]: ...


class Component:
    """Base class providing the unified lifecycle (see the module docstring).

    Subclasses set ``lifecycle_error`` / ``closed_error`` to their layer's
    taxonomy branch and implement ``_do_start`` (bind resources, spawn
    tasks) and ``_do_stop`` (tear down; ``drain`` distinguishes a graceful
    stop from an abort).  ``_do_stop`` always runs exactly once, even when
    the component is stopped from the ``new`` state — teardown such as
    withdrawing metrics sources must happen regardless of whether
    ``start`` was ever called — so implementations guard their own
    never-started case.
    """

    #: Raised on lifecycle misuse (double start, restart after stop).
    lifecycle_error: ClassVar[Type[ReproError]] = ComponentError
    #: Raised when a closed component is used; subclasses narrow it.
    closed_error: ClassVar[Type[ReproError]] = ComponentClosedError

    #: Class-level default so subclasses need not call ``__init__`` here;
    #: transitions rebind it on the instance.
    _lifecycle_state: str = _NEW

    # -- subclass hooks --------------------------------------------------
    async def _do_start(self) -> None:
        """Bind resources and spawn tasks (default: nothing to do)."""

    async def _do_stop(self, drain: bool) -> Optional[object]:
        """Tear down; the return value becomes :meth:`stop`'s result."""
        return None

    # -- the lifecycle ---------------------------------------------------
    @property
    def lifecycle_state(self) -> str:
        """``"new"``, ``"running"``, ``"stopping"`` or ``"stopped"``."""
        return self._lifecycle_state

    @property
    def running(self) -> bool:
        return self._lifecycle_state == _RUNNING

    @property
    def closed(self) -> bool:
        """``True`` from the moment ``stop`` begins (terminal thereafter)."""
        return self._lifecycle_state in (_STOPPING, _STOPPED)

    async def start(self) -> "Component":
        """Run the component's startup exactly once; returns ``self``.

        Raises the component's ``lifecycle_error`` when already running or
        already stopped — the unified lifecycle is terminal, a stopped
        component is never restarted.  A failed startup leaves the
        component in ``new`` (nothing was brought up).
        """
        state = self._lifecycle_state
        if state == _RUNNING:
            raise self.lifecycle_error(
                f"{type(self).__name__} is already running; a component is "
                f"started at most once"
            )
        if state != _NEW:
            raise self.lifecycle_error(
                f"{type(self).__name__} was stopped and cannot be restarted"
            )
        await self._do_start()
        self._lifecycle_state = _RUNNING
        return self

    async def stop(self, drain: bool = True) -> Optional[object]:
        """Tear the component down; idempotent, and final.

        ``drain=True`` finishes outstanding work first; ``drain=False``
        aborts it.  The first call runs ``_do_stop`` and returns its
        result; later calls return ``None`` without touching anything.
        """
        if self._lifecycle_state in (_STOPPING, _STOPPED):
            return None
        self._lifecycle_state = _STOPPING
        try:
            return await self._do_stop(drain)
        finally:
            self._lifecycle_state = _STOPPED

    async def __aenter__(self) -> "Component":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop(drain=exc_info[0] is None)

    def _ensure_open(self) -> None:
        """Raise the component's ``closed_error`` once ``stop`` has begun."""
        if self.closed:
            raise self.closed_error(f"{type(self).__name__} is closed")

    # -- observability wiring --------------------------------------------
    def stats_source(self) -> Optional[Callable[[], Mapping[str, float]]]:
        """This component's metrics sampler, or ``None`` when it has none.

        The default recognises the :class:`StatsSource` protocol on the
        component itself; :class:`Runtime` registers the returned callable
        with its owned hub under the component's declared name.
        """
        sample = getattr(self, "metrics_sample", None)
        return sample if callable(sample) else None


class Runtime(Component):
    """A composition root: named components booted and torn down as one.

    Args:
        metrics: a :class:`~repro.obs.MetricsHub` to wire component stats
            into, or ``None`` to create a private one at start (only when
            some component actually exposes a :meth:`Component.stats_source`).
        metrics_interval: collection interval of the private hub.

    ``add(name, component, after=(...))`` declares a component; dependency
    names must already be declared, so declaration order is always a valid
    start order (and the one used — deterministic by construction).
    ``start()`` boots every component in that order, wires stats sources
    into the hub, and starts the hub last so its first tick samples live
    components; ``stop()`` stops the hub first (its final record captures
    the still-running stack) and the components in reverse order.  A
    startup failure rolls back: already-started components are aborted in
    reverse before the error propagates.
    """

    def __init__(
        self,
        *,
        metrics: "Optional[MetricsHub]" = None,
        metrics_interval: Optional[float] = None,
    ) -> None:
        self._components: Dict[str, Component] = {}
        self._dependencies: Dict[str, Tuple[str, ...]] = {}
        self.metrics = metrics
        self._metrics_interval = metrics_interval
        self._hub_started = False

    # -- declaration -----------------------------------------------------
    def add(
        self, name: str, component: Component, *, after: Tuple[str, ...] = ()
    ) -> Component:
        """Declare ``component`` under ``name``; returns the component.

        ``after`` names components that must be running first; they must
        already be declared, which keeps the dependency graph acyclic and
        the declaration order a valid boot order by construction.
        """
        if self._lifecycle_state != _NEW:
            raise ComponentError(
                "components must be added before the runtime starts"
            )
        if not isinstance(component, Component):
            raise ComponentError(
                f"{name!r} is not a runtime Component "
                f"(got {type(component).__name__}); adopt the unified "
                f"lifecycle before composing it"
            )
        if name in self._components:
            raise ComponentError(
                f"a component named {name!r} is already declared"
            )
        dependencies = tuple(after)
        for dependency in dependencies:
            if dependency not in self._components:
                raise ComponentError(
                    f"component {name!r} depends on undeclared component "
                    f"{dependency!r}; declare dependencies first"
                )
        self._components[name] = component
        self._dependencies[name] = dependencies
        return component

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise ComponentError(
                f"no component named {name!r}; declared: "
                f"{sorted(self._components)}"
            ) from None

    def component_names(self) -> Tuple[str, ...]:
        """Declared names in boot (declaration) order."""
        return tuple(self._components)

    def dependencies(self, name: str) -> Tuple[str, ...]:
        """The declared ``after`` set of ``name``."""
        self.component(name)
        return self._dependencies[name]

    # -- lifecycle -------------------------------------------------------
    async def _do_start(self) -> None:
        sources = [
            (name, source)
            for name, component in self._components.items()
            for source in (component.stats_source(),)
            if source is not None
        ]
        hub = self.metrics
        if hub is None and sources:
            # Imported lazily: obs adopts Component from this module, so a
            # module-level import here would cycle.
            from ..obs import MetricsHub

            hub = (
                MetricsHub(self._metrics_interval)
                if self._metrics_interval is not None
                else MetricsHub()
            )
            self.metrics = hub
        if hub is not None:
            for name, source in sources:
                hub.add_source(hub.unique_source_name(name), source)
        started: List[Component] = []
        try:
            for component in self._components.values():
                await component.start()
                started.append(component)
            if hub is not None and not hub.running and not hub.closed:
                await hub.start()
                self._hub_started = True
        except BaseException:
            for component in reversed(started):
                try:
                    await component.stop(drain=False)
                except Exception:
                    pass  # the startup failure is the error to surface
            raise

    async def _do_stop(self, drain: bool) -> None:
        failure: Optional[BaseException] = None
        hub = self.metrics
        if self._hub_started and hub is not None and hub.running:
            # Stop the hub while the components still run: its final
            # collect records the end-of-run state of every source.
            try:
                await hub.stop()
            except BaseException as exc:
                failure = exc
        for component in reversed(list(self._components.values())):
            try:
                await component.stop(drain=drain)
            except BaseException as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure
