"""The one registry framework behind every name-based plugin surface.

Nine PRs of organic growth left two hand-rolled copies of the same
machinery — the engine backend registry (:mod:`repro.engine.backend`) and
the locator registry (:mod:`repro.pointlocation.registry`): a lock-guarded
name -> item dict, a :class:`contextvars.ContextVar` holding the current
*selection* (a name, re-resolved on every use, so re-registration under an
active name takes effect immediately), and a token-restoring context
manager.  :class:`Registry` is that machinery written once, parameterised
by the few things that actually differed:

* the **kind** (``"backend"``, ``"locator"``) — also the prefix of the
  portable spec strings below;
* the **error type** raised for unknown names (``ReproError`` for the
  engine, :class:`~repro.exceptions.PointLocationError` for locators), so
  existing ``except`` clauses keep working;
* an optional **compose** hook for derived names: ``"sharded:voronoi"``
  resolves recursively — the prefix must be registered, the remainder must
  itself resolve — without ever being registered itself.

Spec strings
============

A selection that must cross a process boundary (the planned multi-process
serving cluster ships worker configuration as data) is rendered as
``"<kind>/<name>"`` by :meth:`Registry.to_spec` and resolved back by
:meth:`Registry.from_spec` / :func:`use_spec`::

    BACKENDS.to_spec("numpy")          # -> "backend/numpy"
    Registry.from_spec("backend/numpy")        # -> the NumpyBackend
    use_spec("locator/sharded:voronoi")        # select it in this context

Every :class:`Registry` announces itself in a module-level kind table at
construction, so ``from_spec`` needs nothing but the string.

Concurrency contract (inherited verbatim from both predecessors):
``register`` is lock-guarded and safe from any thread; ``get`` is a
lock-free dict read (atomic under the GIL) because it sits on the hot path
of every batched query; the ContextVar isolates selections per thread and
per async task.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar, Token
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from ..exceptions import ComponentError, ReproError

__all__ = [
    "Registry",
    "Selection",
    "registry_for_kind",
    "use_spec",
]

T = TypeVar("T")

#: Separator between the registry kind and the item name in a spec string.
SPEC_SEPARATOR = "/"

#: Every constructed registry, by kind — what ``from_spec`` resolves
#: against.  A re-constructed kind replaces the previous entry (tests build
#: scratch registries; the library's own kinds are module singletons).
_REGISTRIES: Dict[str, "Registry[Any]"] = {}
_registries_lock = threading.Lock()


def registry_for_kind(kind: str) -> "Registry[Any]":
    """The registry registered under ``kind``, or raise ``ComponentError``."""
    with _registries_lock:
        registry = _REGISTRIES.get(kind)
        known = sorted(_REGISTRIES)
    if registry is None:
        raise ComponentError(
            f"unknown registry kind {kind!r}; known kinds: {known}"
        )
    return registry


class Selection(Generic[T]):
    """Result of :meth:`Registry.use`: effective immediately, optional context manager.

    ``value`` re-resolves name-based selections on access, so it tracks
    re-registrations exactly like :meth:`Registry.active`.  The value bound
    by ``with registry.use(name) as item`` is necessarily a snapshot taken
    at entry; prefer :meth:`Registry.active` (or the ``value`` property)
    inside the block when re-registration during the block is a
    possibility.  Exiting the block restores the previous selection exactly
    once, also when an exception escapes it, and nested selections unwind
    in order (ContextVar token semantics).
    """

    __slots__ = ("_registry", "_token", "_selected")

    def __init__(
        self,
        registry: "Registry[T]",
        token: Optional["Token[Union[str, T, None]]"],
        selected: Union[str, T],
    ) -> None:
        self._registry = registry
        self._token = token
        self._selected = selected

    @property
    def value(self) -> T:
        return self._registry.get(self._selected)

    def __enter__(self) -> T:
        return self.value

    def __exit__(self, *exc_info: object) -> None:
        if self._token is not None:
            self._registry.reset(self._token)
            self._token = None


class Registry(Generic[T]):
    """A lock-guarded, ContextVar-selected name -> item registry.

    Args:
        kind: the spec-string prefix and kind-table key (``"backend"``).
        label: human phrasing used in error messages (``"engine backend"``);
            defaults to ``kind``.
        default: the selection in force where none was made (a name).
        error: the exception type raised for unknown or malformed names —
            each instantiation keeps its layer's taxonomy branch.
        compose: optional hook enabling derived names: a callable
            ``(outer_item, inner_name) -> item`` applied when a name
            contains ``separator`` (``"sharded:voronoi"`` resolves the
            ``"sharded"`` item, validates ``"voronoi"`` recursively, and
            returns ``compose(item, "voronoi")``).  When set, plain names
            must not contain the separator.
        compose_example: a derived-name example quoted by the registration
            error (``"sharded:voronoi"``).
        unknown_hint: appended to the unknown-name error (e.g. a note that
            composed spellings also exist).
        separator: the composed-name separator (``":"``).
    """

    def __init__(
        self,
        kind: str,
        *,
        label: Optional[str] = None,
        default: Optional[str] = None,
        error: Type[ReproError] = ReproError,
        compose: Optional[Callable[[T, str], T]] = None,
        compose_example: str = "",
        unknown_hint: str = "",
        separator: str = ":",
    ) -> None:
        if not kind or SPEC_SEPARATOR in kind:
            raise ComponentError(
                f"a registry kind must be a non-empty name without "
                f"{SPEC_SEPARATOR!r}, got {kind!r}"
            )
        self.kind = kind
        self.label = label if label is not None else kind
        self.default = default
        self._error = error
        self._compose = compose
        self._compose_example = compose_example
        self._unknown_hint = unknown_hint
        self._separator = separator
        self._items: Dict[str, T] = {}
        self._lock = threading.Lock()
        # The active *selection*, not the active item: a registered name
        # stays a name and is re-resolved on every use, so re-registration
        # under that name takes effect immediately; an explicitly passed
        # item object is stored as-is.  Being a ContextVar, the selection
        # is isolated per thread / async task.
        self._selection: ContextVar[Union[str, T, None]] = ContextVar(
            f"repro_{kind}", default=default
        )
        with _registries_lock:
            _REGISTRIES[kind] = self

    # -- registration ----------------------------------------------------
    def register(self, name: str, item: T) -> None:
        """Register ``item`` under ``name`` (overwriting any previous one).

        Safe to call from any thread.  Because active selections made by
        name are re-resolved on use, overwriting a name that is currently
        active takes effect immediately.  When composition is enabled,
        derived spellings cannot be registered directly — they are resolved
        dynamically so every registered inner name is immediately
        composable.
        """
        if self._compose is not None and self._separator in name:
            raise self._error(
                f"{self.label} names must not contain {self._separator!r}; "
                f"composed names like {self._compose_example!r} are derived, "
                f"not registered"
            )
        with self._lock:
            self._items[name] = item

    def unregister(self, name: str) -> bool:
        """Remove ``name``; ``False`` when it was not registered.

        For harnesses and tests that register ephemeral items; an active
        selection of a just-unregistered name fails at its next
        re-resolution with the usual unknown-name error.
        """
        with self._lock:
            return self._items.pop(name, None) is not None

    def available(self) -> List[str]:
        """Every registered base name, sorted (deterministic across runs)."""
        with self._lock:
            return sorted(self._items)

    def snapshot(self) -> Dict[str, T]:
        """Name -> item mapping of everything registered (a sorted copy)."""
        with self._lock:
            return {name: self._items[name] for name in sorted(self._items)}

    # -- resolution ------------------------------------------------------
    def get(self, name: Union[str, T, None] = None) -> T:
        """Resolve an item: ``None`` -> the active one, a str -> by name.

        Composed names resolve recursively when the registry has a
        ``compose`` hook (``"sharded:sharded:voronoi"`` works); anything
        that is not ``None`` or a string is returned as-is (an explicitly
        constructed item).
        """
        if name is None:
            return self.active()
        if isinstance(name, str):
            if self._compose is not None:
                base, separator, inner = name.partition(self._separator)
            else:
                base, separator, inner = name, "", ""
            # Lock-free read: dict lookups are atomic under the GIL, and
            # this is on the hot path of every batched query (re-resolution
            # of name-based selections).  The lock only serialises writers.
            item = self._items.get(base)
            if item is None:
                raise self._error(
                    f"unknown {self.label} {base!r}; "
                    f"available: {self.available()}{self._unknown_hint}"
                )
            if separator:
                assert self._compose is not None
                self.get(inner)  # validate the inner name eagerly
                return self._compose(item, inner)
            return item
        return name

    def active(self) -> T:
        """The item the current context's selection resolves to.

        Each thread and async task sees its own :meth:`use` choices,
        falling back to ``default`` where none was made.
        """
        selected = self._selection.get()
        if selected is None:
            raise self._error(
                f"no {self.label} selected and the registry has no default"
            )
        if isinstance(selected, str):
            return self.get(selected)
        return selected

    def use(self, name: Union[str, T]) -> Selection[T]:
        """Make ``name`` the active selection in the current context.

        The switch takes effect immediately and persists for the current
        thread / async task; used as a context manager, the previous
        selection is restored on exit (also when an exception escapes the
        block), and nested selections unwind in order.
        """
        # Resolve eagerly so an unknown name raises here, not at first use.
        self.get(name)
        # The selection stores the *name* when one was given, so later
        # re-registrations under it are picked up on re-resolution; an
        # explicitly passed item object is stored as-is.
        token = self._selection.set(name)
        return Selection(self, token, name)

    def reset(self, token: "Token[Union[str, T, None]]") -> None:
        """Restore the selection a :class:`Selection` token snapshotted."""
        self._selection.reset(token)

    # -- spec strings ----------------------------------------------------
    def to_spec(self, name: Union[str, T, None] = None) -> str:
        """Render a selection as a portable ``"<kind>/<name>"`` string.

        ``None`` renders the current context's selection.  Only name-based
        selections can cross a process boundary: an object selection has no
        portable identity, so it is rejected — register the object and
        select it by name instead.  The name is validated (including
        composed spellings), so a spec that renders is a spec that resolves.
        """
        if name is None:
            name = self._selection.get()
        if not isinstance(name, str):
            raise self._error(
                f"only name-based {self.label} selections can be rendered "
                f"as a spec, got {name!r}; register the object and select "
                f"it by name"
            )
        self.get(name)  # validate, composed spellings included
        return f"{self.kind}{SPEC_SEPARATOR}{name}"

    @staticmethod
    def resolve_spec(spec: str) -> Tuple["Registry[Any]", str]:
        """Split a spec into its registry and name (both validated to exist)."""
        kind, separator, name = spec.partition(SPEC_SEPARATOR)
        if not separator or not kind or not name:
            raise ComponentError(
                f"malformed spec {spec!r}; expected '<kind>{SPEC_SEPARATOR}"
                f"<name>' such as 'backend{SPEC_SEPARATOR}numpy'"
            )
        return registry_for_kind(kind), name

    @classmethod
    def from_spec(cls, spec: str) -> Any:
        """Resolve a ``"<kind>/<name>"`` spec to its registered item."""
        registry, name = cls.resolve_spec(spec)
        return registry.get(name)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry(kind={self.kind!r}, available={self.available()!r})"


def use_spec(spec: str) -> Selection[Any]:
    """Select a spec string's item in the current context.

    ``use_spec("backend/numpy")`` is ``registry_for_kind("backend")
    .use("numpy")`` — the one-call worker-boot hook: a process handed its
    configuration as spec strings applies them without knowing which layer
    each one belongs to.
    """
    registry, name = Registry.resolve_spec(spec)
    return registry.use(name)
