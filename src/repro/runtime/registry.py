"""The one registry framework behind every name-based plugin surface.

Nine PRs of organic growth left two hand-rolled copies of the same
machinery — the engine backend registry (:mod:`repro.engine.backend`) and
the locator registry (:mod:`repro.pointlocation.registry`): a lock-guarded
name -> item dict, a :class:`contextvars.ContextVar` holding the current
*selection* (a name, re-resolved on every use, so re-registration under an
active name takes effect immediately), and a token-restoring context
manager.  :class:`Registry` is that machinery written once, parameterised
by the few things that actually differed:

* the **kind** (``"backend"``, ``"locator"``), which names the
  selection's ContextVar;
* the **error type** raised for unknown names (``ReproError`` for the
  engine, :class:`~repro.exceptions.PointLocationError` for locators), so
  existing ``except`` clauses keep working;
* an optional **compose** hook for derived names: ``"sharded:voronoi"``
  resolves recursively — the prefix must be registered, the remainder must
  itself resolve — without ever being registered itself.

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
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Type,
    TypeVar,
    Union,
)

from ..exceptions import ReproError

__all__ = [
    "Registry",
    "Selection",
]

T = TypeVar("T")

#: Separator of composed names (``"sharded:voronoi"``).
COMPOSE_SEPARATOR = ":"


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
        kind: what the registry holds (``"backend"``); names the
            selection's ContextVar.
        label: human phrasing used in error messages (``"engine backend"``);
            defaults to ``kind``.
        default: the selection in force where none was made (a name).
        error: the exception type raised for unknown or malformed names —
            each instantiation keeps its layer's taxonomy branch.
        compose: optional hook enabling derived names: a callable
            ``(outer_item, inner_name) -> item`` applied when a name
            contains ``":"`` (``"sharded:voronoi"`` resolves the
            ``"sharded"`` item, validates ``"voronoi"`` recursively, and
            returns ``compose(item, "voronoi")``).  When set, plain names
            must not contain the separator.
        compose_example: a derived-name example quoted by the registration
            error (``"sharded:voronoi"``).
        unknown_hint: appended to the unknown-name error (e.g. a note that
            composed spellings also exist).
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
    ) -> None:
        self.kind = kind
        self.label = label if label is not None else kind
        self.default = default
        self._error = error
        self._compose = compose
        self._compose_example = compose_example
        self._unknown_hint = unknown_hint
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
        if self._compose is not None and COMPOSE_SEPARATOR in name:
            raise self._error(
                f"{self.label} names must not contain {COMPOSE_SEPARATOR!r}; "
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
                base, separator, inner = name.partition(COMPOSE_SEPARATOR)
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

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry(kind={self.kind!r}, available={self.available()!r})"
