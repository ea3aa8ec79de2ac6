"""Pluggable compute backends for the batched query engine.

A backend turns raw coordinate arrays into SINR quantities through the four
methods of :class:`QueryBackend`, all required: the SINR matrix (the value
query behind a raster's SINR values) and three decision queries.  The
backend matrix (see also :func:`available_backends`):

* ``"numpy"`` — the fully vectorised kernels of :mod:`repro.engine.kernels`
  (the default, and the fast path every consumer uses);
* ``"reference"`` — a pure-Python backend that loops over the scalar model
  functions (:mod:`repro.model.sinr`).  It is deliberately slow and exists as
  ground truth: the property tests assert that every registered backend
  agrees with it on random networks, so any future backend can be
  validated through the same protocol;
* ``"float32-screen"`` (:mod:`repro.engine.mixed_precision`) — a certified
  float32 screen whose uncertain points are re-verified exactly.

Select a backend with :func:`use_backend` (also usable as a context manager)
or per call via the ``backend=`` argument of the :mod:`repro.engine.batch`
functions::

    from repro.engine import use_backend

    use_backend("reference")          # current context, until changed back
    with use_backend("numpy"):        # scoped
        ...

Selection is stored in a :class:`contextvars.ContextVar`, so it is isolated
per thread and per async task: two threads (or asyncio tasks) can each
``use_backend(...)`` a different backend concurrently without seeing each
other's choice, and the context-manager form restores the previous selection
even when an exception escapes the block.  The registry itself is guarded by
a lock, and name-based selections are re-resolved on every query, so
re-registering a backend under an active name takes effect immediately.
A selection is a registered name or an object with the four
:class:`QueryBackend` methods; anything else raises
:class:`~repro.exceptions.ReproError` where it is passed, before it can
reach a query.

All of that machinery is one :class:`repro.runtime.Registry`
instantiation (:data:`BACKENDS`, kind ``"backend"``): this module
contributes the backends and keeps the function surface as thin
delegates.
"""

from __future__ import annotations

import math
from typing import Dict, Protocol, runtime_checkable

import numpy as np

from ..exceptions import ReproError
from ..runtime.registry import Registry, Selection
from . import kernels

__all__ = [
    "QueryBackend",
    "NumpyBackend",
    "ReferenceBackend",
    "BACKENDS",
    "register_backend",
    "available_backends",
    "get_backend",
    "active_backend",
    "use_backend",
]


@runtime_checkable
class QueryBackend(Protocol):
    """The contract every engine backend implements.

    All methods take station coordinates ``(n, 2)``, powers ``(n,)`` and
    query points ``(m, 2)`` as float arrays and return arrays with the
    coincident-point semantics documented in :mod:`repro.engine.kernels`.
    ``sinr_matrix`` is the value query behind a raster's SINR values.  The
    three decision queries are ``received_mask_at`` (is station
    ``indices[j]`` received at ``points[j]``? — the check of a given
    candidate), ``nearest_received`` (the nearest station where it is
    received, else ``no_reception``: the ``voronoi`` locator's whole query)
    and ``heard_station`` (the station heard at each point, else
    ``no_reception``: the brute-force locator's answer and every raster
    label; the bulk :meth:`~repro.model.network.WirelessNetwork.heard_station`).
    """

    name: str

    def sinr_matrix(
        self,
        coords: np.ndarray,
        powers: np.ndarray,
        points: np.ndarray,
        noise: float,
        alpha: float,
    ) -> np.ndarray: ...

    def received_mask_at(
        self,
        coords: np.ndarray,
        powers: np.ndarray,
        points: np.ndarray,
        indices: np.ndarray,
        noise: float,
        beta: float,
        alpha: float,
    ) -> np.ndarray: ...

    def nearest_received(
        self,
        coords: np.ndarray,
        powers: np.ndarray,
        points: np.ndarray,
        noise: float,
        beta: float,
        alpha: float,
        no_reception: int,
    ) -> np.ndarray: ...

    def heard_station(
        self,
        coords: np.ndarray,
        powers: np.ndarray,
        points: np.ndarray,
        noise: float,
        beta: float,
        alpha: float,
        no_reception: int,
    ) -> np.ndarray: ...


class NumpyBackend:
    """The vectorised default backend (thin façade over the kernels)."""

    name = "numpy"

    def received_mask_at(
        self,
        coords: np.ndarray,
        powers: np.ndarray,
        points: np.ndarray,
        indices: np.ndarray,
        noise: float,
        beta: float,
        alpha: float,
    ) -> np.ndarray:
        return kernels.received_mask_at(
            coords, powers, points, indices, noise, beta, alpha
        )

    def nearest_received(
        self,
        coords: np.ndarray,
        powers: np.ndarray,
        points: np.ndarray,
        noise: float,
        beta: float,
        alpha: float,
        no_reception: int,
    ) -> np.ndarray:
        return kernels.nearest_received(
            coords, powers, points, noise, beta, alpha, no_reception
        )

    def sinr_matrix(
        self,
        coords: np.ndarray,
        powers: np.ndarray,
        points: np.ndarray,
        noise: float,
        alpha: float,
    ) -> np.ndarray:
        return kernels.sinr_matrix(coords, powers, points, noise, alpha)

    def heard_station(
        self,
        coords: np.ndarray,
        powers: np.ndarray,
        points: np.ndarray,
        noise: float,
        beta: float,
        alpha: float,
        no_reception: int,
    ) -> np.ndarray:
        return kernels.heard_station(
            coords, powers, points, noise, beta, alpha, no_reception
        )


class ReferenceBackend:
    """Pure-Python ground-truth backend built on the scalar model functions.

    Roughly two orders of magnitude slower than the numpy backend; used only
    for equivalence testing and debugging.
    """

    name = "reference"

    @staticmethod
    def _scalar_energy(
        sx: float, sy: float, power: float, px: float, py: float, alpha: float
    ) -> float:
        from ..geometry.point import Point
        from ..model.sinr import received_energy

        return received_energy(Point(sx, sy), power, Point(px, py), alpha)

    def _energy_matrix(
        self, coords: np.ndarray, powers: np.ndarray, points: np.ndarray, alpha: float
    ) -> np.ndarray:
        n, m = len(coords), len(points)
        out = np.empty((n, m), dtype=float)
        for i in range(n):
            for j in range(m):
                out[i, j] = self._scalar_energy(
                    coords[i, 0], coords[i, 1], powers[i],
                    points[j, 0], points[j, 1], alpha,
                )
        return out

    @staticmethod
    def _coincident(coords: np.ndarray, px: float, py: float) -> "list[int]":
        """Indices of stations exactly at ``(px, py)`` (coordinate equality)."""
        return [
            i
            for i in range(len(coords))
            if coords[i, 0] == px and coords[i, 1] == py
        ]

    def sinr_matrix(
        self,
        coords: np.ndarray,
        powers: np.ndarray,
        points: np.ndarray,
        noise: float,
        alpha: float,
    ) -> np.ndarray:
        energies = self._energy_matrix(coords, powers, points, alpha)
        n, m = energies.shape
        out = np.empty((n, m), dtype=float)
        for j in range(m):
            column = energies[:, j]
            coincident = self._coincident(coords, points[j, 0], points[j, 1])
            if coincident:
                out[:, j] = 0.0
                out[coincident[0], j] = math.inf
                continue
            finite_total = sum(e for e in column if not math.isinf(e))
            overflowed = any(math.isinf(e) for e in column)
            for i in range(n):
                if math.isinf(column[i]):
                    out[i, j] = math.inf
                elif overflowed:
                    out[i, j] = 0.0
                else:
                    denominator = finite_total - column[i] + noise
                    if denominator != 0.0:
                        out[i, j] = column[i] / denominator
                    else:
                        out[i, j] = math.inf if column[i] > 0.0 else math.nan
        return out

    def _mask_from_ratio(
        self, ratio: np.ndarray, coords: np.ndarray, points: np.ndarray, beta: float
    ) -> np.ndarray:
        n, m = ratio.shape
        mask = np.zeros((n, m), dtype=bool)
        for j in range(m):
            coincident = self._coincident(coords, points[j, 0], points[j, 1])
            if coincident:
                for i in coincident:
                    mask[i, j] = True
                continue
            for i in range(n):
                mask[i, j] = ratio[i, j] >= beta
        return mask

    def received_mask_at(
        self,
        coords: np.ndarray,
        powers: np.ndarray,
        points: np.ndarray,
        indices: np.ndarray,
        noise: float,
        beta: float,
        alpha: float,
    ) -> np.ndarray:
        ratio = self.sinr_matrix(coords, powers, points, noise, alpha)
        mask = self._mask_from_ratio(ratio, coords, points, beta)
        return mask[indices, np.arange(len(points))]

    def nearest_received(
        self,
        coords: np.ndarray,
        powers: np.ndarray,
        points: np.ndarray,
        noise: float,
        beta: float,
        alpha: float,
        no_reception: int,
    ) -> np.ndarray:
        from ..geometry.point import Point

        nearest = np.empty(len(points), dtype=np.intp)
        for j in range(len(points)):
            point = Point(float(points[j, 0]), float(points[j, 1]))
            # First strict improvement wins: the lowest index on exact ties.
            best, best_squared = 0, math.inf
            for i in range(len(coords)):
                station = Point(float(coords[i, 0]), float(coords[i, 1]))
                squared = station.squared_distance_to(point)
                if squared < best_squared:
                    best, best_squared = i, squared
            nearest[j] = best
        heard = self.received_mask_at(
            coords, powers, points, nearest, noise, beta, alpha
        )
        return np.where(heard, nearest, no_reception)

    def heard_station(
        self,
        coords: np.ndarray,
        powers: np.ndarray,
        points: np.ndarray,
        noise: float,
        beta: float,
        alpha: float,
        no_reception: int,
    ) -> np.ndarray:
        ratio = self.sinr_matrix(coords, powers, points, noise, alpha)
        mask = self._mask_from_ratio(ratio, coords, points, beta)
        m = ratio.shape[1]
        out = np.full(m, no_reception, dtype=np.intp)
        for j in range(m):
            candidates = [i for i in range(ratio.shape[0]) if mask[i, j]]
            if candidates:
                out[j] = max(candidates, key=lambda i: (ratio[i, j], -i))
        return out


#: The engine backend registry — a :class:`repro.runtime.Registry`
#: instantiation.  Name-based selections are re-resolved on every query
#: (re-registration under an active name takes effect immediately), and
#: the ContextVar isolates selections per thread / async task with
#: ``"numpy"`` as the default.
BACKENDS: Registry[QueryBackend] = Registry(
    "backend",
    label="engine backend",
    default="numpy",
    error=ReproError,
)


def register_backend(name: str, backend: QueryBackend) -> None:
    """Register ``backend`` under ``name`` (overwriting any previous one).

    Safe to call from any thread.  Because active selections made by name are
    re-resolved on use, overwriting a name that is currently active takes
    effect immediately — :func:`active_backend` never returns the stale
    previously-registered object.
    """
    BACKENDS.register(name, backend)


def available_backends() -> Dict[str, QueryBackend]:
    """Name -> backend mapping of everything registered (a snapshot copy).

    Sorted by name, so iteration order is deterministic across runs and
    interpreters regardless of registration order.
    """
    return BACKENDS.snapshot()


#: The :class:`QueryBackend` methods an explicitly passed backend must have.
_METHODS = tuple(
    name for name, value in vars(QueryBackend).items()
    if callable(value) and not name.startswith("_")
)


def _checked(backend: QueryBackend) -> QueryBackend:
    """``backend`` itself, once it is seen to have every protocol method.

    Four attribute reads: raster tiles pass their pinned backend object on
    every compute, so the check stays constant-time.
    """
    missing = [
        method for method in _METHODS
        if not callable(getattr(backend, method, None))
    ]
    if missing:
        raise ReproError(
            f"an engine backend is a registered name or an object with the "
            f"QueryBackend methods; {backend!r} lacks {missing}"
        )
    return backend


def get_backend(name: "str | QueryBackend | None" = None) -> QueryBackend:
    """Resolve a backend: None -> the active one, a str -> by name, else a
    backend object (checked, returned as-is)."""
    if name is None or isinstance(name, str):
        return BACKENDS.get(name)
    return _checked(name)


def active_backend() -> QueryBackend:
    """The backend batch queries use when none is passed explicitly.

    Resolved from the current context's selection, so each thread and async
    task sees its own :func:`use_backend` choices (falling back to
    ``"numpy"`` where none was made).
    """
    return BACKENDS.active()


def use_backend(name: "str | QueryBackend") -> Selection[QueryBackend]:
    """Make ``name`` the active backend in the current context.

    The switch takes effect immediately and persists for the current thread /
    async task; when the return value is used as a context manager, the
    previous selection is restored on exit (also when an exception escapes
    the block), and nested selections unwind in order.
    """
    return BACKENDS.use(name if isinstance(name, str) else _checked(name))


register_backend("numpy", NumpyBackend())
register_backend("reference", ReferenceBackend())
