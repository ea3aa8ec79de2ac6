"""The ``"numba"`` engine backend: JIT-compiled SINR kernels.

The numpy kernels of :mod:`repro.engine.kernels` materialise several
intermediate ``(n, m)`` arrays per query (energies, coincidence masks,
interference totals).  The numba backend fuses the whole computation into
single compiled loops: one pass over the ``(n_stations, n_points)`` grid per
query family, no temporaries, released GIL-level performance once compiled.

``numba`` is an *optional* dependency (``pip install
repro-sinr-diagrams[numba]``).  When it is not installed this module still
imports cleanly and simply does not register the backend —
:data:`NUMBA_AVAILABLE` is False, ``available_backends()`` omits ``"numba"``
and instantiating :class:`NumbaBackend` raises a descriptive
:class:`~repro.exceptions.ReproError`.

The compiled kernels replicate the scalar model's edge-case contract exactly
(see :mod:`repro.engine.kernels`): exact coordinate equality decides
coincidence, overflowed power-law energies saturate to ``+inf`` (C ``pow``
semantics, no exception), the first co-located station owns its point, and
no NaN ever leaks out of the interference arithmetic.  The equivalence
property tests in ``tests/test_engine.py`` pin this backend against the
pure-Python ``"reference"`` backend whenever numba is importable.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ReproError
from .backend import register_backend

__all__ = ["NUMBA_AVAILABLE", "NumbaBackend"]

try:  # pragma: no cover - exercised only when numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the default in minimal installs
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        """Placeholder so the kernel definitions below parse without numba."""

        def decorate(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return decorate


# ----------------------------------------------------------------------
# Compiled kernels.  Plain nested loops: numba turns them into fused
# machine code, and `cache=True` persists the compilation across processes.
# Each replicates the corresponding numpy kernel of `repro.engine.kernels`
# including the coincident-point and overflow conventions.
# ----------------------------------------------------------------------


@njit(cache=True)
def _energy_matrix(coords, powers, points, alpha):
    n = coords.shape[0]
    m = points.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    exponent = -alpha / 2.0
    for i in range(n):
        for j in range(m):
            if coords[i, 0] == points[j, 0] and coords[i, 1] == points[j, 1]:
                out[i, j] = np.inf
            else:
                dx = coords[i, 0] - points[j, 0]
                dy = coords[i, 1] - points[j, 1]
                squared = dx * dx + dy * dy
                if squared == 0.0:
                    # Distinct coordinates whose squared distance underflowed.
                    out[i, j] = np.inf
                else:
                    # C pow semantics on overflow: saturates to +inf,
                    # mirroring the scalar OverflowError handling.
                    out[i, j] = powers[i] * squared ** exponent
    return out


@njit(cache=True)
def _first_coincident(coords, px, py):
    for i in range(coords.shape[0]):
        if coords[i, 0] == px and coords[i, 1] == py:
            return i
    return -1


@njit(cache=True)
def _sinr_matrix(coords, powers, points, noise, alpha):
    energies = _energy_matrix(coords, powers, points, alpha)
    n = coords.shape[0]
    m = points.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    for j in range(m):
        owner = _first_coincident(coords, points[j, 0], points[j, 1])
        if owner >= 0:
            # The first exactly co-located station owns the point; every
            # other station's SINR there is zero by the scalar convention.
            for i in range(n):
                out[i, j] = 0.0
            out[owner, j] = np.inf
            continue
        finite_total = 0.0
        any_inf = False
        for i in range(n):
            energy = energies[i, j]
            if energy == np.inf:
                any_inf = True
            else:
                finite_total += energy
        for i in range(n):
            energy = energies[i, j]
            if energy == np.inf:
                # Overflow-close: infinite signal dominates any interference.
                out[i, j] = np.inf
            elif any_inf:
                # Drowned by an overflow-close competitor.
                out[i, j] = 0.0
            else:
                denominator = finite_total - energy + noise
                if denominator != 0.0:
                    out[i, j] = energy / denominator
                elif np.isfinite(points[j, 0]) and np.isfinite(points[j, 1]):
                    out[i, j] = np.inf
                else:
                    out[i, j] = np.nan
    return out


@njit(cache=True)
def _strongest_station(coords, powers, points, alpha):
    energies = _energy_matrix(coords, powers, points, alpha)
    n = coords.shape[0]
    m = points.shape[0]
    out = np.empty(m, dtype=np.intp)
    for j in range(m):
        best = 0
        best_energy = -np.inf
        for i in range(n):
            if energies[i, j] > best_energy:
                best = i
                best_energy = energies[i, j]
        out[j] = best
    return out


@njit(cache=True)
def _received_mask_matrix(coords, powers, points, noise, beta, alpha):
    ratio = _sinr_matrix(coords, powers, points, noise, alpha)
    n = coords.shape[0]
    m = points.shape[0]
    mask = np.zeros((n, m), dtype=np.bool_)
    for j in range(m):
        if _first_coincident(coords, points[j, 0], points[j, 1]) >= 0:
            # A point occupied by stations is received exactly by the
            # co-located stations (the scalar is_received rule).
            for i in range(n):
                mask[i, j] = (
                    coords[i, 0] == points[j, 0] and coords[i, 1] == points[j, 1]
                )
        else:
            for i in range(n):
                mask[i, j] = ratio[i, j] >= beta
    return mask


@njit(cache=True)
def _heard_station(coords, powers, points, noise, beta, alpha, no_reception):
    ratio = _sinr_matrix(coords, powers, points, noise, alpha)
    m = points.shape[0]
    out = np.empty(m, dtype=np.intp)
    for j in range(m):
        occupied = _first_coincident(coords, points[j, 0], points[j, 1]) >= 0
        best = no_reception
        best_ratio = -np.inf
        for i in range(coords.shape[0]):
            if occupied:
                received = (
                    coords[i, 0] == points[j, 0] and coords[i, 1] == points[j, 1]
                )
            else:
                received = ratio[i, j] >= beta
            # Strict > keeps the first index on ties, like the numpy argmax.
            if received and ratio[i, j] > best_ratio:
                best = i
                best_ratio = ratio[i, j]
        out[j] = best
    return out


def _as_float64(array) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(array, dtype=np.float64))


class NumbaBackend:
    """JIT-compiled :class:`~repro.engine.backend.QueryBackend`.

    Compilation happens lazily on the first call of each query family and is
    cached on disk (``cache=True``), so steady-state calls pay no Python
    per-element overhead at all.  Raises :class:`ReproError` on construction
    when numba is not importable.
    """

    name = "numba"

    def __init__(self):
        if not NUMBA_AVAILABLE:
            raise ReproError(
                "the 'numba' engine backend requires the optional numba "
                "dependency; install it with "
                "`pip install repro-sinr-diagrams[numba]` (or `pip install "
                "numba`) and re-import repro.engine"
            )

    def energy_matrix(self, coords, powers, points, alpha):
        return _energy_matrix(
            _as_float64(coords), _as_float64(powers), _as_float64(points), float(alpha)
        )

    def sinr_matrix(self, coords, powers, points, noise, alpha):
        return _sinr_matrix(
            _as_float64(coords),
            _as_float64(powers),
            _as_float64(points),
            float(noise),
            float(alpha),
        )

    def strongest_station(self, coords, powers, points, alpha):
        return _strongest_station(
            _as_float64(coords), _as_float64(powers), _as_float64(points), float(alpha)
        )

    def received_mask_matrix(self, coords, powers, points, noise, beta, alpha):
        return _received_mask_matrix(
            _as_float64(coords),
            _as_float64(powers),
            _as_float64(points),
            float(noise),
            float(beta),
            float(alpha),
        )

    def received_mask_at(self, coords, powers, points, indices, noise, beta, alpha):
        mask = self.received_mask_matrix(coords, powers, points, noise, beta, alpha)
        return mask[indices, np.arange(len(points))]

    def heard_station(self, coords, powers, points, noise, beta, alpha, no_reception):
        return _heard_station(
            _as_float64(coords),
            _as_float64(powers),
            _as_float64(points),
            float(noise),
            float(beta),
            float(alpha),
            int(no_reception),
        )


if NUMBA_AVAILABLE:  # pragma: no cover - covered by the [numba] CI leg
    register_backend("numba", NumbaBackend())
