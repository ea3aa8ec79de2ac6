"""repro.engine — the batched query engine.

Scalar queries (:meth:`WirelessNetwork.sinr`, ``locator.locate``) cost a
Python function call per station per point; at production scale ("which
access point do these 10^6 handset positions hear?") that is the whole
budget.  This package is the bulk substrate the rest of the library routes
through:

Architecture
============

``kernels.py``
    Fully vectorised NumPy SINR kernels over raw coordinate arrays — the
    pairwise energy matrix, the SINR matrix, strongest-station argmax and
    reception masks, each from one distance, coincidence and energy pass.
    Everything here is array-in / array-out and has no knowledge of the
    model layer's classes.

``backend.py``
    The pluggable backend protocol (:class:`QueryBackend`) and the
    concurrency-safe registry/selection machinery.  A backend is any object
    implementing the protocol's six methods, all required.  The backend
    matrix:

    ================  ==========================================================
    ``numpy``         Vectorised kernels of ``kernels.py``; the default.  Best
                      for everyday batches (it pays no compile cost).
    ``reference``     Pure-Python loops over the scalar model functions; ~100x
                      slower, ground truth for the equivalence property tests.
    ``numba``         JIT-compiled fused loops (``numba_backend.py``).  Only
                      registered when the optional ``numba`` dependency is
                      installed (``pip install repro-sinr-diagrams[numba]``);
                      fastest steady-state single-core option once compiled.
    ``float32-screen``  The precision tier (``mixed_precision.py``): decision
                      queries run a float32 screen with a certified decision
                      margin, and only margin-close points are re-verified
                      through an exact inner backend (any registered name,
                      default ``numpy``; late-bound per call).  Answers are
                      bit-identical to ``reference`` by construction — the
                      screen keeps only decisions it can certify — at roughly
                      half the memory traffic of the float64 kernels.  Value
                      queries (``sinr_batch`` / ``energy_batch``) delegate to
                      the inner backend unscreened.
    ================  ==========================================================

    Switch with::

        from repro.engine import use_backend
        use_backend("reference")            # current thread/task, persistent
        with use_backend("numpy"): ...      # scoped, restored on exit

    or pass ``backend="numba"`` per call to any ``batch.py`` function.  The
    selection lives in a :class:`contextvars.ContextVar`, so threads and
    asyncio tasks are isolated from each other and nested ``with`` blocks
    unwind correctly even on exceptions.  New backends register via
    :func:`register_backend` and become selectable everywhere at once.

``batch.py``
    The uniform batch query API consumed by the model, point-location,
    analysis and workload layers: :func:`sinr_batch`,
    :func:`heard_station_batch`, :func:`received_at` (the one reception
    path) and :func:`received_mask`, :func:`strongest_station_batch`,
    :func:`nearest_station_batch`, :func:`first_received_batch` and
    :func:`locate_batch` (which dispatches to a locator's native
    ``locate_batch`` fast path when present).  Query points may be an
    ``(m, 2)`` array, a sequence of :class:`Point` or ``(x, y)`` tuples; a
    non-finite point hears no station (:func:`as_points_array`).

    Every batch function tiles the point axis so the ``(n, m)``
    intermediates of one engine call fit a byte budget
    (``REPRO_ENGINE_CHUNK_BYTES``, default 64 MiB): peak memory stays
    bounded however large the batch, and results are bit-identical for
    every chunk size because each point's answer is independent.

Semantics
=========

Batch answers agree *pointwise* with the scalar code paths, including the
edge cases: energies are ``+inf`` at (or overflow-close to) a station
location, a point occupied by stations is received exactly by the co-located
stations (and *heard* by the first of them), and no NaN ever leaks out of
the SINR matrix at coincident points.  The property tests in ``tests/test_engine.py`` enforce
scalar/batch and numpy/reference agreement on randomized networks.
"""

from .backend import (
    NumpyBackend,
    QueryBackend,
    ReferenceBackend,
    active_backend,
    available_backends,
    get_backend,
    register_backend,
    use_backend,
)
from .batch import (
    DEFAULT_CHUNK_BYTES,
    NO_RECEPTION,
    as_points_array,
    chunk_byte_budget,
    energy_batch,
    first_received_batch,
    heard_station_batch,
    locate_batch,
    nearest_station_batch,
    points_per_chunk,
    received_at,
    received_mask,
    sinr_batch,
    strongest_station_batch,
)
from . import kernels

# Importing these modules registers the production backends:
# "float32-screen" always, "numba" only when its optional dependency is
# installed.
from .numba_backend import NUMBA_AVAILABLE, NumbaBackend
from .mixed_precision import Float32ScreenBackend, ScreenStats

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "NO_RECEPTION",
    "NUMBA_AVAILABLE",
    "Float32ScreenBackend",
    "NumbaBackend",
    "NumpyBackend",
    "QueryBackend",
    "ReferenceBackend",
    "ScreenStats",
    "active_backend",
    "as_points_array",
    "available_backends",
    "chunk_byte_budget",
    "energy_batch",
    "first_received_batch",
    "get_backend",
    "heard_station_batch",
    "kernels",
    "locate_batch",
    "nearest_station_batch",
    "points_per_chunk",
    "received_at",
    "received_mask",
    "register_backend",
    "sinr_batch",
    "strongest_station_batch",
    "use_backend",
]
