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
    SINR matrix, the reception check of a given station, the nearest
    received station and the heard station, each from one in-place
    distance and energy pass whose rare columns (points on stations, NaN
    points, overflowing sums) are overridden in place.  The float32 screen
    runs the same pass on float32 arrays.
    Everything here is array-in / array-out and has no knowledge of the
    model layer's classes.

``backend.py``
    The pluggable backend protocol (:class:`QueryBackend`) and the
    concurrency-safe registry/selection machinery.  A backend is any object
    implementing the protocol's four methods, all required: one value
    query (``sinr_matrix``, behind a raster's SINR values) and three
    decision queries (``received_mask_at``, ``nearest_received``,
    ``heard_station``).  The backend matrix:

    ================  ==========================================================
    ``numpy``         Vectorised kernels of ``kernels.py``; the default.  Best
                      for everyday batches (it pays no compile cost).
    ``reference``     Pure-Python loops over the scalar model functions; ~100x
                      slower, ground truth for the equivalence property tests.
    ``float32-screen``  The precision tier (``mixed_precision.py``):
                      ``received_mask_at`` and ``nearest_received`` run a
                      float32 screen with a certified decision margin, at a
                      tolerance derived from n, beta and alpha, and only
                      margin-close points are re-verified through the
                      registered ``numpy`` backend (resolved by name on every
                      call).  Answers are bit-identical to ``reference`` by
                      construction — the screen keeps only decisions it can
                      certify — at roughly half the memory traffic of the
                      float64 kernels.  ``nearest_received`` screens the
                      nearest station and its reception in one pass.
                      ``heard_station`` and the value query (``sinr_batch``)
                      delegate to ``numpy`` unscreened.
    ================  ==========================================================

    Switch with::

        from repro.engine import use_backend
        use_backend("reference")            # current thread/task, persistent
        with use_backend("numpy"): ...      # scoped, restored on exit

    or pass ``backend="float32-screen"`` per call to any ``batch.py`` function.  The
    selection lives in a :class:`contextvars.ContextVar`, so threads and
    asyncio tasks are isolated from each other and nested ``with`` blocks
    unwind correctly even on exceptions.  New backends register via
    :func:`register_backend` and become selectable everywhere at once.

``batch.py``
    The uniform batch query API consumed by the model, point-location,
    analysis and workload layers: :func:`sinr_batch`,
    :func:`heard_station_batch` (the station heard at each point: the
    ``brute-force`` locator's answer and every raster label),
    :func:`received_at` (the reception check of a given candidate) and
    :func:`received_mask`, :func:`nearest_received_batch` (the ``voronoi``
    locator's one query: the nearest station where it is received) and
    :func:`nearest_station_batch` (``theorem3``'s candidate pass).
    Locators answer batches through their own ``locate_batch``.  Query
    points may be an ``(m, 2)`` array, a sequence of :class:`Point` or
    ``(x, y)`` tuples; a non-finite point hears no station
    (:func:`as_points_array`).

    Every batch function tiles the point axis so the ``(n, m)``
    intermediates of one engine call fit a fixed byte budget
    (:data:`CHUNK_BYTES`, 32 MiB): peak memory stays bounded however large
    the batch, and results are bit-identical for every chunk size because
    each point's answer is independent.

Semantics
=========

Batch answers agree *pointwise* with the scalar code paths, including the
edge cases: energies are ``+inf`` at (or overflow-close to) a station
location, a point occupied by stations is received exactly by the co-located
stations (and *heard* by the first of them), elsewhere the station with the
highest SINR is heard where that SINR reaches ``beta`` (lowest index on
ties), and no NaN ever leaks out of the SINR matrix at coincident points.  The property tests in ``tests/test_engine.py`` enforce
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
    CHUNK_BYTES,
    NO_RECEPTION,
    as_points_array,
    heard_station_batch,
    nearest_received_batch,
    nearest_station_batch,
    points_per_chunk,
    received_at,
    received_mask,
    sinr_batch,
)
from . import kernels

# Importing this module registers the "float32-screen" backend.
from .mixed_precision import Float32ScreenBackend, ScreenStats

__all__ = [
    "CHUNK_BYTES",
    "NO_RECEPTION",
    "Float32ScreenBackend",
    "NumpyBackend",
    "QueryBackend",
    "ReferenceBackend",
    "ScreenStats",
    "active_backend",
    "as_points_array",
    "available_backends",
    "get_backend",
    "heard_station_batch",
    "kernels",
    "nearest_received_batch",
    "nearest_station_batch",
    "points_per_chunk",
    "received_at",
    "received_mask",
    "register_backend",
    "sinr_batch",
    "use_backend",
]
