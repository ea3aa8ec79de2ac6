"""The uniform batch query API of the engine.

These functions are the one entry point every layer uses for bulk queries.
They accept a :class:`~repro.model.network.WirelessNetwork` plus query points
in any reasonable form — a ``(m, 2)`` numpy array, a sequence of
:class:`~repro.geometry.point.Point`, or a sequence of ``(x, y)`` tuples —
and return numpy arrays.  Computation is delegated to the active
:mod:`backend <repro.engine.backend>` (or an explicitly passed one).

Memory-bounded chunking
-----------------------

Every kernel materialises ``(n_stations, m)`` intermediates: one in-place
energy pass holds two ``(n, m)`` float64 buffers at its peak (squared
distances turned energies, plus the SINR matrix where one is formed), and
overriding its rare columns in place (points on or overflow-close to a
station, non-finite points, overflowing sums; see
:mod:`repro.engine.kernels`) adds a copy of those columns' energies and a
few boolean masks.  An unchunked 200-station × 1M-point batch would still
peak in the gigabytes, so all batch functions tile the point axis so those
intermediates fit a fixed byte budget (:data:`CHUNK_BYTES`, 32 MiB).
Chunking is exact: every kernel decides each point independently of every
other point and adds each point's interference total row by row, a
one-point chunk included, so results are bit-identical for every chunk
size.  Only the per-call *temporaries* are bounded — outputs whose size is
inherent to the query (the ``(n, m)`` matrix of :func:`sinr_batch`, for
example) still scale with the batch.
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from ..exceptions import EngineError
from . import kernels
from .backend import QueryBackend, get_backend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..geometry.point import Point
    from ..model.network import WirelessNetwork

__all__ = [
    "NO_RECEPTION",
    "CHUNK_BYTES",
    "PointsLike",
    "as_points_array",
    "points_per_chunk",
    "sinr_batch",
    "received_mask",
    "received_at",
    "nearest_station_batch",
    "nearest_received_batch",
    "heard_station_batch",
]

#: Label returned by :func:`heard_station_batch` where no station is heard
#: (matches :data:`repro.model.diagram.NO_RECEPTION`).
NO_RECEPTION = -1

#: Byte budget for one engine call's ``(n_stations, chunk)`` temporaries:
#: :func:`points_per_chunk` sizes chunks so :data:`_TEMPS_PER_CALL` float64
#: blocks fit it, ``2**26 // (96 * n)`` points at n stations.
CHUNK_BYTES = 32 * 1024 * 1024

#: How many float64 ``(n, chunk)`` blocks one kernel call may hold at once.
#: The in-place energy pass holds two; a chunk made wholly of rare columns
#: (points on stations, NaN points) peaks at 3.3 in ``sinr_matrix`` and
#: ``heard_station`` and at 2.2 in ``received_mask_at`` and
#: ``nearest_received``, under tracemalloc.  Chunk sizes are budgeted with
#: room above that worst case, so the budget bounds the call's whole
#: transient footprint, not just one matrix.
_TEMPS_PER_CALL = 6

PointsLike = Union[np.ndarray, Sequence["Point"], Sequence[Sequence[float]]]


def points_per_chunk(n_stations: int) -> int:
    """How many points fit one engine call under :data:`CHUNK_BYTES`.

    Always at least 1: a single point's column must be computable whatever
    the budget, so tiny budgets degrade to point-at-a-time evaluation rather
    than failing.
    """
    per_point = max(1, n_stations) * 8 * _TEMPS_PER_CALL
    return max(1, CHUNK_BYTES // per_point)


def _chunked(
    call: Callable[[np.ndarray, slice], np.ndarray],
    pts: np.ndarray,
    n_stations: int,
    columns: bool,
) -> np.ndarray:
    """Evaluate ``call`` over point chunks and stitch the results.

    ``call(chunk, sl)`` computes the result for ``pts[sl]`` (the slice is
    passed so callers can co-slice per-point side inputs such as candidate
    station indices).  ``columns=True`` stitches ``(n, c)`` chunk results
    along axis 1, ``columns=False`` stitches per-point ``(c,)`` results.
    The output dtype/leading shape comes from the first chunk, so backends
    keep full control of their result types.
    """
    step = points_per_chunk(n_stations)
    m = len(pts)
    if m <= step:
        return call(pts, slice(0, m))
    out = None
    for start in range(0, m, step):
        sl = slice(start, min(start + step, m))
        part = call(pts[sl], sl)
        if out is None:
            shape = part.shape[:-1] + (m,) if columns else (m,)
            out = np.empty(shape, dtype=part.dtype)
        if columns:
            out[..., sl] = part
        else:
            out[sl] = part
    return out


def _over_points(
    network: "WirelessNetwork",
    pts: np.ndarray,
    backend: "str | QueryBackend | None",
    query: str,
    *args: object,
    columns: bool = False,
    per_point: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Chunked ``query(coords, powers, chunk, *args)`` on the backend.

    ``pts`` comes from :func:`as_points_array`; ``per_point``, when given,
    is co-sliced with it and passed right after the chunk (the candidate
    indices of :func:`received_at`).
    """
    method = getattr(get_backend(backend), query)
    coords, powers = network.coords, network.powers_array()

    def call(chunk: np.ndarray, sl: slice) -> np.ndarray:
        head = () if per_point is None else (per_point[sl],)
        return method(coords, powers, chunk, *head, *args)

    return _chunked(call, pts, len(coords), columns)


def as_points_array(points: PointsLike) -> np.ndarray:
    """Coerce query points into a float array of shape ``(m, 2)``.

    Accepts an ``(m, 2)`` array (returned as float, uncopied when possible),
    a single ``Point`` / 2-tuple (promoted to shape ``(1, 2)``), or any
    sequence of points / 2-sequences.  An empty sequence, ``np.array([])``
    (shape ``(0,)``) or an ``(0, 2)`` array yields ``(0, 2)``.

    Non-finite coordinates are accepted, and such a point hears no station:
    every batch entry and locator answers ``NO_RECEPTION`` (-1) for it and
    its reception mask is False.  Its SINR is NaN (a NaN coordinate, or an
    infinitely far point without noise) or ``0``, never ``+inf``: the
    kernels keep ``+inf`` for a zero denominator under a positive signal
    only.  A finite point so far away that every energy is ``0`` behaves
    the same way.
    """
    if isinstance(points, np.ndarray):
        array = np.asarray(points, dtype=float)
        if array.ndim == 1 and array.size == 0:
            # np.array([]) has shape (0,): the empty batch, like the empty
            # list.  Malformed 2-d shapes such as (5, 0) still raise below —
            # they look like queries whose coordinate axis was sliced away.
            return array.reshape(0, 2)
        if array.ndim == 1 and array.shape == (2,):
            return array.reshape(1, 2)
        if array.ndim != 2 or array.shape[1] != 2:
            raise EngineError(
                f"expected points of shape (m, 2), got {array.shape}"
            )
        return array
    seq = list(points)
    if not seq:
        return np.empty((0, 2), dtype=float)
    if isinstance(seq[0], numbers.Real):
        # A bare (x, y) pair, of Python or numpy scalars.
        if len(seq) != 2:
            raise EngineError("a single point must be a pair (x, y)")
        return np.array([seq], dtype=float)
    try:
        return np.array([(x, y) for x, y in seq], dtype=float)
    except (TypeError, ValueError) as error:
        raise EngineError(f"expected a sequence of (x, y) pairs: {error}") from None


def sinr_batch(
    network: "WirelessNetwork",
    points: PointsLike,
    backend: "str | QueryBackend | None" = None,
) -> np.ndarray:
    """SINR values in bulk: the ``(n_stations, m)`` matrix.

    Away from station locations the values agree with the scalar
    :meth:`WirelessNetwork.sinr`; the coincident-point convention is
    documented in :mod:`repro.engine.kernels`.
    """
    return _over_points(
        network, as_points_array(points), backend, "sinr_matrix",
        network.noise, network.alpha, columns=True,
    )


def received_mask(
    network: "WirelessNetwork",
    index: int,
    points: PointsLike,
    backend: "str | QueryBackend | None" = None,
) -> np.ndarray:
    """Boolean array: is station ``index`` received at each point?

    Agrees pointwise with :meth:`WirelessNetwork.is_received`; it is
    :func:`received_at` asking about the same station at every point.
    """
    pts = as_points_array(points)
    indices = np.full(len(pts), index, dtype=np.intp)
    return received_at(network, indices, pts, backend=backend)


def received_at(
    network: "WirelessNetwork",
    station_indices: "np.ndarray | Sequence[int]",
    points: PointsLike,
    backend: "str | QueryBackend | None" = None,
) -> np.ndarray:
    """Per-point reception check of a *per-point* candidate station.

    ``station_indices[j]`` names the station whose reception is tested at
    ``points[j]``; the result is a boolean array with the semantics of
    :meth:`WirelessNetwork.is_received` (coincident-point rules included).
    This is the verification idiom of the locator fast paths that bring
    their own candidates — the Theorem 3 uncertain-band fallback and the
    sharded locator's full-network candidate check — through the backends'
    ``received_mask_at``.
    """
    pts = as_points_array(points)
    indices = np.asarray(station_indices, dtype=np.intp)
    if indices.shape != (len(pts),):
        raise EngineError(
            f"expected one station index per point ({len(pts)}), "
            f"got shape {indices.shape}"
        )
    return _over_points(
        network, pts, backend, "received_mask_at",
        network.noise, network.beta, network.alpha, per_point=indices,
    )


def nearest_station_batch(
    network: "WirelessNetwork", points: PointsLike
) -> np.ndarray:
    """Index of the nearest station per point (lowest index on exact ties).

    The Voronoi candidate of Observation 2.2 that the ``theorem3`` locator
    verifies with :func:`received_at`; a float64 distance argmin on any
    backend.
    """
    coords = network.coords
    return _chunked(
        lambda chunk, sl: np.argmin(
            kernels.pairwise_squared_distances(coords, chunk), axis=0
        ),
        as_points_array(points),
        len(coords),
        columns=False,
    )


def nearest_received_batch(
    network: "WirelessNetwork",
    points: PointsLike,
    backend: "str | QueryBackend | None" = None,
) -> np.ndarray:
    """The nearest station where it is received, ``NO_RECEPTION`` elsewhere.

    Observation 2.2 as one decision query: under uniform power only the
    nearest station (lowest index on exact ties) can be heard, so this is
    the ``voronoi`` locator's answer.  Equal pointwise to
    :func:`nearest_station_batch` followed by :func:`received_at` on every
    backend, for any powers and any ``beta``; the float32 screen decides
    the candidate and its reception in one pass.
    """
    return _over_points(
        network, as_points_array(points), backend, "nearest_received",
        network.noise, network.beta, network.alpha, NO_RECEPTION,
    )


def heard_station_batch(
    network: "WirelessNetwork",
    points: PointsLike,
    backend: "str | QueryBackend | None" = None,
) -> np.ndarray:
    """Index of the station heard at each point, ``NO_RECEPTION`` where none.

    The one bulk heard-station query: the ``brute-force`` locator's answer
    and every raster label.  The station with the highest SINR is heard
    where that SINR reaches ``beta`` (lowest index on ties, which matters
    only for ``beta < 1``), and at a point occupied by stations the first
    co-located one: the rule of the scalar
    :meth:`WirelessNetwork.heard_station`, with which it agrees pointwise.
    """
    return _over_points(
        network, as_points_array(points), backend, "heard_station",
        network.noise, network.beta, network.alpha, NO_RECEPTION,
    )
