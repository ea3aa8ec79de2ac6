"""Vectorised NumPy SINR kernels over coordinate arrays.

Every kernel operates on raw arrays — station coordinates of shape
``(n_stations, 2)``, powers of shape ``(n_stations,)`` and query points of
shape ``(n_points, 2)`` — and returns arrays, never scalars or
:class:`~repro.geometry.point.Point` objects.  The kernels are the single
source of truth for bulk SINR arithmetic, reached through the chunked
batch query API of :mod:`repro.engine.batch` (project invariant RL005 in
``tests/invariants.py`` keeps every other layer out).

Each kernel call makes one in-place energy pass: squared distances are
computed in one ``(n, m)`` buffer and overwritten with the energies they
give, and each point's interference total is added row by row
(:func:`_column_totals`), so a point's answer does not depend on how many
points share the call.  The SINR matrix is the only second ``(n, m)``
buffer; ``received_mask_at`` and ``nearest_received`` form just the
candidate's row.  This pass is the engine's one energy computation: the
float32 screen of :mod:`repro.engine.mixed_precision` runs it on float32
arrays.

``heard_station`` first offers a call's points to a silence certificate:
the energies of the few stations nearest the call's bounding box, summed
in the same order, bound every point's largest SINR from above with no
rounding margin, and the dense pass runs only on the points whose bound
reaches ``beta`` (see :func:`heard_station`).  On a 64 px raster tile of
50 stations most pixels hear no station, and the certificate decides
about 87% of them.  :func:`nearest_or_silent` makes the same argument per
point, from a block of stations around each point that the caller
supplies (the sharded locator's grid).

The rare-column rule: a column whose energy total is not finite — a point
on or overflow-close to a station (co-located stations included), a NaN
coordinate, or a sum that overflows — keeps the pass's answer except where
one of two overrides applies, written over the pass's own output in
place.  A column holding an infinite energy answers SINR ``+inf`` for each
station of infinite energy and ``0.0`` for every other station, whatever
its total; last, a point exactly on stations answers ``+inf`` for the
first co-located station and ``0.0`` for the rest (its reception mask
says whether the candidate sits on the point).  With a positive path-loss
exponent a zero squared distance gives an infinite (or NaN) energy, so
such a column is always rare; with ``alpha <= 0`` (which no network
allows) every column is.  Every other column has no coincident station
and no infinite energy, where the overrides change nothing.

Edge-case semantics (matching the scalar model layer exactly):

* the energy of a station at its own location is ``+inf``; distances small
  enough for the power law to overflow a float saturate to ``+inf`` as well,
  mirroring the ``OverflowError`` handling of
  :func:`repro.model.sinr.received_energy`;
* at a point *exactly* occupied by a station (coordinate equality, the same
  test the scalar reception predicate uses) the SINR column holds ``+inf``
  for the first co-located station and ``0.0`` for every other station;
* at a point merely overflow-close to stations, stations with infinite
  energy get SINR ``+inf`` and the rest ``0.0`` — no NaN ever leaks out of
  the ``inf - inf`` interference arithmetic;
* the reception mask follows
  :meth:`repro.model.network.WirelessNetwork.is_received`: a point occupied
  by stations is received exactly by the co-located stations (each hears its
  own location by definition) and by nobody else;
* the heard station follows
  :meth:`repro.model.network.WirelessNetwork.heard_station`: the highest
  SINR where it reaches ``beta``, lowest index on ties, and the first
  co-located station at a point occupied by stations;
* a zero denominator gives SINR ``+inf`` only under a positive signal:
  without noise, a point whose every energy is ``0`` — infinitely far, or
  so far that its squared distances overflow — has SINR ``0/0 = NaN``, and
  a NaN coordinate keeps every energy and SINR NaN, so no station is
  received at such a point.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "pairwise_squared_distances",
    "coincidence_matrix",
    "sinr_matrix",
    "received_mask_at",
    "nearest_received",
    "heard_station",
    "nearest_or_silent",
]

#: How many stations, those nearest a call's bounding box, the silence
#: certificate of :func:`heard_station` sums exactly.
_CERTIFIED_STATIONS = 12

#: Calls of fewer than ``min(_CERTIFY_MIN_POINTS, _CERTIFY_MIN_PAIRS // n)``
#: points skip the silence certificate.  Deciding whether it applies costs
#: 10-25 us at 50 to 200 stations on a 2-vCPU VM, which a batch spread over
#: the whole deployment pays for nothing; under 1,024 points of 50 stations
#: (51,200 station-point pairs) that exceeds the timing noise of the dense
#: pass it precedes.  The floor falls as the network grows, so a 4,096-point
#: tile that :mod:`repro.engine.batch` splits into chunks on a large network
#: is certified chunk by chunk.
_CERTIFY_MIN_POINTS = 1024
_CERTIFY_MIN_PAIRS = 51_200


def pairwise_squared_distances(
    station_coordinates: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Squared distances of shape ``(n_stations, n_points)``.

    ``dx * dx + dy * dy``, squared and summed in place in the ``dx``
    buffer.  A distance too large to square is ``+inf``, the intended
    value: such a point is infinitely far for every energy and
    nearest-station test.

    Args:
        station_coordinates: array of shape ``(n_stations, 2)``.
        points: array of shape ``(n_points, 2)``.
    """
    return _squared_distances(
        station_coordinates[:, 0:1], station_coordinates[:, 1:2], points
    )


def _squared_distances(
    xs: np.ndarray, ys: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """``dx * dx + dy * dy`` with ``dx = xs - px``, broadcast over columns.

    ``xs`` and ``ys`` are ``(n, 1)`` station coordinates, or ``(k, m)``
    coordinates of per-point station blocks.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        squared = xs - points[:, 0][None, :]
        np.multiply(squared, squared, out=squared)
        dy = ys - points[:, 1][None, :]
        np.multiply(dy, dy, out=dy)
        squared += dy
    return squared


def coincidence_matrix(
    station_coordinates: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Boolean ``(n_stations, n_points)``: does point ``j`` sit on station ``i``?

    Uses exact coordinate equality — the same test the scalar
    ``point == station.location`` comparison performs — not a squared
    distance, which can underflow to zero for points that are merely
    astronomically close.
    """
    same_x = station_coordinates[:, 0:1] == points[:, 0][None, :]
    same_y = station_coordinates[:, 1:2] == points[:, 1][None, :]
    return same_x & same_y


def _energies_in_place(
    squared: np.ndarray, powers: np.ndarray, alpha: float
) -> np.ndarray:
    """Overwrite squared distances with the energies they give.

    Callers silence numpy's divide, overflow and invalid warnings around
    it: a zero distance divides by zero on purpose.
    """
    if alpha == 2.0:
        # The paper's default exponent: a plain reciprocal is several
        # times faster than np.power on large matrices and this is the
        # innermost loop of every batch query.
        np.divide(powers[:, None], squared, out=squared)
    else:
        np.power(squared, -alpha / 2.0, out=squared)
        np.multiply(powers[:, None], squared, out=squared)
    return squared


def _column_totals(finite: np.ndarray) -> np.ndarray:
    """Column sums ``(m,)`` of an ``(n, m)`` block, added row by row.

    numpy adds a block of two or more columns row by row, but sums a lone
    contiguous column pairwise once it has eight or more entries, which
    can round differently.  The cumulative sum keeps a one-point call in
    the row-by-row order, so a point's SINR does not depend on how many
    points share its kernel call.
    """
    if finite.shape[1] == 1:
        return np.cumsum(finite[:, 0])[-1:]
    return finite.sum(axis=0)


def _energy_totals(
    squared: np.ndarray, powers: np.ndarray, alpha: float
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The in-place energy pass: ``(energies, totals, rare)``.

    ``energies`` overwrites ``squared``; ``rare`` holds the indices of the
    columns whose total is not finite, whose answers the callers override
    (see the module docstring).  With ``alpha <= 0`` a zero distance need
    not give an infinite energy, so every column is rare.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        energies = _energies_in_place(squared, powers, alpha)
        total = _column_totals(energies)
    if not alpha > 0.0:
        return energies, total, np.arange(len(total))
    return energies, total, np.flatnonzero(~np.isfinite(total))


def sinr_matrix(
    station_coordinates: np.ndarray,
    powers: np.ndarray,
    points: np.ndarray,
    noise: float,
    alpha: float = 2.0,
) -> np.ndarray:
    """The full SINR matrix, shape ``(n_stations, n_points)``.

    Entry ``(i, j)`` is ``SINR(s_i, p_j)``.  At a point exactly occupied by a
    station the column is ``+inf`` for the first co-located station and
    ``0.0`` elsewhere (see the module docstring); everywhere else the values
    agree with the scalar :func:`repro.model.sinr.sinr_ratio`.
    """
    energies, total, rare = _energy_totals(
        pairwise_squared_distances(station_coordinates, points), powers, alpha
    )
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.subtract(total[None, :], energies)
        ratio += noise
        np.divide(energies, ratio, out=ratio)
    if rare.size:
        # An infinite energy drowns every finite one in its column.
        infinite = np.isinf(energies[:, rare])
        drowned = infinite.any(axis=0)
        ratio[:, rare[drowned]] = np.where(infinite[:, drowned], np.inf, 0.0)
        # The first station exactly on the point owns it.
        at_station = coincidence_matrix(station_coordinates, points[rare])
        occupied = at_station.any(axis=0)
        if occupied.any():
            owned = rare[occupied]
            ratio[:, owned] = 0.0
            ratio[np.argmax(at_station[:, occupied], axis=0), owned] = np.inf
    return ratio


def _received_rows(
    squared: np.ndarray,
    station_coordinates: np.ndarray,
    powers: np.ndarray,
    points: np.ndarray,
    indices: np.ndarray,
    noise: float,
    beta: float,
    alpha: float,
) -> np.ndarray:
    """:func:`received_mask_at` from the call's squared distances."""
    energies, total, rare = _energy_totals(squared, powers, alpha)
    row = energies[indices, np.arange(len(points))]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = row / (total - row + noise)
    if not rare.size:
        return ratio >= beta
    # An infinite energy drowns every finite one in its column.
    drowned = rare[np.isinf(energies[:, rare]).any(axis=0)]
    ratio[drowned] = np.where(np.isinf(row[drowned]), np.inf, 0.0)
    mask = ratio >= beta
    # A point occupied by stations is received exactly by the co-located
    # stations (the scalar is_received rule), co-located or not this one.
    at_station = coincidence_matrix(station_coordinates, points[rare])
    occupied = at_station.any(axis=0)
    candidate = at_station[indices[rare], np.arange(len(rare))]
    mask[rare[occupied]] = candidate[occupied]
    return mask


def received_mask_at(
    station_coordinates: np.ndarray,
    powers: np.ndarray,
    points: np.ndarray,
    indices: np.ndarray,
    noise: float,
    beta: float,
    alpha: float = 2.0,
) -> np.ndarray:
    """Reception indicator of a *per-point* station, shape ``(m,)``.

    Entry ``j`` says whether station ``indices[j]`` is received at
    ``points[j]``: its row of :func:`sinr_matrix` against ``beta``, computed
    without materialising the other ``n - 1`` SINR rows (the energy matrix,
    needed for the interference total, is the only ``(n, m)`` pass), except
    that a point occupied by stations is received exactly by the co-located
    ones.
    This is the verification kernel of every locator, where each point has
    exactly one candidate station to check; a constant ``indices`` array
    asks about one station everywhere.
    """
    return _received_rows(
        pairwise_squared_distances(station_coordinates, points),
        station_coordinates, powers, points, np.asarray(indices),
        noise, beta, alpha,
    )


def nearest_received(
    station_coordinates: np.ndarray,
    powers: np.ndarray,
    points: np.ndarray,
    noise: float,
    beta: float,
    alpha: float = 2.0,
    no_reception: int = -1,
) -> np.ndarray:
    """The nearest station where it is received, else ``no_reception``.

    The Voronoi candidate of Observation 2.2 and its reception check: a
    squared-distance argmin (lowest index on exact ties) followed by
    :func:`received_mask_at` on that station, shape ``(m,)``.  One pass:
    the squared distances that pick the candidate become its energies.
    """
    squared = pairwise_squared_distances(station_coordinates, points)
    nearest = np.argmin(squared, axis=0)
    heard = _received_rows(
        squared, station_coordinates, powers, points, nearest,
        noise, beta, alpha,
    )
    return np.where(heard, nearest, no_reception)


def _certified_silent(
    station_coordinates: np.ndarray,
    powers: np.ndarray,
    points: np.ndarray,
    noise: float,
    beta: float,
    alpha: float,
) -> "np.ndarray | None":
    """The silence certificate of :func:`heard_station`: a boolean ``(m,)``
    mask of the points that provably hear no station, or ``None`` where the
    certificate is skipped (see :func:`heard_station`)."""
    count, n = _CERTIFIED_STATIONS, len(station_coordinates)
    if (
        alpha != 2.0
        or n <= count
        or len(points) < min(_CERTIFY_MIN_POINTS, _CERTIFY_MIN_PAIRS // n)
    ):
        return None
    # Reduced over contiguous rows: reducing the (m, 2) array over axis 0
    # takes about ten times as long.
    axes = points.T.copy()
    low, high = axes.min(axis=1), axes.max(axis=1)
    if not all(map(math.isfinite, low.tolist() + high.tolist())):
        return None
    inside = (low <= station_coordinates) & (station_coordinates <= high)
    if np.count_nonzero(inside.all(axis=1)) > count:
        return None  # more stations in the box than the certificate sums
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # Per axis max(x0 - sx, sx - x1, 0), squared and summed as the
        # kernel's dx * dx + dy * dy.
        gaps = np.subtract(low, station_coordinates)
        np.maximum(gaps, np.subtract(station_coordinates, high), out=gaps)
        np.maximum(gaps, 0.0, out=gaps)
        np.multiply(gaps, gaps, out=gaps)
        gap = gaps[:, 0] + gaps[:, 1]
        order = np.argpartition(gap, count)
        far = order[count:]
        bound = (powers[far] / gap[far]).max()
        near = np.sort(order[:count])
        energies = _energies_in_place(
            pairwise_squared_distances(station_coordinates[near], points),
            powers[near],
            alpha,
        )
        partial = _column_totals(energies)
        largest = energies.max(axis=0)
        ratio = np.subtract(partial, largest)
        ratio += noise
        np.divide(largest, ratio, out=ratio)
        return (largest >= bound) & (ratio < beta)


def nearest_or_silent(
    station_coordinates: np.ndarray,
    power: float,
    points: np.ndarray,
    blocks: np.ndarray,
    boxes: np.ndarray,
    noise: float,
    beta: float,
    no_reception: int = -1,
    undecided: int = -2,
) -> np.ndarray:
    """Each point's nearest station, or its silence, proved from a block.

    The silence certificate of :func:`heard_station`, per point, for a
    uniform power network with ``alpha = 2``.  Column ``j`` of ``blocks``
    (``(k, m)`` integers) lists a block of stations for ``points[j]`` in
    ascending index, padded with ``n = len(station_coordinates)``; column
    ``j`` of ``boxes`` (``(4, m)``) is a box ``x0, y0, x1, y1`` such that
    every station outside the block has ``x <= x0``, ``x >= x1``,
    ``y <= y0`` or ``y >= y1``.  Returns ``int64`` labels:

    * ``undecided`` where nothing is proved;
    * ``no_reception`` where the point provably hears no station;
    * else the point's nearest station (lowest index on exact ties),
      Observation 2.2's only candidate, which the caller verifies.

    ``D`` is the smallest squared distance over the block, from the dense
    pass's own expression, and ``G`` is the squared float gap from the
    point to its box, ``g * g`` with ``g = max(0, min(px - x0, x1 - px,
    py - y0, y1 - py))``.  The nearest station is proved when ``D < G``:
    the dense pass's ``dx`` of a station with ``x >= x1`` is
    ``fl(x - px) >= fl(x1 - px) >= g`` (rounding is monotone, and
    ``fl(px - x0) = -fl(x0 - px)``), and adding ``dy * dy`` never lowers
    it, so every station outside the block has a squared distance of at
    least ``G``.  Under uniform power the nearest station then also has
    the largest energy ``E`` at the point.  The block's energies, summed
    row by row in ascending index (:func:`_column_totals`), give a
    partial total ``P`` that is at most the dense pass's total, so
    ``E / ((P - E) + noise) < beta`` proves silence exactly as in
    :func:`heard_station`, with no rounding margin.  A NaN or infinity
    fails a comparison and leaves its point undecided or unsilenced.
    """
    # The padding index n names a station at infinity: its energy is 0.
    xs = np.append(station_coordinates[:, 0], np.inf)
    ys = np.append(station_coordinates[:, 1], np.inf)
    # Row-by-row sums need C order; an F-ordered block is summed pairwise.
    blocks = np.ascontiguousarray(blocks)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        squared = _squared_distances(xs[blocks], ys[blocks], points)
        closest = squared.min(axis=0)
        axes = points.T
        gaps = np.subtract(boxes[:2], axes)
        np.negative(gaps, out=gaps)
        np.minimum(gaps, np.subtract(boxes[2:], axes), out=gaps)
        gap = gaps.min(axis=0)
        np.maximum(gap, 0.0, out=gap)
        np.multiply(gap, gap, out=gap)
        proved = closest < gap
        energies = _energies_in_place(
            squared.copy(), np.full(len(squared), power), 2.0
        )
        largest = energies.max(axis=0)
        ratio = np.subtract(_column_totals(energies), largest)
        ratio += noise
        np.divide(largest, ratio, out=ratio)
    labels = np.where(proved, no_reception, undecided).astype(np.int64)
    candidates = np.flatnonzero(proved & ~(ratio < beta))
    labels[candidates] = blocks[
        np.argmin(squared[:, candidates], axis=0), candidates
    ]
    return labels


def _dense_heard(
    station_coordinates: np.ndarray,
    powers: np.ndarray,
    points: np.ndarray,
    noise: float,
    beta: float,
    alpha: float,
    no_reception: int,
) -> np.ndarray:
    """The heard-station rule over every station: SINR argmax, then ``beta``."""
    ratio = sinr_matrix(station_coordinates, powers, points, noise, alpha)
    best = np.argmax(ratio, axis=0)
    heard = ratio[best, np.arange(len(points))] >= beta
    return np.where(heard, best, no_reception)


def heard_station(
    station_coordinates: np.ndarray,
    powers: np.ndarray,
    points: np.ndarray,
    noise: float,
    beta: float,
    alpha: float = 2.0,
    no_reception: int = -1,
) -> np.ndarray:
    """Index of the station heard at each point, or ``no_reception``.

    The station with the highest SINR, where that SINR reaches ``beta``
    (lowest index on ties): for ``beta >= 1`` at most one station
    qualifies, for ``beta < 1`` several may.  At a point occupied by
    stations the first co-located one holds the column's only ``+inf``,
    so it is heard; a NaN SINR (``0/0``, a NaN coordinate) fills its whole
    column, whose argmax is then never received.  The same rule as
    :meth:`repro.model.network.WirelessNetwork.heard_station`.

    Most of a diagram hears no station, so points are first offered to a
    silence certificate that sums only a few stations; the dense pass
    (:func:`sinr_matrix`, argmax, ``beta``) runs on the points it cannot
    decide.  Per call:

    * the call's points span a bounding box; each station's squared gap
      to it is ``gx * gx + gy * gy``, with ``gx = max(x0 - sx, sx - x1,
      0)`` and ``gy`` alike;
    * ``S`` holds the :data:`_CERTIFIED_STATIONS` stations of smallest gap,
      in ascending index, and ``B`` is the largest ``power / gap`` over the
      other stations;
    * ``S``'s energies come from the dense pass's own expressions;
      ``P`` is their total added row by row (:func:`_column_totals`) and
      ``E`` their largest;
    * a point is certified silent when ``E >= B`` and
      ``E / ((P - E) + noise) < beta``, evaluated in that order.

    The certificate needs no rounding margin, because every float
    operation is monotone and every energy is non-negative.  Adding an
    energy never lowers a float sum, so ``P`` is at most the dense pass's
    total ``T``.  The gaps keep the kernel's operand order, so each
    rounded coordinate difference is at least the rounded gap, and every
    station outside ``S`` has an energy of at most ``B``; ``E`` is then
    the largest energy at the point.  ``fl(e / fl(fl(T - e) + noise))``
    does not decrease as ``e`` grows or ``T`` falls, so the dense pass's
    largest SINR is at most the certified value, which is below
    ``beta``: the dense pass answers ``no_reception`` too.  A NaN or an
    infinity anywhere fails a comparison, so such a point (on a station,
    say) goes to the dense pass.  The dense pass decides each point on
    its own, so the answers are the dense pass's bits for every point.

    The certificate is skipped, and every point runs the dense pass,
    when ``alpha != 2`` (``np.power`` is not guaranteed monotone), when
    the network has at most :data:`_CERTIFIED_STATIONS` stations, when
    the box holds more stations than that (some station outside ``S``
    would have a zero gap, so nothing could be certified), when the box
    is not finite, and for calls of fewer than ``min(1024, 51_200 // n)``
    points (:data:`_CERTIFY_MIN_POINTS`, :data:`_CERTIFY_MIN_PAIRS`).
    """
    silent = _certified_silent(
        station_coordinates, powers, points, noise, beta, alpha
    )
    if silent is None:
        return _dense_heard(
            station_coordinates, powers, points, noise, beta, alpha, no_reception
        )
    heard = np.full(len(points), no_reception, dtype=np.intp)
    rest = np.flatnonzero(~silent)
    if rest.size:
        heard[rest] = _dense_heard(
            station_coordinates, powers, points[rest], noise, beta, alpha,
            no_reception,
        )
    return heard
