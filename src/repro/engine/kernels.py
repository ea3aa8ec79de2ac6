"""Vectorised NumPy SINR kernels over coordinate arrays.

Every kernel operates on raw arrays — station coordinates of shape
``(n_stations, 2)``, powers of shape ``(n_stations,)`` and query points of
shape ``(n_points, 2)`` — and returns arrays, never scalars or
:class:`~repro.geometry.point.Point` objects.  The kernels are the single
source of truth for bulk SINR arithmetic, reached through the chunked
batch query API of :mod:`repro.engine.batch` (reprolint RL005 keeps every
other layer out).  Each kernel call makes one distance, coincidence and
energy pass (:func:`_masked_energies`).

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
* a zero denominator gives SINR ``+inf`` only under a positive signal:
  without noise, a point whose every energy is ``0`` — infinitely far, or
  so far that its squared distances overflow — has SINR ``0/0 = NaN``, and
  a NaN coordinate keeps every energy and SINR NaN, so no station is
  received at such a point.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pairwise_squared_distances",
    "coincidence_matrix",
    "energy_matrix",
    "sinr_matrix",
    "strongest_station",
    "received_mask_matrix",
    "received_mask_at",
    "nearest_received",
    "heard_station",
]


def pairwise_squared_distances(
    station_coordinates: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Squared distances of shape ``(n_stations, n_points)``.

    A distance too large to square is ``+inf``, the intended value: such a
    point is infinitely far for every energy and nearest-station test.

    Args:
        station_coordinates: array of shape ``(n_stations, 2)``.
        points: array of shape ``(n_points, 2)``.
    """
    dx = station_coordinates[:, 0:1] - points[:, 0][None, :]
    dy = station_coordinates[:, 1:2] - points[:, 1][None, :]
    with np.errstate(over="ignore"):
        return dx * dx + dy * dy


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


def _masked_energies(
    station_coordinates: np.ndarray,
    powers: np.ndarray,
    points: np.ndarray,
    alpha: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """The energy matrix and the coincidence matrix it used: the one
    distance, coincidence and energy pass of every kernel call."""
    squared = pairwise_squared_distances(station_coordinates, points)
    with np.errstate(divide="ignore", over="ignore"):
        if alpha == 2.0:
            # The paper's default exponent: a plain reciprocal is several
            # times faster than np.power on large matrices and this is the
            # innermost loop of every batch query.
            energies = powers[:, None] / squared
        else:
            energies = powers[:, None] * np.power(squared, -alpha / 2.0)
    # Division / np.power already yield inf at squared == 0, but make the
    # coincident case explicit so nothing can scale or NaN it away.
    at_station = coincidence_matrix(station_coordinates, points)
    return np.where(at_station, np.inf, energies), at_station


def energy_matrix(
    station_coordinates: np.ndarray,
    powers: np.ndarray,
    points: np.ndarray,
    alpha: float = 2.0,
) -> np.ndarray:
    """Received energies ``psi_i * dist(s_i, p_j)^(-alpha)``, shape ``(n, m)``.

    Entries where a point coincides with a station are ``+inf``; distances
    small enough for the power law to overflow saturate to ``+inf`` as well.
    """
    return _masked_energies(station_coordinates, powers, points, alpha)[0]


def _sinr(
    station_coordinates: np.ndarray,
    powers: np.ndarray,
    points: np.ndarray,
    noise: float,
    alpha: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """The SINR matrix together with the coincidence matrix it used."""
    energies, at_station = _masked_energies(
        station_coordinates, powers, points, alpha
    )
    coincident_columns = at_station.any(axis=0)

    inf_energy = np.isinf(energies)
    finite = np.where(inf_energy, 0.0, energies)
    total = finite.sum(axis=0)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = finite / (total - finite + noise)

    # Overflow-close stations: infinite signal dominates any interference.
    ratio = np.where(inf_energy, np.inf, ratio)
    # Finite-energy stations drowned by an overflow-close competitor hear 0.
    other_inf = (inf_energy.sum(axis=0)[None, :] - inf_energy.astype(int)) > 0
    ratio = np.where(other_inf & ~inf_energy, 0.0, ratio)

    if coincident_columns.any():
        # The first exactly co-located station owns the point; every other
        # station's SINR there is zero by the scalar convention.
        owner = np.argmax(at_station, axis=0)
        owner_mask = (
            np.arange(len(station_coordinates))[:, None] == owner[None, :]
        ) & coincident_columns[None, :]
        ratio = np.where(owner_mask, np.inf, ratio)
        ratio = np.where(coincident_columns[None, :] & ~owner_mask, 0.0, ratio)
    return ratio, at_station


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
    return _sinr(station_coordinates, powers, points, noise, alpha)[0]


def strongest_station(
    station_coordinates: np.ndarray,
    powers: np.ndarray,
    points: np.ndarray,
    alpha: float = 2.0,
) -> np.ndarray:
    """Index of the station with the highest energy at each point, shape ``(m,)``.

    Ties resolve to the lowest station index, like the scalar
    :meth:`~repro.model.network.WirelessNetwork.strongest_station` loop.
    """
    energies = energy_matrix(station_coordinates, powers, points, alpha)
    return np.argmax(energies, axis=0)


def received_mask_matrix(
    station_coordinates: np.ndarray,
    powers: np.ndarray,
    points: np.ndarray,
    noise: float,
    beta: float,
    alpha: float = 2.0,
) -> np.ndarray:
    """Reception indicators for every station at every point, shape ``(n, m)``.

    Entry ``(i, j)`` is True iff ``p_j`` lies in the reception zone of
    ``s_i`` under the scalar rule: the station's own location is always
    received, a point occupied by (only) other stations is not, and
    elsewhere ``SINR >= beta`` decides.
    """
    ratio, at_station = _sinr(station_coordinates, powers, points, noise, alpha)
    return _mask_from_ratio(ratio, at_station, beta)


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

    Entry ``j`` equals ``received_mask_matrix(...)[indices[j], j]``, but
    computed without materialising the other ``n - 1`` SINR rows: the energy
    matrix (needed for the interference total) is the only ``(n, m)`` pass.
    This is the verification kernel of every locator, where each point has
    exactly one candidate station to check; a constant ``indices`` array
    asks about one station everywhere.
    """
    energies, at_station = _masked_energies(
        station_coordinates, powers, points, alpha
    )
    columns = np.arange(len(points))

    inf_energy = np.isinf(energies)
    finite = np.where(inf_energy, 0.0, energies)
    total = finite.sum(axis=0)
    row_finite = finite[indices, columns]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = row_finite / (total - row_finite + noise)
    row_inf = inf_energy[indices, columns]
    ratio = np.where(row_inf, np.inf, ratio)
    other_inf = (inf_energy.sum(axis=0) - row_inf.astype(int)) > 0
    ratio = np.where(other_inf & ~row_inf, 0.0, ratio)

    mask = ratio >= beta
    # A point occupied by stations is received exactly by the co-located
    # stations (the scalar is_received rule), co-located or not this one.
    return np.where(at_station.any(axis=0), at_station[indices, columns], mask)


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
    :func:`received_mask_at` on that station, shape ``(m,)``.
    """
    nearest = np.argmin(
        pairwise_squared_distances(station_coordinates, points), axis=0
    )
    heard = received_mask_at(
        station_coordinates, powers, points, nearest, noise, beta, alpha
    )
    return np.where(heard, nearest, no_reception)


def _mask_from_ratio(
    ratio: np.ndarray, at_station: np.ndarray, beta: float
) -> np.ndarray:
    """Reception mask from a precomputed SINR matrix and coincidence matrix."""
    mask = ratio >= beta
    coincident_columns = at_station.any(axis=0)
    if coincident_columns.any():
        # A point occupied by stations is received exactly by the co-located
        # stations: each hears its own location by definition, every other
        # station is drowned there (the scalar is_received rule).
        mask = np.where(coincident_columns[None, :], at_station, mask)
    return mask


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

    For ``beta >= 1`` at most one station qualifies; for ``beta < 1`` several
    may, and the one with the highest SINR wins (first index on ties), exactly
    like :meth:`repro.model.diagram.SINRDiagram.station_heard_at`.
    """
    ratio, at_station = _sinr(station_coordinates, powers, points, noise, alpha)
    mask = _mask_from_ratio(ratio, at_station, beta)
    any_received = mask.any(axis=0)
    best = np.argmax(np.where(mask, ratio, -np.inf), axis=0)
    return np.where(any_received, best, no_reception)
