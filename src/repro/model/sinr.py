"""The SINR arithmetic: energy, interference and the SINR ratio.

These are the formulas of Section 2.2 of the paper, for a general path-loss
exponent ``alpha`` (the paper's structural results assume ``alpha = 2``; the
arithmetic itself is defined for any ``alpha > 0``):

* energy of station ``s_i`` at point ``p``:
  ``E(s_i, p) = psi_i * dist(s_i, p)^(-alpha)``;
* interference to ``s_i`` at ``p``: the total energy of all other stations;
* SINR: ``E(s_i, p) / (I(s_i, p) + N)``.

These scalar versions operate on :class:`~repro.geometry.point.Point` and
define the model's reference semantics.  Bulk queries (rasters, locators)
go through the chunked batch API of :mod:`repro.engine.batch`, whose
kernels agree with them pointwise.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..exceptions import NetworkConfigurationError
from ..geometry.point import Point

__all__ = [
    "received_energy",
    "total_energy",
    "interference",
    "sinr_ratio",
]


def received_energy(
    station: Point, power: float, point: Point, alpha: float = 2.0
) -> float:
    """Energy ``psi * dist(station, point)^(-alpha)`` of one station at ``point``.

    Returns ``inf`` when ``point`` coincides with the station (the SINR ratio
    is undefined there; the model layer handles that case explicitly).
    """
    distance = station.distance_to(point)
    if distance == 0.0:
        return math.inf
    try:
        return power * distance ** (-alpha)
    except OverflowError:
        # Distances tiny enough to overflow the float range behave like the
        # station location itself: the energy is effectively infinite.
        return math.inf


def total_energy(
    stations: Sequence[Point],
    powers: Sequence[float],
    point: Point,
    alpha: float = 2.0,
) -> float:
    """Total energy of a set of stations at ``point``."""
    return sum(
        received_energy(station, power, point, alpha)
        for station, power in zip(stations, powers)
    )


def interference(
    stations: Sequence[Point],
    powers: Sequence[float],
    target_index: int,
    point: Point,
    alpha: float = 2.0,
) -> float:
    """Energy at ``point`` of every station except ``target_index``."""
    return sum(
        received_energy(station, power, point, alpha)
        for index, (station, power) in enumerate(zip(stations, powers))
        if index != target_index
    )


def sinr_ratio(
    stations: Sequence[Point],
    powers: Sequence[float],
    target_index: int,
    point: Point,
    noise: float,
    alpha: float = 2.0,
) -> float:
    """The SINR of the target station at ``point`` (eq. (1) of the paper).

    Raises:
        NetworkConfigurationError: if ``point`` coincides with any station
            (the ratio is undefined there).
    """
    for station in stations:
        if station.distance_to(point) == 0.0:
            raise NetworkConfigurationError(
                "SINR is undefined at a station location; "
                "use the reception predicate instead"
            )
    signal = received_energy(stations[target_index], powers[target_index], point, alpha)
    noise_plus_interference = (
        interference(stations, powers, target_index, point, alpha) + noise
    )
    # Points overflow-close to a station (energy saturated to inf without the
    # point being *at* the station) must not leak NaN through inf/inf: an
    # infinite signal dominates any interference, an infinite interference
    # drowns any finite signal.  The vectorised kernels implement the same
    # convention.
    if math.isinf(signal):
        return math.inf
    if math.isinf(noise_plus_interference):
        return 0.0
    if noise_plus_interference == 0.0:
        # 0/0 when every energy underflows at a far point without noise.
        return math.inf if signal > 0.0 else math.nan
    return signal / noise_plus_interference
