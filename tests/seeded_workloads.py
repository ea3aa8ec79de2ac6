"""The one home of the suite's seeded random-workload construction.

The engine, locator-registry, sharding and service test modules all need
the same two building blocks: a deterministic uniform-random network in the
suite's standard regime, and a seeded query batch over a network's bounding
box.  They live here (rather than in ``conftest.py``) so that test modules
can import them for use *inside* parametrised test bodies, where fixtures
cannot reach; ``conftest.py`` wraps the same helpers as fixtures
(``query_box`` and the standard ``ten_station_network`` /
``fifty_station_network``) for everything fixture-shaped.

The adversarial points every certificate is tested against live here too:
grids across zone boundaries at pitches down to a few ulps
(:func:`boundary_grids`) and runs of consecutive doubles (:func:`ulps_past`).
"""

from __future__ import annotations

import math

import numpy as np

from repro import Point, Station, WirelessNetwork
from repro.model.reception import ReceptionZone
from repro.workloads import random_query_array, uniform_random_network

__all__ = [
    "boundary_grids",
    "boundary_points",
    "centred_grid",
    "query_box_array",
    "seeded_network",
    "serving_network",
    "ulps_past",
]


def seeded_network(
    stations: int,
    *,
    side: float,
    seed: int,
    minimum_separation: float = 2.0,
    noise: float = 0.005,
    beta: float = 3.0,
) -> WirelessNetwork:
    """A deterministic uniform-random network in the suite's standard regime.

    The paper's ``beta > 1`` setting with a little background noise — the
    regime where every locator is exact — with rejection-sampled minimum
    separation so zones are non-degenerate.  All randomised test networks
    are built through here so seeds and parameters stay in one place.
    """
    return uniform_random_network(
        stations,
        side=side,
        minimum_separation=minimum_separation,
        noise=noise,
        beta=beta,
        seed=seed,
    )


def query_box_array(network, count: int, seed: int, margin: float = 4.0) -> np.ndarray:
    """A seeded ``(count, 2)`` query batch over the network's bbox + margin.

    Queries straddle the station bounding box by ``margin`` on every side,
    so both reception zones and the silent exterior are exercised.
    """
    coords = network.coords
    return random_query_array(
        count,
        Point(coords[:, 0].min() - margin, coords[:, 1].min() - margin),
        Point(coords[:, 0].max() + margin, coords[:, 1].max() + margin),
        seed=seed,
    )


def serving_network(n, seed=1, noise=0.002, beta=3.0, powers=None):
    """The serving benchmark's network shape: side 4 sqrt(n), separation 1.5."""
    network = uniform_random_network(
        n, side=4.0 * math.sqrt(n), minimum_separation=1.5, noise=noise,
        beta=beta, seed=seed,
    )
    if powers is None:
        return network
    return WirelessNetwork(
        [Station.at(s.x, s.y, power) for s, power in zip(network.stations, powers)],
        noise=noise, beta=beta,
    )


def boundary_points(network, index, angles):
    """Points of station ``index``'s zone boundary along rays, to an ulp."""
    zone = ReceptionZone(network=network, index=index)
    distances = zone.boundary_distances_along_rays(angles, tolerance=1e-300)
    directions = np.column_stack([np.cos(angles), np.sin(angles)])
    return network.coords[index] + distances[:, None] * directions


def centred_grid(centre, pitch, size=32):
    """A ``size`` x ``size`` grid around ``centre``, ``pitch`` per axis."""
    offsets = np.arange(size) - size // 2
    xs, ys = np.meshgrid(
        centre[0] + offsets * pitch[0], centre[1] + offsets * pitch[1]
    )
    return np.column_stack([xs.ravel(), ys.ravel()])


def boundary_grids(network, stations, rays=4, angles=None):
    """Grids across zone boundaries, four per boundary point, at pitches of
    3 ulps (every fourth grid, from the first), 1e-9, 1e-6 and 1e-3.

    The boundary points lie along ``angles`` from each station, by default
    ``rays`` equally spaced rays turned by 0.3 rad.
    """
    if angles is None:
        angles = np.linspace(0.0, 2.0 * math.pi, rays, endpoint=False) + 0.3
    grids = []
    for index in stations:
        for centre in boundary_points(network, index, angles):
            for pitch in (3.0 * np.spacing(np.abs(centre)), 1e-9, 1e-6, 1e-3):
                grids.append(centred_grid(centre, np.broadcast_to(pitch, (2,))))
    return grids


def ulps_past(x: float, direction: float, count: int) -> np.ndarray:
    """``x`` and the ``count`` doubles after it towards ``direction``."""
    out = [x]
    for _ in range(count):
        out.append(np.nextafter(out[-1], direction))
    return np.array(out)
