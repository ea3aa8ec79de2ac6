"""Random and structured network generators for experiments and benchmarks.

The paper evaluates on hand-crafted small configurations (its figures) and on
analytic worst cases; the benchmark harness additionally sweeps over synthetic
network families so that the structural results and the point-location
structure are exercised across scales.  All generators are deterministic given
a seed and return :class:`~repro.model.network.WirelessNetwork` instances.

Families:

* ``uniform_random_network`` — stations placed uniformly at random in a square
  (with a minimum-separation rejection rule so zones are non-degenerate);
* ``clustered_network`` — Gaussian clusters around random centres (models the
  dense deployments where cumulative interference dominates, cf. Figure 2);
* ``ring_network`` / ``grid_network`` / ``colinear_network`` — structured
  placements, including the positive colinear networks of Section 4.2.2 that
  realise the worst-case fatness;
* ``two_station_network`` — the primitive of Section 4.2.1.
"""

from __future__ import annotations

import math
import random
from typing import List

import numpy as np

from ..exceptions import NetworkConfigurationError
from ..geometry.point import Point
from ..model.network import DEFAULT_BETA, WirelessNetwork

__all__ = [
    "uniform_random_network",
    "clustered_network",
    "clustered_outliers_network",
    "ring_network",
    "grid_network",
    "colinear_network",
    "two_station_network",
    "random_query_points",
    "random_query_array",
]


def uniform_random_network(
    station_count: int,
    side: float = 10.0,
    minimum_separation: float = 0.5,
    noise: float = 0.0,
    beta: float = DEFAULT_BETA,
    seed: int = 0,
    max_attempts: int = 100_000,
) -> WirelessNetwork:
    """Stations uniformly at random in ``[0, side]^2`` with minimum separation.

    Raises:
        NetworkConfigurationError: if the requested density is infeasible
            within ``max_attempts`` rejection-sampling attempts.
    """
    if station_count < 2:
        raise NetworkConfigurationError("a network needs at least two stations")
    rng = random.Random(seed)
    points: List[Point] = []
    attempts = 0
    while len(points) < station_count:
        attempts += 1
        if attempts > max_attempts:
            raise NetworkConfigurationError(
                "could not place stations with the requested minimum separation"
            )
        candidate = Point(rng.uniform(0.0, side), rng.uniform(0.0, side))
        if all(
            candidate.distance_to(existing) >= minimum_separation
            for existing in points
        ):
            points.append(candidate)
    return WirelessNetwork.uniform(points, noise=noise, beta=beta)


def clustered_network(
    cluster_count: int,
    stations_per_cluster: int,
    side: float = 20.0,
    cluster_spread: float = 1.0,
    minimum_separation: float = 0.1,
    noise: float = 0.0,
    beta: float = DEFAULT_BETA,
    seed: int = 0,
) -> WirelessNetwork:
    """Gaussian clusters of stations around uniformly placed centres."""
    if cluster_count < 1 or stations_per_cluster < 1:
        raise NetworkConfigurationError("need at least one cluster and one station")
    if cluster_count * stations_per_cluster < 2:
        raise NetworkConfigurationError("a network needs at least two stations")
    rng = random.Random(seed)
    centres = [
        Point(rng.uniform(0.0, side), rng.uniform(0.0, side))
        for _ in range(cluster_count)
    ]
    points: List[Point] = []
    for centre in centres:
        placed = 0
        while placed < stations_per_cluster:
            candidate = Point(
                rng.gauss(centre.x, cluster_spread),
                rng.gauss(centre.y, cluster_spread),
            )
            if all(
                candidate.distance_to(existing) >= minimum_separation
                for existing in points
            ):
                points.append(candidate)
                placed += 1
    return WirelessNetwork.uniform(points, noise=noise, beta=beta)


def clustered_outliers_network(
    cluster_count: int,
    stations_per_cluster: int,
    outlier_count: int,
    side: float = 40.0,
    cluster_spread: float = 1.0,
    minimum_separation: float = 0.25,
    noise: float = 0.0,
    beta: float = DEFAULT_BETA,
    seed: int = 0,
    max_attempts: int = 100_000,
) -> WirelessNetwork:
    """Gaussian clusters plus sparse uniformly scattered outlier stations.

    The heavily skewed spatial distribution this produces — dense knots of
    stations with a thin haze between them — is the adversarial input for
    *spatial sharding*: uniform tiles end up wildly unbalanced (some empty,
    some holding a whole cluster) while median bisection stays balanced, so
    the sharded-locator tests and benchmarks sweep both on it.

    Args:
        cluster_count: number of Gaussian clusters.
        stations_per_cluster: stations per cluster.
        outlier_count: stations placed uniformly at random over the whole
            ``[0, side]^2`` box, independent of the clusters.
        cluster_spread: standard deviation of each cluster.
        minimum_separation: rejection-sampling distance between any two
            stations (keeps zones non-degenerate).
    """
    if cluster_count < 1 or stations_per_cluster < 1:
        raise NetworkConfigurationError("need at least one cluster and one station")
    if outlier_count < 0:
        raise NetworkConfigurationError("outlier_count must be non-negative")
    if cluster_count * stations_per_cluster + outlier_count < 2:
        raise NetworkConfigurationError("a network needs at least two stations")
    rng = random.Random(seed)
    centres = [
        Point(rng.uniform(0.0, side), rng.uniform(0.0, side))
        for _ in range(cluster_count)
    ]
    points: List[Point] = []
    attempts = 0

    def place(sample) -> None:
        nonlocal attempts
        while True:
            attempts += 1
            if attempts > max_attempts:
                raise NetworkConfigurationError(
                    "could not place stations with the requested minimum separation"
                )
            candidate = sample()
            if all(
                candidate.distance_to(existing) >= minimum_separation
                for existing in points
            ):
                points.append(candidate)
                return

    for centre in centres:
        for _ in range(stations_per_cluster):
            place(
                lambda: Point(
                    rng.gauss(centre.x, cluster_spread),
                    rng.gauss(centre.y, cluster_spread),
                )
            )
    for _ in range(outlier_count):
        place(lambda: Point(rng.uniform(0.0, side), rng.uniform(0.0, side)))
    return WirelessNetwork.uniform(points, noise=noise, beta=beta)


def ring_network(
    station_count: int,
    radius: float = 5.0,
    center: Point = Point(0.0, 0.0),
    noise: float = 0.0,
    beta: float = DEFAULT_BETA,
) -> WirelessNetwork:
    """Stations equally spaced on a circle (a highly symmetric diagram)."""
    if station_count < 2:
        raise NetworkConfigurationError("a ring needs at least two stations")
    points = [
        Point(
            center.x + radius * math.cos(2.0 * math.pi * k / station_count),
            center.y + radius * math.sin(2.0 * math.pi * k / station_count),
        )
        for k in range(station_count)
    ]
    return WirelessNetwork.uniform(points, noise=noise, beta=beta)


def grid_network(
    rows: int,
    columns: int,
    spacing: float = 2.0,
    noise: float = 0.0,
    beta: float = DEFAULT_BETA,
) -> WirelessNetwork:
    """Stations on a regular ``rows x columns`` grid."""
    if rows * columns < 2:
        raise NetworkConfigurationError("a grid network needs at least two stations")
    points = [
        Point(c * spacing, r * spacing) for r in range(rows) for c in range(columns)
    ]
    return WirelessNetwork.uniform(points, noise=noise, beta=beta)


def colinear_network(
    station_count: int,
    spacing: float = 2.0,
    noise: float = 0.0,
    beta: float = DEFAULT_BETA,
    positive: bool = True,
) -> WirelessNetwork:
    """A (positive) colinear network as in Section 4.2.2.

    Station 0 sits at the origin; the remaining stations sit on the positive
    x-axis at multiples of ``spacing`` (or alternate on both sides when
    ``positive`` is False).  Positive colinear networks realise the extreme
    fatness configurations analysed by the paper.
    """
    if station_count < 2:
        raise NetworkConfigurationError("a colinear network needs at least two stations")
    points = [Point(0.0, 0.0)]
    for index in range(1, station_count):
        offset = index * spacing
        if positive or index % 2 == 1:
            points.append(Point(offset, 0.0))
        else:
            points.append(Point(-offset, 0.0))
    return WirelessNetwork.uniform(points, noise=noise, beta=beta)


def two_station_network(
    separation: float = 2.0,
    power_ratio: float = 1.0,
    noise: float = 0.0,
    beta: float = DEFAULT_BETA,
) -> WirelessNetwork:
    """The two-station primitive of Section 4.2.1 (station 1 may be stronger)."""
    from ..model.station import Station

    if separation <= 0.0:
        raise NetworkConfigurationError("the two stations must be distinct")
    if power_ratio <= 0.0:
        raise NetworkConfigurationError("the power ratio must be positive")
    stations = (
        Station.at(0.0, 0.0, power=1.0, name="s0"),
        Station.at(separation, 0.0, power=power_ratio, name="s1"),
    )
    return WirelessNetwork(stations=stations, noise=noise, beta=beta)


def random_query_array(
    count: int,
    lower_left: Point,
    upper_right: Point,
    seed: int = 0,
) -> np.ndarray:
    """Uniform random query points as an ``(count, 2)`` coordinate array.

    This is the native format of the batch query engine
    (:mod:`repro.engine.batch`): experiments and benchmarks feed it straight
    into ``sinr_batch`` / ``locate_batch`` without building ``Point`` objects.
    Uses the same RNG sequence as :func:`random_query_points`, so both
    functions describe the same workload for a given seed.
    """
    rng = random.Random(seed)
    out = np.empty((count, 2), dtype=float)
    for index in range(count):
        out[index, 0] = rng.uniform(lower_left.x, upper_right.x)
        out[index, 1] = rng.uniform(lower_left.y, upper_right.y)
    return out


def random_query_points(
    count: int,
    lower_left: Point,
    upper_right: Point,
    seed: int = 0,
) -> List[Point]:
    """Uniform random query points in a box (for point-location benchmarks).

    Scalar-object view of the workload of :func:`random_query_array` (same
    coordinates for the same seed).
    """
    array = random_query_array(count, lower_left, upper_right, seed=seed)
    return [Point(x, y) for x, y in array.tolist()]
