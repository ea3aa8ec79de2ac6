"""A deterministic catalogue of benchmark scenarios.

Each scenario bundles a network family with the parameters the benchmark
harness sweeps over, so that benchmarks, examples and the report that
``examples/reproduce_experiments.py`` prints always talk about the same
configurations.  Scenarios are intentionally small enough
to run on a laptop in seconds — the paper's results are structural, not about
absolute scale.

Besides the static catalogue, this module generates *mobility* scenarios for
the dynamic-network subsystem: :func:`random_waypoint_walk` (stations drift
toward random waypoints) and :func:`churn_schedule` (stations join and
leave).  Both yield :class:`MobilityStep` sequences — each step a mutated
network *plus* the exact :class:`~repro.model.delta.NetworkDelta` that
produced it — ready to drive ``ShardedLocator.updated``,
``QueryService.swap_network`` and ``invalidate_for_delta`` in benchmarks and
closed-loop drivers.  Determinism is by seeded ``numpy`` ``Generator`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import NetworkConfigurationError
from ..geometry.point import Point
from ..model.delta import NetworkDelta, add_station, remove_station
from ..model.network import WirelessNetwork
from ..model.station import Station
from .generators import (
    clustered_network,
    clustered_outliers_network,
    colinear_network,
    grid_network,
    ring_network,
    uniform_random_network,
)

__all__ = [
    "Scenario",
    "SCENARIOS",
    "DEFAULT_LOCATOR_SWEEP",
    "MobilityStep",
    "churn_schedule",
    "locator_sweep_names",
    "random_waypoint_walk",
    "scenario",
    "scenario_names",
    "theorem_verification_networks",
    "point_location_networks",
    "sharding_networks",
]


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible network configuration."""

    name: str
    description: str
    build: Callable[[], WirelessNetwork]

    def network(self) -> WirelessNetwork:
        """Materialise the scenario's network."""
        return self.build()


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in [
        Scenario(
            name="small-random",
            description="5 uniformly random stations in a 10x10 box, beta=3",
            build=lambda: uniform_random_network(
                5, side=10.0, minimum_separation=1.5, noise=0.01, beta=3.0, seed=11
            ),
        ),
        Scenario(
            name="medium-random",
            description="12 uniformly random stations in a 20x20 box, beta=4",
            build=lambda: uniform_random_network(
                12, side=20.0, minimum_separation=2.0, noise=0.005, beta=4.0, seed=23
            ),
        ),
        Scenario(
            name="large-random",
            description="30 uniformly random stations in a 40x40 box, beta=6",
            build=lambda: uniform_random_network(
                30, side=40.0, minimum_separation=2.5, noise=0.002, beta=6.0, seed=37
            ),
        ),
        Scenario(
            name="clustered",
            description="3 clusters of 4 stations each (dense interference), beta=3",
            build=lambda: clustered_network(
                3, 4, side=24.0, cluster_spread=1.5, noise=0.0, beta=3.0, seed=5
            ),
        ),
        Scenario(
            name="ring",
            description="8 stations on a ring of radius 6, beta=2",
            build=lambda: ring_network(8, radius=6.0, beta=2.0),
        ),
        Scenario(
            name="grid",
            description="3x3 station grid with spacing 3, beta=2.5",
            build=lambda: grid_network(3, 3, spacing=3.0, beta=2.5),
        ),
        Scenario(
            name="colinear",
            description="positive colinear network of 6 stations (Section 4.2.2)",
            build=lambda: colinear_network(6, spacing=2.0, beta=2.0),
        ),
        Scenario(
            name="clustered-outliers",
            description="4 Gaussian clusters of 6 stations plus 8 sparse outliers "
            "in a 40x40 box, beta=3 (skewed spatial distribution for sharding)",
            build=lambda: clustered_outliers_network(
                4,
                6,
                outlier_count=8,
                side=40.0,
                cluster_spread=1.2,
                minimum_separation=0.4,
                noise=0.001,
                beta=3.0,
                seed=17,
            ),
        ),
        Scenario(
            name="textbook-beta",
            description="4 stations with the paper's 'textbook' beta = 6",
            build=lambda: uniform_random_network(
                4, side=12.0, minimum_separation=3.0, noise=0.01, beta=6.0, seed=2
            ),
        ),
    ]
}


def scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    return SCENARIOS[name]


def scenario_names() -> List[str]:
    """Names of every catalogued scenario."""
    return sorted(SCENARIOS)


def theorem_verification_networks() -> List[Tuple[str, WirelessNetwork]]:
    """The scenarios used by the Theorem 1/2 verification benchmarks."""
    names = ["small-random", "clustered", "ring", "grid", "colinear", "textbook-beta"]
    return [(name, SCENARIOS[name].network()) for name in names]


def point_location_networks() -> List[Tuple[str, WirelessNetwork]]:
    """The scenarios used by the Theorem 3 point-location benchmarks."""
    names = ["small-random", "ring", "grid"]
    return [(name, SCENARIOS[name].network()) for name in names]


def sharding_networks() -> List[Tuple[str, WirelessNetwork]]:
    """The scenarios the sharded-locator tests and benchmarks sweep over.

    Deliberately mixes a benign uniform deployment with the skewed
    clustered-outliers one, so both partitioners face empty tiles and
    unbalanced clusters.
    """
    names = ["medium-random", "clustered", "clustered-outliers"]
    return [(name, SCENARIOS[name].network()) for name in names]


#: The canonical by-name locator sweep every harness shares: the exact
#: baselines, the Theorem 3 structure, and a sharded composition of each.
#: Names resolve through :func:`repro.pointlocation.get_locator`, so the
#: sweep automatically covers anything a caller registers under these names.
DEFAULT_LOCATOR_SWEEP: Tuple[str, ...] = (
    "brute-force",
    "voronoi",
    "theorem3",
    "sharded:voronoi",
    "sharded:theorem3",
)


def locator_sweep_names(validate: bool = True) -> List[str]:
    """The default locator-name sweep, optionally validated against the registry."""
    names = list(DEFAULT_LOCATOR_SWEEP)
    if validate:
        from ..pointlocation import get_locator

        for name in names:
            get_locator(name)
    return names


# ---------------------------------------------------------------------------
# Mobility scenarios (dynamic networks)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MobilityStep:
    """One tick of a mobility scenario: the mutated network and its delta.

    The delta is exact by construction (built from the mutators that
    produced ``network``), so consumers never need :func:`diff_networks`.
    """

    network: WirelessNetwork
    delta: NetworkDelta


def _mobility_bounds(
    network: WirelessNetwork, bounds: Optional[Tuple[float, float, float, float]]
) -> Tuple[float, float, float, float]:
    """Resolve the world box stations roam in (default: station bbox)."""
    if bounds is not None:
        x_min, y_min, x_max, y_max = (float(value) for value in bounds)
    else:
        coords = network.coords
        x_min, y_min = coords.min(axis=0)
        x_max, y_max = coords.max(axis=0)
    if not (x_min <= x_max and y_min <= y_max):
        raise NetworkConfigurationError(
            f"degenerate mobility bounds ({x_min}, {y_min}, {x_max}, {y_max})"
        )
    return float(x_min), float(y_min), float(x_max), float(y_max)


def random_waypoint_walk(
    network: WirelessNetwork,
    steps: int,
    *,
    speed: float = 1.0,
    movers: int = 1,
    bounds: Optional[Tuple[float, float, float, float]] = None,
    seed: int = 0,
) -> Iterator[MobilityStep]:
    """Random-waypoint mobility: stations drift toward random targets.

    Every station owns a waypoint drawn uniformly from ``bounds``; each step
    picks ``movers`` distinct stations (uniformly, without replacement) and
    advances them toward their waypoints by at most ``speed``, drawing a new
    waypoint on arrival.  Yields ``steps`` :class:`MobilityStep` values whose
    deltas are pure index-preserving moves — the friendliest case for
    incremental consumers (shard-selective rebuilds, tile re-keying).

    Deterministic for a given ``seed`` (single ``numpy`` ``Generator``).
    """
    if speed <= 0.0:
        raise NetworkConfigurationError(f"waypoint speed must be positive, got {speed}")
    if not 1 <= movers <= len(network):
        raise NetworkConfigurationError(
            f"movers must be in [1, {len(network)}], got {movers}"
        )
    x_min, y_min, x_max, y_max = _mobility_bounds(network, bounds)
    rng = np.random.default_rng(seed)

    def draw_waypoint() -> np.ndarray:
        return np.array(
            [rng.uniform(x_min, x_max), rng.uniform(y_min, y_max)], dtype=float
        )

    waypoints = [draw_waypoint() for _ in range(len(network))]
    for _ in range(steps):
        chosen = rng.choice(len(network), size=movers, replace=False)
        moved: List[Tuple[int, int]] = []
        mutated = network
        for index in sorted(int(i) for i in chosen):
            position = np.array(
                [mutated.stations[index].x, mutated.stations[index].y], dtype=float
            )
            offset = waypoints[index] - position
            distance = float(np.hypot(offset[0], offset[1]))
            if distance <= speed:
                target = waypoints[index]
                waypoints[index] = draw_waypoint()
            else:
                target = position + offset * (speed / distance)
            if distance == 0.0:
                continue
            mutated = mutated.with_station_moved(
                index, Point(float(target[0]), float(target[1]))
            )
            moved.append((index, index))
        delta = NetworkDelta(
            moved=tuple(moved), old_count=len(network), new_count=len(mutated)
        )
        network = mutated
        yield MobilityStep(network=network, delta=delta)


def churn_schedule(
    network: WirelessNetwork,
    steps: int,
    *,
    join_probability: float = 0.5,
    minimum_stations: int = 2,
    bounds: Optional[Tuple[float, float, float, float]] = None,
    seed: int = 0,
) -> Iterator[MobilityStep]:
    """Join/leave churn: each step one station arrives or departs.

    A step joins a fresh station (uniform location in ``bounds``, power
    matching the uniform network power so the Theorem-4.1 regime survives)
    with probability ``join_probability``, otherwise removes a uniformly
    chosen station — except that the population never drops below
    ``minimum_stations`` (a blocked leave becomes a join).

    Deterministic for a given ``seed`` (single ``numpy`` ``Generator``).
    """
    if not 0.0 <= join_probability <= 1.0:
        raise NetworkConfigurationError(
            f"join_probability must be in [0, 1], got {join_probability}"
        )
    if minimum_stations < 1:
        raise NetworkConfigurationError(
            f"minimum_stations must be at least 1, got {minimum_stations}"
        )
    if len(network) < minimum_stations:
        raise NetworkConfigurationError(
            f"network has {len(network)} stations, below the "
            f"minimum_stations floor of {minimum_stations}"
        )
    x_min, y_min, x_max, y_max = _mobility_bounds(network, bounds)
    power = network.stations[0].power if len(network) else 1.0
    rng = np.random.default_rng(seed)
    joined = 0
    for _ in range(steps):
        join = rng.random() < join_probability or len(network) <= minimum_stations
        if join:
            joined += 1
            station = Station(
                location=Point(
                    float(rng.uniform(x_min, x_max)), float(rng.uniform(y_min, y_max))
                ),
                power=power,
                name=f"churn-{joined}",
            )
            network, delta = add_station(network, station)
        else:
            index = int(rng.integers(len(network)))
            network, delta = remove_station(network, index)
        yield MobilityStep(network=network, delta=delta)
