"""Radio stations.

A station is a transmitter embedded at a point of the Euclidean plane with a
positive transmission power (Section 2.2).  In a *uniform power network* every
station transmits with power 1.  Stations are immutable; "moving" a station or
"silencing" it (as in Figure 1 of the paper) is modelled by constructing a new
network, which keeps the SINR diagram of a configuration a pure function of
that configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..exceptions import NetworkConfigurationError
from ..geometry.point import Point, as_point

__all__ = ["Station"]


@dataclass(frozen=True, slots=True)
class Station:
    """A transmitting radio station.

    Attributes:
        location: position of the station in the plane.
        power: transmission power ``psi > 0`` (1.0 in uniform power networks).
        name: optional human-readable label used by diagrams and reports.
    """

    location: Point
    power: float = 1.0
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.location.x) and math.isfinite(self.location.y)):
            raise NetworkConfigurationError(
                f"station location must be finite, got {self.location}"
            )
        if not 0.0 < self.power < math.inf:
            raise NetworkConfigurationError(
                f"station power must be positive and finite, got {self.power}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def at(x: float, y: float, power: float = 1.0, name: Optional[str] = None) -> "Station":
        """Create a station from raw coordinates."""
        return Station(location=Point(float(x), float(y)), power=power, name=name)

    @staticmethod
    def from_points(
        points: Sequence[Point | Tuple[float, float]],
        power: float = 1.0,
    ) -> Tuple["Station", ...]:
        """Create uniformly powered stations named ``s0, s1, ...`` from points."""
        return tuple(
            Station(location=as_point(point), power=power, name=f"s{i}")
            for i, point in enumerate(points)
        )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def x(self) -> float:
        return self.location.x

    @property
    def y(self) -> float:
        return self.location.y

    def distance_to(self, point: Point) -> float:
        """Euclidean distance from the station to ``point``."""
        return self.location.distance_to(point)

    def moved_to(self, location: Point) -> "Station":
        """A copy of this station at a new location."""
        return Station(location=location, power=self.power, name=self.name)

    def with_power(self, power: float) -> "Station":
        """A copy of this station with a different transmission power."""
        return Station(location=self.location, power=power, name=self.name)

    def label(self, index: int) -> str:
        """Display label: the explicit name if set, otherwise ``s<index>``."""
        return self.name if self.name is not None else f"s{index}"
