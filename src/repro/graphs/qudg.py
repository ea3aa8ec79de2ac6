"""The Quasi Unit Disk Graph (Q-UDG) model of Kuhn, Wattenhofer, Zollinger [10].

The Q-UDG model associates two concentric circles with every station: an
inner radius within which transmissions are always received, and an outer
radius beyond which they never are; between the two radii reception is
uncertain.  The paper cites this model because Theorem 2 (fatness of SINR
reception zones) "lends support" to it: a fat convex zone is sandwiched
between two concentric disks whose radius ratio is bounded by the fatness
constant ``(sqrt(beta)+1)/(sqrt(beta)-1)``.

This module implements the Q-UDG reception rule and a helper that derives a
Q-UDG from an SINR network by measuring each zone's inscribed and enclosing
radii (i.e. realising the paper's observation quantitatively).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Sequence, Set, Tuple

import networkx as nx

from ..exceptions import NetworkConfigurationError
from ..geometry.point import Point
from ..model.diagram import SINRDiagram
from ..model.network import WirelessNetwork

__all__ = ["QuasiUnitDiskGraph"]


@dataclass(frozen=True)
class QuasiUnitDiskGraph:
    """A Quasi-UDG: guaranteed reception within ``inner_radius``, none beyond ``outer_radius``.

    Attributes:
        locations: station positions.
        inner_radius: radius of certain reception.
        outer_radius: radius of possible interference / uncertain reception.
    """

    locations: Tuple[Point, ...]
    inner_radius: float
    outer_radius: float

    def __init__(
        self,
        locations: Sequence[Point],
        inner_radius: float,
        outer_radius: float,
    ):
        if len(locations) < 1:
            raise NetworkConfigurationError("a Q-UDG needs at least one station")
        if inner_radius <= 0.0 or outer_radius <= 0.0:
            raise NetworkConfigurationError("Q-UDG radii must be positive")
        if inner_radius > outer_radius:
            raise NetworkConfigurationError(
                "the inner radius cannot exceed the outer radius"
            )
        object.__setattr__(self, "locations", tuple(locations))
        object.__setattr__(self, "inner_radius", float(inner_radius))
        object.__setattr__(self, "outer_radius", float(outer_radius))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_sinr_network(
        network: WirelessNetwork, angles: int = 180
    ) -> "QuasiUnitDiskGraph":
        """Derive a Q-UDG from an SINR network's measured zone radii.

        The inner radius is the smallest inscribed-zone radius over all
        stations, the outer radius the largest enclosing-zone radius; by
        Theorem 2 the two differ by at most the constant fatness factor for
        uniform power networks with ``beta > 1`` and identical station
        spacing; for heterogeneous spacings the ratio reflects the geometry.
        """
        diagram = SINRDiagram(network)
        inscribed: List[float] = []
        enclosing: List[float] = []
        for index in range(len(network)):
            zone = diagram.zone(index)
            if zone.is_degenerate:
                continue
            measurement = zone.fatness(angles=angles)
            inscribed.append(measurement.delta)
            enclosing.append(measurement.Delta)
        if not inscribed:
            raise NetworkConfigurationError(
                "cannot derive a Q-UDG: every reception zone is degenerate"
            )
        return QuasiUnitDiskGraph(
            locations=network.locations(),
            inner_radius=min(inscribed),
            outer_radius=max(enclosing),
        )

    # ------------------------------------------------------------------
    # Graph structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.locations)

    @cached_property
    def connectivity_graph(self) -> nx.Graph:
        """Edges between stations within the inner (certain reception) radius."""
        graph = nx.Graph()
        graph.add_nodes_from(range(len(self.locations)))
        for i in range(len(self.locations)):
            for j in range(i + 1, len(self.locations)):
                if self.locations[i].distance_to(self.locations[j]) <= self.inner_radius:
                    graph.add_edge(i, j)
        return graph

    @cached_property
    def interference_graph(self) -> nx.Graph:
        """Edges between stations within the outer (interference) radius."""
        graph = nx.Graph()
        graph.add_nodes_from(range(len(self.locations)))
        for i in range(len(self.locations)):
            for j in range(i + 1, len(self.locations)):
                if self.locations[i].distance_to(self.locations[j]) <= self.outer_radius:
                    graph.add_edge(i, j)
        return graph

    @property
    def radius_ratio(self) -> float:
        """The Q-UDG quality parameter ``outer_radius / inner_radius``."""
        return self.outer_radius / self.inner_radius

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def point_reception(
        self, point: Point, sender: int, transmitters: Iterable[int]
    ) -> str:
        """Tri-valued reception at an arbitrary point.

        Returns ``"received"`` when the point is within the sender's inner
        disk and outside every other transmitter's outer disk;
        ``"not_received"`` when the point is outside the sender's outer disk
        or inside some other transmitter's inner disk; and ``"uncertain"``
        otherwise (the grey ring of the model).
        """
        transmitting: Set[int] = set(transmitters)
        if sender not in transmitting:
            return "not_received"
        sender_distance = self.locations[sender].distance_to(point)
        if sender_distance > self.outer_radius:
            return "not_received"

        interferer_distances = [
            self.locations[other].distance_to(point)
            for other in transmitting
            if other != sender
        ]
        certain_interference = any(
            distance <= self.inner_radius for distance in interferer_distances
        )
        possible_interference = any(
            distance <= self.outer_radius for distance in interferer_distances
        )

        if sender_distance <= self.inner_radius and not possible_interference:
            return "received"
        if certain_interference:
            return "not_received"
        return "uncertain"

    def station_receives(
        self, receiver: int, sender: int, transmitters: Iterable[int]
    ) -> str:
        """Tri-valued reception at a station, using the two graphs."""
        transmitting = set(transmitters)
        if sender not in transmitting:
            return "not_received"
        connected = self.connectivity_graph.has_edge(receiver, sender)
        possibly_connected = self.interference_graph.has_edge(receiver, sender)
        interferers = [
            other
            for other in transmitting
            if other not in (sender, receiver)
            and self.interference_graph.has_edge(receiver, other)
        ]
        certain_interferers = [
            other
            for other in interferers
            if self.connectivity_graph.has_edge(receiver, other)
        ]
        if connected and not interferers:
            return "received"
        if not possibly_connected or certain_interferers:
            return "not_received"
        return "uncertain"
