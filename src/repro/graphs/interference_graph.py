"""General graph-based models with separate connectivity and interference graphs.

Section 1.2 of the paper describes the more elaborate graph-based models used
by protocol designers: a connectivity graph ``G_c = (S, E_c)`` and an
interference graph ``G_i = (S, E_i)``; a station ``s`` receives from ``s'``
iff they are neighbours in ``G_c`` and ``s`` has no concurrently transmitting
neighbour in ``G_i``.  A commonly used special case sets ``G_i`` to ``G_c``
augmented with all 2-hop neighbours.

This module implements that general model, the 2-hop augmentation, and
constructors from UDG / Q-UDG instances so the comparison experiments can
sweep across the whole family of graph-based baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

import networkx as nx

from ..exceptions import NetworkConfigurationError
from ..geometry.point import Point
from .qudg import QuasiUnitDiskGraph
from .udg import UnitDiskGraph

__all__ = ["InterferenceGraphModel", "two_hop_augmentation"]


def two_hop_augmentation(graph: nx.Graph) -> nx.Graph:
    """Return ``graph`` augmented with an edge between every pair of 2-hop neighbours."""
    augmented = graph.copy()
    for node in graph.nodes:
        neighbours = list(graph.neighbors(node))
        for i, first in enumerate(neighbours):
            for second in neighbours[i + 1 :]:
                augmented.add_edge(first, second)
    return augmented


@dataclass(frozen=True)
class InterferenceGraphModel:
    """A graph-based reception model ``(G_c, G_i)`` over indexed stations."""

    locations: Tuple[Point, ...]
    connectivity: nx.Graph
    interference: nx.Graph

    def __init__(
        self,
        locations: Sequence[Point],
        connectivity: nx.Graph,
        interference: nx.Graph,
    ):
        n = len(locations)
        if n < 1:
            raise NetworkConfigurationError("the model needs at least one station")
        for graph, name in ((connectivity, "connectivity"), (interference, "interference")):
            if set(graph.nodes) != set(range(n)):
                raise NetworkConfigurationError(
                    f"the {name} graph must have exactly the nodes 0..{n - 1}"
                )
        object.__setattr__(self, "locations", tuple(locations))
        object.__setattr__(self, "connectivity", connectivity.copy())
        object.__setattr__(self, "interference", interference.copy())

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_udg(udg: UnitDiskGraph) -> "InterferenceGraphModel":
        """The classic UDG model: interference graph equals connectivity graph."""
        graph = udg.graph
        return InterferenceGraphModel(
            locations=udg.locations, connectivity=graph, interference=graph
        )

    @staticmethod
    def from_udg_with_two_hop_interference(udg: UnitDiskGraph) -> "InterferenceGraphModel":
        """UDG connectivity with interference from all 2-hop neighbours."""
        graph = udg.graph
        return InterferenceGraphModel(
            locations=udg.locations,
            connectivity=graph,
            interference=two_hop_augmentation(graph),
        )

    @staticmethod
    def from_qudg(qudg: QuasiUnitDiskGraph) -> "InterferenceGraphModel":
        """Q-UDG connectivity (inner radius) with interference from the outer radius."""
        return InterferenceGraphModel(
            locations=qudg.locations,
            connectivity=qudg.connectivity_graph,
            interference=qudg.interference_graph,
        )

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.locations)

    def station_receives(
        self, receiver: int, sender: int, transmitters: Iterable[int]
    ) -> bool:
        """Graph-rule reception: connected to the sender, no interfering neighbour."""
        transmitting: Set[int] = set(transmitters)
        if sender not in transmitting:
            return False
        if not self.connectivity.has_edge(receiver, sender):
            return False
        for other in transmitting:
            if other in (sender, receiver):
                continue
            if self.interference.has_edge(receiver, other):
                return False
        return True

    def feasible_links(
        self, transmitters: Iterable[int]
    ) -> List[Tuple[int, int]]:
        """All ``(sender, receiver)`` pairs that succeed under the given transmitter set."""
        transmitting = set(transmitters)
        links: List[Tuple[int, int]] = []
        for sender in sorted(transmitting):
            for receiver in range(len(self.locations)):
                if receiver == sender:
                    continue
                if self.station_receives(receiver, sender, transmitting):
                    links.append((sender, receiver))
        return links

    def maximum_independent_transmission_round(self) -> List[int]:
        """A greedy maximal set of transmitters that do not interfere at each other.

        A simple scheduling primitive used by the workload generators to build
        "plausible" concurrent transmitter sets for comparison experiments.
        """
        chosen: List[int] = []
        blocked: Set[int] = set()
        for node in sorted(
            self.interference.nodes, key=lambda v: self.interference.degree[v]
        ):
            if node in blocked:
                continue
            chosen.append(node)
            blocked.add(node)
            blocked.update(self.interference.neighbors(node))
        return chosen
