"""Naive point-location baselines (the comparison points of Section 1.3).

The paper motivates its data structure against two obvious alternatives:

* the ``O(n^2)``-per-query brute force that computes the SINR of *every*
  station at the query point (each SINR evaluation is itself ``O(n)``);
* the ``O(n)``-per-query method that exploits Observation 2.2: only the
  station whose Voronoi cell contains the query point can possibly be heard,
  so one nearest-station search plus a single SINR evaluation suffices.

Both baselines answer *exactly*, unlike the approximate grid structure, and
are used by the Theorem 3 benchmark to expose the query-time trade-off.

Both implement the unified :class:`~repro.pointlocation.registry.Locator`
protocol: ``locate`` returns the heard station's index (``NO_RECEPTION`` =
-1 where nothing is heard), ``locate_batch`` answers an ``(m, 2)`` array in
one vectorised pass through the active engine backend and returns an
``int64`` label array agreeing with the scalar loop pointwise.  They are
registered as ``"brute-force"`` and ``"voronoi"``.

Each batch is one engine decision query: brute force asks
:func:`~repro.engine.batch.heard_station_batch` (the station with the
highest SINR, where it is received), the Voronoi locator asks
:func:`~repro.engine.batch.nearest_received_batch`, which the float32
screen answers — candidate and reception — in a single pass.  Under
uniform power the nearest station has the highest SINR, so the two agree
for every ``beta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.batch import (
    NO_RECEPTION,
    PointsLike,
    heard_station_batch,
    nearest_received_batch,
)
# Bound here, though unused, because perfbench/tracing.py wraps
# ``naive.received_at`` as a span of its serving benchmark.
from ..engine.batch import received_at  # noqa: F401
from ..geometry.point import Point
from ..model.network import WirelessNetwork
from .registry import register_locator

__all__ = ["BruteForceLocator", "VoronoiCandidateLocator"]


@dataclass
class BruteForceLocator:
    """Exact point location by evaluating every station's SINR (``O(n^2)`` per query)."""

    network: WirelessNetwork

    name = "brute-force"

    @classmethod
    def build(cls, network: WirelessNetwork, **options) -> "BruteForceLocator":
        """Registry factory (takes no options)."""
        if options:
            raise TypeError(f"unexpected options: {sorted(options)}")
        return cls(network)

    def locate(self, point: Point) -> int:
        """Index of the station heard at ``point``, or ``NO_RECEPTION`` (-1):
        :meth:`~repro.model.network.WirelessNetwork.heard_station`."""
        heard = self.network.heard_station(point)
        return NO_RECEPTION if heard is None else heard

    def locate_batch(self, points: PointsLike) -> np.ndarray:
        """Vectorised :meth:`locate`: one ``int64`` label per point.

        One :func:`~repro.engine.batch.heard_station_batch` call through the
        active engine backend, under the scalar method's rule (highest SINR
        wins, lowest index on ties, which matters only in the ``beta < 1``
        regime where several stations may qualify).
        """
        return heard_station_batch(self.network, points).astype(np.int64)

    def query_cost(self) -> int:
        """Number of energy evaluations a single query performs."""
        n = len(self.network)
        return n * n


class VoronoiCandidateLocator:
    """Exact point location via the unique Voronoi candidate (``O(n)`` per query).

    Observation 2.2: in a uniform power network only the nearest station can
    be heard at a point, so the query reduces to one nearest-station lookup
    (``O(log n)`` with the network's cached k-d tree,
    :meth:`~repro.model.network.WirelessNetwork.station_kdtree`) plus one
    SINR evaluation (``O(n)``).
    """

    name = "voronoi"

    def __init__(self, network: WirelessNetwork):
        self.network = network

    @classmethod
    def build(cls, network: WirelessNetwork, **options) -> "VoronoiCandidateLocator":
        """Registry factory (takes no options)."""
        if options:
            raise TypeError(f"unexpected options: {sorted(options)}")
        return cls(network)

    def locate(self, point: Point) -> int:
        """Index of the station heard at ``point``, or ``NO_RECEPTION`` (-1)."""
        candidate = self.network.station_kdtree().nearest_index(point)
        if self.network.is_received(candidate, point):
            return candidate
        return NO_RECEPTION

    def locate_batch(self, points: PointsLike) -> np.ndarray:
        """Vectorised :meth:`locate`: one ``int64`` label per point.

        One :func:`~repro.engine.batch.nearest_received_batch` call through
        the active engine backend: the candidate is the nearest station by
        a distance argmin (lowest index on exact ties) instead of the k-d
        tree, so away from measure-zero equidistance ties the answers agree
        with the scalar method pointwise.
        """
        return nearest_received_batch(self.network, points).astype(np.int64)

    def query_cost(self) -> int:
        """Number of energy evaluations a single query performs."""
        return len(self.network)


register_locator("brute-force", BruteForceLocator)
register_locator("voronoi", VoronoiCandidateLocator)
