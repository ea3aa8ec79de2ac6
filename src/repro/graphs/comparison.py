"""UDG-versus-SINR comparison: false positives and false negatives.

The paper's Figures 2–4 illustrate the two ways the UDG (protocol) model
misjudges reception relative to the SINR model:

* **false positive** — the UDG predicts reception, but cumulative interference
  of several stations slightly outside the receiver's range prevents it in the
  SINR model (Figure 2);
* **false negative** — the UDG predicts a collision (two adjacent transmitters),
  but in the SINR model the nearer/stronger transmission is still received
  (Figure 4, cases (A)-(B) and (C)-(D)).

This module classifies reception at arbitrary points under both models and
aggregates disagreement statistics over rasters and point sets, which is what
the Figure 2–4 benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..geometry.point import Point
from ..model.diagram import SINRDiagram
from ..model.network import WirelessNetwork
from .udg import UnitDiskGraph

__all__ = [
    "ReceptionOutcome",
    "PointComparison",
    "ModelComparator",
    "ComparisonSummary",
]


class ReceptionOutcome(str, Enum):
    """Agreement classification of one (point, sender) reception decision."""

    AGREE_RECEIVED = "agree_received"
    AGREE_NOT_RECEIVED = "agree_not_received"
    FALSE_POSITIVE = "udg_false_positive"  # UDG says received, SINR says no.
    FALSE_NEGATIVE = "udg_false_negative"  # UDG says no, SINR says received.


@dataclass(frozen=True, slots=True)
class PointComparison:
    """Reception decision of both models for one sender at one point."""

    point: Point
    sender: int
    udg_received: bool
    sinr_received: bool

    @property
    def outcome(self) -> ReceptionOutcome:
        if self.udg_received and self.sinr_received:
            return ReceptionOutcome.AGREE_RECEIVED
        if not self.udg_received and not self.sinr_received:
            return ReceptionOutcome.AGREE_NOT_RECEIVED
        if self.udg_received:
            return ReceptionOutcome.FALSE_POSITIVE
        return ReceptionOutcome.FALSE_NEGATIVE


@dataclass(frozen=True)
class ComparisonSummary:
    """Aggregate disagreement statistics over a collection of comparisons."""

    counts: Dict[ReceptionOutcome, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, outcome: ReceptionOutcome) -> float:
        if self.total == 0:
            return 0.0
        return self.counts.get(outcome, 0) / self.total

    @property
    def disagreement_fraction(self) -> float:
        """Fraction of decisions where the two models disagree."""
        return self.fraction(ReceptionOutcome.FALSE_POSITIVE) + self.fraction(
            ReceptionOutcome.FALSE_NEGATIVE
        )

    def as_dict(self) -> Dict[str, float]:
        """A plain-dict view convenient for benchmark reporting."""
        return {
            "total": float(self.total),
            **{outcome.value: float(self.counts.get(outcome, 0)) for outcome in ReceptionOutcome},
            "disagreement_fraction": self.disagreement_fraction,
        }


class ModelComparator:
    """Compares SINR reception with UDG (protocol-model) reception.

    Args:
        network: the SINR network (its stations define both models).
        udg_radius: transmission radius used by the UDG baseline.
        transmitters: indices of the concurrently transmitting stations
            (default: all stations transmit).
    """

    def __init__(
        self,
        network: WirelessNetwork,
        udg_radius: float,
        transmitters: Optional[Iterable[int]] = None,
    ):
        self.network = network
        self.udg = UnitDiskGraph.from_network(network, radius=udg_radius)
        self.transmitters: Tuple[int, ...] = tuple(
            range(len(network)) if transmitters is None else sorted(set(transmitters))
        )
        self._active_network = self._restrict_network_to_transmitters()
        self._diagram = SINRDiagram(self._active_network) if self._active_network else None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _restrict_network_to_transmitters(self) -> Optional[WirelessNetwork]:
        """The SINR network containing only the transmitting stations.

        Silent stations neither provide signal nor interference (Figure 1(C)),
        so the SINR side of the comparison uses the restricted network.
        Returns None when fewer than two stations transmit (the SINR model
        needs at least two stations; a single transmitter is handled as a
        special case in :meth:`sinr_receives`).
        """
        if len(self.transmitters) >= 2:
            stations = tuple(self.network.stations[i] for i in self.transmitters)
            return WirelessNetwork(
                stations=stations,
                noise=self.network.noise,
                beta=self.network.beta,
                alpha=self.network.alpha,
            )
        return None

    def _active_index(self, sender: int) -> int:
        """Index of ``sender`` within the restricted (transmitters-only) network."""
        return self.transmitters.index(sender)

    # ------------------------------------------------------------------
    # Per-point decisions
    # ------------------------------------------------------------------
    def udg_receives(self, point: Point, sender: int) -> bool:
        """UDG (protocol model) reception of ``sender`` at ``point``."""
        return self.udg.point_receives(point, sender, self.transmitters)

    def sinr_receives(self, point: Point, sender: int) -> bool:
        """SINR reception of ``sender`` at ``point`` (silent stations removed)."""
        if sender not in self.transmitters:
            return False
        if self._active_network is None:
            # Single transmitter: reception iff SNR = psi d^-alpha / N >= beta.
            station = self.network.stations[sender]
            if point == station.location:
                return True
            energy = station.power * station.location.distance_to(point) ** (
                -self.network.alpha
            )
            if self.network.noise == 0.0:
                return True
            return energy / self.network.noise >= self.network.beta
        return self._active_network.is_received(self._active_index(sender), point)

    def compare_at(self, point: Point, sender: int) -> PointComparison:
        """Both models' decisions for ``sender`` at ``point``."""
        return PointComparison(
            point=point,
            sender=sender,
            udg_received=self.udg_receives(point, sender),
            sinr_received=self.sinr_receives(point, sender),
        )

    def heard_station_udg(self, point: Point) -> Optional[int]:
        """Station heard at ``point`` under the UDG rule (or None)."""
        return self.udg.station_heard_at(point, self.transmitters)

    def heard_station_sinr(self, point: Point) -> Optional[int]:
        """Station heard at ``point`` under the SINR rule (or None).

        :meth:`WirelessNetwork.heard_station` on the transmitters; a lone
        transmitter is heard where its SNR reaches ``beta``.
        """
        if self._active_network is not None:
            heard = self._active_network.heard_station(point)
            return None if heard is None else self.transmitters[heard]
        for sender in self.transmitters:
            if self.sinr_receives(point, sender):
                return sender
        return None

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def summarize_points(
        self, points: Sequence[Point], sender: int
    ) -> ComparisonSummary:
        """Aggregate agreement statistics for one sender over many points."""
        counts: Dict[ReceptionOutcome, int] = {outcome: 0 for outcome in ReceptionOutcome}
        for point in points:
            outcome = self.compare_at(point, sender).outcome
            counts[outcome] += 1
        return ComparisonSummary(counts=counts)

    def summarize_grid(
        self,
        lower_left: Point,
        upper_right: Point,
        sender: int,
        resolution: int = 100,
    ) -> ComparisonSummary:
        """Aggregate agreement statistics for one sender over a raster of points."""
        xs = np.linspace(lower_left.x, upper_right.x, resolution)
        ys = np.linspace(lower_left.y, upper_right.y, resolution)
        points = [Point(float(x), float(y)) for y in ys for x in xs]
        return self.summarize_points(points, sender)
