"""The paper's figures as reproducible scenarios.

The original figures were generated numerically from unspecified station
layouts; this module fixes concrete layouts that provably reproduce the
qualitative behaviour each figure illustrates (reception decisions are checked
by the test suite and reported by the benchmark harness):

* **Figure 1** — three uniform stations and a receiver ``p``: (A) ``p`` hears
  ``s2``; (B) after ``s1`` moves, ``p`` hears nothing; (C) with ``s3`` silent,
  ``p`` hears ``s1``.
* **Figure 2** — cumulative interference: the UDG model says ``p`` hears
  ``s1`` but the combined interference of ``s2, s3, s4`` (each individually
  out of range) silences it in the SINR model (a UDG *false positive*).
* **Figures 3–4** — stations are added one at a time: with ``s1`` alone both
  models agree; with ``s1, s2`` the UDG predicts a collision while the SINR
  model still delivers ``s1`` (a *false negative*); with ``s3`` added the SINR
  model delivers ``s3``; with ``s4`` added the outcome changes again.
* **Figure 5** — ``beta = 0.3 < 1`` produces visibly non-convex reception
  zones (the counterexample regime for Theorem 1).
* **Figure 6** — the point-location partition into ``H_i^+`` (certified
  reception), ``H_i^?`` (uncertain band) and ``H^-`` (certified silence).
* **Figure 7** — the fatness parameters ``delta`` and ``Delta`` of a zone.

Every ``figureN_*`` function returns plain data (networks, points, expected
outcomes) so that examples, tests and benchmarks can share one source of
truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..geometry.point import Point
from ..model.diagram import SINRDiagram
from ..model.network import WirelessNetwork

__all__ = [
    "FigurePanel",
    "figure1_panels",
    "figure2_scenario",
    "figure3_4_steps",
    "figure5_network",
    "figure6_network",
    "figure7_network",
    "PAPER_FIGURES",
]


@dataclass(frozen=True)
class FigurePanel:
    """One panel of a paper figure: a network, an optional receiver, expectations.

    Attributes:
        name: panel identifier, e.g. ``"1A"``.
        network: the transmitting stations of the panel.
        receiver: the probe point drawn as a solid square in the paper
            (None for panels without a receiver).
        udg_radius: transmission radius used for the UDG half of the panel
            (None when the panel has no UDG counterpart).
        expected_sinr: index of the station the receiver hears in the SINR
            model, or None for "hears nothing".
        expected_udg: index of the station the receiver hears in the UDG
            model, or None for "hears nothing"; only meaningful when
            ``udg_radius`` is set.
        bounding_box: plot range of the original figure, as
            ``(lower_left, upper_right)``.
        description: one-line description of what the panel shows.
    """

    name: str
    network: WirelessNetwork
    receiver: Optional[Point] = None
    udg_radius: Optional[float] = None
    expected_sinr: Optional[int] = None
    expected_udg: Optional[int] = None
    bounding_box: Tuple[Point, Point] = (Point(-6.0, -6.0), Point(6.0, 6.0))
    description: str = ""

    def sinr_outcome(self) -> Optional[int]:
        """The station actually heard at the receiver under the SINR model."""
        if self.receiver is None:
            return None
        return SINRDiagram(self.network).station_heard_at(self.receiver)

    def udg_outcome(self) -> Optional[int]:
        """The station actually heard at the receiver under the UDG model."""
        if self.receiver is None or self.udg_radius is None:
            return None
        from ..graphs.udg import UnitDiskGraph

        udg = UnitDiskGraph.from_network(self.network, radius=self.udg_radius)
        return udg.station_heard_at(self.receiver)

    def rasterize(self, resolution: int = 200, *, cache=None):
        """Rasterise this panel's bounding box (the figure's pixel data).

        Passing ``cache`` (a :class:`repro.raster.TileCache`) serves the
        raster from the tile cache:
        panels of one figure share a bounding box — and different figures
        often share lattice-aligned sub-boxes — so rendering a figure set
        through one cache recomputes only genuinely new tiles.  The result
        is bit-identical to the uncached rasteriser either way.
        """
        lower_left, upper_right = self.bounding_box
        return SINRDiagram(self.network).rasterize(
            lower_left, upper_right, resolution=resolution, cache=cache
        )

    def matches_expectations(self) -> bool:
        """True if the actual outcomes match the recorded expectations."""
        if self.receiver is None:
            return True
        if self.sinr_outcome() != self.expected_sinr:
            return False
        if self.udg_radius is not None and self.udg_outcome() != self.expected_udg:
            return False
        return True


# ----------------------------------------------------------------------
# Figure 1: reception depends on locations and activity of other stations
# ----------------------------------------------------------------------
_FIG1_BETA = 1.5
_FIG1_NOISE = 0.02
_FIG1_RECEIVER = Point(1.0, -1.0)
_FIG1_S1_A = Point(-3.1, 1.7)
_FIG1_S1_B = Point(2.2, -2.2)
_FIG1_S2 = Point(0.9, 1.3)
_FIG1_S3 = Point(-3.2, 3.5)


def figure1_panels() -> List[FigurePanel]:
    """The three panels of Figure 1 (receiver flips between zones)."""
    box = (Point(-6.0, -6.0), Point(6.0, 6.0))
    panel_a = FigurePanel(
        name="1A",
        network=WirelessNetwork.uniform(
            [_FIG1_S1_A, _FIG1_S2, _FIG1_S3], noise=_FIG1_NOISE, beta=_FIG1_BETA
        ),
        receiver=_FIG1_RECEIVER,
        expected_sinr=1,
        bounding_box=box,
        description="three transmitters; the receiver hears s2",
    )
    panel_b = FigurePanel(
        name="1B",
        network=WirelessNetwork.uniform(
            [_FIG1_S1_B, _FIG1_S2, _FIG1_S3], noise=_FIG1_NOISE, beta=_FIG1_BETA
        ),
        receiver=_FIG1_RECEIVER,
        expected_sinr=None,
        bounding_box=box,
        description="s1 moved next to the receiver; no station is heard",
    )
    panel_c = FigurePanel(
        name="1C",
        network=WirelessNetwork.uniform(
            [_FIG1_S1_B, _FIG1_S2], noise=_FIG1_NOISE, beta=_FIG1_BETA
        ),
        receiver=_FIG1_RECEIVER,
        expected_sinr=0,
        bounding_box=box,
        description="same as (B) but s3 is silent; the receiver hears s1",
    )
    return [panel_a, panel_b, panel_c]


# ----------------------------------------------------------------------
# Figure 2: cumulative interference (UDG false positive)
# ----------------------------------------------------------------------
_FIG2_BETA = 3.0
_FIG2_RADIUS = 5.0
_FIG2_RECEIVER = Point(-1.5, 0.0)
_FIG2_STATIONS = [Point(-4.0, 0.0), Point(2.0, 5.0), Point(2.0, -5.0), Point(6.0, 0.0)]


def figure2_scenario() -> FigurePanel:
    """Figure 2: UDG predicts reception of ``s1``; cumulative SINR interference denies it."""
    return FigurePanel(
        name="2",
        network=WirelessNetwork.uniform(_FIG2_STATIONS, noise=0.0, beta=_FIG2_BETA),
        receiver=_FIG2_RECEIVER,
        udg_radius=_FIG2_RADIUS,
        expected_sinr=None,
        expected_udg=0,
        bounding_box=(Point(-10.0, -10.0), Point(10.0, 10.0)),
        description=(
            "the receiver is in range of s1 only, so the UDG model predicts "
            "reception; the cumulative interference of s2, s3, s4 prevents it "
            "in the SINR model"
        ),
    )


# ----------------------------------------------------------------------
# Figures 3-4: adding stations one at a time (UDG false negatives)
# ----------------------------------------------------------------------
_FIG34_BETA = 2.0
_FIG34_RADIUS = 3.0
_FIG34_RECEIVER = Point(0.6, 1.5)
_FIG34_STATIONS = [
    Point(0.4, 3.0),
    Point(-0.7, 4.0),
    Point(1.1, 0.75),
    Point(2.2, 1.1),
]
#: Expected (sinr, udg) outcome per step (step k = first k stations transmit).
_FIG34_EXPECTED: Dict[int, Tuple[Optional[int], Optional[int]]] = {
    1: (0, 0),
    2: (0, None),
    3: (2, None),
    4: (None, None),
}


def figure3_4_steps() -> List[FigurePanel]:
    """The four transmission steps of Figures 3 and 4.

    Step ``k`` has stations ``s1 .. sk`` transmitting (paper numbering; library
    indices ``0 .. k-1``).  Step 1 is Figure 3; steps 2-4 are Figure 4.
    """
    box = (Point(-5.0, -5.0), Point(5.0, 5.0))
    panels: List[FigurePanel] = []
    for step in range(1, 5):
        stations = _FIG34_STATIONS[:step]
        expected_sinr, expected_udg = _FIG34_EXPECTED[step]
        if step == 1:
            # A single transmitter is outside the WirelessNetwork domain
            # (the paper's model needs >= 2 stations); model it as the
            # two-station network where the second station is "infinitely"
            # far, which leaves reception everywhere on the relevant box.
            network = WirelessNetwork.uniform(
                stations + [Point(1e6, 1e6)], noise=0.0, beta=_FIG34_BETA
            )
        else:
            network = WirelessNetwork.uniform(stations, noise=0.0, beta=_FIG34_BETA)
        panels.append(
            FigurePanel(
                name=f"3-4 step {step}",
                network=network,
                receiver=_FIG34_RECEIVER,
                udg_radius=_FIG34_RADIUS,
                expected_sinr=expected_sinr,
                expected_udg=expected_udg,
                bounding_box=box,
                description=f"stations s1..s{step} transmit",
            )
        )
    return panels


# ----------------------------------------------------------------------
# Figure 5: beta < 1 produces non-convex zones
# ----------------------------------------------------------------------
def figure5_network() -> WirelessNetwork:
    """The Figure 5 regime: uniform power, ``alpha = 2``, ``beta = 0.3``, ``N = 0.05``.

    The three stations are placed as in the figure (roughly an isosceles
    triangle inside ``[-5, 5]^2``); with ``beta < 1`` the reception zones
    overlap and are clearly non-convex.
    """
    return WirelessNetwork.uniform(
        [Point(-2.0, -1.0), Point(2.0, -1.0), Point(0.0, 2.0)],
        noise=0.05,
        beta=0.3,
    )


# ----------------------------------------------------------------------
# Figure 6: the point-location partition
# ----------------------------------------------------------------------
def figure6_network() -> WirelessNetwork:
    """The network used to render the ``H+ / H? / H-`` partition of Figure 6."""
    return WirelessNetwork.uniform(
        [Point(-3.0, 0.0), Point(3.0, 1.0), Point(0.5, 4.0), Point(1.0, -3.5)],
        noise=0.01,
        beta=2.0,
    )


# ----------------------------------------------------------------------
# Figure 7: fatness illustration
# ----------------------------------------------------------------------
def figure7_network() -> WirelessNetwork:
    """A small network whose zone 0 exhibits visibly different delta and Delta."""
    return WirelessNetwork.uniform(
        [Point(0.0, 0.0), Point(2.0, 0.0), Point(2.5, 2.5)],
        noise=0.0,
        beta=2.0,
    )


#: Quick index over every figure generator, used by the experiment harness.
PAPER_FIGURES = {
    "figure1": figure1_panels,
    "figure2": figure2_scenario,
    "figure3_4": figure3_4_steps,
    "figure5": figure5_network,
    "figure6": figure6_network,
    "figure7": figure7_network,
}
