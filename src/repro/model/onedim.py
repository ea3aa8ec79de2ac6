"""One-dimensional and colinear reception analysis (Section 4.2 of the paper).

The fatness proof reduces general uniform power networks to two successively
simpler settings, both implemented here because they are useful on their own
(and are exercised by the fatness benchmarks):

* **Two stations on a line** (Section 4.2.1, Figure 14).  With ``s_0`` at the
  origin with unit power and ``s_1`` at distance ``d`` with power
  ``psi_1 >= 1`` and no noise, the reception zone of ``s_0`` restricted to the
  line is the interval ``[mu_l, mu_r]`` with

      mu_r = d / (sqrt(beta * psi_1) + 1),
      mu_l = -d / (sqrt(beta * psi_1) - 1),

  and Lemma 4.3 gives ``Delta / delta = -mu_l / mu_r =
  (sqrt(beta psi_1) + 1) / (sqrt(beta psi_1) - 1)``, with equality attained at
  ``psi_1 = 1``.

* **Positive colinear networks** (Section 4.2.2, Figure 15).  All interferers
  sit on the positive x-axis; Lemma 4.4 shows that ``delta`` and ``Delta`` of
  station ``s_0`` are realised *on the axis*: ``delta = mu_r`` and
  ``Delta = -mu_l``, where ``mu_r`` / ``mu_l`` are the extreme points of the
  reception zone on the positive / negative x-axis.  This module computes
  those extreme points exactly from the reception polynomial restricted to the
  axis (Sturm isolation + bisection refinement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..algebra.sturm import isolate_real_roots, refine_root
from ..exceptions import NetworkConfigurationError
from ..geometry.point import Point
from .network import WirelessNetwork

__all__ = [
    "OneDimensionalReception",
    "two_station_reception_interval",
    "two_station_fatness_ratio",
    "is_positive_colinear",
    "colinear_reception_interval",
]


@dataclass(frozen=True, slots=True)
class OneDimensionalReception:
    """The reception interval ``[mu_l, mu_r]`` of a station restricted to a line.

    ``delta = mu_r`` and ``Delta = -mu_l`` for positive colinear networks
    (Corollaries 4.6 and 4.7 of the paper).
    """

    mu_left: float
    mu_right: float

    @property
    def delta(self) -> float:
        """The inscribed radius realised on the positive axis."""
        return self.mu_right

    @property
    def Delta(self) -> float:
        """The enclosing radius realised on the negative axis."""
        return -self.mu_left

    @property
    def ratio(self) -> float:
        """The fatness ratio ``Delta / delta``."""
        if self.mu_right <= 0.0:
            return math.inf
        return -self.mu_left / self.mu_right

    @property
    def length(self) -> float:
        """Length of the reception interval on the line."""
        return self.mu_right - self.mu_left


def two_station_reception_interval(
    beta: float, interferer_power: float = 1.0, separation: float = 1.0
) -> OneDimensionalReception:
    """The closed-form reception interval of Section 4.2.1.

    Args:
        beta: reception threshold (> 1 for a bounded interval).
        interferer_power: power ``psi_1 >= 1`` of the interfering station.
        separation: distance ``d`` between the two stations.

    Raises:
        NetworkConfigurationError: if ``beta * psi_1 <= 1`` (the interval is
            unbounded on the left) or the separation is not positive.
    """
    if separation <= 0.0:
        raise NetworkConfigurationError("the two stations must be distinct")
    if interferer_power <= 0.0:
        raise NetworkConfigurationError("the interferer power must be positive")
    product = beta * interferer_power
    if product <= 1.0:
        raise NetworkConfigurationError(
            "beta * psi_1 must exceed 1 for a bounded reception interval"
        )
    root = math.sqrt(product)
    return OneDimensionalReception(
        mu_left=-separation / (root - 1.0),
        mu_right=separation / (root + 1.0),
    )


def two_station_fatness_ratio(beta: float, interferer_power: float = 1.0) -> float:
    """Lemma 4.3: ``Delta/delta = (sqrt(beta psi_1) + 1) / (sqrt(beta psi_1) - 1)``.

    The ratio is maximised (over ``psi_1 >= 1``) at ``psi_1 = 1``, where it
    equals the Theorem 4.2 bound.
    """
    product = beta * interferer_power
    if product <= 1.0:
        raise NetworkConfigurationError(
            "beta * psi_1 must exceed 1 for a finite fatness ratio"
        )
    root = math.sqrt(product)
    return (root + 1.0) / (root - 1.0)


def is_positive_colinear(network: WirelessNetwork, tolerance: float = 1e-12) -> bool:
    """True if the network is positive colinear in the sense of Section 4.2.2.

    Station 0 must sit at the origin and every other station on the strictly
    positive x-axis.
    """
    locations = network.locations()
    origin = locations[0]
    if abs(origin.x) > tolerance or abs(origin.y) > tolerance:
        return False
    return all(
        abs(location.y) <= tolerance and location.x > tolerance
        for location in locations[1:]
    )


def colinear_reception_interval(
    network: WirelessNetwork, tolerance: float = 1e-10
) -> OneDimensionalReception:
    """The exact interval ``[mu_l, mu_r]`` of station 0 of a positive colinear network.

    The reception polynomial of station 0 is restricted to the x-axis; its
    real roots are isolated with Sturm's condition and refined by bisection.
    ``mu_r`` is the smallest positive root (the zone cannot extend past the
    nearest interferer) and ``mu_l`` the negative root of largest magnitude
    inside the zone.

    Requires a uniform power, positive colinear network with ``alpha = 2`` and
    a bounded zone (``beta > 1`` or positive noise).
    """
    if not network.is_uniform_power():
        raise NetworkConfigurationError(
            "the colinear analysis assumes a uniform power network"
        )
    if not is_positive_colinear(network):
        raise NetworkConfigurationError("the network is not positive colinear")
    if network.beta <= 1.0 and network.noise == 0.0:
        raise NetworkConfigurationError(
            "the reception interval is unbounded for beta <= 1 without noise"
        )

    polynomial = network.reception_polynomial(0)
    axis_restriction = polynomial.restrict_to_parametric_line(
        Point(0.0, 0.0), Point(1.0, 0.0)
    )

    nearest = min(location.x for location in network.locations()[1:])
    # Bound the root search: the zone is contained in [-Delta_max, nearest),
    # where Delta_max follows from the Theorem 4.1 bound (or a generous
    # multiple of the nearest-station distance when noise bounds the zone).
    if network.beta > 1.0:
        left_reach = nearest / (math.sqrt(network.beta) - 1.0) * 1.5 + nearest
    else:
        left_reach = 4.0 / math.sqrt(network.noise) + nearest

    mu_right = _first_root_in(
        axis_restriction, 0.0, nearest * (1.0 - 1e-12), tolerance=tolerance
    )
    mu_left = _first_root_in(axis_restriction, -left_reach, 0.0, tolerance=tolerance)
    return OneDimensionalReception(mu_left=mu_left, mu_right=mu_right)


def _first_root_in(restriction, low: float, high: float, tolerance: float) -> float:
    """The smallest root of the axis restriction inside ``(low, high]``.

    On the positive side this is ``mu_r`` (the zone cannot reach the nearest
    interferer), and on the negative side it is ``mu_l`` (the restriction has
    a single negative root because the zone restricted to the axis is an
    interval).
    """
    intervals = isolate_real_roots(restriction, low, high)
    if not intervals:
        raise NetworkConfigurationError(
            "could not locate the reception interval boundary on the axis"
        )
    first_low, first_high = intervals[0]
    return refine_root(restriction, first_low, first_high, tolerance=tolerance)
