"""The SINR core: stations, networks, reception zones and SINR diagrams.

This package is the paper's primary contribution realised as a library: the
SINR model of Section 2.2 (:class:`WirelessNetwork`), the reception zones
``H_i`` whose convexity and fatness the paper proves
(:class:`ReceptionZone`), and the SINR diagram that partitions the plane into
reception zones (:class:`SINRDiagram`).
"""

from .delta import (
    NetworkDelta,
    add_station,
    diff_networks,
    move_station,
    remove_station,
)
from .diagram import NO_RECEPTION, RasterDiagram, SINRDiagram
from .network import DEFAULT_ALPHA, DEFAULT_BETA, WirelessNetwork
from .onedim import (
    OneDimensionalReception,
    colinear_reception_interval,
    is_positive_colinear,
    two_station_fatness_ratio,
    two_station_reception_interval,
)
from .reception import ReceptionZone
from .sinr import (
    interference,
    received_energy,
    sinr_ratio,
    total_energy,
)
from .station import Station

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "NO_RECEPTION",
    "NetworkDelta",
    "OneDimensionalReception",
    "RasterDiagram",
    "ReceptionZone",
    "SINRDiagram",
    "Station",
    "WirelessNetwork",
    "add_station",
    "colinear_reception_interval",
    "diff_networks",
    "move_station",
    "remove_station",
    "is_positive_colinear",
    "two_station_fatness_ratio",
    "two_station_reception_interval",
    "interference",
    "received_energy",
    "sinr_ratio",
    "total_energy",
]
