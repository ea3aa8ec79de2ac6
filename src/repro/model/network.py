"""Wireless networks ``A = <S, psi, N, beta>`` (Section 2.2 of the paper).

The :class:`WirelessNetwork` bundles the station set with the background
noise, the reception threshold, and the path-loss exponent, and exposes the
SINR arithmetic, the reception predicate, the reception polynomial of eq. (2)
and the Lemma 2.3 transformation rule.  Networks are immutable; modifications
(silencing a station, moving one, adding one) return new networks, which is
how the library reproduces the step-by-step scenarios of Figures 1–4.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..algebra.reception import ReceptionPolynomial
from ..exceptions import NetworkConfigurationError
from ..geometry.kdtree import KDTree
from ..geometry.point import Point, as_point
from ..geometry.transform import SimilarityTransform
from ..geometry.voronoi import VoronoiDiagram
from .sinr import interference, received_energy, sinr_ratio
from .station import Station

__all__ = ["WirelessNetwork"]

#: The "textbook" path-loss exponent assumed by the paper's theorems.
DEFAULT_ALPHA = 2.0

#: The paper notes beta is typically around 6 and always assumed > 1.
DEFAULT_BETA = 6.0


@dataclass(frozen=True)
class WirelessNetwork:
    """An immutable wireless network ``<S, psi, N, beta>`` with path loss ``alpha``.

    Attributes:
        stations: the transmitting stations (at least two, per the paper).
        noise: background noise ``N >= 0``.
        beta: reception threshold (the paper assumes ``beta >= 1`` for its
            structural theorems; the class allows smaller values so that the
            non-convex regime of Figure 5 can be reproduced).
        alpha: path-loss exponent (structural theorems require ``alpha = 2``).
    """

    stations: Tuple[Station, ...]
    noise: float = 0.0
    beta: float = DEFAULT_BETA
    alpha: float = DEFAULT_ALPHA

    def __init__(
        self,
        stations: Sequence[Station],
        noise: float = 0.0,
        beta: float = DEFAULT_BETA,
        alpha: float = DEFAULT_ALPHA,
    ):
        if len(stations) < 2:
            raise NetworkConfigurationError(
                f"a wireless network needs at least two stations, got {len(stations)}"
            )
        if not 0.0 <= noise < math.inf:
            raise NetworkConfigurationError(
                f"noise must be non-negative and finite, got {noise}"
            )
        if not 0.0 < beta < math.inf:
            raise NetworkConfigurationError(
                f"beta must be positive and finite, got {beta}"
            )
        if not 0.0 < alpha < math.inf:
            raise NetworkConfigurationError(
                f"alpha must be positive and finite, got {alpha}"
            )
        object.__setattr__(self, "stations", tuple(stations))
        object.__setattr__(self, "noise", float(noise))
        object.__setattr__(self, "beta", float(beta))
        object.__setattr__(self, "alpha", float(alpha))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def uniform(
        points: Sequence[Point | Tuple[float, float]],
        noise: float = 0.0,
        beta: float = DEFAULT_BETA,
        alpha: float = DEFAULT_ALPHA,
    ) -> "WirelessNetwork":
        """A uniform power network (every station transmits with power 1)."""
        return WirelessNetwork(
            stations=Station.from_points(points),
            noise=noise,
            beta=beta,
            alpha=alpha,
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.stations)

    def station(self, index: int) -> Station:
        return self.stations[index]

    def locations(self) -> List[Point]:
        """Locations of every station, in index order."""
        return [station.location for station in self.stations]

    def powers(self) -> List[float]:
        """Transmission powers of every station, in index order."""
        return [station.power for station in self.stations]

    @property
    def coords(self) -> np.ndarray:
        """Station coordinates as a cached, read-only ``(n, 2)`` numpy array.

        Built once per network and reused by every batch query, so callers
        stop rebuilding arrays per query.  Networks are immutable — every
        "mutation" (:meth:`with_station`, :meth:`with_station_moved`, ...)
        returns a *new* network with a fresh cache, which is what keeps the
        cache trivially consistent.
        """
        cached = self.__dict__.get("_coords")
        if cached is None:
            cached = np.array([[s.x, s.y] for s in self.stations], dtype=float)
            cached.setflags(write=False)
            # Direct __dict__ assignment sidesteps the frozen-dataclass
            # __setattr__ guard; the array itself is read-only.
            self.__dict__["_coords"] = cached
        return cached

    def powers_array(self) -> np.ndarray:
        """Transmission powers as a cached, read-only ``(n,)`` numpy array."""
        cached = self.__dict__.get("_powers")
        if cached is None:
            cached = np.array(self.powers(), dtype=float)
            cached.setflags(write=False)
            self.__dict__["_powers"] = cached
        return cached

    @property
    def coords32(self) -> np.ndarray:
        """:attr:`coords` rounded to a cached, read-only float32 ``(n, 2)`` array.

        The *screen* tier of the precision-tiered engine backends
        (:mod:`repro.engine.mixed_precision`) evaluates its fast float32 pass
        over these arrays; they are views of the same immutable network, so
        one cast per network serves every batch query.  The rounding loses
        up to half a float32 ulp per coordinate — screen results are never
        returned directly where that rounding could flip a decision (the
        margin test routes such points through the exact float64 path).
        """
        cached = self.__dict__.get("_coords32")
        if cached is None:
            cached = np.ascontiguousarray(self.coords, dtype=np.float32)
            cached.setflags(write=False)
            self.__dict__["_coords32"] = cached
        return cached

    @property
    def powers32(self) -> np.ndarray:
        """:meth:`powers_array` as a cached, read-only float32 ``(n,)`` array."""
        cached = self.__dict__.get("_powers32")
        if cached is None:
            cached = np.ascontiguousarray(self.powers_array(), dtype=np.float32)
            cached.setflags(write=False)
            self.__dict__["_powers32"] = cached
        return cached

    @property
    def fingerprint(self) -> str:
        """A cheap content fingerprint of everything reception depends on.

        Hashes the station coordinates and powers together with ``noise``,
        ``beta`` and ``alpha`` (station names are cosmetic and excluded), so
        two content-identical networks — e.g. the same layout rebuilt in a
        different process — share one fingerprint, while any "mutation"
        (:meth:`with_station`, :meth:`with_noise`, ...) yields a new network
        with a different one.  The raster tile cache keys tiles by this
        value, which is what makes a mutated network an automatic cache
        miss.  Computed once per network and cached like :attr:`coords`.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(
                np.array([self.noise, self.beta, self.alpha], dtype=float).tobytes()
            )
            digest.update(self.coords.tobytes())
            digest.update(self.powers_array().tobytes())
            cached = digest.hexdigest()
            self.__dict__["_fingerprint"] = cached
        return cached

    def is_uniform_power(self) -> bool:
        """True if every station transmits with power 1 (``psi = 1-bar``)."""
        return all(station.power == 1.0 for station in self.stations)

    def is_trivial(self) -> bool:
        """True for the paper's *trivial* network: 2 stations, N = 0, beta = 1.

        In a trivial uniform power network the reception zones are half-planes
        and in particular unbounded; every structural statement in the paper
        excludes this case explicitly.
        """
        return (
            len(self.stations) == 2
            and self.noise == 0.0
            and self.beta == 1.0
            and self.is_uniform_power()
        )

    def location_is_shared(self, index: int) -> bool:
        """True if another station occupies the same location as station ``index``.

        When this happens the reception zone degenerates to the single point
        ``{s_i}`` (Section 3.1).
        """
        target = self.stations[index].location
        return any(
            i != index and station.location == target
            for i, station in enumerate(self.stations)
        )

    def minimum_distance_from(self, index: int) -> float:
        """``kappa``: the minimum distance from station ``index`` to any other station."""
        target = self.stations[index].location
        return min(
            station.location.distance_to(target)
            for i, station in enumerate(self.stations)
            if i != index
        )

    # ------------------------------------------------------------------
    # SINR arithmetic
    # ------------------------------------------------------------------
    def energy(self, index: int, point: Point) -> float:
        """Energy of station ``index`` at ``point`` (``inf`` at the station itself)."""
        station = self.stations[index]
        return received_energy(station.location, station.power, point, self.alpha)

    def interference(self, index: int, point: Point) -> float:
        """Interference to station ``index`` at ``point``."""
        return interference(
            self.locations(), self.powers(), index, point, self.alpha
        )

    def sinr(self, index: int, point: Point) -> float:
        """The SINR of station ``index`` at ``point`` (undefined at stations)."""
        return sinr_ratio(
            self.locations(), self.powers(), index, point, self.noise, self.alpha
        )

    def is_received(self, index: int, point: Point) -> bool:
        """The fundamental reception rule: ``SINR(s_i, p) >= beta``.

        The reception zone includes the station location itself by definition
        even though the SINR ratio is undefined there.  A point with a
        non-finite coordinate hears no station, as in the batch engine.
        """
        if not (math.isfinite(point.x) and math.isfinite(point.y)):
            return False
        station = self.stations[index]
        if point == station.location:
            return True
        for other_index, other in enumerate(self.stations):
            if other.location == point:
                # A point occupied by another station hears nothing but that
                # station's own transmission (SINR to others is zero there).
                return other_index == index
        return self.sinr(index, point) >= self.beta

    def strongest_station(self, point: Point) -> int:
        """Index of the station with the highest received energy at ``point``."""
        best_index = 0
        best_energy = -math.inf
        for index in range(len(self.stations)):
            energy = self.energy(index, point)
            if energy > best_energy:
                best_energy = energy
                best_index = index
        return best_index

    def heard_station(self, point: Point) -> Optional[int]:
        """Index of the station heard at ``point``, or None.

        At most one station can be heard at any point when ``beta >= 1``
        (its SINR being at least 1 forces every other station's SINR below 1).
        """
        for index in range(len(self.stations)):
            if self.is_received(index, point):
                return index
        return None

    # ------------------------------------------------------------------
    # Batch queries (delegated to the engine)
    # ------------------------------------------------------------------
    def sinr_batch(self, points, target_index: Optional[int] = None) -> np.ndarray:
        """Bulk SINR via :func:`repro.engine.batch.sinr_batch`."""
        from ..engine import batch

        return batch.sinr_batch(self, points, target_index=target_index)

    def received_mask(self, index: int, points) -> np.ndarray:
        """Bulk reception indicator of one station (:meth:`is_received` in bulk)."""
        from ..engine import batch

        return batch.received_mask(self, index, points)

    def heard_station_batch(self, points) -> np.ndarray:
        """Bulk :meth:`heard_station`; ``-1`` marks points where nothing is heard.

        For ``beta < 1`` (several stations may qualify) the highest-SINR
        station is reported, matching
        :meth:`repro.model.diagram.SINRDiagram.station_heard_at`; for the
        paper's ``beta >= 1`` regime the answer is the unique heard station,
        identical to the scalar :meth:`heard_station`.
        """
        from ..engine import batch

        return batch.heard_station_batch(self, points)

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def reception_polynomial(self, index: int) -> ReceptionPolynomial:
        """The reception polynomial ``H(x, y)`` of station ``index`` (eq. (2)).

        Only defined for ``alpha = 2``, where reception is a polynomial
        inequality.
        """
        if self.alpha != 2.0:
            raise NetworkConfigurationError(
                "the reception polynomial is only defined for alpha = 2"
            )
        return ReceptionPolynomial(
            target_index=index,
            stations=self.locations(),
            powers=self.powers(),
            noise=self.noise,
            beta=self.beta,
        )

    def voronoi_diagram(self) -> VoronoiDiagram:
        """Voronoi diagram of the station locations (Observation 2.2).

        Built once per network and cached like :attr:`coords`; immutability
        keeps the cache consistent, and every mutator returns a fresh network
        whose diagram is rebuilt on first use.
        """
        cached = self.__dict__.get("_voronoi")
        if cached is None:
            cached = VoronoiDiagram(self.locations())
            self.__dict__["_voronoi"] = cached
        return cached

    def station_kdtree(self) -> KDTree:
        """A k-d tree over station locations for nearest-station queries.

        Cached per network, same contract as :meth:`voronoi_diagram`.
        """
        cached = self.__dict__.get("_kdtree")
        if cached is None:
            cached = KDTree(self.locations())
            self.__dict__["_kdtree"] = cached
        return cached

    # ------------------------------------------------------------------
    # Transformations (all return new networks)
    # ------------------------------------------------------------------
    def transformed(self, transform: SimilarityTransform) -> "WirelessNetwork":
        """Apply a similarity transform per Lemma 2.3.

        Station locations are mapped through ``transform`` and the noise is
        divided by the square of the scale factor, so that every SINR value is
        preserved: ``SINR_A(s_i, p) = SINR_f(A)(f(s_i), f(p))``.
        """
        new_stations = tuple(
            station.moved_to(transform.apply(station.location))
            for station in self.stations
        )
        return WirelessNetwork(
            stations=new_stations,
            noise=self.noise / transform.noise_factor(),
            beta=self.beta,
            alpha=self.alpha,
        )

    def without_station(self, index: int) -> "WirelessNetwork":
        """The network with station ``index`` silenced (removed)."""
        remaining = tuple(
            station for i, station in enumerate(self.stations) if i != index
        )
        return WirelessNetwork(
            stations=remaining, noise=self.noise, beta=self.beta, alpha=self.alpha
        )

    def with_station(self, station: Station) -> "WirelessNetwork":
        """The network with one extra transmitting station."""
        return WirelessNetwork(
            stations=self.stations + (station,),
            noise=self.noise,
            beta=self.beta,
            alpha=self.alpha,
        )

    def subnetwork(self, indices) -> "WirelessNetwork":
        """A station-subset view of this network (same noise, beta, alpha).

        Args:
            indices: the station indices to keep, in the order they should
                appear in the subnetwork (an array-like of at least two
                in-range indices; a repeated index yields co-located
                duplicate stations, i.e. degenerate zones).

        The sharded point-location subsystem partitions a network's stations
        spatially and builds one locator per shard over such views.  The
        cached :attr:`coords` / :meth:`powers_array` arrays of the parent are
        sliced (not rebuilt from the station objects), so creating many
        shard views of a large network stays cheap; both networks being
        immutable keeps the shared caches trivially consistent.

        Note the subnetwork's SINR arithmetic sees *only* the selected
        stations — interference from the dropped stations is gone, so for
        any station and point ``SINR_sub >= SINR_full``.  Exact sharded
        query answers re-verify candidates against the full network.
        """
        selector = np.asarray(indices, dtype=np.intp).ravel()
        if selector.size < 2:
            raise NetworkConfigurationError(
                f"a subnetwork needs at least two stations, got {selector.size}"
            )
        if selector.min() < 0 or selector.max() >= len(self.stations):
            raise NetworkConfigurationError(
                f"subnetwork indices out of range for {len(self.stations)} stations"
            )
        sub = WirelessNetwork(
            stations=tuple(self.stations[i] for i in selector.tolist()),
            noise=self.noise,
            beta=self.beta,
            alpha=self.alpha,
        )
        coords = self.coords[selector]
        coords.setflags(write=False)
        powers = self.powers_array()[selector]
        powers.setflags(write=False)
        sub.__dict__["_coords"] = coords
        sub.__dict__["_powers"] = powers
        return sub

    def with_station_moved(self, index: int, location: Point) -> "WirelessNetwork":
        """The network with station ``index`` relocated (Figure 1(B)).

        The coordinate cache of the copy is seeded by patching one row of
        this network's :attr:`coords` and the (unchanged) power array is
        shared outright — both are read-only, so sharing is safe, and a
        single-station move in a dynamic-network update loop stays ``O(n)``
        instead of re-deriving every array from the station objects.
        Everything location-dependent (``fingerprint``, ``coords32``, the
        kdtree/Voronoi caches) is left unseeded and rebuilds on first use.
        """
        stations = list(self.stations)
        stations[index] = stations[index].moved_to(location)
        moved = WirelessNetwork(
            stations=tuple(stations), noise=self.noise, beta=self.beta, alpha=self.alpha
        )
        coords = self.coords.copy()
        coords[index, 0] = moved.stations[index].x
        coords[index, 1] = moved.stations[index].y
        coords.setflags(write=False)
        moved.__dict__["_coords"] = coords
        moved.__dict__["_powers"] = self.powers_array()
        return moved

    def with_noise(self, noise: float) -> "WirelessNetwork":
        """The network with a different background noise.

        The station set is unchanged, so the copy shares this network's
        read-only coordinate and power arrays; the noise-dependent
        ``fingerprint`` is not seeded and recomputes on first use.
        """
        changed = WirelessNetwork(
            stations=self.stations, noise=noise, beta=self.beta, alpha=self.alpha
        )
        changed.__dict__["_coords"] = self.coords
        changed.__dict__["_powers"] = self.powers_array()
        return changed

    def with_beta(self, beta: float) -> "WirelessNetwork":
        """The network with a different reception threshold.

        Shares the read-only station arrays like :meth:`with_noise`.
        """
        changed = WirelessNetwork(
            stations=self.stations, noise=self.noise, beta=beta, alpha=self.alpha
        )
        changed.__dict__["_coords"] = self.coords
        changed.__dict__["_powers"] = self.powers_array()
        return changed

    def noise_folded_into_station(self, index: int) -> "WirelessNetwork":
        """Replace the background noise by an equivalent extra station.

        Section 3.4 / Section 4.1 trick: a station of power ``N * kappa^2``
        placed at the nearest other station's location produces energy exactly
        ``N`` at distance ``kappa`` from station ``index``; the analysis of
        the noisy network reduces to a noise-free network with one more
        station.  Returns an (n+1)-station noise-free network; if the noise is
        already zero the network is returned unchanged.
        """
        if self.noise == 0.0:
            return self
        kappa = self.minimum_distance_from(index)
        nearest = min(
            (
                (station.location.distance_to(self.stations[index].location), i)
                for i, station in enumerate(self.stations)
                if i != index
            ),
        )[1]
        extra = Station(
            location=self.stations[nearest].location,
            power=self.noise * kappa * kappa,
            name="noise",
        )
        return WirelessNetwork(
            stations=self.stations + (extra,),
            noise=0.0,
            beta=self.beta,
            alpha=self.alpha,
        )

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A short human-readable summary of the network configuration."""
        kind = "uniform" if self.is_uniform_power() else "general"
        return (
            f"{kind} power network with {len(self.stations)} stations, "
            f"noise={self.noise:g}, beta={self.beta:g}, alpha={self.alpha:g}"
        )
