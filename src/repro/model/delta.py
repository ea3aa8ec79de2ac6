"""Network deltas: the first-class description of a dynamic-network mutation.

Every :class:`~repro.model.network.WirelessNetwork` is immutable — "mutation"
means building a new network.  For a *static* consumer that is the whole
story: a new network has a new :attr:`~repro.model.network.WirelessNetwork.fingerprint`
and every derived structure is rebuilt from scratch.  Dynamic-network
serving (stations joining, leaving and moving under live traffic) needs the
opposite view: *how little* changed.  A :class:`NetworkDelta` records
exactly that — which stations were added, removed or relocated between two
networks — so that downstream layers can do proportionate work:

* :meth:`repro.pointlocation.sharded.ShardedLocator.updated` rebuilds only
  the shards whose station sets the delta touches;
* :meth:`repro.service.QueryService.swap_network` installs the updated
  locator for new micro-batches while in-flight batches drain against the
  previous epoch;
* :func:`repro.raster.invalidate_for_delta` drops only the raster tiles a
  changed station's certified reach can touch and re-keys the rest.

Deltas come from two places.  The *mutator* helpers here
(:func:`move_station`, :func:`add_station`, :func:`remove_station`) apply
one mutation and return the ``(network, delta)`` pair, so the delta is
exact by construction.  :func:`diff_networks` recovers a delta from two
arbitrary networks by content-matching stations on ``(x, y, power)``; a
relocated station then surfaces as a removal plus an addition unless the
two networks have equal station counts, in which case the unmatched
stations are paired up in index order as moves (which reproduces the
mutator deltas for the common single/multi-move case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..exceptions import NetworkConfigurationError
from ..geometry.point import Point
from .network import WirelessNetwork
from .station import Station

__all__ = [
    "NetworkDelta",
    "diff_networks",
    "move_station",
    "add_station",
    "remove_station",
]


@dataclass(frozen=True)
class NetworkDelta:
    """The station-level difference between an old and a new network.

    Attributes:
        added: new-network indices of stations absent from the old network.
        removed: old-network indices of stations absent from the new network.
        moved: ``(old_index, new_index)`` pairs of stations present in both
            networks but with a different location or power.
        old_count: station count of the old network.
        new_count: station count of the new network.
        params_changed: True when ``noise`` / ``beta`` / ``alpha`` differ —
            then *every* derived structure is stale regardless of how few
            stations moved, and incremental consumers fall back to a full
            rebuild.
    """

    added: Tuple[int, ...] = ()
    removed: Tuple[int, ...] = ()
    moved: Tuple[Tuple[int, int], ...] = ()
    old_count: int = 0
    new_count: int = 0
    params_changed: bool = False

    def __post_init__(self) -> None:
        leaving = list(self.removed) + [old for old, _ in self.moved]
        arriving = list(self.added) + [new for _, new in self.moved]
        for side, count, indices in (
            ("old", self.old_count, leaving),
            ("new", self.new_count, arriving),
        ):
            if len(set(indices)) != len(indices) or not all(
                0 <= index < count for index in indices
            ):
                raise NetworkConfigurationError(
                    f"inconsistent delta: the {side}-network indices it touches, "
                    f"{sorted(indices)}, repeat or fall outside [0, {count})"
                )
        survivors = self.old_count - len(self.removed) - len(self.moved)
        if survivors + len(self.moved) + len(self.added) != self.new_count:
            raise NetworkConfigurationError(
                f"inconsistent delta: {self.old_count} stations "
                f"- {len(self.removed)} removed - {len(self.moved)} moved "
                f"+ {len(self.added)} added does not give {self.new_count}"
            )

    # -- classification --------------------------------------------------
    @property
    def is_identity(self) -> bool:
        """True when nothing changed (same stations, same parameters)."""
        return (
            not self.added
            and not self.removed
            and not self.moved
            and not self.params_changed
        )

    @property
    def index_preserving(self) -> bool:
        """True when every surviving station keeps its index (pure moves).

        This is the precondition for *re-keying* cached per-pixel artefacts
        (raster tiles): the station labels stored in a tile are indices, so
        they stay meaningful only when no index shifted and the station
        count is unchanged.
        """
        if self.old_count != self.new_count or self.added or self.removed:
            return False
        return all(old == new for old, new in self.moved)

    @property
    def touched_old(self) -> Tuple[int, ...]:
        """Old-network indices whose station is gone or relocated (sorted)."""
        return tuple(sorted(set(self.removed) | {old for old, _ in self.moved}))

    @property
    def touched_new(self) -> Tuple[int, ...]:
        """New-network indices of arriving or relocated stations (sorted)."""
        return tuple(sorted(set(self.added) | {new for _, new in self.moved}))

    # -- index bookkeeping ----------------------------------------------
    def surviving_map(self) -> np.ndarray:
        """Old index -> new index for content-unchanged stations, else ``-1``.

        Removed *and* moved stations map to ``-1``: a moved station's old
        shard/tile placement is invalid, so incremental consumers treat it
        as "left here, arrived there" and re-place it from
        :attr:`touched_new`.
        """
        kept_old = np.ones(self.old_count, dtype=bool)
        kept_old[list(self.touched_old)] = False
        kept_new = np.ones(self.new_count, dtype=bool)
        kept_new[list(self.touched_new)] = False
        mapping = np.full(self.old_count, -1, dtype=np.int64)
        # Survivors keep their relative order: pair them up in index order.
        mapping[kept_old] = np.flatnonzero(kept_new)
        return mapping

    def describe(self) -> str:
        """One human-readable line (benchmark and example output)."""
        parts = [
            f"+{len(self.added)}" if self.added else "",
            f"-{len(self.removed)}" if self.removed else "",
            f"~{len(self.moved)}" if self.moved else "",
            "params" if self.params_changed else "",
        ]
        changes = " ".join(part for part in parts if part) or "identity"
        return f"delta[{self.old_count}->{self.new_count} stations: {changes}]"


def _station_key(station: Station) -> Tuple[float, float, float]:
    """The content identity of a station (names are cosmetic, excluded)."""
    return (station.x, station.y, station.power)


def diff_networks(old: WirelessNetwork, new: WirelessNetwork) -> NetworkDelta:
    """Recover a :class:`NetworkDelta` by content-matching two networks.

    Stations match when their ``(x, y, power)`` agree exactly; matching is
    stable (earliest indices pair first), so the surviving map of an
    append/remove mutation is the expected index shift.  With equal station
    counts the unmatched stations are paired in index order as *moves* —
    exactly the delta :func:`move_station` carries — while unequal counts
    report the unmatched stations as removals and additions.

    Prefer the mutator helpers when applying known mutations: they carry
    the same information without the ``O(n)`` rematching pass, and they
    keep a relocation a *move* even alongside joins and leaves.
    """
    params_changed = (
        old.noise != new.noise or old.beta != new.beta or old.alpha != new.alpha
    )
    available: Dict[Tuple[float, float, float], List[int]] = {}
    for index, station in enumerate(old.stations):
        available.setdefault(_station_key(station), []).append(index)

    matched_old = set()
    unmatched_new: List[int] = []
    for index, station in enumerate(new.stations):
        candidates = available.get(_station_key(station))
        if candidates:
            matched_old.add(candidates.pop(0))
        else:
            unmatched_new.append(index)
    unmatched_old = [i for i in range(len(old)) if i not in matched_old]

    if len(old) == len(new):
        moved = tuple(zip(unmatched_old, unmatched_new))
        return NetworkDelta(
            added=(),
            removed=(),
            moved=moved,
            old_count=len(old),
            new_count=len(new),
            params_changed=params_changed,
        )
    return NetworkDelta(
        added=tuple(unmatched_new),
        removed=tuple(unmatched_old),
        moved=(),
        old_count=len(old),
        new_count=len(new),
        params_changed=params_changed,
    )


def move_station(
    network: WirelessNetwork, index: int, location: Point
) -> Tuple[WirelessNetwork, NetworkDelta]:
    """Relocate one station; returns the new network *and* its exact delta.

    The delta-carrying twin of
    :meth:`~repro.model.network.WirelessNetwork.with_station_moved`.
    Moving a station onto its current location yields the identity delta
    (the returned network is still a fresh copy).
    """
    if not 0 <= index < len(network):
        raise NetworkConfigurationError(
            f"station index {index} out of range for {len(network)} stations"
        )
    mutated = network.with_station_moved(index, location)
    if network.stations[index].location == mutated.stations[index].location:
        moved: Tuple[Tuple[int, int], ...] = ()
    else:
        moved = ((index, index),)
    return mutated, NetworkDelta(
        moved=moved, old_count=len(network), new_count=len(mutated)
    )


def add_station(
    network: WirelessNetwork, station: Station
) -> Tuple[WirelessNetwork, NetworkDelta]:
    """Append one station; the delta records the new index as *added*."""
    mutated = network.with_station(station)
    return mutated, NetworkDelta(
        added=(len(mutated) - 1,), old_count=len(network), new_count=len(mutated)
    )


def remove_station(
    network: WirelessNetwork, index: int
) -> Tuple[WirelessNetwork, NetworkDelta]:
    """Silence (remove) one station; the delta records the old index."""
    if not 0 <= index < len(network):
        raise NetworkConfigurationError(
            f"station index {index} out of range for {len(network)} stations"
        )
    mutated = network.without_station(index)
    return mutated, NetworkDelta(
        removed=(index,), old_count=len(network), new_count=len(mutated)
    )
