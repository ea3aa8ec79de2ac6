"""The combined point-location structure DS of Theorem 3.

The structure front-ends the per-station grid structures (QDS) with a
nearest-station search:

* preprocessing builds, for every station ``s_i`` whose zone is not
  degenerate, the improved radius bounds of Section 5.2 and a
  :class:`~repro.pointlocation.qds.ZoneGridIndex` of size ``O(eps^-1)``;
  total size ``O(n * eps^-1)``;
* a query locates the nearest station (``O(log n)`` via the network's cached
  k-d tree, standing in for the paper's Voronoi diagram) and consults only
  that station's QDS (constant time), returning which of ``H_i^+``,
  ``H_i^?`` or ``H^-`` the point belongs to.

The classification (:meth:`PointLocationStructure.locate_answer`) is
*one-sided exact*: ``H_i^+`` is certified reception, ``H^-`` is certified
non-reception, and only the thin ``H_i^?`` bands (whose total area is at most
an ``eps``-fraction of the corresponding zone) remain undecided.

As a registered :class:`~repro.pointlocation.registry.Locator` (name
``"theorem3"``) the structure is *fully* exact: ``locate`` / ``locate_batch``
return the uniform ``int64`` station-index answer by resolving the few
uncertain-band points with one exact SINR evaluation each (certify first,
verify the thin remainder), so its answers coincide with
:class:`~repro.pointlocation.naive.BruteForceLocator` on the paper's
``beta > 1`` regime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..engine.batch import (
    NO_RECEPTION,
    PointsLike,
    as_points_array,
    nearest_station_batch,
    received_at,
)
from ..engine.certify import PROBE_BRACKET
from ..exceptions import PointLocationError
from ..geometry.point import Point
from ..model.network import WirelessNetwork
from ..model.reception import ReceptionZone
from .bounds import RadiusBounds, radius_bounds
from .qds import (
    INSIDE_CODE,
    UNCERTAIN_CODE,
    QDSBuildReport,
    ZoneGridIndex,
    ZoneLabel,
)
from .registry import register_locator
from .segment_test import SamplingSegmentTest, SturmSegmentTest

__all__ = ["PointLocationAnswer", "PointLocationStructure", "PreprocessingReport"]


@dataclass(frozen=True, slots=True)
class PointLocationAnswer:
    """The answer to one classified point-location query.

    Attributes:
        station: index of the only station that can possibly be heard at the
            query point (its Voronoi owner), or None if the network is empty.
        label: INSIDE (the point is in ``H_station^+``), OUTSIDE (the point is
            in ``H^-``), or UNCERTAIN (the point is in ``H_station^?``).
    """

    station: Optional[int]
    label: ZoneLabel

    @property
    def is_certified_reception(self) -> bool:
        return self.label is ZoneLabel.INSIDE

    @property
    def is_certified_no_reception(self) -> bool:
        return self.label is ZoneLabel.OUTSIDE


@dataclass(frozen=True)
class PreprocessingReport:
    """Size and cost accounting of the whole structure."""

    epsilon: float
    station_count: int
    total_suspect_cells: int
    total_segment_tests: int
    build_seconds: float
    per_zone: Dict[int, QDSBuildReport]

    @property
    def size_estimate(self) -> int:
        """Total number of stored cells across all per-zone structures."""
        return self.total_suspect_cells


class PointLocationStructure:
    """The DS of Theorem 3: per-station QDS behind a nearest-station front-end.

    Args:
        network: a uniform power network with ``alpha = 2`` and ``beta > 1``.
        epsilon: performance parameter in ``(0, 1)``.
        segment_test_kind: ``"sturm"`` (the paper's algebraic test, default)
            or ``"sampling"`` (the ablation baseline).
        cover_method: ``"brp"`` (default) or ``"ray_sweep"``.
        bounds_method: how the per-zone radius sandwich is obtained —
            ``"measured"`` (tight, default), ``"improved"`` (Section 5.2) or
            ``"explicit"`` (Theorem 4.1).  All three are certified; looser
            bounds only make the grid finer and the structure larger.
    """

    name = "theorem3"

    def __init__(
        self,
        network: WirelessNetwork,
        epsilon: float = 0.1,
        segment_test_kind: str = "sturm",
        cover_method: str = "brp",
        bounds_method: str = "measured",
    ):
        if not 0.0 < epsilon < 1.0:
            raise PointLocationError(f"epsilon must be in (0, 1), got {epsilon}")
        if not network.is_uniform_power():
            raise PointLocationError(
                "the point-location structure requires a uniform power network"
            )
        if network.beta <= 1.0:
            raise PointLocationError("the point-location structure requires beta > 1")
        if network.alpha != 2.0:
            raise PointLocationError("the point-location structure requires alpha = 2")

        self.network = network
        self.epsilon = epsilon
        self.segment_test_kind = segment_test_kind
        self.cover_method = cover_method
        self.bounds_method = bounds_method

        start = time.perf_counter()
        self._zone_indexes: Dict[int, ZoneGridIndex] = {}
        self._bounds: Dict[int, RadiusBounds] = {}
        per_zone_reports: Dict[int, QDSBuildReport] = {}
        for index in range(len(network)):
            if network.location_is_shared(index):
                # Degenerate zone: the station is heard nowhere but at its own
                # point; queries fall through to the exact check.
                continue
            zone_index = self._build_zone_index(index)
            self._zone_indexes[index] = zone_index
            per_zone_reports[index] = zone_index.report
        elapsed = time.perf_counter() - start

        self.report = PreprocessingReport(
            epsilon=epsilon,
            station_count=len(network),
            total_suspect_cells=sum(
                report.suspect_cells for report in per_zone_reports.values()
            ),
            total_segment_tests=sum(
                report.segment_tests for report in per_zone_reports.values()
            ),
            build_seconds=elapsed,
            per_zone=per_zone_reports,
        )

    @classmethod
    def build(cls, network: WirelessNetwork, **options) -> "PointLocationStructure":
        """Registry factory: options forward to the constructor."""
        return cls(network, **options)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_zone_index(self, index: int) -> ZoneGridIndex:
        zone = ReceptionZone(network=self.network, index=index)
        bounds = radius_bounds(self.network, index, method=self.bounds_method)
        self._bounds[index] = bounds

        if self.segment_test_kind not in ("sturm", "sampling"):
            raise PointLocationError(
                f"unknown segment test kind: {self.segment_test_kind!r}"
            )
        if self.cover_method != "brp":
            # Only the BRP consults the segment test; building a Sturm chain
            # over the degree-2n reception polynomial is the single most
            # expensive step of preprocessing, so skip it when unused.
            segment_test = None
        elif self.segment_test_kind == "sturm":
            segment_test = SturmSegmentTest(self.network.reception_polynomial(index))
        else:
            segment_test = SamplingSegmentTest(zone.contains)

        probe_radius = bounds.Delta_upper * PROBE_BRACKET
        return ZoneGridIndex(
            inside=zone.contains,
            station=zone.station_location,
            delta_lower=bounds.delta_lower,
            Delta_upper=bounds.Delta_upper,
            epsilon=self.epsilon,
            segment_test=segment_test,
            boundary_distance_batch=lambda angles, tolerance: (
                zone.boundary_distances_along_rays(
                    angles, max_radius=probe_radius, tolerance=tolerance
                )
            ),
            cover_method=self.cover_method,
        )

    # ------------------------------------------------------------------
    # Classified queries (the paper's three-way answer)
    # ------------------------------------------------------------------
    def locate_answer(self, point: Point) -> PointLocationAnswer:
        """Classify one query in ``O(log n)`` time (INSIDE / OUTSIDE / UNCERTAIN)."""
        candidate = self.network.station_kdtree().nearest_index(point)
        zone_index = self._zone_indexes.get(candidate)
        if zone_index is None:
            return PointLocationAnswer(station=candidate, label=ZoneLabel.OUTSIDE)
        return PointLocationAnswer(
            station=candidate, label=zone_index.classify(point)
        )

    def locate_answers(self, points: PointsLike) -> List[PointLocationAnswer]:
        """Classify a batch of queries with a vectorised fast path.

        The nearest-candidate front-end runs as one vectorised distance
        argmin over the whole batch (lowest index on exact ties, where the
        k-d tree's visit order may differ — a measure-zero set), and each
        consulted zone structure classifies its group of points through the
        vectorised :meth:`ZoneGridIndex.classify_codes_batch`.  Answers agree
        with per-point :meth:`locate_answer` calls pointwise away from ties.
        """
        pts = as_points_array(points)
        count = len(pts)
        if count == 0:
            return []
        candidates = nearest_station_batch(self.network, pts)

        answers: List[Optional[PointLocationAnswer]] = [None] * count
        for station in np.unique(candidates).tolist():
            selector = np.flatnonzero(candidates == station)
            zone_index = self._zone_indexes.get(station)
            if zone_index is None:
                answer = PointLocationAnswer(station=station, label=ZoneLabel.OUTSIDE)
                for position in selector.tolist():
                    answers[position] = answer
                continue
            labels = zone_index.classify_batch(pts[selector])
            for position, label in zip(selector.tolist(), labels):
                answers[position] = PointLocationAnswer(station=station, label=label)
        return answers

    # ------------------------------------------------------------------
    # Locator protocol (uniform int64 station-index answers)
    # ------------------------------------------------------------------
    def locate(self, point: Point) -> int:
        """Index of the station heard at ``point``, or ``NO_RECEPTION`` (-1).

        Certified INSIDE / OUTSIDE answers are free; a point falling in the
        thin uncertainty band (or landing on a degenerate zone's candidate)
        is resolved with one exact SINR evaluation, so the answer is always
        exact while almost every query stays ``O(log n)``.
        """
        candidate = self.network.station_kdtree().nearest_index(point)
        zone_index = self._zone_indexes.get(candidate)
        if zone_index is None:
            # Degenerate zone (shared location): heard only exactly at the
            # station point; the exact check settles it.
            return candidate if self.network.is_received(candidate, point) else NO_RECEPTION
        label = zone_index.classify(point)
        if label is ZoneLabel.INSIDE:
            return candidate
        if label is ZoneLabel.OUTSIDE:
            return NO_RECEPTION
        return candidate if self.network.is_received(candidate, point) else NO_RECEPTION

    def locate_batch(self, points: PointsLike) -> np.ndarray:
        """Vectorised :meth:`locate`: one ``int64`` label per point.

        Candidates come from one vectorised argmin, certified cells are
        answered from the grid structures, and the uncertain-band remainder
        is settled by a single batched reception mask through the active
        engine backend.
        """
        pts = as_points_array(points)
        count = len(pts)
        out = np.full(count, NO_RECEPTION, dtype=np.int64)
        if count == 0:
            return out
        candidates = nearest_station_batch(self.network, pts)

        fallback: List[np.ndarray] = []
        for station in np.unique(candidates).tolist():
            selector = np.flatnonzero(candidates == station)
            zone_index = self._zone_indexes.get(station)
            if zone_index is None:
                # Degenerate zone: only the exact check can answer.
                fallback.append(selector)
                continue
            codes = zone_index.classify_codes_batch(pts[selector])
            out[selector[codes == INSIDE_CODE]] = station
            uncertain = selector[codes == UNCERTAIN_CODE]
            if uncertain.size:
                fallback.append(uncertain)

        if fallback:
            rows = np.concatenate(fallback)
            heard = received_at(self.network, candidates[rows], pts[rows])
            out[rows[heard]] = candidates[rows][heard]
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def zone_index(self, index: int) -> Optional[ZoneGridIndex]:
        """The per-zone grid structure of station ``index`` (None if degenerate)."""
        return self._zone_indexes.get(index)

    def radius_bounds(self, index: int) -> Optional[RadiusBounds]:
        """The radius bounds used to build station ``index``'s grid structure."""
        return self._bounds.get(index)

    def size_estimate(self) -> int:
        """Total number of stored suspect cells (the ``O(n / eps)`` size)."""
        return self.report.total_suspect_cells


register_locator("theorem3", PointLocationStructure)
