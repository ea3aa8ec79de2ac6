"""Point location in SINR diagrams (Theorem 3 of the paper) — and beyond it.

The package contains every layer of the construction: the radius bounds of
Theorem 4.1 and their Section-5.2 improvement, the Sturm-based segment test,
the Boundary Reconstruction Process (plus a ray-sweep ablation), the
per-station grid structure QDS, the combined nearest-station-fronted
structure DS, the naive exact baselines it is benchmarked against, and a
sharding subsystem that partitions the station set spatially for scale.

Every network-level locator implements the unified
:class:`~repro.pointlocation.registry.Locator` protocol — ``locate(point)``
-> station index or ``-1``; ``locate_batch(points)`` -> ``int64`` array with
the same sentinel — and is reachable by name through the registry
(:func:`get_locator` / :func:`available_locators` / :func:`build_locator`).
The locator matrix:

===================  =========================================================
``"brute-force"``    :class:`BruteForceLocator` — every station's SINR per
                     query (``O(n^2)``), the highest heard where it reaches
                     ``beta``: the engine's ``heard_station``, the rule of
                     every raster label too; the ground truth all
                     equivalence tests compare against.
``"voronoi"``        :class:`VoronoiCandidateLocator` — Observation 2.2's
                     nearest-station candidate plus one SINR check
                     (``O(n)`` per query); exact, no preprocessing.
``"theorem3"``       :class:`PointLocationStructure` — the paper's DS:
                     ``O(n/eps)`` preprocessing, ``O(log n)`` certified
                     queries; the thin uncertain band is resolved exactly on
                     demand, so the protocol answers are exact too.  The
                     three-way INSIDE / OUTSIDE / UNCERTAIN view stays
                     available via ``locate_answer`` / ``locate_answers``.
``"sharded"``        :class:`ShardedLocator` — stations partitioned
                     spatially (``"kd"`` median bisection or ``"uniform"``
                     tiles), one inner locator per shard over a
                     ``subnetwork`` view, query batches routed by certified
                     bounding boxes and candidates re-verified against the
                     full station set, so answers are bit-identical to
                     brute force.  Compose by name: ``"sharded:voronoi"``,
                     ``"sharded:theorem3"``, ...
===================  =========================================================

:class:`ZoneGridIndex` (the per-zone QDS) sits one level below the network
locators: it classifies points against a *single* zone and is the component
the DS builds on; its batch surface (``classify_codes_batch``) feeds the
uniform ``int64`` answers of the structures above.
"""

from .bounds import (
    RadiusBounds,
    explicit_radius_bounds,
    improved_radius_bounds,
    measured_radius_bounds,
    radius_bounds,
    station_reaches,
)
from .brp import BoundaryCover, ray_sweep_boundary_cells, reconstruct_boundary_cells
from .ds import PointLocationAnswer, PointLocationStructure, PreprocessingReport
from .naive import BruteForceLocator, VoronoiCandidateLocator
from .partition import (
    KDMedianPartitioner,
    SpatialPartitioner,
    UniformTilePartitioner,
    get_partitioner,
)
from .qds import QDSBuildReport, ZoneGridIndex, ZoneLabel
from .registry import (
    Locator,
    LocatorFactory,
    available_locators,
    build_locator,
    get_locator,
    register_locator,
)
from .segment_test import (
    SamplingSegmentTest,
    SegmentTest,
    SegmentTestResult,
    SturmSegmentTest,
)
from .sharded import ShardedLocator, ShardInfo, ShardUpdateReport

__all__ = [
    "BoundaryCover",
    "BruteForceLocator",
    "KDMedianPartitioner",
    "Locator",
    "LocatorFactory",
    "PointLocationAnswer",
    "PointLocationStructure",
    "PreprocessingReport",
    "QDSBuildReport",
    "RadiusBounds",
    "SamplingSegmentTest",
    "SegmentTest",
    "SegmentTestResult",
    "ShardInfo",
    "ShardUpdateReport",
    "ShardedLocator",
    "SpatialPartitioner",
    "SturmSegmentTest",
    "UniformTilePartitioner",
    "VoronoiCandidateLocator",
    "ZoneGridIndex",
    "ZoneLabel",
    "available_locators",
    "build_locator",
    "explicit_radius_bounds",
    "get_locator",
    "get_partitioner",
    "improved_radius_bounds",
    "measured_radius_bounds",
    "radius_bounds",
    "ray_sweep_boundary_cells",
    "reconstruct_boundary_cells",
    "register_locator",
    "station_reaches",
]
