"""Numerical verification of the paper's structural results.

Verification harnesses for Theorem 1 (convexity), Lemma 3.1 (star shape),
Lemma 2.1 (lines meet a convex boundary at most twice), and Theorem 2 /
Theorem 4.1 / Theorem 4.2 (fatness).  Used both by the test suite and by the
experiment report that ``examples/reproduce_experiments.py`` prints.
"""

from .experiments import (
    ExperimentResult,
    format_report,
    run_all,
    run_figure1,
    run_figure2,
    run_figure3_4,
    run_figure5,
    run_figure6,
    run_query_service,
    run_raster_cache,
    run_sharded_location,
    run_theorem1,
    run_theorem2,
    run_theorem3,
)
from .theorems import (
    ConvexityVerification,
    FatnessVerification,
    Lemma21Verification,
    StarShapeVerification,
    verify_lemma_2_1,
    verify_network_convexity,
    verify_network_fatness,
    verify_zone_convexity,
    verify_zone_fatness,
    verify_zone_star_shape,
)

__all__ = [
    "ConvexityVerification",
    "ExperimentResult",
    "FatnessVerification",
    "Lemma21Verification",
    "StarShapeVerification",
    "verify_lemma_2_1",
    "verify_network_convexity",
    "verify_network_fatness",
    "verify_zone_convexity",
    "verify_zone_fatness",
    "verify_zone_star_shape",
    "format_report",
    "run_all",
    "run_figure1",
    "run_figure2",
    "run_figure3_4",
    "run_figure5",
    "run_figure6",
    "run_query_service",
    "run_raster_cache",
    "run_sharded_location",
    "run_theorem1",
    "run_theorem2",
    "run_theorem3",
]
