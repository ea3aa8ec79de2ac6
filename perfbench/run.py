"""The serving benchmark: one workload, one seed, fixed work.

    python3 perfbench/run.py --workload serve-large --seed 1 --seconds 30 --trace 0

Workloads: ``serve-small``, ``serve-large`` (``QueryService`` under
closed-loop clients) and ``raster-panzoom`` (``RasterService`` under two
pan/zoom sessions); every one interleaves single-station moves with its
reads.  ``serve-small`` is not listed in ``BENCHMARK.json``: its
interpreter-bound throughput moved by up to a quarter between runs of
identical code on a 2-vCPU VM, so compare it only in interleaved runs.

``--seconds`` fixes the work of a run (operations = seconds x the
workload's nominal rate on a 2-vCPU machine); the run never stops on the
clock.  Run from the root of a checkout: the library is imported from its
``src`` directory.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` serves the
seed's inputs twice in one process, untraced and then with spans around
every layer's entry points, prints the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/out/``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The report above it
also prints ``tail_ms`` — p99, or the highest percentile leaving ten
independent samples (sealed batches, raster requests) beyond it — which
``BENCHMARK.json`` does not gate: on ``serve-large`` it lands in batches
served while a move recomputes every station's reach beside them, so on
a 2-vCPU VM it moved between 74 and 114 ms across seeds of identical code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-small", "serve-large", "raster-panzoom")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"no library source under {ROOT / 'src' / 'repro'}: run from the "
            "root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import calibration_seconds, print_metrics, run_metadata
    import layers

    for key, value in run_metadata().items():
        print(f"meta {key}: {value}", flush=True)
    calibration = [calibration_seconds()]
    if args.trace:
        run, metrics, lines = layers.traced_run(
            args.workload, args.seed, args.seconds, HERE / "out"
        )
    else:
        run, metrics, lines = layers.plain_run(args.workload, args.seed, args.seconds)
    calibration.append(calibration_seconds())
    for line in lines:
        print(line)
    print("calibration loop (s): "
          + ", ".join(f"{value:.4f}" for value in calibration)
          + " (before, after)")
    print_metrics(f"{args.workload} seed {args.seed}", metrics)
    print(json.dumps({
        "correct": bool(run.correct),
        "attempted": int(run.ops),
        "failed": int(run.failed),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
