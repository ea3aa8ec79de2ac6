#!/usr/bin/env python3
"""Run every reproduced experiment and print a paper-vs-measured report.

This drives the programmatic experiment harness
(:mod:`repro.analysis.experiments`), which regenerates each figure and theorem
of the paper and checks its qualitative claim.  The same data, with timings,
is produced by ``pytest benchmarks/ --benchmark-only``; this script's report
(:func:`repro.analysis.format_report`) is the summary.

Run with:  python examples/reproduce_experiments.py
"""

from __future__ import annotations

import time

from repro.analysis import format_report, run_all


def main() -> None:
    started = time.perf_counter()
    results = run_all(epsilon=0.3)
    elapsed = time.perf_counter() - started

    print(format_report(results))
    print()
    reproduced = sum(1 for result in results if result.reproduced)
    print(f"{reproduced} / {len(results)} experiments reproduced "
          f"(total runtime {elapsed:.1f}s)")

    failures = [result for result in results if not result.reproduced]
    if failures:
        print("\nNot reproduced:")
        for result in failures:
            print(f"  - {result.experiment}: measured {result.measured}")
        raise SystemExit(1)


if __name__ == "__main__":
    main()
