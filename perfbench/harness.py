"""Run mechanics shared by every workload: percentiles, seeds, metadata.

Nothing here imports :mod:`repro`; the workload modules do, after
:mod:`run` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Independent samples a tail percentile must leave beyond it.
MIN_BEYOND = 10

clock = time.perf_counter


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with ``fraction`` at or below."""
    ordered = np.sort(np.asarray(values, dtype=float))
    if ordered.size == 0:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(round(fraction * ordered.size, 9)) - 1
    return float(ordered[min(ordered.size - 1, max(0, rank))])


def tail_fraction(independent: int, preferred: float = 0.99) -> float:
    """The tail percentile for a sample of ``independent`` independent draws.

    ``preferred`` (p99) when at least :data:`MIN_BEYOND` independent samples
    lie beyond it, else the highest percentile, in steps of 0.1%, that
    leaves that many beyond it.  Served queries of one sealed batch share
    their fate, so a served workload passes its minimum batch count here,
    not its query count.
    """
    if independent <= MIN_BEYOND:
        raise ValueError(
            f"{independent} independent samples cannot support a tail "
            f"percentile with {MIN_BEYOND} beyond it"
        )
    beyond = max(1.0 - preferred, MIN_BEYOND / independent)
    return 1.0 - math.ceil(round(beyond * 1000, 6)) / 1000


def percentile_label(fraction: float) -> str:
    """``0.985 -> 'p98.5'``, ``0.99 -> 'p99'``."""
    return "p" + f"{fraction * 100:.1f}".rstrip("0").rstrip(".")


def sub_seeds(seed: int, count: int) -> List[int]:
    """``count`` independent integer seeds derived from the run's one seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (``ru_maxrss``), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_seconds() -> float:
    """Wall time of a fixed loop: numpy arithmetic, interpreter work and
    copies larger than the caches.

    Printed with every run so that a shift in the workload metrics can be
    set against a shift in the machine itself.
    """
    xs = np.linspace(0.0, 1.0, 200_000)
    out = np.empty_like(xs)
    # 16 MB each: past the caches, and small beside every workload's own
    # peak, which ru_maxrss would otherwise report as this loop's.
    big = np.ones(2 * 2**20)
    big_out = np.empty_like(big)

    def loop() -> float:
        # In place: allocator state must not leak into the figure.
        total = 0.0
        for _ in range(40):
            np.multiply(xs, xs, out=out)
            np.add(out, 1.0, out=out)
            np.sqrt(out, out=out)
            total += float(out.sum())
        for index in range(400_000):
            total += index & 7
        for _ in range(16):
            np.copyto(big_out, big)
        return total + float(big_out[-1])

    loop()  # first-touch page faults and allocator warm-up stay untimed
    started = clock()
    loop()
    return clock() - started


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def _source_digest() -> str:
    """Digest of every ``src/repro`` Python file: names the code measured
    even in a checkout without git metadata."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata() -> Dict[str, str]:
    """What identifies the code and the machine a run measured."""
    return {
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def print_metrics(title: str, metrics: Dict[str, Dict[str, object]]) -> None:
    print(f"-- {title}")
    for name, entry in metrics.items():
        print(f"   {name:<38} {entry['value']:>14.6g} {entry['unit']}")
