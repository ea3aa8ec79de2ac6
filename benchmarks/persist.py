"""Machine-readable benchmark persistence (``BENCH_engine.json``).

First step of ROADMAP's observability item: every bench run records its
headline numbers — queries/second and speedup-vs-numpy per backend — into a
small JSON file at the repo root, keyed by the code and the machine it
measured, so the perf trajectory across PRs becomes checkable by tooling
instead of living only in CI logs.

Schema 3 keeps *quick* (CI smoke, ``REPRO_BENCH_QUICK``) and *full* runs in
separate groups.  Each group names the code it measured by
:func:`source_digest` — the digest of every ``src/repro`` Python file,
which ``perfbench/run.py`` prints as ``src_digest`` — so a run on an
uncommitted working tree is filed under that tree, not under the commit
it started from, and records the machine beside it (:func:`machine`:
nproc, numpy version, CPU model).  A quick smoke run resets only the
``quick`` group, so the committed full-scale results survive CI.
``REPRO_BENCH_QUICK=0`` / ``=false`` / unset mean a full run, anything
else means quick (:func:`quick_mode`).  Within a group the file holds
exactly one digest and machine — a run of other code, or on another
machine, resets that group's results rather than appending, so the
committed file always describes the tree it sits in.  Sections merge,
letting independent bench modules (``bench_engine_batch``,
``bench_incremental_update``...) each contribute their own payload; the
read-merge-write cycle is serialised under an advisory file lock, so
concurrent writers (``pytest-xdist``, parallel CI legs) never lose each
other's sections.

This module is also the one reader of the environment in the project:
the library reads none, and every bench module takes its quick flag from
:func:`quick_mode` and its gate floors from :func:`speedup_floor`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "BENCH_MIN_SPEEDUP",
    "BENCH_PATH",
    "BENCH_QUICK",
    "machine",
    "quick_mode",
    "record_benchmark",
    "source_digest",
    "speedup_floor",
]

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Default output path, at the repo root next to ROADMAP.md.
BENCH_PATH = os.path.join(_REPO_ROOT, "BENCH_engine.json")

#: Shrinks every benchmark workload to a CI smoke run (:func:`quick_mode`).
BENCH_QUICK = "REPRO_BENCH_QUICK"

#: Overrides the calibrated floors of the speedup gates (:func:`speedup_floor`).
BENCH_MIN_SPEEDUP = "REPRO_BENCH_MIN_SPEEDUP"

#: Spellings of ``REPRO_BENCH_QUICK`` that mean a full run.
_FALSE_TOKENS = frozenset({"", "0", "false", "no", "off"})

_SCHEMA = 3


def source_digest() -> str:
    """Digest of every ``src/repro`` Python file: the code a run measured.

    The digest ``perfbench/run.py`` prints as ``src_digest`` (the same
    paths and bytes through the same hash), so a ledger entry and a
    serving-benchmark result name code the same way, committed or not.
    """
    root = Path(_REPO_ROOT)
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine() -> Dict[str, str]:
    """What identifies the measuring machine: nproc, numpy, CPU model."""
    import numpy as np

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "numpy": np.__version__,
        "cpu_model": cpu_model,
    }


def quick_mode() -> bool:
    """Whether this run is a shrunken CI smoke (``REPRO_BENCH_QUICK``).

    Unset, ``""``, ``"0"``, ``"false"``, ``"no"`` and ``"off"`` (any case,
    surrounding whitespace ignored) mean a full run; anything else enables
    quick mode.  An earlier ``bool(value)`` treated *any* non-empty value as
    quick — ``REPRO_BENCH_QUICK=0`` silently shrank what was meant to be a
    full run, poisoning the recorded full-group trajectory.
    """
    return os.environ.get(BENCH_QUICK, "").strip().lower() not in _FALSE_TOKENS


def speedup_floor(default: float) -> float:
    """A benchmark gate's minimum speedup: ``default`` unless overridden.

    ``REPRO_BENCH_MIN_SPEEDUP`` replaces the calibrated ``default`` (CI
    sets 1.0–2.0 for its slower runners).  An unset or empty value keeps
    ``default``; a malformed, zero, negative or NaN one warns and keeps it
    too: a typo can neither switch a gate off nor crash the bench.
    """
    raw = os.environ.get(BENCH_MIN_SPEEDUP, "")
    if raw.strip():
        try:
            configured = float(raw)
        except ValueError:
            configured = float("nan")
        if configured > 0.0:
            return configured
        warnings.warn(
            f"ignoring invalid {BENCH_MIN_SPEEDUP}={raw!r} (expected a "
            f"positive number); using {default}",
            stacklevel=2,
        )
    return default


@contextmanager
def _results_lock(path: str) -> Iterator[None]:
    """Advisory exclusive lock serialising one read-merge-write cycle.

    A sidecar ``<path>.lock`` file is flocked rather than the data file
    itself (the data file is atomically replaced, which would swap the
    locked inode out from under a waiter).  ``flock`` locks the open file
    description, and every caller — threads of one process included —
    opens its own, so all writers contend properly.  Platforms without
    :mod:`fcntl` degrade to the previous unlocked behaviour.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield
        return
    with open(f"{path}.lock", "a+b") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def record_benchmark(
    section: str,
    payload: dict,
    path: Optional[str] = None,
    quick: Optional[bool] = None,
) -> str:
    """Merge one bench module's results into the persisted JSON file.

    ``payload`` should be JSON-serialisable and carry explicit units in its
    key names (``*_qps``, ``*_seconds``, ``speedup_vs_numpy``...).  The
    result lands in the ``quick`` or ``full`` group — by default whichever
    :func:`quick_mode` says this run is.  Each group is keyed by the
    :func:`source_digest` it measured and the :func:`machine` it ran on;
    recording under another digest or machine resets that group (never the
    other one), so CI smoke can't overwrite full trajectory data.  The
    whole read-merge-write cycle runs under an advisory file lock:
    concurrent recorders queue up instead of overwriting each other's
    freshly merged sections.  Returns the path written.
    """
    path = path or BENCH_PATH
    group = "quick" if (quick_mode() if quick is None else quick) else "full"
    key = {"src_digest": source_digest(), **machine()}
    with _results_lock(path):
        data: dict = {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
        if not isinstance(data, dict) or data.get("schema") != _SCHEMA:
            data = {"schema": _SCHEMA}
        slot = data.get(group)
        if not isinstance(slot, dict) or any(
            slot.get(name) != value for name, value in key.items()
        ):
            slot = {**key, "results": {}}
            data[group] = slot
        slot.setdefault("results", {})[section] = payload
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    return path
