"""Regression tests for benchmark knobs and benchmark persistence.

Four historical bugs are pinned here:

* ``quick_mode()`` read the quick flag as ``bool(value)`` — any non-empty
  value, including ``REPRO_BENCH_QUICK=0`` and ``=false``, *enabled*
  quick mode.  The fix parses it against explicit false tokens.
* ``record_benchmark()`` keyed each group by ``git rev-parse HEAD``, so a
  run on an uncommitted working tree was filed under its parent commit;
  groups are now keyed by the ``src/repro`` digest and the machine.
* ``record_benchmark()`` did an unlocked read-modify-write of
  ``BENCH_engine.json`` — two concurrent recorders (pytest-xdist, parallel
  CI legs) could each read the same base state and the later ``os.replace``
  silently dropped the earlier writer's section.  The fix serialises the
  cycle under an advisory file lock; the threaded test here loses sections
  on the pre-fix code.
* six benchmark modules each read ``REPRO_BENCH_MIN_SPEEDUP`` straight from
  ``os.environ``: ``0`` or a negative value silently disabled their speedup
  gates, and a malformed value crashed them.  The one
  :func:`persist.speedup_floor` reads the knob, warns and keeps the
  calibrated floor instead.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "benchmarks")
)

import persist  # noqa: E402  (needs the benchmarks/ dir on sys.path first)
from persist import BENCH_MIN_SPEEDUP, BENCH_QUICK  # noqa: E402


# ----------------------------------------------------------------------
# quick_mode() regression
# ----------------------------------------------------------------------
class TestQuickMode:
    @pytest.mark.parametrize(
        "raw", ["", "0", "false", "False", "FALSE", "no", "No", "off", "OFF",
                " 0 ", "  false  "]
    )
    def test_false_tokens(self, monkeypatch, raw):
        """REPRO_BENCH_QUICK=0 must mean FULL mode (pre-fix: quick)."""
        monkeypatch.setenv(BENCH_QUICK, raw)
        assert persist.quick_mode() is False

    @pytest.mark.parametrize("raw", ["1", "true", "True", "yes", "on", "2", "quick"])
    def test_true_tokens(self, monkeypatch, raw):
        monkeypatch.setenv(BENCH_QUICK, raw)
        assert persist.quick_mode() is True

    def test_unset_means_full_run(self, monkeypatch):
        monkeypatch.delenv(BENCH_QUICK, raising=False)
        assert persist.quick_mode() is False

    def test_record_benchmark_group_follows_quick_mode(self, monkeypatch, tmp_path):
        path = str(tmp_path / "bench.json")
        monkeypatch.setenv(BENCH_QUICK, "0")
        persist.record_benchmark("s", {"v": 1}, path=path)
        data = json.loads(open(path).read())
        assert "full" in data and "quick" not in data


# ----------------------------------------------------------------------
# speedup_floor() regression
# ----------------------------------------------------------------------
class TestSpeedupFloor:
    def test_unset_keeps_the_calibrated_floor(self, monkeypatch):
        monkeypatch.delenv(BENCH_MIN_SPEEDUP, raising=False)
        assert persist.speedup_floor(5.0) == 5.0

    @pytest.mark.parametrize("raw", ["0.5", "1.0", "1.1", "1.5", "2.0"])
    def test_ci_overrides_replace_the_floor(self, monkeypatch, raw):
        monkeypatch.setenv(BENCH_MIN_SPEEDUP, raw)
        assert persist.speedup_floor(5.0) == float(raw)

    @pytest.mark.parametrize("raw", ["0", "-1", "-1.5", "junk", "nan"])
    def test_bad_override_warns_and_keeps_the_floor(self, monkeypatch, raw):
        """Pre-fix, ``0`` or ``-1`` returned a floor every speedup clears
        and ``junk`` raised ``ValueError`` out of the bench."""
        monkeypatch.setenv(BENCH_MIN_SPEEDUP, raw)
        with pytest.warns(UserWarning, match=BENCH_MIN_SPEEDUP):
            assert persist.speedup_floor(5.0) == 5.0

    def test_no_benchmark_reads_the_environment_itself(self):
        """Every gate goes through the one helper."""
        folder = os.path.dirname(persist.__file__)
        readers = [
            name
            for name in sorted(os.listdir(folder))
            if name.endswith(".py")
            and name != "persist.py"
            and "os.environ" in open(os.path.join(folder, name)).read()
        ]
        assert readers == []


# ----------------------------------------------------------------------
# record_benchmark(): merging, code and machine resets, concurrency
# ----------------------------------------------------------------------
class TestRecordBenchmark:
    def test_sections_merge_within_a_group(self, tmp_path):
        path = str(tmp_path / "bench.json")
        persist.record_benchmark("alpha", {"v": 1}, path=path, quick=False)
        persist.record_benchmark("beta", {"v": 2}, path=path, quick=False)
        data = json.loads(open(path).read())
        assert data["schema"] == 3
        assert set(data["full"]["results"]) == {"alpha", "beta"}

    def test_a_group_names_the_code_and_the_machine(self, tmp_path):
        """Keyed by the ``src/repro`` digest (which names a working tree
        too, unlike the HEAD commit), with nproc, numpy and CPU model."""
        path = str(tmp_path / "bench.json")
        persist.record_benchmark("alpha", {"v": 1}, path=path, quick=False)
        group = json.loads(open(path).read())["full"]
        assert group["src_digest"] == persist.source_digest()
        assert {name: group[name] for name in ("nproc", "numpy", "cpu_model")} == (
            persist.machine()
        )
        assert "git_sha" not in group

    def test_the_digest_is_the_one_perfbench_prints(self):
        import importlib.util

        harness_path = os.path.join(
            os.path.dirname(os.path.dirname(persist.__file__)),
            "perfbench", "harness.py",
        )
        spec = importlib.util.spec_from_file_location("perfbench_harness", harness_path)
        harness = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(harness)
        assert harness.run_metadata()["src_digest"] == persist.source_digest()

    def test_an_older_schema_is_replaced(self, tmp_path):
        """A schema-2 file keyed by a git SHA describes no tree: it goes."""
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "schema": 2,
            "full": {"git_sha": "c5a231c", "results": {"adaptive_control": {}}},
        }))
        persist.record_benchmark("alpha", {"v": 1}, path=str(path), quick=False)
        data = json.loads(path.read_text())
        assert data["schema"] == 3
        assert set(data["full"]["results"]) == {"alpha"}

    def test_groups_are_independent(self, tmp_path):
        path = str(tmp_path / "bench.json")
        persist.record_benchmark("alpha", {"v": 1}, path=path, quick=False)
        persist.record_benchmark("alpha", {"v": 2}, path=path, quick=True)
        data = json.loads(open(path).read())
        assert data["full"]["results"]["alpha"] == {"v": 1}
        assert data["quick"]["results"]["alpha"] == {"v": 2}

    def test_new_code_resets_only_its_group(self, tmp_path, monkeypatch):
        path = str(tmp_path / "bench.json")
        persist.record_benchmark("alpha", {"v": 1}, path=path, quick=False)
        persist.record_benchmark("alpha", {"v": 2}, path=path, quick=True)
        # Simulate a run of different code.
        monkeypatch.setattr(persist, "source_digest", lambda: "deadbeef")
        persist.record_benchmark("beta", {"v": 3}, path=path, quick=True)
        data = json.loads(open(path).read())
        assert data["quick"]["src_digest"] == "deadbeef"
        assert set(data["quick"]["results"]) == {"beta"}  # quick group reset
        assert set(data["full"]["results"]) == {"alpha"}  # full group kept

    def test_another_machine_resets_the_group(self, tmp_path, monkeypatch):
        path = str(tmp_path / "bench.json")
        persist.record_benchmark("alpha", {"v": 1}, path=path, quick=False)
        other = {**persist.machine(), "nproc": "64"}
        monkeypatch.setattr(persist, "machine", lambda: other)
        persist.record_benchmark("beta", {"v": 2}, path=path, quick=False)
        data = json.loads(open(path).read())
        assert data["full"]["nproc"] == "64"
        assert set(data["full"]["results"]) == {"beta"}

    def test_concurrent_recorders_lose_no_sections(self, tmp_path):
        """Threaded writers racing one file: every section must survive.

        On the pre-fix (unlocked) code several threads read the same base
        JSON, each merged only its own section, and the last os.replace
        won — silently discarding the others.
        """
        path = str(tmp_path / "bench.json")
        threads, errors = [], []
        writers = 8
        sections_per_writer = 5
        barrier = threading.Barrier(writers)

        def record(writer: int) -> None:
            try:
                barrier.wait(timeout=30)
                for index in range(sections_per_writer):
                    persist.record_benchmark(
                        f"writer{writer}_section{index}",
                        {"writer": writer, "index": index},
                        path=path,
                        quick=False,
                    )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        for writer in range(writers):
            thread = threading.Thread(target=record, args=(writer,))
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        data = json.loads(open(path).read())
        recorded = set(data["full"]["results"])
        expected = {
            f"writer{w}_section{i}"
            for w in range(writers)
            for i in range(sections_per_writer)
        }
        assert recorded == expected, (
            f"lost {sorted(expected - recorded)} to the read-modify-write race"
        )
