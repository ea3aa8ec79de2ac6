"""Per-rule fixture tests for reprolint.

Every shipped rule gets at least one violating fixture (proving it fires)
and one conforming fixture (proving it stays quiet on the idiom the project
actually uses).  Scoped rules additionally get an out-of-scope fixture.
Below the rule fixtures: suppression comments, baseline round-trips, and
the CLI contract (exit codes, JSON shape).
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from io import StringIO
from pathlib import Path

import pytest

from repro.exceptions import LintError
from repro.lint import (
    ALL_RULE_CLASSES,
    BaselineEntry,
    check_source,
    load_baseline,
    run_lint,
)
from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.lint.core import PARSE_ERROR_RULE

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_hit(source: str, path: str = "somewhere/x.py") -> set:
    """The set of rule ids that fire on a dedented fixture."""
    return {f.rule for f in check_source(textwrap.dedent(source), path)}


def findings_for(rule_id: str, source: str, path: str = "somewhere/x.py"):
    return [
        f
        for f in check_source(textwrap.dedent(source), path)
        if f.rule == rule_id
    ]


class TestRuleRegistry:
    def test_rule_ids_unique_and_well_formed(self):
        ids = [cls.rule_id for cls in ALL_RULE_CLASSES]
        assert len(ids) == len(set(ids))
        for rule_id in ids:
            assert rule_id.startswith("RL") and rule_id[2:].isdigit()

    def test_every_rule_states_its_contract(self):
        for cls in ALL_RULE_CLASSES:
            assert cls.title, f"{cls.rule_id} has no title"
            assert len(cls.contract.split()) >= 10, (
                f"{cls.rule_id} contract must state the invariant, not a stub"
            )


class TestRL001ExceptionTaxonomy:
    def test_flags_non_taxonomy_raise(self):
        assert findings_for(
            "RL001",
            """
            def f():
                raise RuntimeError("boom")
            """,
        )

    def test_flags_valueerror(self):
        assert findings_for("RL001", "raise ValueError('bad')\n")

    def test_allows_taxonomy_and_documented_split(self):
        clean = """
            from repro.exceptions import EngineError, ReproError

            def f(flag):
                if flag:
                    raise EngineError("bad input")
                raise TypeError("wrong type")

            def g():
                raise NotImplementedError
        """
        assert not findings_for("RL001", clean)

    def test_allows_reraise_and_bound_objects(self):
        clean = """
            def f(error):
                try:
                    g()
                except Exception as caught:
                    raise
                raise error
        """
        assert not findings_for("RL001", clean)


class TestRL002LockDiscipline:
    VIOLATING = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                with self._lock:
                    self._count += 1

            def reset(self):
                self._count = 0
    """

    def test_flags_unlocked_write_of_locked_attribute(self):
        findings = findings_for("RL002", self.VIOLATING)
        assert len(findings) == 1
        assert "_count" in findings[0].message

    def test_init_writes_are_exempt(self):
        # __init__ also writes _count without the lock; only reset() fires,
        # so exactly one finding, anchored at the last line of the fixture.
        (finding,) = findings_for("RL002", self.VIOLATING)
        lines = textwrap.dedent(self.VIOLATING).splitlines()
        assert lines[finding.line - 1].strip() == "self._count = 0"
        assert finding.line > 10  # the reset() write, not the __init__ one

    def test_locked_helper_suffix_is_exempt(self):
        clean = """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._insert_locked()

                def _insert_locked(self):
                    self._count += 1
        """
        assert not findings_for("RL002", clean)

    def test_attributes_never_locked_are_free(self):
        clean = """
            class Plain:
                def set(self, value):
                    self.value = value

                def clear(self):
                    self.value = None
        """
        assert not findings_for("RL002", clean)


class TestRL003AsyncPurity:
    def test_flags_time_sleep_in_async_def(self):
        assert findings_for(
            "RL003",
            """
            import time

            async def handler():
                time.sleep(1)
            """,
            path="service/x.py",
        )

    def test_flags_future_result_and_open(self):
        findings = findings_for(
            "RL003",
            """
            async def handler(future):
                data = open("f").read()
                return future.result()
            """,
            path="workloads/x.py",
        )
        assert len(findings) == 2

    def test_flags_subprocess(self):
        assert findings_for(
            "RL003",
            """
            import subprocess

            async def handler():
                subprocess.run(["ls"])
            """,
            path="service/x.py",
        )

    def test_sync_helpers_inside_async_are_exempt(self):
        clean = """
            import asyncio

            async def handler(loop, future):
                def drain():
                    return future.result()
                await asyncio.sleep(0)
                return await loop.run_in_executor(None, drain)
        """
        assert not findings_for("RL003", clean, path="service/x.py")

    def test_out_of_scope_files_are_not_checked(self):
        violating = """
            import time

            async def helper():
                time.sleep(1)
        """
        assert not findings_for("RL003", violating, path="model/x.py")

    def test_obs_tier_is_in_scope(self):
        # The metrics hub's periodic task shares the event loop with the
        # batcher; a blocking call in obs/ stalls both.
        violating = """
            import time

            async def ticker():
                time.sleep(1)
        """
        assert findings_for("RL003", violating, path="obs/hub.py")


class TestRL004SelectionDiscipline:
    def test_flags_plain_global_selection_state(self):
        findings = findings_for(
            "RL004",
            """
            _active_backend = None

            def set_backend(backend):
                global _active_backend
                _active_backend = backend
            """,
        )
        # Both the module-level assignment and the `global` rebinding fire.
        assert len(findings) == 2

    def test_contextvar_selection_is_the_idiom(self):
        clean = """
            from contextvars import ContextVar

            _selection = ContextVar("repro.backend", default="numpy")

            def use_backend(name):
                return _selection.set(name)
        """
        assert not findings_for("RL004", clean)

    def test_unrelated_globals_pass(self):
        clean = """
            _cache_limit = 64

            def grow():
                global _cache_limit
                _cache_limit *= 2
        """
        assert not findings_for("RL004", clean)


class TestRL005ChunkingDiscipline:
    def test_flags_direct_kernel_call_outside_engine(self):
        assert findings_for(
            "RL005",
            """
            from repro.engine import kernels

            def render(coords, powers, pts, noise, alpha):
                return kernels.sinr_matrix(coords, powers, pts, noise, alpha)
            """,
            path="model/x.py",
        )

    def test_flags_from_import_of_entry_kernel(self):
        assert findings_for(
            "RL005",
            "from repro.engine.kernels import heard_station\n",
            path="raster/x.py",
        )

    def test_flags_helper_kernel_use_outside_engine(self):
        # Helpers allocate (n, m) temporaries too: the nearest-station argmin
        # of two locators once bypassed the chunk budget this way.
        violating = """
            from repro.engine import kernels

            def distances(coords, pts):
                return kernels.pairwise_squared_distances(coords, pts)
        """
        assert findings_for("RL005", violating, path="model/x.py")

    def test_flags_kernels_reached_through_the_package(self):
        violating = """
            import repro.engine

            def distances(coords, pts):
                return repro.engine.kernels.pairwise_squared_distances(coords, pts)
        """
        assert len(findings_for("RL005", violating, path="model/x.py")) == 1

    def test_flags_backend_method_called_on_a_resolved_backend(self):
        direct = """
            from ..engine.backend import get_backend

            def locate(network, pts):
                return get_backend().received_mask_matrix(
                    network.coords, network.powers_array(), pts,
                    network.noise, network.beta, network.alpha,
                )
        """
        assert findings_for("RL005", direct, path="pointlocation/x.py")
        bound = """
            from repro.engine import active_backend

            def heard(network, pts):
                engine = active_backend()
                return engine.heard_station(
                    network.coords, network.powers_array(), pts,
                    network.noise, network.beta, network.alpha, -1,
                )
        """
        assert findings_for("RL005", bound, path="raster/x.py")
        nearest = """
            from repro.engine import get_backend

            def locate(network, pts):
                backend = get_backend("float32-screen")
                return backend.nearest_received(
                    network.coords, network.powers_array(), pts,
                    network.noise, network.beta, network.alpha, -1,
                )
        """
        assert findings_for("RL005", nearest, path="pointlocation/x.py")

    def test_backend_method_list_matches_the_protocol(self):
        from repro.engine import QueryBackend
        from repro.lint.rules import _BACKEND_METHODS

        declared = {
            name
            for name, value in vars(QueryBackend).items()
            if callable(value) and not name.startswith("_")
        }
        assert _BACKEND_METHODS == declared

    def test_batch_api_and_backend_pinning_pass(self):
        clean = """
            from repro.engine import active_backend
            from repro.engine.batch import (
                nearest_received_batch, received_at, sinr_batch,
            )

            def render(network, pts, candidates):
                backend = active_backend()
                values = sinr_batch(network, pts, backend=backend)
                nearest = nearest_received_batch(network, pts, backend=backend)
                return values, nearest, received_at(network, candidates, pts)
        """
        assert not findings_for("RL005", clean, path="raster/x.py")

    def test_engine_internals_are_in_scope_for_kernels(self):
        violating = """
            from repro.engine import kernels

            def run(coords, powers, pts, noise, alpha):
                return kernels.sinr_matrix(coords, powers, pts, noise, alpha)
        """
        assert not findings_for("RL005", violating, path="engine/x.py")


class TestRL006SeededRng:
    def test_flags_global_rng_attribute_calls(self):
        assert findings_for(
            "RL006",
            """
            import numpy as np

            def jitter(n):
                return np.random.rand(n)
            """,
        )

    def test_flags_global_rng_from_import(self):
        assert findings_for("RL006", "from numpy.random import shuffle\n")

    def test_generator_idiom_passes(self):
        clean = """
            import numpy as np

            def jitter(n, rng=None):
                rng = np.random.default_rng(0) if rng is None else rng
                return rng.random(n)
        """
        assert not findings_for("RL006", clean)


class TestRL007MutableDefaults:
    def test_flags_literal_and_constructor_defaults(self):
        findings = findings_for(
            "RL007",
            """
            def f(items=[]):
                return items

            def g(*, table=dict()):
                return table
            """,
        )
        assert len(findings) == 2

    def test_none_and_tuple_defaults_pass(self):
        clean = """
            def f(items=None, pair=(), name="x"):
                return items or list(pair)
        """
        assert not findings_for("RL007", clean)


class TestRL008Float32Containment:
    def test_flags_float32_outside_precision_tier(self):
        assert findings_for(
            "RL008",
            """
            import numpy as np

            def shrink(a):
                return a.astype(np.float32)
            """,
            path="model/x.py",
        )

    def test_flags_cached_view_access_outside_tier(self):
        assert findings_for(
            "RL008",
            "def f(network):\n    return network.coords32\n",
            path="service/x.py",
        )

    def test_precision_tier_files_are_exempt(self):
        violating = "def f(a, np):\n    return a.astype(np.float32)\n"
        assert not findings_for(
            "RL008", violating, path="engine/mixed_precision.py"
        )

    def test_names_mentioning_the_tier_pass(self):
        clean = """
            from repro.engine.mixed_precision import Float32ScreenBackend

            def make():
                return Float32ScreenBackend()
        """
        assert not findings_for("RL008", clean, path="model/x.py")


class TestRL009EnvRegistry:
    def test_flags_os_environ_and_getenv(self):
        findings = findings_for(
            "RL009",
            """
            import os

            def knobs():
                first = os.environ.get("X")
                return first, os.getenv("Y")
            """,
        )
        assert len(findings) == 2

    def test_flags_from_import(self):
        assert findings_for("RL009", "from os import environ\n")

    def test_env_module_is_the_one_allowed_reader(self):
        violating = "import os\nVALUE = os.environ.get('X')\n"
        assert not findings_for("RL009", violating, path="env.py")

    def test_other_os_use_passes(self):
        clean = "import os\nWORKERS = os.cpu_count()\n"
        assert not findings_for("RL009", clean)


class TestRL010UnifiedRuntime:
    def test_flags_contextvar_construction(self):
        findings = findings_for(
            "RL010",
            """
            from contextvars import ContextVar

            _active = ContextVar("active", default=None)
            """,
        )
        assert len(findings) == 1
        assert "Registry" in findings[0].message

    def test_flags_module_qualified_contextvar(self):
        assert findings_for(
            "RL010",
            """
            import contextvars

            _sel = contextvars.ContextVar("sel")
            """,
        )

    def test_copy_context_stays_allowed(self):
        clean = """
        import contextvars

        def capture():
            return contextvars.copy_context()
        """
        assert not findings_for("RL010", clean)

    def test_flags_hand_rolled_start_stop_pair(self):
        findings = findings_for(
            "RL010",
            """
            class Widget:
                async def start(self):
                    self._running = True

                async def stop(self):
                    self._running = False
            """,
        )
        assert len(findings) == 1
        assert "Component" in findings[0].message

    def test_single_start_or_stop_passes(self):
        clean = """
        class Stopwatch:
            def stop(self) -> int:
                return 0
        """
        assert not findings_for("RL010", clean)

    def test_runtime_package_is_exempt(self):
        violating = """
        from contextvars import ContextVar

        _sel = ContextVar("sel")

        class Component:
            async def start(self): ...
            async def stop(self): ...
        """
        assert not findings_for("RL010", violating, path="runtime/component.py")


class TestParseErrors:
    def test_unparseable_file_is_one_rl000_finding(self):
        findings = check_source("def broken(:\n", "somewhere/x.py")
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]
        assert "does not parse" in findings[0].message


class TestSuppression:
    def test_inline_disable_silences_the_named_rule_on_that_line(self):
        source = 'raise RuntimeError("boom")  # reprolint: disable=RL001\n'
        assert not findings_for("RL001", source)

    def test_inline_disable_is_rule_specific(self):
        source = 'raise RuntimeError("boom")  # reprolint: disable=RL007\n'
        assert findings_for("RL001", source)

    def test_inline_disable_is_line_specific(self):
        source = (
            'raise RuntimeError("a")  # reprolint: disable=RL001\n'
            'raise RuntimeError("b")\n'
        )
        findings = findings_for("RL001", source)
        assert [f.line for f in findings] == [2]

    def test_file_wide_disable(self):
        source = (
            "# reprolint: disable-file=RL001\n"
            'raise RuntimeError("a")\n'
            'raise RuntimeError("b")\n'
        )
        assert not findings_for("RL001", source)

    def test_disable_accepts_a_comma_list(self):
        source = (
            "def f(x=[]):  # reprolint: disable=RL007, RL001\n"
            "    raise RuntimeError('boom')\n"
        )
        findings = check_source(source, "somewhere/x.py")
        assert {f.rule for f in findings} == {"RL001"}  # line 2 not suppressed


VIOLATING_MODULE = 'raise RuntimeError("boom")\n'


class TestBaseline:
    def _write_violation(self, tmp_path: Path) -> Path:
        target = tmp_path / "repro" / "scratch.py"
        target.parent.mkdir()
        target.write_text(VIOLATING_MODULE)
        return target

    def test_baseline_entry_absorbs_a_matching_finding(self, tmp_path):
        target = self._write_violation(tmp_path)
        entry = BaselineEntry(
            rule="RL001",
            path="repro/scratch.py",
            line_text='raise RuntimeError("boom")',
            justification="fixture justification for the round-trip test",
        )
        report = run_lint([target], baseline=[entry])
        assert report.clean
        assert len(report.baselined) == 1

    def test_baseline_survives_line_drift_but_not_text_drift(self, tmp_path):
        target = self._write_violation(tmp_path)
        target.write_text("# a new comment pushes the line down\n" + VIOLATING_MODULE)
        entry = BaselineEntry(
            rule="RL001",
            path="repro/scratch.py",
            line_text='raise RuntimeError("boom")',
            justification="fixture justification for the drift test",
        )
        assert run_lint([target], baseline=[entry]).clean
        # Different line text: the entry no longer matches.
        target.write_text('raise RuntimeError("rewritten")\n')
        assert not run_lint([target], baseline=[entry]).clean

    def test_load_baseline_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "rule": "RL001",
                        "path": "repro/scratch.py",
                        "line_text": 'raise RuntimeError("boom")',
                        "justification": "written reason for keeping this",
                    }
                ]
            )
        )
        entries = load_baseline(path)
        assert entries == [
            BaselineEntry(
                rule="RL001",
                path="repro/scratch.py",
                line_text='raise RuntimeError("boom")',
                justification="written reason for keeping this",
            )
        ]

    def test_load_baseline_rejects_empty_justification(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "rule": "RL001",
                        "path": "x.py",
                        "line_text": "raise RuntimeError()",
                        "justification": "   ",
                    }
                ]
            )
        )
        with pytest.raises(LintError):
            load_baseline(path)

    def test_load_baseline_rejects_missing_keys_and_bad_json(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps([{"rule": "RL001"}]))
        with pytest.raises(LintError):
            load_baseline(path)
        path.write_text("{not json")
        with pytest.raises(LintError):
            load_baseline(path)


class TestCli:
    def _violating_file(self, tmp_path: Path) -> Path:
        target = tmp_path / "bad.py"
        target.write_text(VIOLATING_MODULE)
        return target

    def _clean_file(self, tmp_path: Path) -> Path:
        target = tmp_path / "good.py"
        target.write_text("from repro.exceptions import ReproError\n")
        return target

    def test_clean_path_exits_zero(self, tmp_path):
        out = StringIO()
        assert main([str(self._clean_file(tmp_path))], out=out) == EXIT_CLEAN
        assert "OK:" in out.getvalue()

    def test_findings_exit_one_with_location_lines(self, tmp_path):
        target = self._violating_file(tmp_path)
        out = StringIO()
        assert main([str(target)], out=out) == EXIT_FINDINGS
        text = out.getvalue()
        assert f"{target.as_posix()}:1: RL001" in text
        assert "FAIL:" in text

    def test_json_output_is_machine_readable(self, tmp_path):
        target = self._violating_file(tmp_path)
        out = StringIO()
        assert main([str(target), "--json"], out=out) == EXIT_FINDINGS
        payload = json.loads(out.getvalue())
        assert payload["clean"] is False
        assert payload["checked_files"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "RL001"
        assert finding["line"] == 1
        assert finding["line_text"] == 'raise RuntimeError("boom")'

    def test_select_restricts_the_rule_set(self, tmp_path):
        target = self._violating_file(tmp_path)
        out = StringIO()
        assert main([str(target), "--select", "RL007"], out=out) == EXIT_CLEAN

    def test_unknown_rule_id_is_a_usage_error(self, tmp_path):
        target = self._clean_file(tmp_path)
        assert main([str(target), "--select", "RL999"], out=StringIO()) == EXIT_USAGE

    def test_missing_path_is_a_usage_error(self, tmp_path):
        missing = tmp_path / "does-not-exist"
        assert main([str(missing)], out=StringIO()) == EXIT_USAGE

    def test_custom_baseline_flag(self, tmp_path):
        target = self._violating_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                [
                    {
                        "rule": "RL001",
                        "path": "bad.py",
                        "line_text": 'raise RuntimeError("boom")',
                        "justification": "cli round-trip fixture entry",
                    }
                ]
            )
        )
        out = StringIO()
        code = main([str(target), "--baseline", str(baseline)], out=out)
        assert code == EXIT_CLEAN
        assert "1 baselined" in out.getvalue()
        # --no-baseline must surface it again.
        assert main([str(target), "--no-baseline"], out=StringIO()) == EXIT_FINDINGS

    def test_list_rules_prints_every_contract(self):
        out = StringIO()
        assert main(["--list-rules"], out=out) == EXIT_CLEAN
        text = out.getvalue()
        for cls in ALL_RULE_CLASSES:
            assert cls.rule_id in text

    def test_module_entry_point_subprocess(self, tmp_path):
        """``python -m repro.lint`` works as the CI leg invokes it."""
        target = self._clean_file(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(target)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == EXIT_CLEAN, result.stderr
        assert "OK:" in result.stdout
