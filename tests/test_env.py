"""The environment-knob inventory: declared once, honoured everywhere.

:data:`repro.env.KNOBS` is the one list of environment knobs the package
and its harnesses read.  These tests pin that the inventory and everything
around it agree: undeclared names cannot be read; every knob name the
code, benchmarks, examples, CI and README mention is declared; the README
knob table lists each declared knob with its declared default; and each
library knob's reader falls back to exactly that default — with a warning
naming the knob — on a malformed or non-positive value.  The README's
backend table and install lines are pinned the same way, against the
registered backends and the extras ``setup.py`` declares.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro import env
from repro.engine import available_backends
from repro.engine.batch import chunk_byte_budget
from repro.exceptions import ReproError
from repro.obs import MetricsHub
from repro.runtime import drain_timeout

REPO = Path(__file__).resolve().parent.parent

#: Library knob -> (reader, parser of the declared default).
LIBRARY_READERS = {
    env.ENGINE_CHUNK_BYTES: (chunk_byte_budget, int),
    env.SERVICE_DRAIN_TIMEOUT: (drain_timeout, float),
    env.METRICS_INTERVAL: (lambda: MetricsHub().interval, float),
}

KNOB_NAME = re.compile(r"\bREPRO_[A-Z0-9_]+")


def referenced_knob_names():
    """Every ``REPRO_*`` name mentioned by code, harnesses, CI and README."""
    paths = [REPO / "README.md"]
    for folder in ("src", "benchmarks", "examples", "perfbench"):
        paths.extend(sorted((REPO / folder).rglob("*.py")))
    paths.extend(sorted((REPO / ".github").rglob("*.yml")))
    names = {}
    for path in paths:
        for match in KNOB_NAME.finditer(path.read_text(encoding="utf-8")):
            names.setdefault(match.group(0), path.relative_to(REPO))
    return names


def readme_knob_rows():
    rows = {}
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) >= 3 and re.fullmatch(r"`REPRO_[A-Z0-9_]+`", cells[0]):
            rows[cells[0].strip("`")] = cells[1]
    return rows


class TestInventory:
    def test_undeclared_names_cannot_be_read(self):
        with pytest.raises(ReproError, match="undeclared environment knob"):
            env.read_knob("REPRO_NOT_A_KNOB")

    def test_unset_knob_reads_the_callers_default(self, monkeypatch):
        monkeypatch.delenv(env.BENCH_MIN_SPEEDUP, raising=False)
        assert env.read_knob(env.BENCH_MIN_SPEEDUP, "fallback") == "fallback"

    def test_module_constants_name_exactly_the_declared_knobs(self):
        constants = {
            getattr(env, name)
            for name in env.__all__
            if name.isupper() and isinstance(getattr(env, name), str)
        }
        assert constants == set(env.KNOBS)

    @pytest.mark.parametrize("name", sorted(env.KNOBS))
    def test_declared_knob_is_namespaced_and_described(self, name):
        knob = env.KNOBS[name]
        assert knob.name == name and name.startswith("REPRO_")
        assert knob.description.strip()

    def test_every_referenced_knob_name_is_declared(self):
        undeclared = {
            name: str(path)
            for name, path in referenced_knob_names().items()
            # ``REPRO_BENCH_*``-style prefixes must prefix a declared knob.
            if not (
                name in env.KNOBS
                or (name.endswith("_") and any(k.startswith(name) for k in env.KNOBS))
            )
        }
        assert undeclared == {}


class TestReadmeTable:
    @pytest.mark.parametrize("name", sorted(env.KNOBS))
    def test_table_lists_the_knob_with_its_declared_default(self, name):
        rows = readme_knob_rows()
        assert name in rows, f"README knob table is missing {name}"
        default = env.KNOBS[name].default
        if default:
            assert f"`{default}`" in rows[name]
        else:
            assert rows[name] == "unset"

    def test_table_lists_no_undeclared_knob(self):
        assert set(readme_knob_rows()) <= set(env.KNOBS)


def readme_table_names(header: str):
    """Backticked first-column names of the README table headed ``header``."""
    names, in_table = [], False
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        first = line.strip().strip("|").split("|")[0].strip()
        if not line.startswith("|"):
            in_table = False
        elif first == header:
            in_table = True
        elif in_table and re.fullmatch(r"`[^`]+`", first):
            names.append(first.strip("`"))
    return names


def setup_extras():
    """The extras ``setup.py`` declares in ``extras_require``."""
    tree = ast.parse((REPO / "setup.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "extras_require":
            return {key.value for key in node.value.keys}
    raise AssertionError("setup.py declares no extras_require")


class TestReadmeInventories:
    def test_backend_table_and_install_extras_match_the_code(self):
        assert sorted(readme_table_names("Backend")) == sorted(available_backends())
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        extras = {
            extra.strip()
            for match in re.finditer(r'pip install -e "\.\[([^\]]*)\]"', readme)
            for extra in match.group(1).split(",")
        }
        assert extras and extras <= setup_extras()


class TestLibraryReaders:
    @pytest.mark.parametrize("name", sorted(LIBRARY_READERS))
    def test_unset_knob_yields_the_declared_default(self, monkeypatch, name):
        reader, parse = LIBRARY_READERS[name]
        monkeypatch.delenv(name, raising=False)
        assert reader() == parse(env.KNOBS[name].default)

    @pytest.mark.parametrize("raw", ["junk", "0", "-1"])
    @pytest.mark.parametrize("name", sorted(LIBRARY_READERS))
    def test_bad_value_warns_and_yields_the_declared_default(
        self, monkeypatch, name, raw
    ):
        reader, parse = LIBRARY_READERS[name]
        monkeypatch.setenv(name, raw)
        with pytest.warns(UserWarning, match=name):
            assert reader() == parse(env.KNOBS[name].default)
