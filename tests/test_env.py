"""The environment knobs and the README inventories that list them.

The project honours two environment knobs, both read by the benchmark
harness (``benchmarks/persist.py``); the library reads none.  These tests
pin that the README and everything around it agree: every ``REPRO_*``
name the code, benchmarks, examples, CI and README mention is one of the
two, and the README knob table lists both as unset by default.  The
README's backend table and install lines are pinned the same way, against
the registered backends and the extras ``setup.py`` declares.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

from repro.engine import available_backends

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "benchmarks"))

import persist  # noqa: E402  (needs the benchmarks/ dir on sys.path first)

#: The knobs ``persist`` reads: the only environment variables honoured.
KNOBS = {persist.BENCH_QUICK, persist.BENCH_MIN_SPEEDUP}

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
    def test_every_referenced_knob_name_is_one_persist_reads(self):
        unknown = {
            name: str(path)
            for name, path in referenced_knob_names().items()
            # ``REPRO_BENCH_*``-style prefixes must prefix a knob.
            if not (
                name in KNOBS
                or (name.endswith("_") and any(k.startswith(name) for k in KNOBS))
            )
        }
        assert unknown == {}


class TestReadmeTable:
    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_table_lists_the_knob_as_unset_by_default(self, name):
        rows = readme_knob_rows()
        assert name in rows, f"README knob table is missing {name}"
        assert rows[name] == "unset"

    def test_table_lists_no_other_knob(self):
        assert set(readme_knob_rows()) <= KNOBS


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

