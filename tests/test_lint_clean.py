"""Tier-1 gate: the project invariants hold over ``src/repro``.

The ten rules of :mod:`invariants` encode real project contracts (lock
discipline, chunk-budgeted kernel entry, float32 containment, ...), and
this test pins the tree at zero findings so a violation fails the ordinary
test suite; one violation planted per rule in a real file in its scope
shows that the gate would see it.  It also holds the tree to pyflakes' unused-import check
(F401), which ``ruff.toml`` selects, so that check fails the suite where
ruff is not installed.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set, Tuple

import pytest

from invariants import RULES, check_source

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def _findings(path: Path, source: str) -> List[str]:
    """``path:line: RLxxx message`` of every finding in ``source``, checked
    as the ``src/repro`` file at ``path``."""
    return [
        f"{path.relative_to(REPO_ROOT).as_posix()}:{line}: {rule} {message}"
        for line, rule, message in check_source(
            source, path.relative_to(SRC).as_posix()
        )
    ]


def test_src_tree_has_zero_findings():
    """Every rule in scope, over every ``src/repro`` file; each finding is
    reported as ``path:line: RLxxx message``."""
    files = sorted(SRC.rglob("*.py"))
    # Sanity: the run actually covered the tree (not an empty glob).
    assert len(files) > 50
    findings = [
        finding
        for path in files
        for finding in _findings(path, path.read_text(encoding="utf-8"))
    ]
    assert not findings, "project invariant findings:\n" + "\n".join(findings)


#: Rule id -> (a real file in its scope, the class the plant goes into or
#: None for the module's end, a violating snippet).  The snippet's
#: violating line ends in ``# planted``.
PLANTS = {
    "RL001": ("model/delta.py", None, (
        "def _planted():\n"
        "    raise ValueError('planted')  # planted\n"
    )),
    "RL002": ("raster/cache.py", "TileCache", (
        "def _planted_reset(self):\n"
        "    self._hits = 0  # planted\n"
    )),
    "RL003": ("service/service.py", None, (
        "async def _planted(future):\n"
        "    return future.result()  # planted\n"
    )),
    "RL004": ("engine/backend.py", None, "_active_planted = None  # planted\n"),
    "RL005": ("model/sinr.py", None, (
        "from ..engine.kernels import pairwise_squared_distances  # planted\n"
    )),
    "RL006": ("workloads/generators.py", None, (
        "_planted = np.random.rand(3)  # planted\n"
    )),
    "RL007": ("geometry/polygon.py", None, (
        "def _planted(items=[]):  # planted\n"
        "    return items\n"
    )),
    "RL008": ("model/network.py", None, (
        "def _planted(a):\n"
        "    return a.astype(np.float32)  # planted\n"
    )),
    "RL009": ("engine/batch.py", None, (
        "import os\n"
        "_planted = os.environ.get('REPRO_PLANTED')  # planted\n"
    )),
    "RL010": ("service/stats.py", None, (
        "class _Planted:  # planted\n"
        "    def start(self):\n"
        "        pass\n"
        "\n"
        "    def stop(self):\n"
        "        pass\n"
    )),
}


def _plant(source: str, anchor, snippet: str) -> str:
    """``source`` with ``snippet`` added at the end of class ``anchor``
    (indented as a method), or at the module's end when ``anchor`` is None."""
    lines = source.splitlines(keepends=True)
    if anchor is None:
        return "".join(lines) + "\n\n" + snippet
    (cls,) = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == anchor
    ]
    body = "".join(
        "    " + line if line.strip() else line
        for line in ("\n" + snippet).splitlines(keepends=True)
    )
    return "".join(lines[: cls.end_lineno]) + body + "".join(lines[cls.end_lineno:])


def test_every_rule_has_a_plant():
    assert sorted(PLANTS) == sorted(RULES)


@pytest.mark.parametrize("rule", sorted(PLANTS))
def test_a_planted_violation_fails_the_gate(rule):
    """One violation planted in a real ``src/repro`` file in the rule's
    scope is reported by the gate's own reporting, with the rule id at the
    planted line: no rule's scope misses the tree it guards."""
    relpath, anchor, snippet = PLANTS[rule]
    path = SRC / relpath
    source = path.read_text(encoding="utf-8")
    assert not _findings(path, source)
    planted = _plant(source, anchor, snippet)
    (line,) = [
        number for number, text in enumerate(planted.splitlines(), 1)
        if text.endswith("# planted")
    ]
    findings = _findings(path, planted)
    assert [finding.split(" ", 2)[:2] for finding in findings] == [
        [f"src/repro/{relpath}:{line}:", rule]
    ], findings


def _names_in_strings(tree: ast.AST) -> Set[str]:
    """Names read from string annotations (also inside a subscript such as
    ``Union["Point", ...]``) and from ``__all__``, which pyflakes counts as
    uses of an import."""
    strings: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            strings.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            strings.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            strings.append(node.annotation)
        elif isinstance(node, ast.Subscript):
            strings.append(node.slice)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            strings.append(node.value)
    names: Set[str] = set()
    for root in strings:
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expression = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    name.id for name in ast.walk(expression)
                    if isinstance(name, ast.Name)
                )
    return names


def _unused_imports(path: Path) -> List[Tuple[int, str]]:
    """``(line, name)`` of every import bound to a name the module never
    reads, unless its line carries ``# noqa``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(alias.asname or alias.name.split(".")[0], alias)
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(alias.asname or alias.name, alias)
                     for alias in node.names if alias.name != "*"]
        else:
            continue
        bound += [(name, alias.lineno, node.lineno) for name, alias in names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _names_in_strings(tree)
    return [
        (line, name)
        for name, line, statement in bound
        if name not in used
        and "# noqa" not in lines[line - 1]
        and "# noqa" not in lines[statement - 1]
    ]


def test_src_modules_import_nothing_they_do_not_use():
    """Every ``src/repro`` module outside ``__init__.py`` (where imports
    re-export) reads every name it imports."""
    modules = [
        path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
    ]
    assert len(modules) > 50
    unused = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
        for path in modules
        for line, name in _unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_unused_import_check_sees_each_kind_of_use(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import math, cmath\n"
        "from typing import Optional, Sequence\n"
        "from json import dumps as to_json  # noqa: F401\n"
        "from shlex import quote\n"
        "__all__ = ['quote']\n"
        "from fractions import Fraction\n"
        "Number = Optional['Fraction']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    from re import escape\n"
        "    return os.path.join(math.pi)\n"
    )
    assert _unused_imports(module) == [(3, "cmath"), (4, "Sequence"), (11, "escape")]
