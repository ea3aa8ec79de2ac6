"""Tier-1 gate: reprolint runs clean over ``src/repro``.

This is the enforcement half of the linter: the rules in
:mod:`repro.lint.rules` encode real project contracts (lock discipline,
chunk-budgeted kernel entry, float32 containment, ...), and this test pins
the tree at zero live findings so a violation fails the ordinary test
suite — no extra CI leg required for the contract to hold.  It also holds
the tree to pyflakes' unused-import check (F401), which ``ruff.toml``
selects, so that check fails the suite where ruff is not installed.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set, Tuple

from repro.lint import load_baseline, run_lint
from repro.lint.cli import DEFAULT_BASELINE

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def _report():
    baseline = load_baseline(DEFAULT_BASELINE) if DEFAULT_BASELINE.exists() else []
    return run_lint([SRC], baseline=baseline), baseline


def test_src_tree_has_zero_live_findings():
    report, _ = _report()
    details = "\n".join(finding.render() for finding in report.findings)
    assert report.clean, f"reprolint findings in src/repro:\n{details}"
    # Sanity: the run actually covered the tree (not an empty glob).
    assert report.checked_files > 50


def test_no_stale_baseline_entries():
    """Every baseline entry still matches a real finding.

    A baseline entry whose code was since fixed (or rewritten) is dead
    weight that could silently mask a *new* finding on a similar line, so
    staleness is itself an error.
    """
    report, baseline = _report()
    for entry in baseline:
        assert any(entry.matches(finding) for finding in report.baselined), (
            f"stale baseline entry: {entry.rule} at {entry.path} "
            f"({entry.line_text!r}) no longer matches any finding — remove it"
        )


def test_every_baseline_entry_is_justified():
    _, baseline = _report()
    for entry in baseline:
        assert len(entry.justification.split()) >= 8, (
            f"baseline entry {entry.rule} at {entry.path} needs a written "
            f"justification, not a token"
        )


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
