"""reprolint — AST-checked invariants of the repro codebase.

Six PRs of growth left the system's load-bearing contracts — lock
discipline, contextvar-only selection, chunk-budgeted kernel entry, float32
containment, the exception taxonomy — implicit in docstrings.  This package
turns them into machine-checked rules, in the spirit of encoding protocol
invariants in a decidable fragment so a tool (not a reviewer) certifies
them.  The rule matrix:

======  ====================  =============================================
Rule    Contract              Guards
======  ====================  =============================================
RL001   exception taxonomy    ``except ReproError`` catches every library
                              failure (``repro/exceptions.py`` split)
RL002   lock discipline       ``TileCache`` counters/store, both registries:
                              attrs written under ``self._lock`` stay there
RL003   async purity          the service tier: no ``time.sleep`` /
                              ``Future.result()`` / ``subprocess`` /
                              ``open()`` on the event loop
RL004   selection discipline  backend/locator selection is a ``ContextVar``
                              (the module-global leak PR 2 fixed)
RL005   chunking discipline   kernels and backend methods only via
                              ``repro.engine.batch`` (chunk byte budget)
RL006   seeded RNG            reproducibility: pass a ``Generator``, never
                              the global ``numpy.random`` state
RL007   mutable defaults      no shared-across-calls default objects
RL008   float32 containment   the precision tier's exact-by-construction
                              guarantee
RL009   env-var registry      every knob declared in :mod:`repro.env`,
                              hence enumerable
RL010   one runtime           registries and lifecycles build on
                              :mod:`repro.runtime` — no raw ``ContextVar``
                              construction, no ad-hoc ``start``/``stop``
                              pair outside ``runtime/``
======  ====================  =============================================

Run it as ``python -m repro.lint [paths]`` (exit 0 = clean; ``--json`` for
machine output, ``--list-rules`` for the contracts).  Suppress one finding
with ``# reprolint: disable=RLxxx`` on its line, a whole file with
``# reprolint: disable-file=RLxxx``, or add a justified entry to the
committed ``baseline.json``.  The tier-1 suite pins ``src/repro`` at zero
live findings (``tests/test_lint_clean.py``), so a contract violation fails
CI the same way a broken unit test does.
"""

from __future__ import annotations

from .core import (
    BaselineEntry,
    FileContext,
    Finding,
    LintReport,
    Rule,
    check_source,
    load_baseline,
    package_relative,
    run_lint,
)
from .rules import ALL_RULE_CLASSES, default_rules, rule_by_id

__all__ = [
    "BaselineEntry",
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "check_source",
    "load_baseline",
    "package_relative",
    "run_lint",
    "ALL_RULE_CLASSES",
    "default_rules",
    "rule_by_id",
]
