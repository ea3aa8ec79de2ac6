"""The project invariants: ten AST checks over one parsed ``src/repro`` file.

Each rule is a plain function from a parsed module to the ``(node,
message)`` pairs it flags; its docstring opens with the contract it
enforces.  :data:`RULES` pairs every rule id with its check and the
package-relative paths it inspects, and :func:`check_source` runs every
rule in scope over one file.  ``tests/test_lint_clean.py`` holds the whole
``src/repro`` tree at zero findings, so breaking a contract fails tier-1
like a broken unit test; ``tests/test_lint_rules.py`` holds a violating and
a conforming fixture per rule.

=======  ==============================================================
RL001    Every ``raise`` constructs a ``ReproError`` subclass,
         ``TypeError`` or ``NotImplementedError``.
RL002    Instance attributes ever written under ``with self._lock``
         in a class are never written outside one.
RL003    No blocking calls (``time.sleep``, ``Future.result()``,
         ``subprocess.*``, ``open``) inside ``async def`` bodies.
RL004    Backend/locator selection state lives in a ``ContextVar``,
         never a rebindable module global.
RL005    ``engine.kernels`` and backend methods are used only inside
         ``engine/`` (everyone else goes through the chunked
         ``engine.batch`` API).
RL006    No global-state ``numpy.random`` calls; pass a ``Generator``.
RL007    No mutable default arguments.
RL008    float32 state stays inside the precision tier.
RL009    No ``src/repro`` module reads the environment.
RL010    Registries and lifecycles build on :mod:`repro.runtime` — no
         raw ``ContextVar`` construction and no hand-rolled
         ``start``/``stop`` pair outside ``runtime/``.
=======  ==============================================================

The checks are pure AST — no import of the code under inspection — except
RL001, which reads the *names* of the exception taxonomy from
:mod:`repro.exceptions`, so the allowed set cannot drift from the real
hierarchy.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro import exceptions as taxonomy

#: What a check yields: the flagged node and the finding's message.
Flag = Tuple[ast.AST, str]

#: A rule's check: every flag it raises in one parsed module.
Check = Callable[[ast.Module], Iterator[Flag]]


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_table(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin, for every import in the file.

    Relative imports keep their leading dots (``from ..engine import
    kernels`` maps ``kernels`` to ``..engine.kernels``); resolution by the
    rules is suffix-based, so the dots never get in the way.
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return table


def _resolve(table: Dict[str, str], dotted: str) -> str:
    """Swap the head of ``dotted`` for its imported origin, if any."""
    head, separator, rest = dotted.partition(".")
    origin = table.get(head, head)
    return f"{origin}.{rest}" if separator else origin


# ---------------------------------------------------------------------------
# RL001 — exception taxonomy
# ---------------------------------------------------------------------------


def exception_taxonomy(tree: ast.Module) -> Iterator[Flag]:
    """Every raise in src/repro constructs a ReproError subclass, TypeError
    or NotImplementedError, so `except ReproError` catches every library
    failure (exceptions.py documents the split).

    A stray ``ValueError``/``RuntimeError`` silently escapes that net.
    Re-raising a caught exception object (``raise``, ``raise err``) is
    always allowed; lower-case names are assumed to be bound exception
    objects, capitalised non-taxonomy names are flagged.
    """
    allowed = {"TypeError", "NotImplementedError"}
    allowed.update(
        name
        for name, obj in vars(taxonomy).items()
        if isinstance(obj, type) and issubclass(obj, taxonomy.ReproError)
    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc
        if isinstance(target, ast.Call):
            name = _dotted_name(target.func)
            name = name.split(".")[-1] if name else None
        elif isinstance(target, ast.Name):
            name = target.id
        else:
            continue  # bare re-raise / attribute-held exception object
        # Lower-case names are bound exception objects or factories the
        # AST cannot see through; the taxonomy names are CapWords.
        if name is not None and name[:1].isupper() and name not in allowed:
            yield node, (
                f"raises {name}; raise a ReproError subclass (see "
                f"repro/exceptions.py), TypeError or NotImplementedError"
            )


# ---------------------------------------------------------------------------
# RL002 — lock discipline
# ---------------------------------------------------------------------------


def _is_self_lock(expr: ast.AST) -> bool:
    """``self.<something containing 'lock'>``."""
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and "lock" in expr.attr.lower()
    )


def _self_writes(node: ast.stmt) -> Iterator[Tuple[str, ast.AST]]:
    """Direct ``self.X = ...`` / ``del self.X`` writes of one statement."""
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
            continue
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            yield target.attr, target


def _child_bodies(node: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
    for name in ("body", "orelse", "finalbody"):
        block = getattr(node, name, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(node, "handlers", ()):
        yield handler.body


def _scan_writes(
    body: Sequence[ast.stmt],
    inside_lock: bool,
    method: str,
    locked: Set[str],
    unlocked: List[Tuple[str, str, ast.AST]],
) -> None:
    for node in body:
        entered = inside_lock
        if isinstance(node, (ast.With, ast.AsyncWith)):
            if any(_is_self_lock(item.context_expr) for item in node.items):
                entered = True
        for attr, site in _self_writes(node):
            if inside_lock:
                locked.add(attr)
            else:
                unlocked.append((method, attr, site))
        for child_body in _child_bodies(node):
            _scan_writes(child_body, entered, method, locked, unlocked)


def lock_discipline(tree: ast.Module) -> Iterator[Flag]:
    """An instance attribute written under `with self._lock` anywhere in a
    class is never written outside one (except __init__/__new__ and
    *_locked helpers, which run with the lock already held).

    Guards :class:`repro.raster.cache.TileCache` and the engine/locator
    registries: one unguarded write to a counter or the store is a silent
    race under the service's executor threads.  ``TileCache._insert_locked``
    is the ``*_locked`` pattern: its callers own the acquisition.
    """
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        locked: Set[str] = set()
        unlocked: List[Tuple[str, str, ast.AST]] = []
        for method in cls.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _scan_writes(method.body, False, method.name, locked, unlocked)
        for method_name, attr, node in unlocked:
            if attr not in locked or method_name in ("__init__", "__new__"):
                continue
            if method_name.endswith("_locked"):
                continue
            yield node, (
                f"self.{attr} is written under self._lock elsewhere in class "
                f"{cls.name!r} but written here without it (move it under the "
                f"lock, or into __init__ / a *_locked helper)"
            )


# ---------------------------------------------------------------------------
# RL003 — async purity
# ---------------------------------------------------------------------------


def _blocking_call(node: ast.Call, table: Dict[str, str]) -> Optional[str]:
    """The RL003 message for a blocking call, or None."""
    func = node.func
    dotted = _dotted_name(func)
    resolved = _resolve(table, dotted) if dotted else None
    if resolved == "time.sleep":
        return "time.sleep() blocks the event loop; await asyncio.sleep()"
    if resolved is not None and (
        resolved == "subprocess" or resolved.startswith("subprocess.")
    ):
        return (
            "subprocess calls block the event loop; use "
            "asyncio.create_subprocess_* or an executor"
        )
    if isinstance(func, ast.Name) and func.id == "open":
        return (
            "open() performs blocking I/O on the event loop; use an "
            "executor (loop.run_in_executor)"
        )
    if isinstance(func, ast.Attribute) and func.attr == "result":
        return (
            "Future.result() blocks the event loop; await the future (or "
            "resolve it on the dispatch thread)"
        )
    return None


def async_purity(tree: ast.Module) -> Iterator[Flag]:
    """Async def bodies in service/, workloads/ and obs/ never call
    time.sleep, subprocess.*, open() or Future.result() — blocking work
    belongs on the dispatch executor, awaits on the loop.

    One ``time.sleep`` or ``future.result()`` on the event loop stalls every
    batcher deadline and metrics tick at once.  Nested *sync* ``def``
    helpers are skipped — they are what the dispatch executor threads run.
    """
    table = _import_table(tree)
    for function in ast.walk(tree):
        if not isinstance(function, ast.AsyncFunctionDef):
            continue
        stack: List[ast.AST] = list(function.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # sync helpers run off-loop; nested async is walked too
            if isinstance(node, ast.Call):
                message = _blocking_call(node, table)
                if message is not None:
                    yield node, message
            stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# RL004 — selection discipline
# ---------------------------------------------------------------------------

_SELECTION_NAME = re.compile(r"(^|_)(selection|selected|active|current)(_|$)")


def _is_contextvar(value: Optional[ast.expr]) -> bool:
    if not isinstance(value, ast.Call):
        return False
    name = _dotted_name(value.func)
    return name is not None and name.split(".")[-1] == "ContextVar"


def selection_discipline(tree: ast.Module) -> Iterator[Flag]:
    """Module-global backend/locator selection state (names containing
    'selection'/'selected'/'active'/'current') must be a
    contextvars.ContextVar; `global` rebinding of such names is a
    cross-thread/task leak.

    A module-global active-backend variable leaks one thread's
    ``use_backend`` choice into every other thread and async task.
    """
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if _SELECTION_NAME.search(target.id) and not _is_contextvar(node.value):
                yield node, (
                    f"module-global selection state {target.id!r} must be "
                    f"a contextvars.ContextVar (per-thread/task isolation), "
                    f"not a plain global"
                )
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            for name in node.names:
                if _SELECTION_NAME.search(name):
                    yield node, (
                        f"`global {name}` rebinds selection state shared "
                        f"by every thread and async task; store it in a "
                        f"ContextVar instead"
                    )


# ---------------------------------------------------------------------------
# RL005 — chunking discipline
# ---------------------------------------------------------------------------

#: The QueryBackend protocol's methods: kernel calls that materialise
#: ``(n_stations, m)`` temporaries when made on a backend directly.
BACKEND_METHODS = frozenset(
    {
        "sinr_matrix",
        "received_mask_at",
        "nearest_received",
        "heard_station",
    }
)

#: Functions that hand out a backend object.
_BACKEND_GETTERS = frozenset({"get_backend", "active_backend"})


def _is_kernels_module(origin: str) -> bool:
    normalized = origin.lstrip(".")
    return normalized == "engine.kernels" or normalized.endswith(".engine.kernels")


def _imported_origins(node: ast.AST) -> List[str]:
    """The dotted origin of every name an import statement binds."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        prefix = "." * node.level + (node.module or "")
        return [f"{prefix}.{alias.name}" for alias in node.names]
    return []


def _gets_backend(node: Optional[ast.expr], table: Dict[str, str]) -> bool:
    """Is ``node`` a ``get_backend(...)`` / ``active_backend()`` call?"""
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted_name(node.func)
    if dotted is None:
        return False
    return _resolve(table, dotted).rpartition(".")[2] in _BACKEND_GETTERS


def chunking_discipline(tree: ast.Module) -> Iterator[Flag]:
    """No repro.engine.kernels use and no QueryBackend method call on a
    get_backend()/active_backend() result outside engine/ — use
    repro.engine.batch, which enforces the CHUNK_BYTES memory bound.

    ``repro.engine.batch`` tiles every query so kernel temporaries fit its
    fixed byte budget.  A kernel helper such as
    ``pairwise_squared_distances`` allocates ``(n, m)`` too, and a backend
    method called directly or through a name bound to a resolved backend
    bypasses the budget the same way.
    """
    table = _import_table(tree)
    backend_names = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _gets_backend(node.value, table)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        for origin in _imported_origins(node):
            if _is_kernels_module(origin) or _is_kernels_module(
                origin.rpartition(".")[0]
            ):
                yield node, (
                    f"importing {origin.lstrip('.')!r} outside engine/; "
                    f"call repro.engine.batch instead (chunk budget)"
                )
        if isinstance(node, ast.Attribute):
            dotted = _dotted_name(node)
            if dotted is not None and _is_kernels_module(_resolve(table, dotted)):
                yield node, (
                    "repro.engine.kernels used outside engine/; call "
                    "repro.engine.batch instead (chunk budget)"
                )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if node.func.attr in BACKEND_METHODS and (
                _gets_backend(receiver, table)
                or (isinstance(receiver, ast.Name) and receiver.id in backend_names)
            ):
                yield node, (
                    f"backend .{node.func.attr}() call bypasses the chunk "
                    f"byte budget; route through repro.engine.batch"
                )


# ---------------------------------------------------------------------------
# RL006 — seeded RNG
# ---------------------------------------------------------------------------

#: numpy.random names that do NOT touch the global BitGenerator.
_SEEDED_RANDOM_OK = frozenset(
    {
        "Generator",
        "default_rng",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


def seeded_rng(tree: ast.Module) -> Iterator[Flag]:
    """No global-state numpy.random calls in src/ (np.random.seed/rand/
    shuffle/...); take a numpy.random.Generator parameter, constructed via
    default_rng(seed).

    Workload generators and partitioners must be reproducible from an
    explicit seed; ``np.random.shuffle`` et al. mutate hidden process-wide
    state that any import can perturb.
    """
    table = _import_table(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            origin = ("." * node.level + (node.module or "")).lstrip(".")
            if origin == "numpy.random":
                for alias in node.names:
                    if alias.name not in _SEEDED_RANDOM_OK and alias.name != "*":
                        yield node, (
                            f"numpy.random.{alias.name} uses the global "
                            f"RNG; pass a seeded numpy.random.Generator"
                        )
        elif isinstance(node, ast.Attribute):
            dotted = _dotted_name(node)
            if dotted is None:
                continue
            parts = _resolve(table, dotted).split(".")
            if (
                len(parts) == 3
                and parts[:2] == ["numpy", "random"]
                and parts[2] not in _SEEDED_RANDOM_OK
            ):
                yield node, (
                    f"numpy.random.{parts[2]} uses the global RNG; pass a "
                    f"seeded numpy.random.Generator instead"
                )


# ---------------------------------------------------------------------------
# RL007 — mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "OrderedDict", "defaultdict", "deque",
     "Counter"}
)


def _is_mutable(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        return name is not None and name.split(".")[-1] in _MUTABLE_CONSTRUCTORS
    return False


def mutable_defaults(tree: ast.Module) -> Iterator[Flag]:
    """No list/dict/set (literal or constructor) default arguments — one
    default object is shared by every call; default to None and construct
    inside the function.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults)
        defaults.extend(d for d in node.args.kw_defaults if d is not None)
        for default in defaults:
            if _is_mutable(default):
                yield default, (
                    "mutable default argument is shared across calls; "
                    "default to None and build it inside the function"
                )


# ---------------------------------------------------------------------------
# RL008 — float32 containment
# ---------------------------------------------------------------------------

#: The one file allowed to hold float32 state: the screen tier, which casts
#: the station and point arrays it computes with on every call.
FLOAT32_FILES = frozenset({"engine/mixed_precision.py"})

_FLOAT32_TOKENS = frozenset({"float32", "coords32", "powers32"})


def float32_containment(tree: ast.Module) -> Iterator[Flag]:
    """float32/coords32/powers32 are referenced only by
    engine/mixed_precision.py — everything else computes in float64.

    The mixed-precision guarantee is *exact by construction*: float32 is a
    screen whose uncertain points are re-verified in float64.  That holds
    only while no other layer computes in float32.  Matching is on exact
    identifiers/attributes/keywords/string literals, so names that merely
    mention the tier (``Float32ScreenBackend``) pass.
    """
    for node in ast.walk(tree):
        token: Optional[str] = None
        if isinstance(node, ast.Name):
            token = node.id
        elif isinstance(node, ast.Attribute):
            token = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            token = node.value
        elif isinstance(node, (ast.keyword, ast.arg)):
            token = node.arg
        if token in _FLOAT32_TOKENS:
            yield node, (
                f"{token!r} outside the precision tier "
                f"({', '.join(sorted(FLOAT32_FILES))}); the exact-by-"
                f"construction guarantee depends on float32 containment"
            )


# ---------------------------------------------------------------------------
# RL009 — no environment reads
# ---------------------------------------------------------------------------

_ENVIRONMENT = ("environ", "getenv", "putenv")


def no_environment_reads(tree: ast.Module) -> Iterator[Flag]:
    """No src/repro module reads or writes the environment (os.environ,
    os.getenv, os.putenv): the library's behaviour is set by its
    arguments, and the benchmark knobs are read by benchmarks/persist.py.

    A stray ``os.environ.get`` is a knob no signature, doc table or sweep
    will ever see.
    """
    table = _import_table(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            origin = ("." * node.level + (node.module or "")).lstrip(".")
            if origin == "os":
                for alias in node.names:
                    if alias.name in _ENVIRONMENT:
                        yield node, (
                            f"importing os.{alias.name} in src/repro; the "
                            f"library reads no environment variable (pass "
                            f"the value as an argument)"
                        )
        elif isinstance(node, ast.Attribute):
            dotted = _dotted_name(node)
            if dotted is None:
                continue
            resolved = _resolve(table, dotted)
            if resolved in {f"os.{name}" for name in _ENVIRONMENT} or (
                resolved.startswith("os.environ.")
            ):
                yield node, (
                    f"{resolved} in src/repro; the library reads no "
                    f"environment variable (pass the value as an argument)"
                )


# ---------------------------------------------------------------------------
# RL010 — one runtime
# ---------------------------------------------------------------------------


def unified_runtime(tree: ast.Module) -> Iterator[Flag]:
    """Outside runtime/, no raw contextvars.ContextVar construction
    (instantiate a repro.runtime.Registry) and no class defining both
    start() and stop() (subclass repro.runtime.Component and implement
    _do_start/_do_stop).

    A raw ``ContextVar`` is the seed of an ad-hoc selection registry and a
    class with its own ``start``/``stop`` pair the seed of an ad-hoc
    lifecycle: exactly the machinery :mod:`repro.runtime` unified.
    ``contextvars.copy_context()`` — how the service tier ships selections
    to executor threads — is not a construction and stays allowed.
    """
    table = _import_table(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            resolved = _resolve(table, dotted)
            if resolved == "contextvars.ContextVar" or resolved.endswith(
                ".contextvars.ContextVar"
            ):
                yield node, (
                    "raw ContextVar construction outside runtime/ is an "
                    "ad-hoc selection registry; instantiate "
                    "repro.runtime.Registry instead"
                )
        elif isinstance(node, ast.ClassDef):
            methods = {
                member.name
                for member in node.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "start" in methods and "stop" in methods:
                yield node, (
                    f"class {node.name!r} defines its own start/stop pair "
                    f"outside runtime/; subclass repro.runtime.Component "
                    f"and implement _do_start/_do_stop so the lifecycle "
                    f"guards stay uniform"
                )


# ---------------------------------------------------------------------------
# the rule table
# ---------------------------------------------------------------------------


def _everywhere(relpath: str) -> bool:
    return True


#: Rule id -> (check, whether it inspects the file at a package-relative
#: path such as ``engine/batch.py``).
RULES: Dict[str, Tuple[Check, Callable[[str], bool]]] = {
    "RL001": (exception_taxonomy, _everywhere),
    "RL002": (lock_discipline, _everywhere),
    "RL003": (
        async_purity,
        lambda relpath: relpath.startswith(("service/", "workloads/", "obs/")),
    ),
    "RL004": (selection_discipline, _everywhere),
    "RL005": (chunking_discipline, lambda relpath: not relpath.startswith("engine/")),
    "RL006": (seeded_rng, _everywhere),
    "RL007": (mutable_defaults, _everywhere),
    "RL008": (float32_containment, lambda relpath: relpath not in FLOAT32_FILES),
    "RL009": (no_environment_reads, _everywhere),
    "RL010": (unified_runtime, lambda relpath: not relpath.startswith("runtime/")),
}


def check_source(source: str, relpath: str) -> List[Tuple[int, str, str]]:
    """``(line, rule id, message)`` of every finding in one file, sorted.

    ``relpath`` is the file's path inside the ``repro`` package, which
    decides the rules in scope.  One finding per rule and line; a file that
    does not parse is one ``RL000`` finding.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [(error.lineno or 1, "RL000", f"file does not parse: {error.msg}")]
    found: Dict[Tuple[int, str], str] = {}
    for rule_id, (check, in_scope) in RULES.items():
        if in_scope(relpath):
            for node, message in check(tree):
                found.setdefault((node.lineno, rule_id), message)
    return [(line, rule, message) for (line, rule), message in sorted(found.items())]
