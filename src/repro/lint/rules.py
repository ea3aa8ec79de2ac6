"""The project rules: ten machine-checked invariants of this codebase.

Each rule encodes a contract some subsystem's correctness depends on; the
table below (mirrored in the README and :mod:`repro.lint`) names the
subsystem that would break.  Rules are pure-AST — no imports of the code
under inspection — except RL001, which reads the *names* of the exception
taxonomy from :mod:`repro.exceptions` so the allowed set can never drift
from the real hierarchy.

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
RL009    ``os.environ`` is read only by :mod:`repro.env`.
RL010    Registries and lifecycles build on :mod:`repro.runtime` — no
         raw ``ContextVar`` construction and no hand-rolled
         ``start``/``stop`` pair outside ``runtime/``.
=======  ==============================================================
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import FileContext, Finding, Rule

__all__ = ["default_rules", "rule_by_id", "ALL_RULE_CLASSES"]


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


def _allowed_exception_names() -> Set[str]:
    """The raisable names: the live ReproError hierarchy + the documented split."""
    from .. import exceptions as taxonomy

    allowed = {"TypeError", "NotImplementedError"}
    for name, obj in vars(taxonomy).items():
        if isinstance(obj, type) and issubclass(obj, taxonomy.ReproError):
            allowed.add(name)
    return allowed


class ExceptionTaxonomyRule(Rule):
    """RL001: raises construct a ReproError subclass, TypeError or NotImplementedError.

    The package-wide contract from :mod:`repro.exceptions`: callers separate
    library failures from programming errors with a single ``except
    ReproError``.  A stray ``ValueError``/``RuntimeError`` silently escapes
    that net.  Re-raising a caught exception object (``raise``, ``raise
    err``) is always allowed; lower-case names are assumed to be bound
    exception objects, capitalised non-taxonomy names are flagged.
    """

    rule_id = "RL001"
    title = "exception taxonomy"
    contract = (
        "every raise in src/repro constructs a ReproError subclass, TypeError "
        "or NotImplementedError, so `except ReproError` catches every library "
        "failure (exceptions.py documents the split)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        allowed = _allowed_exception_names()
        for node in ast.walk(ctx.tree):
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
                yield self.finding(
                    node,
                    f"raises {name}; raise a ReproError subclass (see "
                    f"repro/exceptions.py), TypeError or NotImplementedError",
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


class LockDisciplineRule(Rule):
    """RL002: attributes ever written under ``with self._lock`` stay under it.

    Guards :class:`repro.raster.cache.TileCache` and the engine/locator
    registries: one unguarded write to a counter or the store is a silent
    race under the service's executor threads.  ``__init__``/``__new__``
    may initialise freely, and helpers named ``*_locked`` are treated as
    running with the lock held (their callers own the acquisition —
    ``TileCache._insert_locked`` is the pattern).
    """

    rule_id = "RL002"
    title = "lock discipline"
    contract = (
        "an instance attribute written under `with self._lock` anywhere in a "
        "class is never written outside one (except __init__/__new__ and "
        "*_locked helpers, which run with the lock already held)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(ctx, cls)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        locked: Set[str] = set()
        unlocked: List[Tuple[str, str, ast.AST]] = []
        for method in cls.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan(method.body, inside_lock=False, method=method.name,
                           locked=locked, unlocked=unlocked)
        for method_name, attr, node in unlocked:
            if attr not in locked:
                continue
            if method_name in ("__init__", "__new__"):
                continue
            if method_name.endswith("_locked"):
                continue
            yield self.finding(
                node,
                f"self.{attr} is written under self._lock elsewhere in class "
                f"{cls.name!r} but written here without it (move it under the "
                f"lock, or into __init__ / a *_locked helper)",
            )

    def _scan(
        self,
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
            for attr, site in self._writes(node):
                if inside_lock:
                    locked.add(attr)
                else:
                    unlocked.append((method, attr, site))
            for child_body in self._child_bodies(node):
                self._scan(child_body, entered, method, locked, unlocked)

    @staticmethod
    def _child_bodies(node: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block
        for handler in getattr(node, "handlers", ()):
            yield handler.body

    @staticmethod
    def _writes(node: ast.stmt) -> Iterator[Tuple[str, ast.AST]]:
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


# ---------------------------------------------------------------------------
# RL003 — async purity
# ---------------------------------------------------------------------------


class AsyncPurityRule(Rule):
    """RL003: no blocking calls directly inside ``async def`` bodies.

    Scoped to ``service/``, ``workloads/`` and ``obs/`` (the asyncio tier):
    one ``time.sleep`` or ``future.result()`` on the event loop stalls every
    batcher deadline and metrics tick at once.  Nested *sync* ``def``
    helpers are skipped — they are what the dispatch executor threads run.
    """

    rule_id = "RL003"
    title = "async purity"
    contract = (
        "async def bodies in service/, workloads/ and obs/ never call "
        "time.sleep, subprocess.*, open() or Future.result() — blocking work "
        "belongs on the dispatch executor, awaits on the loop"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(("service/", "workloads/", "obs/"))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        table = _import_table(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._scan_async_body(ctx, node.body, table)

    def _scan_async_body(
        self, ctx: FileContext, body: Sequence[ast.stmt], table: Dict[str, str]
    ) -> Iterator[Finding]:
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # sync helpers run off-loop; nested async walked by check()
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, table)
            stack.extend(ast.iter_child_nodes(node))

    def _check_call(
        self, ctx: FileContext, node: ast.Call, table: Dict[str, str]
    ) -> Iterator[Finding]:
        func = node.func
        dotted = _dotted_name(func)
        resolved = _resolve(table, dotted) if dotted else None
        if resolved == "time.sleep":
            yield self.finding(
                node, "time.sleep() blocks the event loop; await asyncio.sleep()"
            )
        elif resolved is not None and (
            resolved == "subprocess" or resolved.startswith("subprocess.")
        ):
            yield self.finding(
                node,
                "subprocess calls block the event loop; use "
                "asyncio.create_subprocess_* or an executor",
            )
        elif isinstance(func, ast.Name) and func.id == "open":
            yield self.finding(
                node,
                "open() performs blocking I/O on the event loop; use an "
                "executor (loop.run_in_executor)",
            )
        elif isinstance(func, ast.Attribute) and func.attr == "result":
            yield self.finding(
                node,
                "Future.result() blocks the event loop; await the future (or "
                "resolve it on the dispatch thread)",
            )


# ---------------------------------------------------------------------------
# RL004 — selection discipline
# ---------------------------------------------------------------------------

_SELECTION_NAME = re.compile(r"(^|_)(selection|selected|active|current)(_|$)")


class SelectionDisciplineRule(Rule):
    """RL004: selection state is a ContextVar, never a rebindable global.

    The exact bug class PR 2 fixed: a module-global active-backend variable
    leaks one thread's ``use_backend`` choice into every other thread and
    async task.  Flags module-level selection-named assignments whose value
    is not ``ContextVar(...)``, and any ``global`` rebinding of a
    selection-named variable.
    """

    rule_id = "RL004"
    title = "selection discipline"
    contract = (
        "module-global backend/locator selection state (names containing "
        "'selection'/'selected'/'active'/'current') must be a "
        "contextvars.ContextVar; `global` rebinding of such names is a "
        "cross-thread/task leak"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if not _SELECTION_NAME.search(target.id):
                    continue
                if not self._is_contextvar(node.value):
                    yield self.finding(
                        node,
                        f"module-global selection state {target.id!r} must be "
                        f"a contextvars.ContextVar (per-thread/task isolation), "
                        f"not a plain global",
                    )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if _SELECTION_NAME.search(name):
                        yield self.finding(
                            node,
                            f"`global {name}` rebinds selection state shared "
                            f"by every thread and async task; store it in a "
                            f"ContextVar instead",
                        )

    @staticmethod
    def _is_contextvar(value: Optional[ast.expr]) -> bool:
        if not isinstance(value, ast.Call):
            return False
        name = _dotted_name(value.func)
        return name is not None and name.split(".")[-1] == "ContextVar"


# ---------------------------------------------------------------------------
# RL005 — chunking discipline
# ---------------------------------------------------------------------------

#: The QueryBackend protocol's methods: kernel calls that materialise
#: ``(n_stations, m)`` temporaries when made on a backend directly.
_BACKEND_METHODS = frozenset(
    {
        "energy_matrix",
        "sinr_matrix",
        "strongest_station",
        "received_mask_matrix",
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


class ChunkingDisciplineRule(Rule):
    """RL005: kernels and backends are reached only through ``engine.batch``.

    ``repro.engine.batch`` tiles every query so kernel temporaries fit
    ``REPRO_ENGINE_CHUNK_BYTES``.  Outside ``engine/`` nothing may use
    ``repro.engine.kernels`` at all (a helper such as
    ``pairwise_squared_distances`` allocates ``(n, m)`` too), nor call a
    ``QueryBackend`` method on a ``get_backend(...)`` / ``active_backend()``
    result — directly or through a name bound to one — which bypasses the
    budget the same way.
    """

    rule_id = "RL005"
    title = "chunking discipline"
    contract = (
        "no repro.engine.kernels use and no QueryBackend method call on a "
        "get_backend()/active_backend() result outside engine/ — use "
        "repro.engine.batch, which enforces the REPRO_ENGINE_CHUNK_BYTES "
        "memory bound"
    )

    def applies_to(self, relpath: str) -> bool:
        return not relpath.startswith("engine/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        table = _import_table(ctx.tree)
        backend_names = {
            target.id
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Assign) and self._gets_backend(node.value, table)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(ctx.tree):
            for origin in _imported_origins(node):
                if _is_kernels_module(origin) or _is_kernels_module(
                    origin.rpartition(".")[0]
                ):
                    yield self.finding(
                        node,
                        f"importing {origin.lstrip('.')!r} outside engine/; "
                        f"call repro.engine.batch instead (chunk budget)",
                    )
            if isinstance(node, ast.Attribute):
                dotted = _dotted_name(node)
                if dotted is not None and _is_kernels_module(_resolve(table, dotted)):
                    yield self.finding(
                        node,
                        "repro.engine.kernels used outside engine/; call "
                        "repro.engine.batch instead (chunk budget)",
                    )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                if node.func.attr in _BACKEND_METHODS and (
                    self._gets_backend(receiver, table)
                    or (isinstance(receiver, ast.Name) and receiver.id in backend_names)
                ):
                    yield self.finding(
                        node,
                        f"backend .{node.func.attr}() call bypasses the chunk "
                        f"byte budget; route through repro.engine.batch",
                    )

    @staticmethod
    def _gets_backend(node: Optional[ast.expr], table: Dict[str, str]) -> bool:
        """Is ``node`` a ``get_backend(...)`` / ``active_backend()`` call?"""
        if not isinstance(node, ast.Call):
            return False
        dotted = _dotted_name(node.func)
        if dotted is None:
            return False
        return _resolve(table, dotted).rpartition(".")[2] in _BACKEND_GETTERS


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


class SeededRngRule(Rule):
    """RL006: no global-state ``numpy.random`` use; pass a ``Generator``.

    Workload generators and partitioners must be reproducible from an
    explicit seed; ``np.random.shuffle`` et al. mutate hidden process-wide
    state that any import can perturb.  Constructors (``default_rng``,
    ``Generator``, bit generators) are fine.
    """

    rule_id = "RL006"
    title = "seeded RNG"
    contract = (
        "no global-state numpy.random calls in src/ (np.random.seed/rand/"
        "shuffle/...); take a numpy.random.Generator parameter, constructed "
        "via default_rng(seed)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        table = _import_table(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                origin = ("." * node.level + (node.module or "")).lstrip(".")
                if origin == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _SEEDED_RANDOM_OK and alias.name != "*":
                            yield self.finding(
                                node,
                                f"numpy.random.{alias.name} uses the global "
                                f"RNG; pass a seeded numpy.random.Generator",
                            )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted_name(node)
                if dotted is None:
                    continue
                resolved = _resolve(table, dotted)
                parts = resolved.split(".")
                if (
                    len(parts) == 3
                    and parts[0] == "numpy"
                    and parts[1] == "random"
                    and parts[2] not in _SEEDED_RANDOM_OK
                ):
                    yield self.finding(
                        node,
                        f"numpy.random.{parts[2]} uses the global RNG; pass a "
                        f"seeded numpy.random.Generator instead",
                    )


# ---------------------------------------------------------------------------
# RL007 — mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "OrderedDict", "defaultdict", "deque",
     "Counter"}
)


class MutableDefaultRule(Rule):
    """RL007: no mutable default arguments."""

    rule_id = "RL007"
    title = "mutable defaults"
    contract = (
        "no list/dict/set (literal or constructor) default arguments — one "
        "default object is shared by every call; default to None and "
        "construct inside the function"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and build it inside the function",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            return name is not None and name.split(".")[-1] in _MUTABLE_CONSTRUCTORS
        return False


# ---------------------------------------------------------------------------
# RL008 — float32 containment
# ---------------------------------------------------------------------------

#: Files allowed to hold float32 state: the screen tier computes with it,
#: the network owns the cached views every screen consumes.
_FLOAT32_FILES = frozenset({"engine/mixed_precision.py", "model/network.py"})

# The token set below necessarily spells the tokens it polices.
_FLOAT32_TOKENS = frozenset({"float32", "coords32", "powers32"})  # reprolint: disable=RL008


class Float32ContainmentRule(Rule):
    """RL008: float32 state stays inside the precision tier.

    The mixed-precision guarantee is *exact by construction*: float32 is a
    screen whose uncertain points are re-verified in float64.  That holds
    only while no other layer computes in float32 — one stray cast turns
    bit-identical answers into approximately-right ones.  Matching is on
    exact identifiers/attributes/keywords/string literals, so names that
    merely mention the tier (``Float32ScreenBackend``) pass.
    """

    rule_id = "RL008"
    title = "float32 containment"
    contract = (
        "float32/coords32/powers32 are referenced only by "
        "engine/mixed_precision.py and the cached views in "
        "model/network.py — everything else computes in float64"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath not in _FLOAT32_FILES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            token: Optional[str] = None
            if isinstance(node, ast.Name) and node.id in _FLOAT32_TOKENS:
                token = node.id
            elif isinstance(node, ast.Attribute) and node.attr in _FLOAT32_TOKENS:
                token = node.attr
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in _FLOAT32_TOKENS
            ):
                token = node.value
            elif isinstance(node, ast.keyword) and node.arg in _FLOAT32_TOKENS:
                token = node.arg
            elif isinstance(node, ast.arg) and node.arg in _FLOAT32_TOKENS:
                token = node.arg
            if token is not None:
                yield self.finding(
                    node,
                    f"{token!r} outside the precision tier "
                    f"({', '.join(sorted(_FLOAT32_FILES))}); the exact-by-"
                    f"construction guarantee depends on float32 containment",
                )


# ---------------------------------------------------------------------------
# RL009 — environment-variable registry
# ---------------------------------------------------------------------------


class EnvRegistryRule(Rule):
    """RL009: every environment read goes through :mod:`repro.env`.

    Knobs must be enumerable; a stray ``os.environ.get`` is a knob no
    inventory, doc table or sweep will ever see.
    """

    rule_id = "RL009"
    title = "env-var registry"
    contract = (
        "os.environ / os.getenv are read only inside repro/env.py, which "
        "declares every knob (name, default, description) so configuration "
        "is enumerable"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath != "env.py"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        table = _import_table(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                origin = ("." * node.level + (node.module or "")).lstrip(".")
                if origin == "os":
                    for alias in node.names:
                        if alias.name in ("environ", "getenv", "putenv"):
                            yield self.finding(
                                node,
                                f"importing os.{alias.name} outside repro/"
                                f"env.py; read knobs via repro.env.read_knob",
                            )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted_name(node)
                if dotted is None:
                    continue
                resolved = _resolve(table, dotted)
                if resolved in ("os.environ", "os.getenv", "os.putenv") or (
                    resolved.startswith("os.environ.")
                ):
                    yield self.finding(
                        node,
                        f"{resolved} outside repro/env.py; declare the knob in "
                        f"repro.env.KNOBS and read it via read_knob()",
                    )


# ---------------------------------------------------------------------------
# RL010 — one runtime
# ---------------------------------------------------------------------------


class UnifiedRuntimeRule(Rule):
    """RL010: registries and lifecycles build on ``repro.runtime``, not ad hoc.

    The runtime unification collapsed two hand-rolled ContextVar
    registries and half a dozen start/stop state machines into
    :mod:`repro.runtime`.  This rule keeps them collapsed: outside
    ``runtime/``, constructing a raw ``ContextVar`` (the seed of an ad-hoc
    selection registry) or defining a class with its own ``start``/``stop``
    pair (the seed of an ad-hoc lifecycle) re-grows exactly the machinery
    that was unified.  ``contextvars.copy_context()`` — how the service
    tier ships selections to executor threads — is not a construction and
    stays allowed.
    """

    rule_id = "RL010"
    title = "one runtime"
    contract = (
        "outside runtime/, no raw contextvars.ContextVar construction "
        "(instantiate a repro.runtime.Registry) and no class defining both "
        "start() and stop() (subclass repro.runtime.Component and implement "
        "_do_start/_do_stop)"
    )

    def applies_to(self, relpath: str) -> bool:
        return not relpath.startswith("runtime/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        table = _import_table(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                resolved = _resolve(table, dotted)
                if resolved == "contextvars.ContextVar" or resolved.endswith(
                    ".contextvars.ContextVar"
                ):
                    yield self.finding(
                        node,
                        "raw ContextVar construction outside runtime/ is an "
                        "ad-hoc selection registry; instantiate "
                        "repro.runtime.Registry instead",
                    )
            elif isinstance(node, ast.ClassDef):
                methods = {
                    member.name
                    for member in node.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                if "start" in methods and "stop" in methods:
                    yield self.finding(
                        node,
                        f"class {node.name!r} defines its own start/stop pair "
                        f"outside runtime/; subclass repro.runtime.Component "
                        f"and implement _do_start/_do_stop so the lifecycle "
                        f"guards stay uniform",
                    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

ALL_RULE_CLASSES: Tuple[type, ...] = (
    ExceptionTaxonomyRule,
    LockDisciplineRule,
    AsyncPurityRule,
    SelectionDisciplineRule,
    ChunkingDisciplineRule,
    SeededRngRule,
    MutableDefaultRule,
    Float32ContainmentRule,
    EnvRegistryRule,
    UnifiedRuntimeRule,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every project rule, in rule-id order."""
    return [cls() for cls in ALL_RULE_CLASSES]


def rule_by_id(rule_id: str) -> Rule:
    """Instantiate one rule by its ``RLxxx`` id."""
    for cls in ALL_RULE_CLASSES:
        if cls.rule_id == rule_id:
            return cls()
    from ..exceptions import LintError

    known = ", ".join(cls.rule_id for cls in ALL_RULE_CLASSES)
    raise LintError(f"unknown rule id {rule_id!r}; known rules: {known}")
