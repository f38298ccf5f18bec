"""The built-in invariant rules (R1-R9).

Each rule encodes one contract established by PRs 1-7 and names, in
``contract``, the bug or design decision that motivated it.  Rules are
registered in :data:`repro.analysis.framework.DEFAULT_RULES` via the
:func:`~repro.analysis.framework.register_rule` decorator; ``repro lint``
runs all of them by default.
"""

from __future__ import annotations

import ast
import re
from typing import ClassVar, Dict, Iterator, List, Optional, Set, Tuple

from .framework import FileContext, Finding, Rule, register_rule

_GUARDED_BY_RE = re.compile(r"guarded-by:\s*([A-Za-z_]\w*)")
_RETURNS_FROZEN_RE = re.compile(r"returns-frozen")


def _is_np_random_attr(node: ast.AST) -> Optional[str]:
    """If ``node`` is ``np.random.<fn>`` / ``numpy.random.<fn>``, return fn."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "random"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("np", "numpy")):
        return node.attr
    return None


@register_rule
class GlobalNumpyRandomRule(Rule):
    """R1: RNG must flow through seeded ``Generator`` objects.

    ``np.random.<fn>`` module-level calls draw from (or mutate) the hidden
    global ``np.random.mtrand._rand`` state, so two call sites can silently
    couple and same-seed runs stop being reproducible.  Construction-only
    attributes (``default_rng``, ``Generator``, bit generators) are allowed.
    """

    id = "R1"
    name = "no-global-numpy-rng"
    description = ("np.random.<fn> module-level-state calls are forbidden; "
                   "use np.random.default_rng(seed) / an injected Generator")
    contract = ("PR 1-5 determinism: every subsystem keys bit-identical "
                "resume/parity tests on seeded Generators")

    #: Attribute names that only construct new, independently seeded state.
    ALLOWED = frozenset({
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "RandomState",  # flagged only when *called at module level* below
        "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
    })
    #: RandomState() without an explicit seed is as global-ish as it gets.
    FORBIDDEN_EVEN_SO = frozenset({"RandomState"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                fn = _is_np_random_attr(node.func)
                if fn is None:
                    continue
                if fn not in self.ALLOWED:
                    yield self.finding(
                        ctx, node,
                        f"call to np.random.{fn} uses numpy's global RNG "
                        f"state; use np.random.default_rng(seed) or an "
                        f"injected Generator")
                elif fn in self.FORBIDDEN_EVEN_SO and not node.args:
                    yield self.finding(
                        ctx, node,
                        f"np.random.{fn}() without a seed aliases the global "
                        f"legacy RNG; use np.random.default_rng(seed)")
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("numpy.random", "numpy.random.mtrand"):
                    for alias in node.names:
                        if alias.name not in self.ALLOWED:
                            yield self.finding(
                                ctx, node,
                                f"importing {alias.name!r} from "
                                f"{node.module} pulls a global-state RNG "
                                f"function; import default_rng instead")


@register_rule
class GuardedByRule(Rule):
    """R2: annotated attributes are only touched under their lock.

    An attribute initialised with a ``# guarded-by: <lock>`` comment may only
    be read or written inside a ``with self.<lock>:`` block in methods of the
    same class (``__init__`` is exempt: the object is not yet shared).
    ``<lock>`` may be a ``threading.Lock`` or a ``Condition`` wrapping it.
    """

    id = "R2"
    name = "guarded-by"
    description = ("attributes annotated '# guarded-by: <lock>' must only be "
                   "accessed inside 'with self.<lock>:' in that class")
    contract = ("PR 6 concurrency sweep: the EmbeddingCache entry must be an "
                "atomically-swapped tuple; unlocked reads served stale keys")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        guarded = self._collect_annotations(ctx, cls)
        if not guarded:
            return
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue
            yield from self._check_method(ctx, item, guarded)

    def _collect_annotations(self, ctx: FileContext,
                             cls: ast.ClassDef) -> Dict[str, str]:
        """Map attribute name -> lock name from ``# guarded-by:`` comments."""
        guarded: Dict[str, str] = {}
        for node in ast.walk(cls):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            match = _GUARDED_BY_RE.search(ctx.line_comment(node.lineno))
            if not match:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    guarded[target.attr] = match.group(1)
        return guarded

    def _check_method(self, ctx: FileContext, func: ast.AST,
                      guarded: Dict[str, str]) -> Iterator[Finding]:
        findings: List[Finding] = []

        def visit(node: ast.AST, held: Set[str]) -> None:
            if isinstance(node, ast.With):
                acquired = set(held)
                for with_item in node.items:
                    expr = with_item.context_expr
                    if (isinstance(expr, ast.Attribute)
                            and isinstance(expr.value, ast.Name)
                            and expr.value.id == "self"):
                        acquired.add(expr.attr)
                for child in node.body:
                    visit(child, acquired)
                return
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in guarded
                    and guarded[node.attr] not in held):
                findings.append(self.finding(
                    ctx, node,
                    f"'self.{node.attr}' is annotated guarded-by: "
                    f"{guarded[node.attr]} but is accessed outside "
                    f"'with self.{guarded[node.attr]}:'"))
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in func.body:
            visit(stmt, set())
        yield from findings


#: ServingSnapshot array fields whose consumers must never mutate them.
_SNAPSHOT_ARRAY_FIELDS = frozenset({
    "embeddings", "predictions", "cluster_labels", "known_logits",
    "seen_classes",
})
#: EmbeddingCache methods whose return values are frozen cache state.
_CACHE_SOURCES = frozenset({"lookup", "store", "stale_entry"})


@register_rule
class FrozenCacheRule(Rule):
    """R3: cached arrays are frozen at the source and never mutated downstream.

    Two halves:

    * A function whose ``def`` line carries a ``# returns-frozen`` comment
      must call ``.setflags(write=False)`` somewhere in its body.
    * Within a function, any name bound from ``EmbeddingCache`` lookups
      (``lookup`` / ``store`` / ``stale_entry``) or from a
      ``ServingSnapshot`` array field must not be mutated: no ``x[...] =``,
      no ``x += ...``, no ``x.resize(...)``, no ``x.setflags(write=True)``.
      Binding ``y = x.copy()`` yields a fresh, mutable array.
    """

    id = "R3"
    name = "frozen-cache-arrays"
    description = ("'# returns-frozen' functions must freeze via "
                   "setflags(write=False); arrays obtained from "
                   "EmbeddingCache/ServingSnapshot must not be mutated")
    contract = ("PR 6 bugfix: EmbeddingCache.store aliased and froze "
                "caller-owned arrays; consumers mutating cached rows would "
                "corrupt every concurrent reader")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_marker(ctx, node)
                yield from self._check_mutations(ctx, node)

    # -- half 1: returns-frozen marker ---------------------------------
    def _check_marker(self, ctx: FileContext, func: ast.AST) -> Iterator[Finding]:
        if not _RETURNS_FROZEN_RE.search(ctx.line_comment(func.lineno)):
            return
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setflags"
                    and any(kw.arg == "write"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is False
                            for kw in node.keywords)):
                return
        yield self.finding(
            ctx, func,
            f"function '{func.name}' is marked returns-frozen but never "
            f"calls .setflags(write=False) on its result")

    # -- half 2: downstream mutation of cache/snapshot arrays ----------
    def _taints(self, func: ast.AST) -> Tuple[Set[str], Set[str]]:
        """Names bound from cache state, and names bound to snapshots."""
        tainted: Set[str] = set()
        snapshots: Set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            for target in node.targets:
                if isinstance(target, ast.Tuple):
                    names.extend(e.id for e in target.elts
                                 if isinstance(e, ast.Name))
            if not names:
                continue
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)):
                if value.func.attr in _CACHE_SOURCES:
                    tainted.update(names)
                elif value.func.attr == "snapshot":
                    snapshots.update(names)
                elif (value.func.attr == "copy"
                      and isinstance(value.func.value, ast.Name)):
                    # y = x.copy() is a fresh mutable array even if x was
                    # tainted; explicitly un-taint the new binding.
                    tainted.difference_update(names)
            elif (isinstance(value, ast.Attribute)
                  and value.attr in _SNAPSHOT_ARRAY_FIELDS
                  and isinstance(value.value, ast.Name)
                  and (value.value.id in snapshots
                       or value.value.id == "snapshot")):
                tainted.update(names)
            elif isinstance(value, ast.Name) and value.id in tainted:
                tainted.update(names)
        return tainted, snapshots

    def _is_tainted_target(self, node: ast.AST, tainted: Set[str],
                           snapshots: Set[str]) -> Optional[str]:
        """Name of the frozen array a store target would mutate, if any."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name) and node.id in tainted:
            return node.id
        if (isinstance(node, ast.Attribute)
                and node.attr in _SNAPSHOT_ARRAY_FIELDS
                and isinstance(node.value, ast.Name)
                and (node.value.id in snapshots or node.value.id == "snapshot")):
            return f"{node.value.id}.{node.attr}"
        return None

    def _check_mutations(self, ctx: FileContext, func: ast.AST) -> Iterator[Finding]:
        tainted, snapshots = self._taints(func)
        if not tainted and not snapshots:
            return
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        name = self._is_tainted_target(target, tainted, snapshots)
                        if name:
                            yield self.finding(
                                ctx, target,
                                f"in-place write to '{name}', an array "
                                f"obtained from the embedding cache / serving "
                                f"snapshot; copy before mutating")
            elif isinstance(node, ast.AugAssign):
                name = self._is_tainted_target(node.target, tainted, snapshots)
                if name:
                    yield self.finding(
                        ctx, node,
                        f"augmented assignment mutates '{name}', an array "
                        f"obtained from the embedding cache / serving "
                        f"snapshot; copy before mutating")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)):
                owner = self._is_tainted_target(node.func.value, tainted, snapshots)
                if owner is None:
                    continue
                if node.func.attr == "resize":
                    yield self.finding(
                        ctx, node,
                        f"'{owner}.resize(...)' would reallocate a cached "
                        f"array in place; copy before mutating")
                elif node.func.attr == "setflags" and any(
                        kw.arg == "write"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in node.keywords):
                    yield self.finding(
                        ctx, node,
                        f"'{owner}.setflags(write=True)' re-enables writes on "
                        f"a frozen cached array; copy before mutating")


@register_rule
class ParamDataRebindRule(Rule):
    """R4: ``Parameter.data`` is only rebound inside ``repro/nn``.

    The ``data`` property bumps the parameter version on rebinding (the
    embedding cache's key), but slicing assignments (``p.data[...] = x``)
    and out-of-package rebinds bypass or scatter that contract.  Everything
    outside ``repro/nn`` must treat ``.data`` as read-only.
    """

    id = "R4"
    name = "no-param-data-rebind"
    description = ("no assignment to '<expr>.data' (plain, augmented, or "
                   "sliced) outside repro/nn; reads are fine")
    contract = ("PR 4 review hardening: Parameter.data became a "
                "version-bumping property precisely because direct "
                "assignment poisoned the embedding cache")

    def _in_scope(self, ctx: FileContext) -> bool:
        return not (ctx.module.startswith("repro.nn")
                    or "/nn/" in ctx.path.as_posix())

    @staticmethod
    def _data_target(node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr == "data"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_scope(ctx):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if self._data_target(target):
                        yield self.finding(
                            ctx, target,
                            "assignment to '.data' outside repro/nn bypasses "
                            "the Parameter version-bump contract; use "
                            "load_state_dict or an optimizer step")
            elif isinstance(node, ast.AugAssign) and self._data_target(node.target):
                yield self.finding(
                    ctx, node,
                    "augmented assignment to '.data' outside repro/nn "
                    "bypasses the Parameter version-bump contract")


@register_rule
class SerializableConfigRule(Rule):
    """R5: every ``*Config`` dataclass round-trips via ``SerializableConfig``.

    Checkpoint manifests, ``--set`` overrides, and the resume path all
    deserialize configs through ``SerializableConfig.from_dict`` with strict
    unknown-key validation; a config outside that hierarchy silently loses
    those guarantees.
    """

    id = "R5"
    name = "config-serializable"
    description = ("every @dataclass whose name ends in 'Config' must "
                   "subclass SerializableConfig (directly or via another "
                   "*Config)")
    contract = ("PR 2: all config dataclasses serialize via "
                "SerializableConfig so a typo in a manifest or --set "
                "override fails loudly")

    @staticmethod
    def _is_dataclass_decorator(node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Name):
            return node.id == "dataclass"
        return isinstance(node, ast.Attribute) and node.attr == "dataclass"

    @staticmethod
    def _base_name(node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Config") or node.name == "SerializableConfig":
                continue
            if not any(self._is_dataclass_decorator(d) for d in node.decorator_list):
                continue
            bases = [self._base_name(b) for b in node.bases]
            if any(b == "SerializableConfig" or b.endswith("Config")
                   for b in bases):
                continue
            yield self.finding(
                ctx, node,
                f"@dataclass '{node.name}' must subclass SerializableConfig "
                f"so it round-trips through checkpoints and --set overrides "
                f"with strict key validation")


@register_rule
class WallClockRule(Rule):
    """R6: no wall-clock reads in deterministic paths.

    ``time.time()`` / ``datetime.now()`` inject nondeterminism into code
    whose outputs are asserted bit-identical across runs.  The serving and
    experiment-reporting layers (latency metrics, run timestamps) and the
    observability layer (``repro.obs`` wraps the wall clock behind an
    injectable ``Clock`` that everything else reads through) are
    allowlisted; ``time.perf_counter`` is always fine (it measures
    durations, and no deterministic output is derived from it).
    """

    id = "R6"
    name = "no-wall-clock"
    description = ("time.time()/datetime.now()/date.today() are forbidden "
                   "outside repro.serve, repro.experiments, and repro.obs")
    contract = ("PRs 2-5 assert bit-identical checkpoint/resume and refresh "
                "trajectories; a wall-clock read anywhere in those paths "
                "breaks the guarantee silently")

    ALLOWED_MODULE_PREFIXES = ("repro.serve", "repro.experiments", "repro.obs")
    _FORBIDDEN: ClassVar[set] = {
        ("time", "time"), ("time", "time_ns"),
        ("datetime", "now"), ("datetime", "utcnow"),
        ("date", "today"),
    }

    def _in_scope(self, ctx: FileContext) -> bool:
        return not ctx.module.startswith(self.ALLOWED_MODULE_PREFIXES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_scope(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            value = node.func.value
            # Matches time.time(), datetime.now(), datetime.datetime.now(),
            # date.today(), datetime.date.today().
            base = ""
            if isinstance(value, ast.Name):
                base = value.id
            elif isinstance(value, ast.Attribute):
                base = value.attr
            if (base, attr) in self._FORBIDDEN:
                yield self.finding(
                    ctx, node,
                    f"wall-clock call '{base}.{attr}()' in a deterministic "
                    f"path; use a seeded Generator for randomness or "
                    f"time.perf_counter() for durations (serving metrics "
                    f"live in repro.serve, which is allowlisted)")


@register_rule
class SwallowedExceptionRule(Rule):
    """R7: no bare ``except:`` and no silently swallowed exceptions.

    A bare except in a worker or callback thread eats ``KeyboardInterrupt``
    and hides real bugs behind a hung future; an ``except ...: pass`` hides
    them behind nothing at all.  Handlers must either narrow the exception
    type and do something, or re-raise / record it.
    """

    id = "R7"
    name = "no-swallowed-exceptions"
    description = ("no bare 'except:'; no 'except ...: pass' handlers that "
                   "silently swallow errors")
    contract = ("PR 6 coalescer: worker errors must propagate per-request "
                "via future.set_exception, never vanish in a thread")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt and "
                    "hides worker-thread bugs; catch a specific exception")
                continue
            body = [stmt for stmt in node.body
                    if not (isinstance(stmt, ast.Expr)
                            and isinstance(stmt.value, ast.Constant))]
            if all(isinstance(stmt, ast.Pass) for stmt in body):
                yield self.finding(
                    ctx, node,
                    "exception swallowed silently ('except ...: pass'); "
                    "handle it, log it, or re-raise")


@register_rule
class RegistryCompletenessRule(Rule):
    """R8: every trainer under ``baselines/`` is registered.

    The CLI, the experiment runner, and the checkpoint loader all construct
    trainers through ``MethodRegistry``; an unregistered trainer class is
    unreachable from every harness and silently missing from the paper's
    tables.
    """

    id = "R8"
    name = "registry-completeness"
    description = ("every class named *Trainer in a baselines/ module must "
                   "carry the @register_method decorator")
    contract = ("PR 2: all twelve methods are constructed through "
                "MethodRegistry.build; registry completeness is asserted "
                "end-to-end in tests/core/test_method_registry.py")

    def _in_scope(self, ctx: FileContext) -> bool:
        return (".baselines" in ctx.module
                or "/baselines/" in ctx.path.as_posix())

    @staticmethod
    def _decorator_name(node: ast.AST) -> str:
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_scope(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Trainer") or node.name.startswith("_"):
                continue
            if any(self._decorator_name(d) == "register_method"
                   for d in node.decorator_list):
                continue
            yield self.finding(
                ctx, node,
                f"trainer class '{node.name}' in a baselines module is not "
                f"registered with @register_method; it is unreachable from "
                f"the CLI, the runner, and checkpoints")


@register_rule
class PicklableWorkerRule(Rule):
    """R9: pool workers must be module-level functions.

    A lambda or a function nested inside another function does not pickle,
    so passing one to a process-pool ``map``/``submit`` either raises at
    dispatch or — through the experiment grid's serial fallback
    (:func:`repro.experiments.runner._run_cells`) — silently runs every
    cell serially, with no error to show the pool never ran.  The rule
    flags any lambda, and any name bound by a nested ``def``, used as the
    worker argument of ``.map``/``.submit`` on a receiver whose name looks
    like a pool (``*executor`` / ``*pool``, any casing).
    """

    id = "R9"
    name = "picklable-pool-worker"
    description = ("the worker passed to <executor|pool>.map/.submit must be "
                   "a module-level function, not a lambda or a nested def "
                   "(they do not pickle to process pools)")
    contract = ("experiment grid: _run_cells hands the module-level "
                "run_grid_cell to a stdlib pool; a closure fails to pickle "
                "there and the grid silently falls back to serial")

    _METHODS = frozenset({"map", "submit"})

    @staticmethod
    def _receiver_name(node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Call):
            return PicklableWorkerRule._receiver_name(node.func)
        return ""

    def _is_pool_call(self, node: ast.Call) -> bool:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr in self._METHODS):
            return False
        receiver = self._receiver_name(node.func.value).lower()
        return receiver.endswith(("executor", "pool"))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Lambdas are never module-level-named: flag them anywhere.
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and self._is_pool_call(node) and node.args):
                continue
            worker = node.args[0]
            if isinstance(worker, ast.Lambda):
                yield self.finding(
                    ctx, worker,
                    f"lambda passed to "
                    f"'{self._receiver_name(node.func.value)}."
                    f"{node.func.attr}' cannot pickle to a process "
                    f"pool; move the worker to module level")
        # A name only violates when it is bound by a *nested* def; walk each
        # top-level function scope once so inner scopes are not re-reported.
        top_level_functions = [
            node for node in ast.iter_child_nodes(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ] + [
            item
            for node in ast.iter_child_nodes(ctx.tree)
            if isinstance(node, ast.ClassDef)
            for item in ast.walk(node)
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for func in top_level_functions:
            nested = {inner.name for inner in ast.walk(func)
                      if isinstance(inner, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                      and inner is not func}
            if not nested:
                continue
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call)
                        and self._is_pool_call(node) and node.args):
                    continue
                worker = node.args[0]
                if isinstance(worker, ast.Name) and worker.id in nested:
                    yield self.finding(
                        ctx, worker,
                        f"nested function '{worker.id}' passed to "
                        f"'{self._receiver_name(node.func.value)}."
                        f"{node.func.attr}' cannot pickle to a process "
                        f"pool; move the worker to module level")
