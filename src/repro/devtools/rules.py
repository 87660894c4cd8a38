"""The reprolint rule pack: the repo's invariants as AST visitors.

Each rule encodes one property the reproduction's correctness or
performance story depends on — see the module docstrings it points at
and ``docs/API.md`` for the full rationale:

========  ==============================================================
RPL001    all hashing routes through :mod:`repro.crypto.kernels` /
          :mod:`repro.engine.hashing` (midstate caching stays exact)
RPL002    no nondeterminism sources inside ``sim/``, ``game/``,
          ``crypto/`` (the fleet engine mirrors the DES draw-for-draw)
RPL003    no blocking calls inside ``async def`` bodies in ``net/``
RPL004    fork-safety: only picklable payloads reach the process pool,
          no import-time file handles for workers to inherit
RPL005    cache-key hygiene: content-addressed config dataclasses keep
          every knob visible to ``stable_key``
RPL006    no bare/broad ``except`` that swallows (fault boundaries that
          re-raise are fine)
RPL009    μMAC/MAC hot paths use the batch APIs: no scalar
          ``.compute()``/``.verify()`` MAC calls inside loop bodies
          (use ``compute_many`` / ``verify_many``)
========  ==============================================================

Rules report through :class:`~repro.devtools.lint.Violation`; the
engine applies ``# reprolint: disable=...`` suppressions afterwards, so
rules themselves stay suppression-agnostic.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.devtools.lint import LintContext, Violation

__all__ = [
    "ALL_RULES",
    "Rule",
    "KernelRoutingRule",
    "DeterminismRule",
    "AsyncBlockingRule",
    "ForkSafetyRule",
    "CacheKeyHygieneRule",
    "ExceptionHygieneRule",
    "BatchedMacRoutingRule",
    "rule_catalog",
]


class Rule:
    """One invariant: a code, a slug, and an AST check."""

    code: str = "RPL999"
    name: str = "abstract-rule"
    description: str = ""

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        """Yield every violation of this rule in ``ctx``."""
        raise NotImplementedError

    def violation(
        self, ctx: LintContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class _Imports:
    """Alias map for the modules a rule cares about.

    ``import hashlib as h`` -> ``modules["h"] == "hashlib"``;
    ``from hmac import new as hnew`` -> ``members["hnew"] == ("hmac",
    "new")``. Collected over the whole tree: function-local imports
    alias the same modules.
    """

    def __init__(self, tree: ast.Module, interesting: Set[str]) -> None:
        self.modules: Dict[str, str] = {}
        self.members: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in interesting:
                        self.modules[alias.asname or root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".")[0]
                if root in interesting and node.level == 0:
                    for alias in node.names:
                        self.members[alias.asname or alias.name] = (
                            root,
                            alias.name,
                        )

    def resolve_call(
        self, func: ast.expr
    ) -> Optional[Tuple[str, str]]:
        """``(module, attr)`` when ``func`` is a tracked module member."""
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = self.modules.get(func.value.id)
            if module is not None:
                return module, func.attr
        elif isinstance(func, ast.Name):
            member = self.members.get(func.id)
            if member is not None:
                return member
        return None


def _attribute_root(node: ast.expr) -> Optional[str]:
    """The root ``Name`` of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class KernelRoutingRule(Rule):
    """RPL001 — hashing must flow through the crypto kernels.

    Direct ``hashlib``/``hmac`` digest calls bypass the midstate caches
    in :mod:`repro.crypto.kernels` and fragment the hot path the perf
    suite measures. Only the kernels module itself and the cache-key
    reducer (:mod:`repro.engine.hashing`) may touch the primitives.
    ``hmac.compare_digest`` is comparison, not hashing, and stays
    allowed.
    """

    code = "RPL001"
    name = "kernel-routing"
    description = (
        "direct hashlib/hmac call outside the crypto-kernel allowlist"
    )

    SCOPE = ("repro/", "benchmarks/")
    ALLOWED_MODULES = frozenset(
        {"repro/crypto/kernels.py", "repro/engine/hashing.py"}
    )
    _HMAC_FLAGGED = frozenset({"new", "digest"})

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.in_dir(*self.SCOPE):
            return
        if ctx.logical_path in self.ALLOWED_MODULES:
            return
        imports = _Imports(ctx.tree, {"hashlib", "hmac"})
        if not imports.modules and not imports.members:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve_call(node.func)
            if resolved is None:
                continue
            module, attr = resolved
            if module == "hmac" and attr not in self._HMAC_FLAGGED:
                continue
            yield self.violation(
                ctx,
                node,
                f"direct {module}.{attr}() call; route through"
                " repro.crypto.kernels (sha256_digest/sha256_midstate/"
                "hmac_sha256_many)",
            )


class DeterminismRule(Rule):
    """RPL002 — ``sim/``, ``game/`` and ``crypto/`` stay deterministic.

    The vectorized fleet engine replays the DES RNG draw order
    bit-for-bit and the result cache content-addresses configs; a
    process-global RNG call, a wall-clock read, an unseeded
    ``random.Random()`` or iteration over an unordered set anywhere in
    those layers silently breaks both guarantees.
    """

    code = "RPL002"
    name = "determinism"
    description = (
        "nondeterminism source (global RNG, wall clock, unseeded"
        " Random, set-order iteration) in sim/game/crypto"
    )

    SCOPE = ("repro/sim/", "repro/game/", "repro/crypto/")
    _TIME_FLAGGED = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
        }
    )
    _DATETIME_FLAGGED = frozenset({"now", "utcnow", "today"})

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.in_dir(*self.SCOPE):
            return
        imports = _Imports(ctx.tree, {"random", "time", "datetime"})
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, imports)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_set_iteration(ctx, node.iter)
            elif isinstance(node, ast.comprehension):
                yield from self._check_set_iteration(ctx, node.iter)

    def _check_call(
        self, ctx: LintContext, node: ast.Call, imports: _Imports
    ) -> Iterator[Violation]:
        resolved = imports.resolve_call(node.func)
        if resolved is None:
            yield from self._check_datetime(ctx, node, imports)
            return
        module, attr = resolved
        if module == "random":
            if attr == "Random":
                if not node.args and not node.keywords:
                    yield self.violation(
                        ctx,
                        node,
                        "unseeded random.Random(): seed it from the"
                        " scenario's master seed so runs replay",
                    )
            elif attr == "SystemRandom":
                yield self.violation(
                    ctx,
                    node,
                    "random.SystemRandom is nondeterministic by design;"
                    " use a seeded random.Random",
                )
            else:
                yield self.violation(
                    ctx,
                    node,
                    f"random.{attr}() draws from the process-global RNG;"
                    " thread a seeded random.Random through instead",
                )
        elif module == "time" and attr in self._TIME_FLAGGED:
            yield self.violation(
                ctx,
                node,
                f"time.{attr}() reads the wall clock inside the"
                " deterministic layers; use the simulated clock"
                " (repro.timesync) or measure via repro.perf",
            )
        elif module == "datetime" and attr in self._DATETIME_FLAGGED:
            yield self.violation(
                ctx,
                node,
                f"datetime {attr}() reads the wall clock; derive times"
                " from the simulation epoch",
            )

    def _check_datetime(
        self, ctx: LintContext, node: ast.Call, imports: _Imports
    ) -> Iterator[Violation]:
        # datetime.datetime.now() / datetime.date.today(): an attribute
        # chain whose root is the datetime module or class.
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in self._DATETIME_FLAGGED:
            return
        root = _attribute_root(func.value)
        if root is None:
            return
        if imports.modules.get(root) == "datetime" or imports.members.get(
            root, ("", "")
        )[0] == "datetime":
            yield self.violation(
                ctx,
                node,
                f"datetime {func.attr}() reads the wall clock; derive"
                " times from the simulation epoch",
            )

    def _check_set_iteration(
        self, ctx: LintContext, iterable: ast.expr
    ) -> Iterator[Violation]:
        flagged = isinstance(iterable, ast.Set) or (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset")
        )
        if flagged:
            yield self.violation(
                ctx,
                iterable,
                "iterating a set: order varies with hash seeding and"
                " feeds downstream draws; iterate sorted(...) instead",
            )


class AsyncBlockingRule(Rule):
    """RPL003 — ``async def`` bodies in ``net/`` never block.

    The UDP transport shares one event loop with every receiver
    daemon; a single ``time.sleep``/sync-subprocess/sync-socket call
    stalls all of them and skews decode-to-verify latency measurements.
    Nested *sync* ``def`` helpers are skipped — they may legitimately
    run in an executor.
    """

    code = "RPL003"
    name = "async-blocking"
    description = "blocking call inside an async def in net/"

    SCOPE = ("repro/net/",)
    _SUBPROCESS_FLAGGED = frozenset(
        {
            "run",
            "call",
            "check_call",
            "check_output",
            "Popen",
            "getoutput",
            "getstatusoutput",
        }
    )
    _SOCKET_FLAGGED = frozenset({"socket", "create_connection"})
    _OS_FLAGGED = frozenset({"system", "popen"})

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.in_dir(*self.SCOPE):
            return
        imports = _Imports(
            ctx.tree, {"time", "subprocess", "socket", "os"}
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_body(ctx, node, imports)

    def _check_async_body(
        self,
        ctx: LintContext,
        func: ast.AsyncFunctionDef,
        imports: _Imports,
    ) -> Iterator[Violation]:
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef):
                continue  # sync helper: may be destined for an executor
            if isinstance(node, ast.Call):
                resolved = imports.resolve_call(node.func)
                if resolved is not None:
                    yield from self._check_resolved(ctx, node, resolved)
            stack.extend(ast.iter_child_nodes(node))

    def _check_resolved(
        self,
        ctx: LintContext,
        node: ast.Call,
        resolved: Tuple[str, str],
    ) -> Iterator[Violation]:
        module, attr = resolved
        message = None
        if module == "time" and attr == "sleep":
            message = (
                "time.sleep blocks the shared event loop; await"
                " asyncio.sleep instead"
            )
        elif module == "subprocess" and attr in self._SUBPROCESS_FLAGGED:
            message = (
                f"subprocess.{attr} blocks the event loop; use"
                " asyncio.create_subprocess_exec"
            )
        elif module == "socket" and attr in self._SOCKET_FLAGGED:
            message = (
                f"socket.{attr} creates a blocking socket inside the"
                " event loop; use loop.create_datagram_endpoint /"
                " asyncio transports"
            )
        elif module == "os" and attr in self._OS_FLAGGED:
            message = f"os.{attr} blocks the event loop"
        if message is not None:
            yield self.violation(ctx, node, message)


class ForkSafetyRule(Rule):
    """RPL004 — only picklable work reaches the process pool, and
    nothing forks a live process.

    ``ParallelExecutor`` ships ``spec.fn`` and every task payload to
    spawned/forked workers by pickling; a lambda or a function defined
    inside another function has a ``<locals>`` qualname and fails at
    dispatch time — in the middle of a sweep. Module-level ``open``
    handles are inherited by forked workers and interleave writes.

    Raw fork primitives — ``os.fork()`` and
    ``multiprocessing.get_context("fork")`` / ``set_start_method("fork")``
    — are banned outright: the cluster coordinator and the experiment
    engine are multi-threaded, and a forked child of a multi-threaded
    process inherits whatever locks happened to be held at fork time
    and deadlocks on first use. Workers are started as *fresh*
    processes (``subprocess``, ``get_context("spawn")``) instead.
    """

    code = "RPL004"
    name = "fork-safety"
    description = (
        "unpicklable engine payload (lambda/nested def), module-level"
        " open handle, or raw fork primitive"
    )

    SCOPE = ("repro/", "benchmarks/")
    _ENGINE_CALL_NAMES = frozenset({"ExperimentSpec", "run_tasks"})
    _ENGINE_CALL_ATTRS = frozenset({"over", "submit"})
    _PAYLOAD_KEYWORDS = frozenset({"fn", "initializer"})
    _FORK_CALLS = frozenset({"fork", "forkpty"})
    _CONTEXT_CALLS = frozenset({"get_context", "set_start_method"})

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.in_dir(*self.SCOPE):
            return
        yield from self._check_module_level_handles(ctx)
        yield from self._check_fork_primitives(ctx)
        yield from self._walk_scope(ctx, ctx.tree, nested_defs=frozenset())

    def _check_fork_primitives(self, ctx: LintContext) -> Iterator[Violation]:
        imports = _Imports(ctx.tree, {"os", "multiprocessing"})
        if not imports.modules and not imports.members:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve_call(node.func)
            if resolved is None:
                continue
            module, attr = resolved
            if module == "os" and attr in self._FORK_CALLS:
                yield self.violation(
                    ctx,
                    node,
                    f"os.{attr}() forks a live process: a child of a"
                    " multi-threaded coordinator/executor inherits held"
                    " locks and deadlocks; start a fresh process via"
                    " subprocess or get_context('spawn')",
                )
            elif module == "multiprocessing" and attr in self._CONTEXT_CALLS:
                if self._requests_fork(node):
                    yield self.violation(
                        ctx,
                        node,
                        f"multiprocessing.{attr}('fork') selects the"
                        " fork start method, which copies a"
                        " multi-threaded parent's held locks into the"
                        " child; use 'spawn'",
                    )

    @staticmethod
    def _requests_fork(node: ast.Call) -> bool:
        candidates: List[ast.expr] = list(node.args) + [
            keyword.value
            for keyword in node.keywords
            if keyword.arg == "method"
        ]
        return any(
            isinstance(candidate, ast.Constant) and candidate.value == "fork"
            for candidate in candidates
        )

    def _check_module_level_handles(
        self, ctx: LintContext
    ) -> Iterator[Violation]:
        for stmt in ctx.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            value = stmt.value
            if value is None:
                continue
            for node in ast.walk(value):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "open"
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "module-level open() handle: forked pool workers"
                        " inherit it and interleave writes; open inside"
                        " the function that uses it",
                    )

    def _is_engine_call(self, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in self._ENGINE_CALL_NAMES
        if isinstance(func, ast.Attribute):
            if func.attr in self._ENGINE_CALL_ATTRS:
                return True
            return func.attr in self._ENGINE_CALL_NAMES
        return False

    def _walk_scope(
        self,
        ctx: LintContext,
        scope: ast.AST,
        nested_defs: frozenset,
    ) -> Iterator[Violation]:
        """Walk one lexical scope, tracking locally-defined functions."""
        body = getattr(scope, "body", [])
        local_defs = nested_defs
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local_defs = nested_defs | {
                stmt.name
                for stmt in body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk_scope(ctx, node, local_defs)
                continue
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, local_defs)
            stack.extend(ast.iter_child_nodes(node))

    def _check_call(
        self,
        ctx: LintContext,
        node: ast.Call,
        local_defs: frozenset,
    ) -> Iterator[Violation]:
        engine_call = self._is_engine_call(node)
        payload_args: List[ast.expr] = []
        if engine_call:
            payload_args.extend(node.args)
        for keyword in node.keywords:
            if keyword.arg in self._PAYLOAD_KEYWORDS or (
                engine_call and keyword.arg is not None
            ):
                payload_args.append(keyword.value)
        for arg in payload_args:
            if isinstance(arg, ast.Lambda):
                yield self.violation(
                    ctx,
                    arg,
                    "lambda passed as engine work: lambdas cannot be"
                    " pickled to pool workers; use a module-level"
                    " function",
                )
            elif (
                engine_call
                and isinstance(arg, ast.Name)
                and arg.id in local_defs
            ):
                yield self.violation(
                    ctx,
                    arg,
                    f"locally-defined function {arg.id!r} passed as"
                    " engine work: its <locals> qualname cannot be"
                    " pickled to pool workers; hoist it to module level",
                )


class CacheKeyHygieneRule(Rule):
    """RPL005 — content-addressed configs keep every knob in the key.

    ``stable_key`` folds *dataclass fields*; an unannotated class-body
    assignment (``engine = "des"``) reads exactly like a field but is
    invisible to ``dataclasses.fields`` — two configs differing only
    in that knob share a cache entry and the cache silently serves
    wrong results (the PR-4 ``engine`` bug, structurally). Mutability
    breaks addressing the same way, so the class must stay frozen.

    Applies to ``ScenarioConfig``/``ExperimentSpec`` and any class with
    ``# reprolint: cache-keyed`` on the line above its definition.
    """

    code = "RPL005"
    name = "cache-key-hygiene"
    description = (
        "cache-keyed dataclass with an unannotated attribute or without"
        " frozen=True"
    )

    SCOPE = ("repro/",)
    TARGET_CLASS_NAMES = frozenset({"ScenarioConfig", "ExperimentSpec"})
    MARKER = "reprolint: cache-keyed"

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.in_dir(*self.SCOPE):
            return
        lines = ctx.source.splitlines()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and self._is_target(node, lines):
                yield from self._check_class(ctx, node)

    def _is_target(self, node: ast.ClassDef, lines: Sequence[str]) -> bool:
        if node.name in self.TARGET_CLASS_NAMES:
            return True
        first_line = min(
            [node.lineno] + [dec.lineno for dec in node.decorator_list]
        )
        return first_line >= 2 and self.MARKER in lines[first_line - 2]

    def _check_class(
        self, ctx: LintContext, node: ast.ClassDef
    ) -> Iterator[Violation]:
        if not self._is_frozen_dataclass(node):
            yield self.violation(
                ctx,
                node,
                f"{node.name} is content-addressed by stable_key and"
                " must be declared @dataclass(frozen=True)",
            )
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and not (
                        target.id.startswith("__")
                        and target.id.endswith("__")
                    ):
                        yield self.violation(
                            ctx,
                            stmt,
                            f"{node.name}.{target.id} has no annotation:"
                            " it is not a dataclass field, so"
                            " stable_key never folds it and configs"
                            " differing in it share a cache entry;"
                            " annotate it (or mark ClassVar explicitly)",
                        )

    @staticmethod
    def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name != "dataclass":
                continue
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
        return False


class ExceptionHygieneRule(Rule):
    """RPL006 — broad ``except`` must convert, never swallow.

    ``except Exception`` is legitimate exactly once in this codebase:
    at executor fault boundaries, where any task failure is wrapped
    into a labelled :class:`~repro.errors.TaskError` and **re-raised**.
    A broad handler whose body never raises swallows programming
    errors — including the security-invariant assertions the test
    suite relies on — so it is flagged; narrow the type or re-raise.
    """

    code = "RPL006"
    name = "exception-hygiene"
    description = (
        "bare/broad except that never re-raises (outside executor fault"
        " boundaries)"
    )

    SCOPE = ("repro/", "benchmarks/")
    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.in_dir(*self.SCOPE):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and self._is_broad(node):
                if not self._reraises(node):
                    yield self.violation(
                        ctx,
                        node,
                        "broad except swallows failures; narrow the"
                        " exception type, or re-raise a wrapped error"
                        " at a fault boundary",
                    )

    def _is_broad(self, node: ast.ExceptHandler) -> bool:
        if node.type is None:
            return True
        candidates: List[ast.expr] = (
            list(node.type.elts)
            if isinstance(node.type, ast.Tuple)
            else [node.type]
        )
        return any(
            isinstance(candidate, ast.Name) and candidate.id in self._BROAD
            for candidate in candidates
        )

    @staticmethod
    def _reraises(node: ast.ExceptHandler) -> bool:
        stack: List[ast.AST] = list(node.body)
        while stack:
            child = stack.pop()
            if isinstance(child, ast.Raise):
                return True
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(child))
        return False


class BatchedMacRoutingRule(Rule):
    """RPL009 — MAC hot paths stay on the batch routes.

    Flags a scalar ``.compute()`` / ``.verify()`` call on a MAC scheme
    inside a loop body. Per-call key-block lookups in a flood loop are
    exactly what :meth:`MacScheme.compute_many` / :meth:`verify_many`
    batch away (the fleet replay's single-pair ``verify_many`` bug,
    generalised); hoist the loop into one batched call. Bench columns
    that time the scalar path, and per-key call sites, carry an
    annotated suppression. Direct ``hashlib`` calls are RPL001's concern.
    """

    code = "RPL009"
    name = "batched-mac-routing"
    description = "scalar MAC compute()/verify() inside a loop body"

    SCOPE = ("repro/", "benchmarks/")
    _SCALAR = frozenset({"compute", "verify"})
    _MAC_HINTS = ("mac", "micro", "scheme")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.in_dir(*self.SCOPE):
            return
        loop_calls = self._loop_body_calls(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if id(node) in loop_calls and self._is_scalar_mac_call(node.func):
                assert isinstance(node.func, ast.Attribute)
                yield self.violation(
                    ctx,
                    node,
                    f"scalar .{node.func.attr}() MAC call inside a loop"
                    " body: one key-block setup per call is the shape"
                    " compute_many/verify_many batch away; hoist the"
                    " loop into one batched call (or annotate a"
                    " bench or per-key path with a justified"
                    " suppression)",
                )

    @staticmethod
    def _loop_body_calls(tree: ast.Module) -> Set[int]:
        """ids of every Call nested in a loop body or comprehension
        element (nested function bodies count — they run per call)."""
        calls: Set[int] = set()
        for node in ast.walk(tree):
            repeated: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                repeated = list(node.body) + list(node.orelse)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                repeated = [node.elt]
            elif isinstance(node, ast.DictComp):
                repeated = [node.key, node.value]
            for stmt in repeated:
                for child in ast.walk(stmt):
                    if isinstance(child, ast.Call):
                        calls.add(id(child))
        return calls

    def _is_scalar_mac_call(self, func: ast.expr) -> bool:
        if not isinstance(func, ast.Attribute) or func.attr not in self._SCALAR:
            return False
        parts: List[str] = []
        node = func.value
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        return any(
            hint in part.lower() for part in parts for hint in self._MAC_HINTS
        )


ALL_RULES: Tuple[Type[Rule], ...] = (
    KernelRoutingRule,
    DeterminismRule,
    AsyncBlockingRule,
    ForkSafetyRule,
    CacheKeyHygieneRule,
    ExceptionHygieneRule,
    BatchedMacRoutingRule,
)


def rule_catalog() -> List[Tuple[str, str, str]]:
    """``(code, name, description)`` rows for ``--list-rules`` and docs."""
    return [
        (rule.code, rule.name, rule.description) for rule in ALL_RULES
    ]
