"""The reprolint project-rule pack: cross-file invariants.

These rules run over the :class:`~repro.devtools.project.ProjectIndex`
rather than one file at a time — each encodes a property that only
exists *between* modules:

========  ==============================================================
RPL010    seed-threading dataflow: a function accepting ``seed``/``rng``
          must actually use it and must thread it into callees that
          accept one — a dropped or constant-rederived seed silently
          breaks the DES ↔ fleet ↔ cluster byte-identity contracts
RPL011    perf-counter consistency: every counter name at an
          instrumentation *read* site resolves to a name some write
          site produces, and all write sites agree on one canonical
          spelling — a typo'd metric name is dead observability
RPL012    wire/report schema drift: fields produced into cluster
          protocol messages must match the set consumed on the other
          side, and every ``metrics.jsonl`` record of one kind must
          carry the same keys — a field nobody reads (or a read of a
          field nobody sends) is a protocol bug waiting for a version
          skew to expose it
========  ==============================================================

Like the per-file pack, rules stay suppression-agnostic; the engine
applies ``# reprolint: disable=...`` afterwards, against the module
each violation points at.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Type,
)

from repro.devtools.lint import Violation
from repro.devtools.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    ProjectRule,
    dotted_chain,
)
from repro.devtools.rules import _Imports

__all__ = [
    "PROJECT_RULES",
    "PerfCounterConsistencyRule",
    "SchemaDriftRule",
    "SeedThreadingRule",
    "project_rule_catalog",
]

#: Parameter names the seed-threading rule treats as RNG carriers.
SEED_PARAMS = frozenset({"seed", "rng"})


def _is_stub(node: ast.AST) -> bool:
    """Whether a function body is declaration-only (nothing to check).

    Covers abstract methods, protocol stubs, and interface-uniform
    trivial implementations: a body that is (after the docstring) empty
    or made only of ``pass``/``...``/``raise``/constant ``return``.
    """
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for decorator in node.decorator_list:
        chain = dotted_chain(decorator) or []
        if chain and chain[-1] in {"abstractmethod", "overload"}:
            return True
    body = list(node.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Raise)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Return) and (
            stmt.value is None or isinstance(stmt.value, ast.Constant)
        ):
            continue
        return False
    return True


class SeedThreadingRule(ProjectRule):
    """RPL010 — seeds and RNG streams are threaded, never dropped.

    Every reproducibility harness in the repo (DES↔fleet parity, the
    cluster reconciliation, the scenario contracts) assumes the seed
    ladder is airtight: the one seed in ``ScenarioConfig`` derives every
    stream, and a function that accepts a ``seed``/``rng`` passes it
    down to everything that draws. Three failure shapes are flagged:

    - **dropped**: a ``seed``/``rng`` parameter the body never reads —
      callers believe they control the randomness; they don't;
    - **not threaded**: a call into another indexed function that
      accepts ``seed``/``rng`` with no argument derived from the
      caller's own seed — the callee falls back to its default and the
      caller's seed stops mattering below that point;
    - **re-derived**: ``random.Random(<constant>)`` while a
      ``seed``/``rng`` parameter is in scope — a parallel universe of
      randomness pinned to a literal (unseeded ``Random()`` in
      deterministic layers is RPL002's, per-file, finding).

    Dataflow is first-order: names assigned from expressions that
    mention the seed (``child = rng.getrandbits(64)``) count as
    seed-derived when passed on.
    """

    code = "RPL010"
    name = "seed-threading"
    description = (
        "seed/rng parameter dropped, not threaded to a seed-accepting"
        " callee, or re-derived from a constant"
    )

    SCOPE = ("repro/",)

    def check_project(self, index: ProjectIndex) -> Iterator[Violation]:
        for module in self.scoped(index):
            imports = _Imports(module.ctx.tree, {"random"})
            for info in module.functions.values():
                yield from self._check_function(index, module, info, imports)

    def _check_function(
        self,
        index: ProjectIndex,
        module: ModuleInfo,
        info: FunctionInfo,
        imports: _Imports,
    ) -> Iterator[Violation]:
        seed_params = [p for p in info.params if p in SEED_PARAMS]
        if not seed_params or _is_stub(info.node):
            return
        used = {
            n.id for n in ast.walk(info.node) if isinstance(n, ast.Name)
        }
        for param in seed_params:
            if param not in used:
                yield self.violation(
                    module,
                    info.node,
                    f"{info.name}() accepts '{param}' but never uses it:"
                    " the seed is dropped on the floor — thread it into"
                    " the randomness this function triggers, or remove"
                    " the parameter",
                )
        live = [p for p in seed_params if p in used]
        if not live:
            return
        tainted = self._tainted_names(info.node, set(live))
        enclosing_class = (
            info.name.split(".", 1)[0] if info.is_method else None
        )
        for call in ast.walk(info.node):
            if not isinstance(call, ast.Call):
                continue
            if imports.resolve_call(call.func) == ("random", "Random"):
                if call.args and all(
                    isinstance(arg, ast.Constant) for arg in call.args
                ):
                    literal = ast.unparse(call.args[0])
                    yield self.violation(
                        module,
                        call,
                        f"random.Random({literal}) re-derives a generator"
                        f" from a constant while '{live[0]}' is in scope:"
                        " derive child streams from the incoming"
                        " seed/rng instead (e.g."
                        " Random(rng.getrandbits(64)))",
                    )
                continue
            callee = index.resolve_call(
                module, call.func, enclosing_class=enclosing_class
            )
            if callee is None or callee.node is info.node:
                continue
            accepts = (callee.required | callee.optional) & SEED_PARAMS
            if not accepts:
                continue
            if self._call_references(call, tainted):
                continue
            param = sorted(accepts)[0]
            yield self.violation(
                module,
                call,
                f"{info.name}() holds '{live[0]}' but calls"
                f" {callee.name}() (which accepts '{param}') without"
                " threading it: the callee re-derives its own"
                " randomness and the caller's seed stops mattering"
                " below this point",
            )

    @staticmethod
    def _tainted_names(node: ast.AST, seeds: Set[str]) -> Set[str]:
        """Names carrying seed-derived values (first-order, 2 passes)."""
        tainted = set(seeds)
        for _ in range(2):
            changed = False
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign):
                    value, targets = stmt.value, stmt.targets
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    value, targets = stmt.value, [stmt.target]
                else:
                    continue
                if not any(
                    isinstance(n, ast.Name) and n.id in tainted
                    for n in ast.walk(value)
                ):
                    continue
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name) and n.id not in tainted:
                            tainted.add(n.id)
                            changed = True
            if not changed:
                break
        return tainted

    @staticmethod
    def _call_references(call: ast.Call, tainted: Set[str]) -> bool:
        expressions = list(call.args) + [kw.value for kw in call.keywords]
        return any(
            isinstance(n, ast.Name) and n.id in tainted
            for expr in expressions
            for n in ast.walk(expr)
        )


class PerfCounterConsistencyRule(ProjectRule):
    """RPL011 — one canonical spelling per perf counter name.

    Instrumentation writes (``incr``/``observe``/``timer`` with a
    string-literal name on a perf-flavoured receiver — ``perf.ACTIVE``,
    a local ``active``, a ``*registry``) and reads (``counter``,
    ``hit_rate``) are collected project-wide. A read of a name no write
    site produces is dead observability: the bench quietly reports
    zero. Two write-site spellings that normalise to the same name
    (case/separator drift like ``crypto.walkcache.hits`` vs
    ``crypto.walk_cache.hits``) split one logical counter across two
    keys; the minority spelling is flagged against the canonical one.
    """

    code = "RPL011"
    name = "perf-counter-consistency"
    description = (
        "perf counter read that no instrumentation site writes, or"
        " write sites disagreeing on one canonical spelling"
    )

    SCOPE = ("repro/", "benchmarks/")
    _WRITES = frozenset({"incr", "observe", "timer"})
    _HINTS = ("perf", "active", "registr")

    def check_project(self, index: ProjectIndex) -> Iterator[Violation]:
        writes: Dict[str, List[Tuple[ModuleInfo, ast.Call]]] = {}
        reads: Dict[str, List[Tuple[ModuleInfo, ast.Call]]] = {}
        for module in self.scoped(index):
            for call in ast.walk(module.ctx.tree):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if not isinstance(func, ast.Attribute):
                    continue
                receiver = dotted_chain(func.value)
                if receiver is None or not self._perf_receiver(receiver):
                    continue
                if func.attr in self._WRITES:
                    names = self._str_args(call, 1)
                elif func.attr == "counter":
                    names = self._str_args(call, 1)
                elif func.attr == "hit_rate":
                    names = self._str_args(call, 2)
                else:
                    continue
                target = writes if func.attr in self._WRITES else reads
                for name in names:
                    target.setdefault(name, []).append((module, call))
        yield from self._check(writes, reads)

    def _perf_receiver(self, chain: List[str]) -> bool:
        return any(
            hint in part.lower() for part in chain for hint in self._HINTS
        )

    @staticmethod
    def _str_args(call: ast.Call, count: int) -> List[str]:
        names: List[str] = []
        for arg in call.args[:count]:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.append(arg.value)
        return names

    @staticmethod
    def _normalise(name: str) -> str:
        return name.lower().replace(".", "").replace("_", "").replace("-", "")

    def _check(
        self,
        writes: Dict[str, List[Tuple[ModuleInfo, ast.Call]]],
        reads: Dict[str, List[Tuple[ModuleInfo, ast.Call]]],
    ) -> Iterator[Violation]:
        by_norm: Dict[str, Dict[str, List[Tuple[ModuleInfo, ast.Call]]]] = {}
        for name, sites in writes.items():
            by_norm.setdefault(self._normalise(name), {})[name] = sites
        for name in sorted(reads):
            if name in writes:
                continue
            near = by_norm.get(self._normalise(name))
            for module, call in reads[name]:
                if near:
                    canonical = self._canonical(near)
                    message = (
                        f"reads perf counter '{name}' but instrumentation"
                        f" writes '{canonical}': spelling drift makes this"
                        " read permanently zero"
                    )
                else:
                    message = (
                        f"reads perf counter '{name}' that no"
                        " instrumentation site writes — dead"
                        " observability (fix the name or instrument the"
                        " path)"
                    )
                yield self.violation(module, call, message)
        for norm in sorted(by_norm):
            spellings = by_norm[norm]
            if len(spellings) <= 1:
                continue
            canonical = self._canonical(spellings)
            for spelling in sorted(spellings):
                if spelling == canonical:
                    continue
                for module, call in spellings[spelling]:
                    yield self.violation(
                        module,
                        call,
                        f"perf counter spelling '{spelling}' diverges"
                        f" from the canonical '{canonical}' used by"
                        f" {len(spellings[canonical])} other site(s):"
                        " one logical counter is split across two keys",
                    )

    @staticmethod
    def _canonical(
        spellings: Dict[str, List[Tuple[ModuleInfo, ast.Call]]]
    ) -> str:
        return max(spellings, key=lambda name: (len(spellings[name]), name))


class SchemaDriftRule(ProjectRule):
    """RPL012 — produced and consumed message fields must match.

    Two families of structured records cross process boundaries in
    ``repro.cluster`` and each is checked over the whole project:

    - **wire messages** (dict literals carrying a string ``"type"``,
      sent over the coordinator/worker TCP stream): every consumed
      field (``message[...]``/``message.get(...)`` on a parameter named
      ``message`` or a variable assigned from ``.recv()``) must be
      produced by some send site, and every produced field must be
      consumed somewhere — a field nobody reads is dead wire weight
      and a drift trap;
    - **metrics records** (dict literals carrying a string ``"kind"``,
      written to ``metrics.jsonl``): all producers of one kind must
      agree on the key set, so anything tailing the log can rely on a
      stable per-kind schema (the log is an export; consumed-elsewhere
      is not required).

    The soak codec in ``cluster/protocol.py`` walks the dataclass
    fields in both directions, so it has no key set to drift.
    """

    code = "RPL012"
    name = "schema-drift"
    description = (
        "wire/report field produced but never consumed, consumed but"
        " never produced, or metrics kinds with inconsistent schemas"
    )

    SCOPE = ("repro/cluster/",)
    _CONSUMER_PARAMS = frozenset({"message"})

    def check_project(self, index: ProjectIndex) -> Iterator[Violation]:
        wire_produced: Dict[str, List[Tuple[ModuleInfo, ast.Dict]]] = {}
        wire_consumed: Dict[str, List[Tuple[ModuleInfo, ast.AST]]] = {}
        kinds: Dict[str, List[Tuple[ModuleInfo, ast.Dict, FrozenSet[str]]]] = {}
        for module in self.scoped(index):
            self._collect_literals(module, wire_produced, kinds)
            self._collect_consumers(module, wire_consumed)
        yield from self._check_wire(wire_produced, wire_consumed)
        yield from self._check_kinds(kinds)

    # -- producers ------------------------------------------------------------

    @staticmethod
    def _literal_keys(node: ast.Dict) -> Optional[Dict[str, ast.expr]]:
        """str-key -> value map when *every* key is a string literal."""
        out: Dict[str, ast.expr] = {}
        for key, value in zip(node.keys, node.values):
            if (
                key is None
                or not isinstance(key, ast.Constant)
                or not isinstance(key.value, str)
            ):
                return None
            out[key.value] = value
        return out if out else None

    def _collect_literals(
        self,
        module: ModuleInfo,
        wire_produced: Dict[str, List[Tuple[ModuleInfo, ast.Dict]]],
        kinds: Dict[str, List[Tuple[ModuleInfo, ast.Dict, FrozenSet[str]]]],
    ) -> None:
        for node in ast.walk(module.ctx.tree):
            if not isinstance(node, ast.Dict):
                continue
            keys = self._literal_keys(node)
            if keys is None:
                continue
            type_value = keys.get("type")
            kind_value = keys.get("kind")
            if (
                type_value is not None
                and isinstance(type_value, ast.Constant)
                and isinstance(type_value.value, str)
            ):
                for key in keys:
                    wire_produced.setdefault(key, []).append((module, node))
            elif (
                kind_value is not None
                and isinstance(kind_value, ast.Constant)
                and isinstance(kind_value.value, str)
            ):
                kinds.setdefault(kind_value.value, []).append(
                    (module, node, frozenset(keys))
                )

    # -- consumers ------------------------------------------------------------

    def _collect_consumers(
        self,
        module: ModuleInfo,
        wire_consumed: Dict[str, List[Tuple[ModuleInfo, ast.AST]]],
    ) -> None:
        seen: Set[int] = set()
        for func in ast.walk(module.ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            consumers = self._consumer_names(func)
            for node in ast.walk(func):
                consumed = self._consumption(node)
                if consumed is None or id(node) in seen:
                    continue
                var, key = consumed
                if var in consumers:
                    seen.add(id(node))
                    wire_consumed.setdefault(key, []).append((module, node))

    def _consumer_names(
        self, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Set[str]:
        names = {
            arg.arg
            for arg in func.args.posonlyargs + func.args.args
            if arg.arg in self._CONSUMER_PARAMS
        }
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "recv"
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _consumption(node: ast.AST) -> Optional[Tuple[str, str]]:
        """The ``(variable, key)`` one AST node consumes, if any."""
        if isinstance(node, ast.Subscript) and isinstance(
            node.value, ast.Name
        ):
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                return node.value.id, key.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            return node.func.value.id, node.args[0].value
        return None

    # -- checks ---------------------------------------------------------------

    def _check_wire(
        self,
        produced: Dict[str, List[Tuple[ModuleInfo, ast.Dict]]],
        consumed: Dict[str, List[Tuple[ModuleInfo, ast.AST]]],
    ) -> Iterator[Violation]:
        for key in sorted(consumed):
            if key == "type" or key in produced:
                continue
            for module, node in consumed[key]:
                yield self.violation(
                    module,
                    node,
                    f"consumes wire field '{key}' that no send site"
                    " produces: the read always takes its fallback (or"
                    " raises) — fix the field name on one side",
                )
        for key in sorted(produced):
            if key == "type" or key in consumed:
                continue
            for module, node in produced[key]:
                yield self.violation(
                    module,
                    node,
                    f"produces wire field '{key}' that no consumer"
                    " reads: dead wire weight — consume it on the"
                    " receiving side or drop it from the message",
                )

    def _check_kinds(
        self,
        kinds: Dict[str, List[Tuple[ModuleInfo, ast.Dict, FrozenSet[str]]]],
    ) -> Iterator[Violation]:
        for kind in sorted(kinds):
            sites = kinds[kind]
            if len({keys for _, _, keys in sites}) <= 1:
                continue
            counts: Dict[FrozenSet[str], int] = {}
            for _, _, keys in sites:
                counts[keys] = counts.get(keys, 0) + 1
            canonical = max(
                counts, key=lambda keys: (counts[keys], sorted(keys))
            )
            for module, node, keys in sites:
                if keys == canonical:
                    continue
                missing = sorted(canonical - keys)
                extra = sorted(keys - canonical)
                detail = "; ".join(
                    part
                    for part in (
                        f"missing {missing}" if missing else "",
                        f"extra {extra}" if extra else "",
                    )
                    if part
                )
                yield self.violation(
                    module,
                    node,
                    f"metrics kind '{kind}' produced with a divergent"
                    f" schema ({detail}): every producer of one kind"
                    " must emit the same keys so metrics.jsonl stays"
                    " machine-tailable",
                )


PROJECT_RULES: Tuple[Type[ProjectRule], ...] = (
    SeedThreadingRule,
    PerfCounterConsistencyRule,
    SchemaDriftRule,
)


def project_rule_catalog() -> List[Tuple[str, str, str]]:
    """``(code, name, description)`` rows for ``--list-rules`` and docs."""
    return [
        (rule.code, rule.name, rule.description) for rule in PROJECT_RULES
    ]
