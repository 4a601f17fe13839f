"""Interprocedural abstract interpreter behind the flow analyses.

One pass serves three consumers:

* **Call graph** — every resolved call edge (direct calls, methods via
  ``self``, aliased imports, dispatch-dict lookups, ``getattr`` on a
  module, and an attribute-name fallback for unknown receivers).
* **Taint** — summary-based dataflow.  Each function gets a
  :class:`Summary` describing whether its return is a taint *source*,
  which parameters flow to its return (and which sink categories are
  cleared en route), and which parameters reach sinks inside it or its
  callees.  Summaries are iterated to a fixpoint, then a final pass
  reports source-to-sink flows as findings.
* **Determinism** — per-function nondeterminism events (unseeded RNG,
  unordered-set iteration) later gated on entrypoint reachability by
  :mod:`repro.devtools.flow.determinism`.

The abstract domain is deliberately small: a value is a possible-taint
(with the set of sink categories already cleared by sanitizers and a
few origin strings for messages), a set of parameter dependencies, an
optional set of callable targets (for higher-order dispatch), and one
boolean (``is_set``).  The interpreter is
flow-insensitive within a function (assignments only *join*), visits
each body twice to stabilize loop-carried facts, and evaluates lambda
bodies inline in the enclosing environment — approximating the
deferred call that dispatch helpers like ``_cached(key, lambda: ...)``
perform.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.devtools.findings import Finding
from repro.devtools.flow.project import FunctionUnit, ModuleUnit, Project
from repro.devtools.flow.registry import (
    CLEAN_BUILTINS,
    FETCH_ATTR_NAMES,
    FETCH_SINK_DOTTED,
    FILE_READ_ATTRS,
    PATH_SINK_ANY_ARG,
    PATH_SINK_BUILTINS,
    PATH_SINK_DOTTED,
    PROPAGATING_BUILTINS,
    SEEDED_RNG_ALLOWED,
    SOURCE_ATTR_NAMES,
    TAINT_RULE_BY_CATEGORY,
)

__all__ = ["Taint", "AV", "SinkHit", "DetEvent", "Summary", "AnalysisResult", "run_analysis"]

_MAX_ORIGINS = 3
_MAX_CHAIN = 6
_MAX_SINK_HITS_PER_PARAM = 24
_MAX_FIXPOINT_ROUNDS = 20

_MUTATING_METHODS = frozenset(
    {"append", "appendleft", "add", "extend", "extendleft", "insert", "update", "push"}
)


@dataclass(frozen=True, slots=True)
class Taint:
    """Untrusted data: which sink categories sanitizers cleared, and a
    few origin strings for diagnostics."""

    cleared: frozenset[str] = frozenset()
    origins: tuple[str, ...] = ()


def _merge_origins(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    merged = list(a)
    for origin in b:
        if origin not in merged:
            merged.append(origin)
    return tuple(sorted(merged)[:_MAX_ORIGINS])


def join_taint(a: Taint | None, b: Taint | None) -> Taint | None:
    """Least upper bound: tainted wins; cleared sets intersect."""
    if a is None:
        return b
    if b is None:
        return a
    return Taint(
        cleared=a.cleared & b.cleared, origins=_merge_origins(a.origins, b.origins)
    )


def clear_taint(t: Taint | None, kinds: frozenset[str]) -> Taint | None:
    """Apply a sanitizer: add ``kinds`` to the cleared set."""
    if t is None or "*" in kinds:
        return None if ("*" in kinds or t is None) else t
    return Taint(cleared=t.cleared | kinds, origins=t.origins)


@dataclass(slots=True)
class AV:
    """Abstract value: taint, parameter dependencies (param index ->
    categories cleared since entry), callable targets, and set-ness."""

    taint: Taint | None = None
    pdeps: dict[int, frozenset[str]] = field(default_factory=dict)
    callables: frozenset[str] = frozenset()
    is_set: bool = False


def _merge_pdeps(
    into: dict[int, frozenset[str]], other: Mapping[int, frozenset[str]],
    additions: frozenset[str] = frozenset(),
) -> None:
    for param, cleared in other.items():
        cleared = cleared | additions
        if param in into:
            into[param] = into[param] & cleared
        else:
            into[param] = cleared


def join_av(*values: AV) -> AV:
    """Join abstract values (used for merges and default propagation)."""
    result = AV()
    for value in values:
        result.taint = join_taint(result.taint, value.taint)
        _merge_pdeps(result.pdeps, value.pdeps)
        result.callables = result.callables | value.callables
        result.is_set = result.is_set or value.is_set
    return result


@dataclass(frozen=True, slots=True)
class SinkHit:
    """A sink location reachable from a function parameter."""

    category: str
    detail: str
    path: str
    line: int
    column: int
    symbol: str
    source_line: str
    cleared: frozenset[str] = frozenset()
    chain: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class DetEvent:
    """One potential-nondeterminism site inside a function."""

    rule: str
    message: str
    path: str
    line: int
    column: int
    symbol: str
    source_line: str


@dataclass(slots=True)
class Summary:
    """Interprocedural summary of one function."""

    ret_taint: Taint | None = None
    ret_pdeps: dict[int, frozenset[str]] = field(default_factory=dict)
    sink_pdeps: dict[int, tuple[SinkHit, ...]] = field(default_factory=dict)

    def key(self) -> tuple:
        """Canonical form for fixpoint convergence checks."""
        taint_key = (
            None
            if self.ret_taint is None
            else (tuple(sorted(self.ret_taint.cleared)), self.ret_taint.origins)
        )
        return (
            taint_key,
            tuple(sorted((p, tuple(sorted(c))) for p, c in self.ret_pdeps.items())),
            tuple(
                sorted(
                    (p, tuple(sorted((h.category, h.path, h.line, tuple(sorted(h.cleared))) for h in hits)))
                    for p, hits in self.sink_pdeps.items()
                )
            ),
        )


@dataclass(slots=True)
class AnalysisResult:
    """Everything the downstream analyses consume."""

    summaries: dict[str, Summary] = field(default_factory=dict)
    call_edges: dict[str, set[str]] = field(default_factory=dict)
    taint_findings: list[Finding] = field(default_factory=list)
    det_events: dict[str, list[DetEvent]] = field(default_factory=dict)


# -- callee resolution ------------------------------------------------------


@dataclass(slots=True)
class _Callee:
    """Resolution of a call expression's target."""

    kind: str  # "units" | "class" | "external" | "builtin" | "unknown"
    units: list[FunctionUnit] = field(default_factory=list)
    dotted: str = ""
    builtin: str = ""
    receiver: AV | None = None
    attr: str = ""


class _Interp:
    """Interpret one function (or one module's top-level code)."""

    def __init__(
        self,
        project: Project,
        module: ModuleUnit,
        unit: FunctionUnit | None,
        summaries: Mapping[str, Summary],
        collect: bool,
    ) -> None:
        self.project = project
        self.module = module
        self.unit = unit
        self.symbol = unit.symbol if unit is not None else "<module>"
        self.summaries = summaries
        self.collect = collect
        self.env: dict[str, AV] = {}
        self.edges: set[str] = set()
        self.findings: list[Finding] = []
        self.det_events: list[DetEvent] = []
        self.ret = AV()
        self.summary = Summary()

    # -- entry ------------------------------------------------------------

    def run(self) -> Summary:
        if self.unit is not None:
            for index, name in enumerate(self.unit.params):
                self.env[name] = AV(pdeps={index: frozenset()})
            body: Sequence[ast.stmt] = self.unit.node.body
        else:
            body = self.module.tree.body
        # Two passes stabilize loop-carried and use-before-def facts
        # (the environment only ever joins, so this is monotone).
        for _ in range(2):
            self.findings.clear()
            self.det_events.clear()
            self.visit_block(body)
        self.summary.ret_taint = self.ret.taint
        self.summary.ret_pdeps = dict(self.ret.pdeps)
        return self.summary

    # -- helpers ----------------------------------------------------------

    def _loc(self, node: ast.AST) -> tuple[int, int]:
        return getattr(node, "lineno", 1), getattr(node, "col_offset", 0)

    def _finding(self, rule: str, node: ast.AST, message: str) -> None:
        if not self.collect:
            return
        line, column = self._loc(node)
        if self.module.is_suppressed(rule, line):
            return
        self.findings.append(
            Finding(
                rule=rule,
                path=self.module.path,
                line=line,
                column=column,
                message=message,
                symbol=self.symbol,
                source_line=self.module.source_line(line),
            )
        )

    def _det_event(self, rule: str, node: ast.AST, message: str) -> None:
        if not self.collect:
            return
        line, column = self._loc(node)
        if self.module.is_suppressed(rule, line):
            return
        self.det_events.append(
            DetEvent(
                rule=rule,
                message=message,
                path=self.module.path,
                line=line,
                column=column,
                symbol=self.symbol,
                source_line=self.module.source_line(line),
            )
        )

    def _origin(self, node: ast.AST, what: str) -> Taint:
        line, _ = self._loc(node)
        leaf = self.module.path.rsplit("/", 1)[-1]
        return Taint(origins=(f"{leaf}:{line} {what}",))

    def _bind(self, target: ast.expr, value: AV) -> None:
        if isinstance(target, ast.Name):
            existing = self.env.get(target.id)
            self.env[target.id] = join_av(existing, value) if existing else value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, AV(taint=value.taint, pdeps=dict(value.pdeps)))
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                existing = self.env.get(base.id)
                joined = join_av(existing, value) if existing else value
                # Container identity (set-ness) is a property of the
                # container, not the stored element.
                joined.is_set = existing.is_set if existing else False
                self.env[base.id] = joined
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                existing = self.env.get(base.id)
                if existing is not None:
                    self.env[base.id] = join_av(existing, value)

    def _element_of(self, container: AV) -> AV:
        return AV(taint=container.taint, pdeps=dict(container.pdeps))

    # -- sink machinery ----------------------------------------------------

    def _check_sink(self, category: str, value: AV, node: ast.AST, detail: str) -> None:
        rule = TAINT_RULE_BY_CATEGORY[category]
        line, column = self._loc(node)
        if value.taint is not None and category not in value.taint.cleared:
            origins = ", ".join(value.taint.origins) or "untrusted input"
            self._finding(rule, node, f"untrusted data ({origins}) reaches {detail}")
        for param, cleared in value.pdeps.items():
            if category in cleared:
                continue
            hits = list(self.summary.sink_pdeps.get(param, ()))
            if len(hits) >= _MAX_SINK_HITS_PER_PARAM:
                continue
            hit = SinkHit(
                category=category,
                detail=detail,
                path=self.module.path,
                line=line,
                column=column,
                symbol=self.symbol,
                source_line=self.module.source_line(line),
                cleared=cleared,
                chain=(self._qualname(),),
            )
            if not any(
                h.category == hit.category and h.path == hit.path and h.line == hit.line
                for h in hits
            ):
                hits.append(hit)
                self.summary.sink_pdeps[param] = tuple(hits)

    def _qualname(self) -> str:
        if self.unit is not None:
            return self.unit.qualname
        return f"{self.module.name}.<module>"

    def _apply_summary(
        self,
        unit: FunctionUnit,
        args_by_index: Mapping[int, AV],
        node: ast.AST,
    ) -> AV:
        summary = self.summaries.get(unit.qualname, Summary())
        result = AV(taint=summary.ret_taint)
        for index, additions in summary.ret_pdeps.items():
            arg = args_by_index.get(index)
            if arg is None:
                continue
            if arg.taint is not None:
                result.taint = join_taint(result.taint, clear_taint(arg.taint, additions))
            _merge_pdeps(result.pdeps, arg.pdeps, additions)
        # Parameter-to-sink flows recorded inside the callee fire here
        # when the caller provides tainted data.
        for index, hits in summary.sink_pdeps.items():
            arg = args_by_index.get(index)
            if arg is None:
                continue
            for hit in hits:
                effective = hit.cleared
                if arg.taint is not None and hit.category not in (
                    arg.taint.cleared | effective
                ):
                    rule = TAINT_RULE_BY_CATEGORY[hit.category]
                    if not self.module.is_suppressed(rule, self._loc(node)[0]) and self.collect:
                        sink_module = self._sink_module(hit.path)
                        if sink_module is None or not sink_module.is_suppressed(
                            rule, hit.line
                        ):
                            origins = ", ".join(arg.taint.origins) or "untrusted input"
                            chain = (self._qualname(), *hit.chain)[:_MAX_CHAIN]
                            self.findings.append(
                                Finding(
                                    rule=rule,
                                    path=hit.path,
                                    line=hit.line,
                                    column=hit.column,
                                    message=(
                                        f"untrusted data ({origins}) reaches "
                                        f"{hit.detail} via {' -> '.join(chain)}"
                                    ),
                                    symbol=hit.symbol,
                                    source_line=hit.source_line,
                                )
                            )
                for param, cleared in arg.pdeps.items():
                    if hit.category in (cleared | effective):
                        continue
                    existing = list(self.summary.sink_pdeps.get(param, ()))
                    if len(existing) >= _MAX_SINK_HITS_PER_PARAM:
                        continue
                    lifted = SinkHit(
                        category=hit.category,
                        detail=hit.detail,
                        path=hit.path,
                        line=hit.line,
                        column=hit.column,
                        symbol=hit.symbol,
                        source_line=hit.source_line,
                        cleared=cleared | effective,
                        chain=(self._qualname(), *hit.chain)[:_MAX_CHAIN],
                    )
                    if not any(
                        h.category == lifted.category
                        and h.path == lifted.path
                        and h.line == lifted.line
                        for h in existing
                    ):
                        existing.append(lifted)
                        self.summary.sink_pdeps[param] = tuple(existing)
        if unit.sanitizes is not None:
            if "*" in unit.sanitizes:
                return AV()
            result.taint = clear_taint(result.taint, unit.sanitizes)
            result.pdeps = {
                p: c | unit.sanitizes for p, c in result.pdeps.items()
            }
        return result

    def _sink_module(self, path: str) -> ModuleUnit | None:
        for module in self.project.modules.values():
            if module.path == path:
                return module
        return None

    # -- callee resolution -------------------------------------------------

    def _resolve_dotted(self, base: str, attrs: Sequence[str]) -> str:
        root = self.module.imports.get(base, base)
        return ".".join([root, *attrs])

    def _lookup_units(self, dotted: str) -> list[FunctionUnit]:
        unit = self.project.functions.get(dotted)
        return [unit] if unit is not None else []

    def _resolve_callee(self, func: ast.expr) -> _Callee:
        if isinstance(func, ast.Name):
            name = func.id
            local = self.env.get(name)
            if local is not None and local.callables:
                units = [
                    self.project.functions[q]
                    for q in sorted(local.callables)
                    if q in self.project.functions
                ]
                if units:
                    return _Callee(kind="units", units=units)
            if self.unit is not None:
                nested = self.module.functions.get(f"{self.unit.symbol}.{name}")
                if nested is not None:
                    return _Callee(kind="units", units=[nested])
            direct = self.module.functions.get(name)
            if direct is not None:
                return _Callee(kind="units", units=[direct])
            if name in self.module.imports:
                dotted = self.module.imports[name]
                units = self._lookup_units(dotted)
                if units:
                    return _Callee(kind="units", units=units)
                if dotted in self.project.classes:
                    return _Callee(kind="class", dotted=dotted)
                return _Callee(kind="external", dotted=dotted)
            if f"{self.module.name}.{name}" in self.project.classes:
                return _Callee(kind="class", dotted=f"{self.module.name}.{name}")
            return _Callee(kind="builtin", builtin=name)
        if isinstance(func, ast.Attribute):
            parts: list[str] = []
            current: ast.expr = func
            while isinstance(current, ast.Attribute):
                parts.append(current.attr)
                current = current.value
            parts.reverse()
            attr = parts[-1]
            if isinstance(current, ast.Name):
                base = current.id
                if base == "self" and self.unit is not None and self.unit.class_name:
                    klass = self.project.classes.get(self.unit.class_name)
                    if klass is not None and len(parts) == 1 and attr in klass.methods:
                        return _Callee(
                            kind="units",
                            units=[klass.methods[attr]],
                            receiver=self.env.get("self", AV()),
                            attr=attr,
                        )
                if base in self.module.imports or base not in self.env:
                    dotted = self._resolve_dotted(base, parts)
                    units = self._lookup_units(dotted)
                    if units:
                        return _Callee(kind="units", units=units, attr=attr)
                    if dotted in self.project.classes:
                        return _Callee(kind="class", dotted=dotted)
                    if base in self.module.imports or base in (
                        "os", "re", "time", "datetime", "np", "numpy", "random"
                    ):
                        return _Callee(kind="external", dotted=dotted, attr=attr)
                receiver = self.env.get(base, self.eval(current))
                return self._receiver_callee(receiver, attr, base)
            receiver = self.eval(current)
            return self._receiver_callee(receiver, attr, "")
        if isinstance(func, ast.Subscript):
            container = func.value
            if isinstance(container, (ast.Name, ast.Attribute)):
                dotted = self._dotted_of(container)
                if dotted is not None:
                    table = self.project.dispatch_tables.get(dotted)
                    if table is None and "." not in dotted:
                        table = self.project.dispatch_tables.get(
                            f"{self.module.name}.{dotted}"
                        )
                    if table:
                        units = [
                            self.project.functions[q]
                            for q in table
                            if q in self.project.functions
                        ]
                        return _Callee(kind="units", units=units)
            receiver = self.eval(func)
            return _Callee(kind="unknown", receiver=receiver)
        receiver = self.eval(func)
        return _Callee(kind="unknown", receiver=receiver)

    def _receiver_callee(self, receiver: AV, attr: str, base: str) -> _Callee:
        if receiver.callables:
            units = [
                self.project.functions[q]
                for q in sorted(receiver.callables)
                if q in self.project.functions
            ]
            if units:
                return _Callee(kind="units", units=units, receiver=receiver, attr=attr)
        fallback = [
            self.project.functions[q]
            for q in self.project.by_name.get(attr, ())
            if q in self.project.functions
            and self.project.functions[q].class_name is not None
        ]
        return _Callee(
            kind="units" if fallback else "unknown",
            units=fallback,
            receiver=receiver,
            attr=attr,
        )

    def _dotted_of(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.module.imports.get(node.id, f"{self.module.name}.{node.id}")
        if isinstance(node, ast.Attribute):
            parts: list[str] = []
            current: ast.expr = node
            while isinstance(current, ast.Attribute):
                parts.append(current.attr)
                current = current.value
            if isinstance(current, ast.Name):
                return self._resolve_dotted(current.id, list(reversed(parts)))
        return None

    # -- expression evaluation --------------------------------------------

    def eval(self, node: ast.expr | None) -> AV:
        if node is None:
            return AV()
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # Conservative default: join every child expression.
        children = [
            self.eval(child)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ]
        return join_av(*children) if children else AV()

    def _eval_Constant(self, node: ast.Constant) -> AV:
        return AV()

    def _eval_Name(self, node: ast.Name) -> AV:
        value = self.env.get(node.id)
        if value is not None:
            return AV(
                taint=value.taint,
                pdeps=dict(value.pdeps),
                callables=value.callables,
                is_set=value.is_set,
            )
        if node.id in self.module.functions:
            return AV(callables=frozenset({self.module.functions[node.id].qualname}))
        dotted = self.module.imports.get(node.id)
        if dotted is not None and dotted in self.project.functions:
            return AV(callables=frozenset({dotted}))
        return AV()

    def _eval_Attribute(self, node: ast.Attribute) -> AV:
        dotted = self._dotted_of(node)
        if dotted is not None and dotted in self.project.functions:
            return AV(callables=frozenset({dotted}))
        value = self.eval(node.value)
        return AV(taint=value.taint, pdeps=dict(value.pdeps))

    def _eval_BinOp(self, node: ast.BinOp) -> AV:
        left, right = self.eval(node.left), self.eval(node.right)
        result = AV()
        if isinstance(node.op, (ast.Add, ast.Mod)):
            result.taint = join_taint(left.taint, right.taint)
            _merge_pdeps(result.pdeps, left.pdeps)
            _merge_pdeps(result.pdeps, right.pdeps)
        if isinstance(node.op, ast.BitOr):
            result.is_set = left.is_set and right.is_set
        return result

    def _eval_BoolOp(self, node: ast.BoolOp) -> AV:
        return join_av(*(self.eval(v) for v in node.values))

    def _eval_UnaryOp(self, node: ast.UnaryOp) -> AV:
        self.eval(node.operand)
        return AV()

    def _eval_Compare(self, node: ast.Compare) -> AV:
        for operand in (node.left, *node.comparators):
            self.eval(operand)
        return AV()

    def _eval_Subscript(self, node: ast.Subscript) -> AV:
        value = self.eval(node.value)
        self.eval(node.slice)
        result = AV(taint=value.taint, pdeps=dict(value.pdeps))
        dotted = self._dotted_of(node.value)
        if dotted is not None:
            table = self.project.dispatch_tables.get(dotted)
            if table:
                result.callables = frozenset(table)
        return result

    def _eval_JoinedStr(self, node: ast.JoinedStr) -> AV:
        parts = [self.eval(v) for v in node.values]
        joined = join_av(*parts) if parts else AV()
        return AV(taint=joined.taint, pdeps=dict(joined.pdeps))

    def _eval_FormattedValue(self, node: ast.FormattedValue) -> AV:
        return self.eval(node.value)

    def _eval_List(self, node: ast.List) -> AV:
        joined = join_av(*(self.eval(e) for e in node.elts)) if node.elts else AV()
        joined.is_set = False
        joined.callables = frozenset()
        return joined

    _eval_Tuple = _eval_List

    def _eval_Set(self, node: ast.Set) -> AV:
        joined = join_av(*(self.eval(e) for e in node.elts)) if node.elts else AV()
        joined.is_set = True
        return joined

    def _eval_Dict(self, node: ast.Dict) -> AV:
        values = [self.eval(k) for k in node.keys if k is not None]
        values += [self.eval(v) for v in node.values]
        joined = join_av(*values) if values else AV()
        joined.is_set = False
        return joined

    def _eval_comprehension(self, node) -> AV:
        for generator in node.generators:
            iterable = self.eval(generator.iter)
            self._bind(generator.target, self._element_of(iterable))
            for condition in generator.ifs:
                self.eval(condition)
        if isinstance(node, ast.DictComp):
            return join_av(self.eval(node.key), self.eval(node.value))
        return self.eval(node.elt)

    def _eval_ListComp(self, node: ast.ListComp) -> AV:
        return self._eval_comprehension(node)

    _eval_GeneratorExp = _eval_ListComp

    def _eval_SetComp(self, node: ast.SetComp) -> AV:
        result = self._eval_comprehension(node)
        result.is_set = True
        return result

    def _eval_DictComp(self, node: ast.DictComp) -> AV:
        return self._eval_comprehension(node)

    def _eval_Lambda(self, node: ast.Lambda) -> AV:
        # Approximate the deferred call by evaluating the body inline;
        # lambda parameters are unbound (evaluate to clean values).
        return self.eval(node.body)

    def _eval_IfExp(self, node: ast.IfExp) -> AV:
        self.eval(node.test)
        return join_av(self.eval(node.body), self.eval(node.orelse))

    def _eval_Starred(self, node: ast.Starred) -> AV:
        return self.eval(node.value)

    def _eval_Await(self, node: ast.Await) -> AV:
        return self.eval(node.value)

    def _eval_Yield(self, node: ast.Yield) -> AV:
        value = self.eval(node.value) if node.value is not None else AV()
        self.ret = join_av(self.ret, value)
        return AV()

    def _eval_YieldFrom(self, node: ast.YieldFrom) -> AV:
        value = self.eval(node.value)
        self.ret = join_av(self.ret, value)
        return AV()

    def _eval_NamedExpr(self, node: ast.NamedExpr) -> AV:
        value = self.eval(node.value)
        self._bind(node.target, value)
        return value

    # -- calls -------------------------------------------------------------

    def _eval_Call(self, node: ast.Call) -> AV:
        callee = self._resolve_callee(node.func)
        positional = [self.eval(a) for a in node.args]
        keywords = {k.arg: self.eval(k.value) for k in node.keywords}
        all_args = positional + list(keywords.values())

        # Source/sink semantics for the web trust boundary apply to any
        # .fetch() call regardless of how (or whether) it resolved: the
        # WebHost protocol is the boundary, not one implementation.
        if callee.attr in FETCH_ATTR_NAMES or (
            callee.kind == "units"
            and any(u.name in FETCH_ATTR_NAMES for u in callee.units)
        ):
            for unit in callee.units:
                self.edges.add(unit.qualname)
            if positional:
                self._check_sink("ssrf", positional[0], node, "an outbound fetch")
            elif keywords:
                self._check_sink(
                    "ssrf", next(iter(keywords.values())), node, "an outbound fetch"
                )
            return AV(taint=self._origin(node, f"{callee.attr or 'fetch'}()"))

        if callee.kind == "units":
            return self._call_units(node, callee, positional, keywords)
        if callee.kind == "class":
            return self._call_class(node, callee, all_args)
        if callee.kind == "external":
            return self._call_external(node, callee, positional, all_args)
        if callee.kind == "builtin":
            return self._call_builtin(node, callee, positional, keywords, all_args)
        return self._call_unknown(node, callee, positional, all_args)

    def _call_units(
        self,
        node: ast.Call,
        callee: _Callee,
        positional: list[AV],
        keywords: dict[str | None, AV],
    ) -> AV:
        results = []
        for unit in callee.units:
            self.edges.add(unit.qualname)
            offset = 0
            args_by_index: dict[int, AV] = {}
            if callee.receiver is not None and unit.class_name is not None:
                args_by_index[0] = callee.receiver
                offset = 1
            for i, value in enumerate(positional):
                args_by_index[i + offset] = value
            for name, value in keywords.items():
                if name is not None and name in unit.params:
                    args_by_index[unit.params.index(name)] = value
            results.append(self._apply_summary(unit, args_by_index, node))
        return join_av(*results) if results else AV()

    def _call_class(self, node: ast.Call, callee: _Callee, all_args: list[AV]) -> AV:
        klass = self.project.classes.get(callee.dotted)
        if klass is not None:
            init = klass.methods.get("__init__")
            if init is not None:
                self.edges.add(init.qualname)
        # Constructors propagate every argument into the instance.
        joined = join_av(*all_args) if all_args else AV()
        return AV(taint=joined.taint, pdeps=dict(joined.pdeps))

    def _call_external(
        self, node: ast.Call, callee: _Callee, positional: list[AV], all_args: list[AV]
    ) -> AV:
        dotted = callee.dotted
        if dotted == "random" or dotted.startswith("random."):
            self._det_event(
                "D001",
                node,
                f"call to {dotted} uses the unseeded global stdlib RNG; "
                "use numpy.random.default_rng(seed)",
            )
            return AV()
        if dotted.startswith(("numpy.random.", "np.random.")):
            member = dotted.rsplit(".", 1)[-1]
            if member == "default_rng" or member == "RandomState":
                if not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                ):
                    self._det_event(
                        "D001",
                        node,
                        f"{member}() constructed without a seed is "
                        "nondeterministic; pass an explicit seed",
                    )
                return AV()
            if member not in SEEDED_RNG_ALLOWED:
                self._det_event(
                    "D001",
                    node,
                    f"numpy.random.{member} uses the unseeded global "
                    "RandomState; construct default_rng(seed)",
                )
            return AV()
        if dotted in PATH_SINK_DOTTED:
            if positional:
                self._check_sink("path", positional[0], node, f"{dotted}()")
            return AV()
        if dotted in PATH_SINK_ANY_ARG:
            for value in positional:
                self._check_sink("path", value, node, f"{dotted}()")
            return AV()
        if dotted in FETCH_SINK_DOTTED:
            if positional:
                self._check_sink("ssrf", positional[0], node, f"{dotted}()")
            return AV(taint=self._origin(node, f"{dotted}()"))
        joined = join_av(*all_args) if all_args else AV()
        return AV(taint=joined.taint, pdeps=dict(joined.pdeps))

    def _call_builtin(
        self,
        node: ast.Call,
        callee: _Callee,
        positional: list[AV],
        keywords: dict[str | None, AV],
        all_args: list[AV],
    ) -> AV:
        name = callee.builtin
        if name in PATH_SINK_BUILTINS:
            target = positional[0] if positional else keywords.get("file")
            if target is not None:
                self._check_sink("path", target, node, "open()")
            return AV()
        if name == "getattr" and len(node.args) >= 2:
            dotted = self._dotted_of(node.args[0])
            if dotted is not None and dotted in self.project.modules:
                module = self.project.modules[dotted]
                callables = frozenset(
                    unit.qualname
                    for symbol, unit in module.functions.items()
                    if "." not in symbol
                )
                return AV(callables=callables)
        if name in ("list", "tuple") and positional and positional[0].is_set:
            self._det_event(
                "D003",
                node,
                f"{name}() over an unordered set fixes an arbitrary order; "
                "wrap the set in sorted(...)",
            )
        if name in CLEAN_BUILTINS:
            return AV()
        if name in PROPAGATING_BUILTINS:
            joined = join_av(*all_args) if all_args else AV()
            result = AV(taint=joined.taint, pdeps=dict(joined.pdeps))
            if name in ("set", "frozenset"):
                result.is_set = True
            if name == "sorted":
                result.is_set = False
            return result
        joined = join_av(*all_args) if all_args else AV()
        return AV(taint=joined.taint, pdeps=dict(joined.pdeps))

    def _call_unknown(
        self, node: ast.Call, callee: _Callee, positional: list[AV], all_args: list[AV]
    ) -> AV:
        receiver = callee.receiver or AV()
        attr = callee.attr
        if attr in FILE_READ_ATTRS:
            return AV(taint=self._origin(node, f".{attr}()"))
        if attr in _MUTATING_METHODS:
            base = self._receiver_name(node)
            if base is not None and all_args:
                existing = self.env.get(base)
                joined = join_av(existing or AV(), *all_args)
                joined.is_set = existing.is_set if existing else False
                joined.callables = frozenset()
                self.env[base] = joined
            return AV()
        joined = join_av(receiver, *all_args)
        return AV(taint=joined.taint, pdeps=dict(joined.pdeps))

    def _receiver_name(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.value.id
        return None

    # -- statements --------------------------------------------------------

    def visit_block(self, statements: Sequence[ast.stmt]) -> None:
        for statement in statements:
            self.visit_stmt(statement)

    def visit_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Analyzed separately; bind the name for higher-order use.
            symbol = (
                f"{self.symbol}.{node.name}" if self.unit is not None else node.name
            )
            unit = self.module.functions.get(symbol)
            if unit is not None:
                self.env[node.name] = AV(callables=frozenset({unit.qualname}))
            return
        if isinstance(node, ast.ClassDef):
            self.visit_block(
                [
                    s
                    for s in node.body
                    if not isinstance(
                        s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    )
                ]
            )
            return
        if isinstance(node, ast.Return):
            self.ret = join_av(self.ret, self.eval(node.value))
            return
        if isinstance(node, ast.Assign):
            value = self.eval(node.value)
            for target in node.targets:
                self._bind(target, value)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._bind(node.target, self.eval(node.value))
            return
        if isinstance(node, ast.AugAssign):
            value = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                existing = self.env.get(node.target.id)
                joined = join_av(existing or AV(), value)
                if existing is not None:
                    joined.is_set = existing.is_set
                self.env[node.target.id] = joined
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterable = self.eval(node.iter)
            if iterable.is_set:
                self._det_event(
                    "D003",
                    node,
                    "iteration over an unordered set; wrap in sorted(...) "
                    "for a deterministic order",
                )
            self._bind(node.target, self._element_of(iterable))
            self.visit_block(node.body)
            self.visit_block(node.orelse)
            return
        if isinstance(node, ast.While):
            self.eval(node.test)
            self.visit_block(node.body)
            self.visit_block(node.orelse)
            return
        if isinstance(node, ast.If):
            self.eval(node.test)
            self.visit_block(node.body)
            self.visit_block(node.orelse)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value)
            self.visit_block(node.body)
            return
        if isinstance(node, ast.Try):
            self.visit_block(node.body)
            for handler in node.handlers:
                if handler.name:
                    self.env.setdefault(handler.name, AV())
                self.visit_block(handler.body)
            self.visit_block(node.orelse)
            self.visit_block(node.finalbody)
            return
        if isinstance(node, ast.Expr):
            self.eval(node.value)
            return
        if isinstance(node, ast.Raise):
            self.eval(node.exc)
            self.eval(node.cause)
            return
        if isinstance(node, ast.Assert):
            self.eval(node.test)
            self.eval(node.msg)
            return
        match_type = getattr(ast, "Match", None)
        if match_type is not None and isinstance(node, match_type):
            self.eval(node.subject)
            for case in node.cases:
                self.visit_block(case.body)
            return
        # Import/Delete/Global/Nonlocal/Pass/Break/Continue: nothing to do.


def _analysis_targets(project: Project) -> list[tuple[ModuleUnit, FunctionUnit | None]]:
    targets: list[tuple[ModuleUnit, FunctionUnit | None]] = []
    for module in project.modules.values():
        targets.append((module, None))
        for unit in module.functions.values():
            targets.append((module, unit))
    return targets


def run_analysis(project: Project) -> AnalysisResult:
    """Run the fixpoint over every function, then a collection pass.

    Returns the stable summaries, the call graph edges, all taint
    findings (T001, T004), and per-function determinism events.
    """
    targets = _analysis_targets(project)
    summaries: dict[str, Summary] = {}
    for _ in range(_MAX_FIXPOINT_ROUNDS):
        changed = False
        for module, unit in targets:
            interp = _Interp(project, module, unit, summaries, collect=False)
            summary = interp.run()
            name = unit.qualname if unit is not None else f"{module.name}.<module>"
            previous = summaries.get(name)
            if previous is None or previous.key() != summary.key():
                summaries[name] = summary
                changed = True
        if not changed:
            break

    result = AnalysisResult(summaries=summaries)
    seen: set[str] = set()
    for module, unit in targets:
        interp = _Interp(project, module, unit, summaries, collect=True)
        interp.run()
        name = unit.qualname if unit is not None else f"{module.name}.<module>"
        result.call_edges[name] = interp.edges
        result.det_events[name] = interp.det_events
        for finding in interp.findings:
            identity = (
                finding.rule,
                finding.path,
                finding.line,
                finding.column,
                finding.message,
            )
            if identity not in seen:
                seen.add(identity)
                result.taint_findings.append(finding)
    result.taint_findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return result
