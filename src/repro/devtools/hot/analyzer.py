"""Rule engine for ``repro-hot`` (P001-P008).

Findings come in three shapes:

* **syntactic** — P001 (per-item batch-API calls), P003 (list
  membership scans), P004 (incremental array growth), P008 (string
  accumulation) fire wherever the scanner sees them; cold sites are
  still reported but the cost model ranks them below hot ones;
* **hot-gated** — P005 (hoistable pure calls) and P007 (densification)
  only fire in functions reachable from a registered hot entry point
  through the flow call graph — a ``todense()`` in a cold CLI helper is
  noise, the same one inside the sweep is a scaling bug;
* **structural** — P002 (reference-kernel imports) per module and P006
  (per-call re-derivation of invariant state) per class.

Every finding's message carries its static cost
(:mod:`repro.devtools.hot.cost`) and, for hot sites, the shortest call
chain from the entry point; the report is ordered by descending cost so
the most expensive regression is always the first line.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.conc.effects import extract_effects
from repro.devtools.conc.registry import MUTATOR_METHODS
from repro.devtools.findings import Finding, assign_occurrences
from repro.devtools.flow.analysis import ProjectAnalysis
from repro.devtools.flow.project import FunctionUnit, ModuleUnit
from repro.devtools.hot.cost import format_cost, site_cost
from repro.devtools.hot.registry import (
    HOT_ENTRY_SUFFIXES,
    PURE_BUILTINS,
    REFERENCE_EXEMPT_SEGMENTS,
    REFERENCE_MODULE,
    SUPPRESSION_MARKER,
)
from repro.devtools.hot.scan import HotSite, scan_function, scan_module_level

__all__ = ["hot_findings", "hot_entry_qualnames", "derive_pure_functions"]

_MAX_CHAIN_SHOWN = 4


def _matches_suffix(qualname: str, suffix: str) -> bool:
    return qualname == suffix or qualname.endswith("." + suffix)


def hot_entry_qualnames(
    analysis: ProjectAnalysis, extra_suffixes: Iterable[str] = ()
) -> list[str]:
    """Project functions matching the registered hot-entry suffixes."""
    suffixes = tuple(HOT_ENTRY_SUFFIXES) + tuple(extra_suffixes)
    return sorted(
        qualname
        for qualname in analysis.project.functions
        if any(_matches_suffix(qualname, suffix) for suffix in suffixes)
    )


def derive_pure_functions(analysis: ProjectAnalysis) -> frozenset[str]:
    """Qualnames provably pure: no side effects, no determinism events,
    and every call in the body resolves to a pure project function or a
    whitelisted pure builtin.  Attribute calls (``self.m()``,
    ``np.sqrt``) conservatively poison purity."""
    project = analysis.project
    effects = extract_effects(project)
    candidates: dict[str, set[str]] = {}
    for qualname, unit in project.functions.items():
        fx = effects.get(qualname)
        if fx is not None and (fx.mutations or fx.rebinds or fx.raw_writes):
            continue
        if analysis.result.det_events.get(qualname):
            continue
        callees = _syntactic_callees(unit)
        if callees is None:
            continue
        candidates[qualname] = callees
    pure = set(candidates)
    changed = True
    while changed:
        changed = False
        for qualname in sorted(pure):
            if any(callee not in pure for callee in candidates[qualname]):
                pure.discard(qualname)
                changed = True
    return frozenset(pure)


def _syntactic_callees(unit: FunctionUnit) -> set[str] | None:
    """Project qualnames called by ``unit``, or ``None`` when the body
    contains a call/construct purity cannot see through."""
    module = unit.module
    callees: set[str] = set()
    stack: list[ast.AST] = list(unit.node.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal, ast.Await, ast.Yield, ast.YieldFrom)):
            return None
        if isinstance(node, ast.Attribute) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                target = module.functions.get(func.id)
                if target is not None:
                    callees.add(target.qualname)
                else:
                    imported = module.imports.get(func.id)
                    if imported is not None:
                        # Imported project functions join the fixpoint;
                        # external imports poison purity.
                        callees.add(imported)
                    elif func.id not in PURE_BUILTINS:
                        return None
            else:
                return None  # attribute/lambda call: unknown purity
        stack.extend(ast.iter_child_nodes(node))
    return callees


def _chain_note(chain: tuple[str, ...]) -> str:
    shown = chain[-_MAX_CHAIN_SHOWN:]
    prefix = "... -> " if len(chain) > _MAX_CHAIN_SHOWN else ""
    short = " -> ".join(part.rsplit(".", 2)[-1] for part in shown)
    return f"hot: {prefix}{short}"


class _HotAnalyzer:
    def __init__(
        self, analysis: ProjectAnalysis, extra_entries: Iterable[str] = ()
    ) -> None:
        self.project = analysis.project
        self.result = analysis.result
        self.graph = analysis.graph
        self.entries = hot_entry_qualnames(analysis, extra_entries)
        self.reach = self.graph.reachable_from_any(self.entries)
        self.pure = derive_pure_functions(analysis)
        self.pairs: list[tuple[float, Finding]] = []
        self._seen: set[tuple[str, str, int, int, str]] = set()

    # -- emission ----------------------------------------------------------

    def _distance(self, node: str) -> int | None:
        hit = self.reach.get(node)
        if hit is None:
            return None
        return len(hit[1]) - 1

    def _emit(
        self,
        rule: str,
        module: ModuleUnit,
        line: int,
        column: int,
        message: str,
        symbol: str,
        depth: int,
        node: str,
        fixable: bool = False,
        identity_extra: str = "",
    ) -> None:
        if module.is_suppressed_marker(SUPPRESSION_MARKER, rule, line):
            return
        identity = (rule, module.path, line, column, identity_extra)
        if identity in self._seen:
            return
        self._seen.add(identity)
        distance = self._distance(node)
        cost = site_cost(depth, distance)
        if distance is None:
            note = "cold"
        else:
            _entry, chain = self.reach[node]
            note = _chain_note(chain)
        self.pairs.append(
            (
                cost,
                Finding(
                    rule=rule,
                    path=module.path,
                    line=line,
                    column=column,
                    message=f"{message} [cost {format_cost(cost)}; {note}]",
                    symbol=symbol,
                    source_line=module.source_line(line),
                    fixable=fixable,
                ),
            )
        )

    # -- scanner-driven rules ----------------------------------------------

    def _scanned(self) -> None:
        for qualname in sorted(self.project.functions):
            unit = self.project.functions[qualname]
            hot = qualname in self.reach
            for site in scan_function(self.project, unit):
                if not self._keep(site, hot):
                    continue
                self._emit(
                    site.rule,
                    unit.module,
                    site.line,
                    site.column,
                    site.message,
                    unit.symbol,
                    site.depth,
                    qualname,
                    fixable=site.fixable,
                    identity_extra=f"{site.rule}:{site.extra}",
                )
        for name in sorted(self.project.modules):
            module = self.project.modules[name]
            node = f"{name}.<module>"
            hot = node in self.reach
            for site in scan_module_level(self.project, module):
                if not self._keep(site, hot):
                    continue
                self._emit(
                    site.rule,
                    module,
                    site.line,
                    site.column,
                    site.message,
                    "<module>",
                    site.depth,
                    node,
                    fixable=site.fixable,
                    identity_extra=f"{site.rule}:{site.extra}",
                )

    def _keep(self, site: HotSite, hot: bool) -> bool:
        if site.rule == "P007":
            return hot
        if site.rule == "P005":
            return hot and site.callee is not None and site.callee in self.pure
        return True

    # -- P002: reference-kernel imports ------------------------------------

    def _reference_imports(self) -> None:
        for name in sorted(self.project.modules):
            module = self.project.modules[name]
            segments = set(name.split("."))
            if segments & REFERENCE_EXEMPT_SEGMENTS:
                continue
            if name == REFERENCE_MODULE or name.startswith(REFERENCE_MODULE + "."):
                continue
            for node, target in _reference_import_sites(module):
                self._emit(
                    "P002",
                    module,
                    node.lineno,
                    node.col_offset,
                    f"imports reference kernel '{target}' outside "
                    "tests/benchmarks — reference kernels are equivalence "
                    "oracles, not production code",
                    "<module>",
                    0,
                    f"{name}.<module>",
                    identity_extra=target,
                )

    # -- P006: per-call re-derivation of invariant state -------------------

    def _invariant_rederivation(self) -> None:
        for class_qual in sorted(self.project.classes):
            cls = self.project.classes[class_qual]
            init = cls.methods.get("__init__")
            if init is None:
                continue
            init_attrs = _self_attr_writes(init)
            outside_writes: set[str] = set()
            for method_name, method in cls.methods.items():
                if method_name == "__init__":
                    continue
                writes, mutations = (
                    _self_attr_writes(method),
                    _self_attr_mutations(method),
                )
                outside_writes |= writes | mutations
            # __init__ may legitimately build containers in place.
            for method_name in sorted(cls.methods):
                if method_name == "__init__":
                    continue
                method = cls.methods[method_name]
                for node, attr in _sorted_self_attr_calls(method):
                    if attr not in init_attrs or attr in outside_writes:
                        continue
                    self._emit(
                        "P006",
                        method.module,
                        node.lineno,
                        node.col_offset,
                        f"'{method.symbol}()' re-derives sorted(self.{attr}) "
                        "on every call, but the attribute is only assigned "
                        "in __init__ — compute once and cache",
                        method.symbol,
                        0,
                        method.qualname,
                        identity_extra=attr,
                    )

    # -- driver ------------------------------------------------------------

    def run(self) -> list[Finding]:
        self._scanned()
        self._reference_imports()
        self._invariant_rederivation()
        # Occurrence indexes must be stamped in source order; the report
        # itself is then re-ranked by descending static cost.
        self.pairs.sort(key=lambda p: (p[1].path, p[1].line, p[1].column, p[1].rule))
        stamped = assign_occurrences([finding for _, finding in self.pairs])
        ranked = sorted(
            zip((cost for cost, _ in self.pairs), stamped),
            key=lambda p: (-p[0], p[1].path, p[1].line, p[1].column, p[1].rule),
        )
        return [finding for _, finding in ranked]


def _reference_import_sites(
    module: ModuleUnit,
) -> list[tuple[ast.stmt, str]]:
    sites: list[tuple[ast.stmt, str]] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == REFERENCE_MODULE or alias.name.startswith(
                    REFERENCE_MODULE + "."
                ):
                    sites.append((node, alias.name))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.name.split(".")
                drop = node.level - 1 if module.is_package else node.level
                anchor = parts[: len(parts) - drop]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                target = f"{base}.{alias.name}" if base else alias.name
                if base == REFERENCE_MODULE or base.startswith(
                    REFERENCE_MODULE + "."
                ):
                    sites.append((node, base))
                    break
                if target == REFERENCE_MODULE or target.startswith(
                    REFERENCE_MODULE + "."
                ):
                    sites.append((node, target))
                    break
    return sites


def _self_name(unit: FunctionUnit) -> str | None:
    return unit.params[0] if unit.params else None


def _iter_method_nodes(unit: FunctionUnit) -> Iterable[ast.AST]:
    stack: list[ast.AST] = list(unit.node.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _self_attr_writes(unit: FunctionUnit) -> set[str]:
    self_name = _self_name(unit)
    if self_name is None:
        return set()
    return {
        node.attr
        for node in _iter_method_nodes(unit)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    }


def _self_attr_mutations(unit: FunctionUnit) -> set[str]:
    self_name = _self_name(unit)
    if self_name is None:
        return set()
    mutated: set[str] = set()
    for node in _iter_method_nodes(unit):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        func = node.func
        if func.attr not in MUTATOR_METHODS:
            continue
        receiver = func.value
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == self_name
        ):
            mutated.add(receiver.attr)
    return mutated


def _sorted_self_attr_calls(
    unit: FunctionUnit,
) -> list[tuple[ast.Call, str]]:
    """``sorted(self.X)`` / ``sorted(self.X.items()|keys()|values())``
    calls in the method body."""
    self_name = _self_name(unit)
    if self_name is None:
        return []
    calls: list[tuple[ast.Call, str]] = []
    for node in _iter_method_nodes(unit):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Name) or node.func.id != "sorted":
            continue
        if not node.args:
            continue
        arg = node.args[0]
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr in ("items", "keys", "values")
        ):
            arg = arg.func.value
        if (
            isinstance(arg, ast.Attribute)
            and isinstance(arg.value, ast.Name)
            and arg.value.id == self_name
        ):
            calls.append((node, arg.attr))
    return calls


def hot_findings(
    analysis: ProjectAnalysis, extra_entries: Iterable[str] = ()
) -> list[Finding]:
    """All P001-P008 findings for an analyzed project, ranked by
    descending static cost."""
    return _HotAnalyzer(analysis, extra_entries).run()
