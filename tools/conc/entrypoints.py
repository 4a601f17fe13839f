"""Discovery of parallel entry points and memoization sites.

Three kinds of sites make code "concurrency-relevant":

* ``pmap(fn, items, ...)`` calls — ``fn`` runs in worker processes;
* ``executor.submit(fn, ...)`` / ``executor.map(fn, ...)`` on a name
  bound to a ``ProcessPoolExecutor`` (assignment or ``with ... as``);
* ``cache.get_or_compute(key, compute)`` — ``compute``'s result is
  persisted under ``key``, so every input it reads must appear in the
  paired ``cache.key(kind, content, params)`` call.

The submitted/memoized callable is resolved through local assignments,
``functools.partial`` wrappers, nested defs, module functions, import
aliases, and ``Class.method`` references — enough to identify the
call-graph root the analyzer gates rules C001–C004 on, and to classify
fork-unsafe shapes (lambdas, closures) for C006.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from tools.conc.effects import iter_scope_nodes, scope_assignments
from tools.conc.registry import EXECUTOR_FACTORIES
from tools.flow.project import FunctionUnit, ModuleUnit, Project

__all__ = [
    "ResolvedCallable",
    "WorkerSubmission",
    "CacheSite",
    "discover_sites",
    "enclosing_function_chain",
]

_MAX_RESOLVE_DEPTH = 8


@dataclass(slots=True)
class ResolvedCallable:
    """What a submitted/memoized callable expression turned out to be.

    ``kind`` is ``"unit"`` (a project function), ``"lambda"``, or
    ``"unknown"`` (a parameter, external callable, ...).
    """

    kind: str
    unit: FunctionUnit | None = None
    is_nested: bool = False
    via_partial: bool = False


@dataclass(slots=True)
class WorkerSubmission:
    """One callable shipped into a process pool."""

    module: ModuleUnit
    site_unit: FunctionUnit | None
    api: str  # "pmap" | "submit" | "map"
    line: int
    column: int
    callable_expr: ast.expr
    resolved: ResolvedCallable


@dataclass(slots=True)
class CacheSite:
    """One ``get_or_compute`` call paired with its ``.key(...)`` call."""

    module: ModuleUnit
    site_unit: FunctionUnit | None
    line: int
    column: int
    key_call: ast.Call | None
    compute: ResolvedCallable
    receiver_names: frozenset[str]


def enclosing_function_chain(unit: FunctionUnit) -> list[FunctionUnit]:
    """Function units lexically enclosing ``unit``, outermost first.

    Class scopes in the symbol path are skipped: only function scopes
    contribute closure variables.
    """
    chain: list[FunctionUnit] = []
    parts = unit.symbol.split(".")
    for end in range(1, len(parts)):
        prefix = ".".join(parts[:end])
        enclosing = unit.module.functions.get(prefix)
        if enclosing is not None:
            chain.append(enclosing)
    return chain


def _is_nested_function(unit: FunctionUnit) -> bool:
    return bool(enclosing_function_chain(unit))


class _SiteScanner:
    """Scans one scope (function body or module top level) for sites."""

    def __init__(
        self, project: Project, module: ModuleUnit, unit: FunctionUnit | None
    ) -> None:
        self.project = project
        self.module = module
        self.unit = unit
        self.body = unit.node.body if unit is not None else module.tree.body
        self.assigns = scope_assignments(self.body)
        self.executor_names = {
            name
            for name, value in self.assigns.items()
            if self._is_executor_ctor(value)
        }

    def _dotted(self, node: ast.expr) -> str | None:
        """Resolve an expression that names something to a dotted path."""
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self.module.imports.get(current.id, current.id)
        return ".".join([base, *reversed(parts)])

    def _is_executor_ctor(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        dotted = self._dotted(node.func)
        return dotted is not None and dotted.split(".")[-1] in EXECUTOR_FACTORIES

    # -- callable resolution ----------------------------------------------

    def resolve_callable(
        self, expr: ast.expr, depth: int = 0, via_partial: bool = False
    ) -> ResolvedCallable:
        if depth > _MAX_RESOLVE_DEPTH:
            return ResolvedCallable(kind="unknown", via_partial=via_partial)
        if isinstance(expr, ast.Lambda):
            return ResolvedCallable(kind="lambda", via_partial=via_partial)
        if isinstance(expr, ast.Call):
            dotted = self._dotted(expr.func)
            if dotted is not None and dotted.split(".")[-1] == "partial" and expr.args:
                return self.resolve_callable(expr.args[0], depth + 1, via_partial=True)
            return ResolvedCallable(kind="unknown", via_partial=via_partial)
        if isinstance(expr, ast.Name):
            name = expr.id
            if self.unit is not None:
                nested = self.module.functions.get(f"{self.unit.symbol}.{name}")
                if nested is not None:
                    return ResolvedCallable(
                        kind="unit", unit=nested, is_nested=True, via_partial=via_partial
                    )
            if name in self.assigns:
                return self.resolve_callable(
                    self.assigns[name], depth + 1, via_partial=via_partial
                )
            unit = self._unit_for_dotted(self.module.imports.get(name, name))
            if unit is not None:
                return ResolvedCallable(
                    kind="unit",
                    unit=unit,
                    is_nested=_is_nested_function(unit),
                    via_partial=via_partial,
                )
            return ResolvedCallable(kind="unknown", via_partial=via_partial)
        if isinstance(expr, ast.Attribute):
            dotted = self._dotted(expr)
            if dotted is not None:
                unit = self._unit_for_dotted(dotted)
                if unit is not None:
                    return ResolvedCallable(
                        kind="unit",
                        unit=unit,
                        is_nested=_is_nested_function(unit),
                        via_partial=via_partial,
                    )
            return ResolvedCallable(kind="unknown", via_partial=via_partial)
        return ResolvedCallable(kind="unknown", via_partial=via_partial)

    def _unit_for_dotted(self, dotted: str) -> FunctionUnit | None:
        """A project function for a (possibly module-local) dotted name."""
        local = self.module.functions.get(dotted)
        if local is not None:
            return local
        return self.project.functions.get(dotted) or self.project.functions.get(
            f"{self.module.name}.{dotted}"
        )

    # -- site extraction --------------------------------------------------

    def scan(self) -> Iterator[WorkerSubmission | CacheSite]:
        for node in iter_scope_nodes(self.body):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = self._dotted(func) if not isinstance(func, ast.Lambda) else None
            if dotted is not None and dotted.split(".")[-1] == "pmap":
                fn_expr = self._argument(node, 0, "fn")
                if fn_expr is not None:
                    yield self._submission(node, "pmap", fn_expr)
                continue
            if isinstance(func, ast.Attribute) and func.attr in ("submit", "map"):
                receiver = func.value
                is_pool = (
                    isinstance(receiver, ast.Name)
                    and receiver.id in self.executor_names
                ) or self._is_executor_ctor(receiver)
                if is_pool:
                    fn_expr = self._argument(node, 0, "fn")
                    if fn_expr is not None:
                        yield self._submission(node, func.attr, fn_expr)
                continue
            if isinstance(func, ast.Attribute) and func.attr == "get_or_compute":
                yield self._cache_site(node, func)

    @staticmethod
    def _argument(node: ast.Call, index: int, keyword: str) -> ast.expr | None:
        if len(node.args) > index:
            return node.args[index]
        for kw in node.keywords:
            if kw.arg == keyword:
                return kw.value
        return None

    def _submission(
        self, node: ast.Call, api: str, fn_expr: ast.expr
    ) -> WorkerSubmission:
        return WorkerSubmission(
            module=self.module,
            site_unit=self.unit,
            api=api,
            line=node.lineno,
            column=node.col_offset,
            callable_expr=fn_expr,
            resolved=self.resolve_callable(fn_expr),
        )

    def _cache_site(self, node: ast.Call, func: ast.Attribute) -> CacheSite:
        key_expr = self._argument(node, 0, "key")
        compute_expr = self._argument(node, 1, "compute")
        key_call: ast.Call | None = None
        if isinstance(key_expr, ast.Call):
            key_call = key_expr
        elif isinstance(key_expr, ast.Name) and key_expr.id in self.assigns:
            bound = self.assigns[key_expr.id]
            if isinstance(bound, ast.Call):
                key_call = bound
        if key_call is not None and not (
            isinstance(key_call.func, ast.Attribute) and key_call.func.attr == "key"
        ):
            key_call = None
        receiver_names = frozenset(
            child.id
            for child in ast.walk(func.value)
            if isinstance(child, ast.Name)
        )
        compute = (
            self.resolve_callable(compute_expr)
            if compute_expr is not None
            else ResolvedCallable(kind="unknown")
        )
        return CacheSite(
            module=self.module,
            site_unit=self.unit,
            line=node.lineno,
            column=node.col_offset,
            key_call=key_call,
            compute=compute,
            receiver_names=receiver_names,
        )


def discover_sites(
    project: Project,
) -> tuple[list[WorkerSubmission], list[CacheSite]]:
    """All worker submissions and cache sites in the project, in a
    stable (path, line) order."""
    submissions: list[WorkerSubmission] = []
    cache_sites: list[CacheSite] = []
    for module in project.modules.values():
        scopes: list[FunctionUnit | None] = [None, *module.functions.values()]
        for unit in scopes:
            for site in _SiteScanner(project, module, unit).scan():
                if isinstance(site, WorkerSubmission):
                    submissions.append(site)
                else:
                    cache_sites.append(site)
    submissions.sort(key=lambda s: (s.module.path, s.line, s.column))
    cache_sites.sort(key=lambda s: (s.module.path, s.line, s.column))
    return submissions, cache_sites
