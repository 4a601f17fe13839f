"""Per-function side-effect extraction for the concurrency analyzer.

For every :class:`~tools.flow.project.FunctionUnit` (and each
module's import-time code) this module records the *effects* rules
C001 and C004 care about:

* in-place mutations of module-level mutable containers — directly
  (``_CACHE[k] = v``, ``_CACHE.update(...)``), through an imported
  module attribute (``state.REGISTRY.append(...)``), or through a
  parameter whose default aliases a module global
  (``def f(x, acc=_ACC): acc.append(x)``);
* raw (non-atomic) file writes: ``open(path, "w")`` and
  ``Path.write_text`` / ``write_bytes`` calls that bypass
  ``repro.io``'s atomic helpers.

Extraction is purely syntactic and scope-local — nested function
bodies are skipped because nested defs are separate units — so the
analyzer can attribute each effect to exactly one call-graph node and
gate it on worker/cache reachability.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from tools.conc.registry import (
    MUTABLE_FACTORIES,
    MUTATOR_METHODS,
    WRITE_MODE_CHARS,
)
from tools.flow.project import FunctionUnit, ModuleUnit, Project

__all__ = [
    "Effect",
    "FunctionEffects",
    "collect_mutable_globals",
    "collect_data_globals",
    "extract_effects",
    "iter_scope_nodes",
    "scope_assignments",
]


@dataclass(slots=True)
class Effect:
    """One rule-relevant side effect at a concrete source location."""

    rule: str
    message: str
    line: int
    column: int


@dataclass(slots=True)
class FunctionEffects:
    """Effects of one function (or one module's import-time code)."""

    mutations: list[Effect] = field(default_factory=list)  # C001
    raw_writes: list[Effect] = field(default_factory=list)  # C004


def iter_scope_nodes(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk ``body`` without descending into nested function/class
    definitions (those are separate units with their own effects).
    Nested defs are *yielded* (their names bind in this scope) but
    never entered."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def scope_assignments(body: Sequence[ast.stmt]) -> dict[str, ast.expr]:
    """Simple ``name = expr`` bindings in a scope (last one wins),
    including ``with expr as name`` targets."""
    assigns: dict[str, ast.expr] = {}
    for node in iter_scope_nodes(body):
        if isinstance(node, ast.Assign) and node.value is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigns[target.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                assigns[node.target.id] = node.value
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    assigns[item.optional_vars.id] = item.context_expr
    return assigns


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in MUTABLE_FACTORIES
    return False


def collect_mutable_globals(project: Project) -> dict[str, int]:
    """Module-level mutable containers: ``module.NAME`` -> def line."""
    return {
        f"{module.name}.{name}": line
        for module in project.modules.values()
        for name, value, line in module.global_assignments()
        if _is_mutable_value(value)
    }


def collect_data_globals(project: Project) -> dict[str, set[str]]:
    """Module name -> module-level *data* names (assignment targets that
    are not functions, classes, or imports) — C005's global candidates."""
    return {
        module.name: {
            name
            for name, _value, _line in module.global_assignments()
            if not name.startswith("__")
        }
        - set(module.functions)
        - set(module.imports)
        for module in project.modules.values()
    }


class _EffectCollector:
    """Extracts one scope's effects against the project-wide tables."""

    def __init__(
        self,
        module: ModuleUnit,
        unit: FunctionUnit | None,
        mutable_globals: dict[str, int],
    ) -> None:
        self.module = module
        self.unit = unit
        self.mutable_globals = mutable_globals
        self.effects = FunctionEffects()
        body = unit.node.body if unit is not None else module.tree.body
        self.body = body
        self.locals = set(scope_assignments(body))
        self.global_decls: set[str] = set()
        for node in iter_scope_nodes(body):
            if isinstance(node, ast.Global):
                self.global_decls.update(node.names)
        # Parameters whose defaults alias a module-level mutable global:
        # mutating the parameter mutates the global for default calls.
        self.param_aliases: dict[str, str] = {}
        if unit is not None:
            self.locals.update(unit.params)
            args = unit.node.args
            positional = args.posonlyargs + args.args
            for arg, default in zip(
                positional[len(positional) - len(args.defaults) :], args.defaults
            ):
                target = self._global_target(default)
                if target is not None:
                    self.param_aliases[arg.arg] = target
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is None:
                    continue
                target = self._global_target(default)
                if target is not None:
                    self.param_aliases[arg.arg] = target

    # -- resolution -------------------------------------------------------

    def _global_target(self, node: ast.expr) -> str | None:
        """Resolve an expression to a module-level mutable global's
        qualified name, or ``None``."""
        if isinstance(node, ast.Name):
            if node.id in self.locals and node.id not in self.global_decls:
                return None
            for candidate in (
                f"{self.module.name}.{node.id}",
                self.module.imports.get(node.id),
            ):
                if candidate in self.mutable_globals:
                    return candidate
            return None
        base = node.value if isinstance(node, ast.Attribute) else None
        if (
            isinstance(base, ast.Name)
            and base.id not in self.locals
            and base.id in self.module.imports
        ):
            # other_module.NAME through an import alias.
            candidate = self.module.dotted(node)
            if candidate in self.mutable_globals:
                return candidate
        return None

    def _mutation_target(self, node: ast.expr) -> str | None:
        """Like :meth:`_global_target` but also sees through parameter
        default aliases."""
        if isinstance(node, ast.Name) and node.id in self.param_aliases:
            return self.param_aliases[node.id]
        return self._global_target(node)

    # -- extraction -------------------------------------------------------

    def run(self) -> FunctionEffects:
        for node in iter_scope_nodes(self.body):
            if isinstance(node, ast.Call):
                self._visit_call(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._visit_store(node)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        self._record_mutation(target.value, target, "del")
        return self.effects

    def _record_mutation(self, receiver: ast.expr, site: ast.AST, how: str) -> None:
        target = self._mutation_target(receiver)
        if target is None:
            return
        self.effects.mutations.append(
            Effect(
                rule="C001",
                message=(
                    f"mutates shared module-level state '{target}' ({how})"
                ),
                line=site.lineno,
                column=site.col_offset,
            )
        )

    def _visit_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in MUTATOR_METHODS:
                self._record_mutation(func.value, node, f".{func.attr}()")
            if func.attr in ("write_text", "write_bytes"):
                self.effects.raw_writes.append(
                    Effect(
                        rule="C004",
                        message=(
                            f"non-atomic .{func.attr}() — use a repro.io "
                            "atomic helper"
                        ),
                        line=node.lineno,
                        column=node.col_offset,
                    )
                )
        elif isinstance(func, ast.Name) and func.id == "open":
            mode = self._open_mode(node)
            if mode is not None and WRITE_MODE_CHARS.intersection(mode):
                self.effects.raw_writes.append(
                    Effect(
                        rule="C004",
                        message=(
                            f"non-atomic open(..., {mode!r}) — use a "
                            "repro.io atomic helper"
                        ),
                        line=node.lineno,
                        column=node.col_offset,
                    )
                )

    @staticmethod
    def _open_mode(node: ast.Call) -> str | None:
        mode: ast.expr | None = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if mode is None:
            return None  # default "r": read-only
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None

    def _visit_store(self, node: ast.stmt) -> None:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:  # AnnAssign
            assert isinstance(node, ast.AnnAssign)
            if node.value is None:
                return
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript):
                self._record_mutation(target.value, node, "subscript store")
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Subscript):
                        self._record_mutation(element.value, node, "subscript store")


def extract_effects(
    project: Project, mutable_globals: dict[str, int]
) -> dict[str, FunctionEffects]:
    """Effects per call-graph node (function qualnames plus one
    ``module.<module>`` node per module for import-time code), against
    the :func:`collect_mutable_globals` table ``mutable_globals``."""
    effects: dict[str, FunctionEffects] = {}
    for module in project.modules.values():
        effects[f"{module.name}.<module>"] = _EffectCollector(
            module, None, mutable_globals
        ).run()
        for unit in module.functions.values():
            effects[unit.qualname] = _EffectCollector(
                module, unit, mutable_globals
            ).run()
    return effects
