"""Whole-package model the flow analyses operate on.

:func:`load_project` parses every module of one or more package trees
and resolves the *static* structure the call-graph builder needs:

* dotted module names derived from the package root;
* per-module import alias tables (``import numpy as np``,
  ``from repro.web.url import parse_url as pu``, relative imports);
* every function and method, keyed by fully qualified name, with its
  parameter list and any ``@sanitizes(...)`` declaration read from the
  decorator list;
* module-level *dispatch tables* — dict literals whose values are
  function references (``_TABLE_BUILDERS = {"table1": tables.table1}``)
  — so ``TABLE[key](config)`` calls resolve to every registered target;
* ``# repro-flow: disable=...`` suppression comments, sharing the
  syntax of repro-lint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from tools.rules import parse_suppressions

__all__ = [
    "FunctionUnit",
    "ClassUnit",
    "ModuleUnit",
    "Project",
    "load_project",
]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}

#: Suppression-comment markers parsed for every module.  ``repro-flow``
#: feeds :attr:`ModuleUnit.line_suppressions`; the rest are reachable
#: through :meth:`ModuleUnit.is_suppressed_marker` (the concurrency
#: analyzer reads ``repro-conc``, the hot-path analyzer ``repro-hot``).
SUPPRESSION_MARKERS = ("repro-flow", "repro-conc", "repro-hot")

#: Module path suffixes whose public functions/methods are experiment
#: entrypoints for the determinism analysis.
ENTRY_MODULE_SUFFIXES = ("cli.py", "runner.py", "_pipeline.py")


@dataclass(slots=True)
class FunctionUnit:
    """One function or method in the analyzed package.

    Attributes:
        qualname: fully qualified dotted name
            (``repro.web.crawler.Crawler.crawl_site``).
        module: owning :class:`ModuleUnit`.
        node: the function's AST node.
        symbol: module-local dotted symbol (``Crawler.crawl_site``) —
            the value findings carry.
        params: parameter names in call order (``self`` included for
            methods; ``*args``/``**kwargs`` appended last).
        class_name: qualified name of the owning class, or ``None``.
        sanitizes: sink categories the function clears (``{"*"}`` for
            full sanitization), or ``None`` when not a sanitizer.
    """

    qualname: str
    module: "ModuleUnit"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    symbol: str
    params: list[str]
    class_name: str | None = None
    sanitizes: frozenset[str] | None = None

    @property
    def name(self) -> str:
        """The function's bare name."""
        return self.node.name


@dataclass(slots=True)
class ClassUnit:
    """One class: its qualified name and its methods by bare name."""

    qualname: str
    methods: dict[str, FunctionUnit] = field(default_factory=dict)


@dataclass(slots=True)
class ModuleUnit:
    """One parsed module plus its resolution context.

    Attributes:
        name: dotted module name (``repro.web.crawler``).
        path: posix path as given to the analyzer.
        tree: parsed AST.
        lines: raw source lines.
        imports: local alias -> dotted target.  Targets may be project
            qualnames or external dotted names (``numpy``, ``time``).
        functions: module-local symbol -> :class:`FunctionUnit`.
        line_suppressions / file_suppressions: ``repro-flow`` comments.
    """

    name: str
    path: str
    tree: ast.Module
    lines: list[str]
    is_package: bool = False
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionUnit] = field(default_factory=dict)
    line_suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    file_suppressions: frozenset[str] = frozenset()
    #: marker -> (per-line suppressions, file-wide suppressions) for
    #: every entry of :data:`SUPPRESSION_MARKERS`.
    marker_suppressions: dict[
        str, tuple[dict[int, frozenset[str]], frozenset[str]]
    ] = field(default_factory=dict)

    def source_line(self, lineno: int) -> str:
        """The stripped source text at 1-based ``lineno``."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        """Whether ``rule_id`` is disabled at ``lineno`` (repro-flow)."""
        if rule_id in self.file_suppressions or "all" in self.file_suppressions:
            return True
        ids = self.line_suppressions.get(lineno, frozenset())
        return rule_id in ids or "all" in ids

    def is_suppressed_marker(self, marker: str, rule_id: str, lineno: int) -> bool:
        """Whether ``rule_id`` is disabled at ``lineno`` for ``marker``
        (e.g. a ``# repro-conc: disable=C003`` comment)."""
        per_line, file_wide = self.marker_suppressions.get(marker, ({}, frozenset()))
        if rule_id in file_wide or "all" in file_wide:
            return True
        ids = per_line.get(lineno, frozenset())
        return rule_id in ids or "all" in ids


@dataclass(slots=True)
class Project:
    """Every module of the analyzed package(s), cross-indexed."""

    modules: dict[str, ModuleUnit] = field(default_factory=dict)
    functions: dict[str, FunctionUnit] = field(default_factory=dict)
    classes: dict[str, ClassUnit] = field(default_factory=dict)
    #: bare function/method name -> qualnames (attr-dispatch fallback).
    by_name: dict[str, list[str]] = field(default_factory=dict)
    #: qualname of a module-level dict of function refs -> target qualnames.
    dispatch_tables: dict[str, tuple[str, ...]] = field(default_factory=dict)
    errors: list[tuple[str, int, str]] = field(default_factory=list)

    def entrypoints(self, extra: Sequence[str] = ()) -> list[FunctionUnit]:
        """Determinism entrypoints: public functions and methods of
        modules matching :data:`ENTRY_MODULE_SUFFIXES`, plus any
        ``extra`` qualnames."""
        entries: dict[str, FunctionUnit] = {}
        for module in self.modules.values():
            if not module.path.endswith(ENTRY_MODULE_SUFFIXES):
                continue
            for unit in module.functions.values():
                parts = unit.symbol.split(".")
                if any(part.startswith("_") for part in parts):
                    continue
                entries[unit.qualname] = unit
        for qualname in extra:
            unit = self.functions.get(qualname)
            if unit is not None:
                entries[qualname] = unit
        return [entries[k] for k in sorted(entries)]


def _iter_package_files(root: Path) -> Iterator[Path]:
    for candidate in sorted(root.rglob("*.py")):
        if any(part in _SKIP_DIRS for part in candidate.parts):
            continue
        yield candidate


def _module_name(root: Path, file_path: Path) -> str:
    relative = file_path.relative_to(root.parent)
    parts = list(relative.parts)
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _sanitizer_categories(node: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str] | None:
    for decorator in node.decorator_list:
        call = decorator
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name != "sanitizes":
            continue
        kinds = {
            arg.value
            for arg in call.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        }
        return frozenset(kinds) if kinds else frozenset({"*"})
    return None


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def _collect_imports(module: ModuleUnit) -> None:
    """Record every import alias in the module (any nesting level)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: level 1 resolves against the module's
                # package — which is the module itself for __init__.py.
                package_parts = module.name.split(".")
                drop = node.level - 1 if module.is_package else node.level
                anchor = package_parts[: len(package_parts) - drop]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = f"{base}.{alias.name}" if base else alias.name


def _collect_functions(project: Project, module: ModuleUnit) -> None:
    def visit(body: Sequence[ast.stmt], symbol_prefix: str, class_qual: str | None) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                symbol = f"{symbol_prefix}.{node.name}" if symbol_prefix else node.name
                unit = FunctionUnit(
                    qualname=f"{module.name}.{symbol}",
                    module=module,
                    node=node,
                    symbol=symbol,
                    params=_param_names(node),
                    class_name=class_qual,
                    sanitizes=_sanitizer_categories(node),
                )
                module.functions[symbol] = unit
                project.functions[unit.qualname] = unit
                project.by_name.setdefault(node.name, []).append(unit.qualname)
                if class_qual is not None:
                    project.classes[class_qual].methods[node.name] = unit
                # Nested defs are registered too (resolvable via closures),
                # but do not descend into them for method collection.
                visit(node.body, symbol, None)
            elif isinstance(node, ast.ClassDef):
                symbol = f"{symbol_prefix}.{node.name}" if symbol_prefix else node.name
                qualname = f"{module.name}.{symbol}"
                project.classes[qualname] = ClassUnit(qualname=qualname)
                visit(node.body, symbol, qualname)
            elif isinstance(node, (ast.If, ast.Try)):
                visit(node.body, symbol_prefix, class_qual)
                for handler in getattr(node, "handlers", []):
                    visit(handler.body, symbol_prefix, class_qual)
                visit(node.orelse, symbol_prefix, class_qual)
                visit(getattr(node, "finalbody", []), symbol_prefix, class_qual)

    visit(module.tree.body, "", None)


def _function_ref_target(module: ModuleUnit, node: ast.expr) -> str | None:
    """Resolve an expression that *names* a function (dispatch values)."""
    if isinstance(node, ast.Name):
        if node.id in module.functions:
            return f"{module.name}.{node.id}"
        return module.imports.get(node.id)
    if isinstance(node, ast.Attribute):
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = module.imports.get(current.id, current.id)
        return ".".join([base, *reversed(parts)])
    if isinstance(node, ast.Lambda):
        return None
    return None


def _collect_dispatch_tables(project: Project, module: ModuleUnit) -> None:
    for node in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not isinstance(value, ast.Dict):
            continue
        refs = []
        for entry in value.values:
            target = _function_ref_target(module, entry)
            if target is not None and target in project.functions:
                refs.append(target)
        if not refs:
            continue
        for target_node in targets:
            if isinstance(target_node, ast.Name):
                project.dispatch_tables[f"{module.name}.{target_node.id}"] = tuple(refs)


def load_project(paths: Sequence[str]) -> Project:
    """Parse the package tree(s) under ``paths`` into a :class:`Project`.

    Each path must be a package directory; its basename becomes the
    root of the dotted module names (``src/repro`` -> ``repro.*``).
    Unreadable or syntactically invalid files are recorded in
    :attr:`Project.errors` rather than aborting the load.
    """
    project = Project()
    for raw in paths:
        root = Path(raw)
        for file_path in _iter_package_files(root):
            posix = str(file_path).replace("\\", "/")
            try:
                source = file_path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=posix)
            except OSError as exc:
                project.errors.append((posix, 1, f"cannot read file: {exc}"))
                continue
            except SyntaxError as exc:
                project.errors.append(
                    (posix, exc.lineno or 1, f"syntax error: {exc.msg}")
                )
                continue
            lines = source.splitlines()
            by_marker = {
                marker: parse_suppressions(lines, marker=marker)
                for marker in SUPPRESSION_MARKERS
            }
            per_line, file_wide = by_marker["repro-flow"]
            module = ModuleUnit(
                name=_module_name(root, file_path),
                path=posix,
                tree=tree,
                lines=lines,
                is_package=file_path.name == "__init__.py",
                line_suppressions=per_line,
                file_suppressions=file_wide,
                marker_suppressions=by_marker,
            )
            project.modules[module.name] = module
            _collect_imports(module)
            _collect_functions(project, module)
    # Dispatch tables need the full function index, so second pass.
    for module in project.modules.values():
        _collect_dispatch_tables(project, module)
    return project
