"""Whole-package model every analyzer operates on.

:func:`load_project` is the analyzer's one reader: it reads, parses and
suppression-scans every module of one or more package trees once, and
resolves the *static* structure the lint rules and the call-graph
builder need:

* dotted module names derived from the package root, and each module's
  architectural layer (lint's R003);
* per-module import alias tables (``import numpy as np``,
  ``from repro.web.url import parse_url as pu``, relative imports);
* every function and method, keyed by fully qualified name, with its
  parameter list and any ``@sanitizes(...)`` declaration read from the
  decorator list;
* module-level *dispatch tables* — dict literals whose values are
  function references (``_TABLE_BUILDERS = {"table1": tables.table1}``)
  — so ``TABLE[key](config)`` calls resolve to every registered target;
* ``# <marker>: disable=...`` suppression comments, one table per
  tool marker (:data:`SUPPRESSION_MARKERS`); suppressing one tool never
  silences another.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from tools.findings import Finding
from tools.rules import infer_layer

__all__ = [
    "FunctionUnit",
    "ClassUnit",
    "ModuleUnit",
    "Project",
    "load_project",
]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}

#: Suppression-comment markers parsed for every module, one per tool;
#: :meth:`ModuleUnit.is_suppressed` takes the caller's marker.
SUPPRESSION_MARKERS = ("repro-lint", "repro-flow", "repro-conc", "repro-hot")

#: File-wide suppressions must appear within the first N lines.
_FILE_SUPPRESS_WINDOW = 12

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
        layer: architectural layer (:func:`tools.rules.infer_layer`),
            or ``None`` outside the layered tree.
        imports: local alias -> dotted target.  Targets may be project
            qualnames or external dotted names (``numpy``, ``time``).
        functions: module-local symbol -> :class:`FunctionUnit`.
        suppressions: marker -> (line number -> disabled rule ids,
            file-wide disabled rule ids), for every entry of
            :data:`SUPPRESSION_MARKERS`.
    """

    name: str
    path: str
    tree: ast.Module
    lines: list[str]
    layer: str | None = None
    is_package: bool = False
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionUnit] = field(default_factory=dict)
    suppressions: dict[
        str, tuple[dict[int, frozenset[str]], frozenset[str]]
    ] = field(default_factory=dict)

    def source_line(self, lineno: int) -> str:
        """The stripped source text at 1-based ``lineno``."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, marker: str, rule_id: str, lineno: int) -> bool:
        """Whether a ``# <marker>: disable=...`` comment turns ``rule_id``
        off at ``lineno`` (or file-wide)."""
        per_line, file_wide = self.suppressions[marker]
        if rule_id in file_wide or "all" in file_wide:
            return True
        ids = per_line.get(lineno, frozenset())
        return rule_id in ids or "all" in ids

    def finding(
        self, rule: str, line: int, column: int, message: str, symbol: str
    ) -> Finding:
        """A finding at ``line``/``column`` of this module, inside ``symbol``."""
        return Finding(
            rule=rule,
            path=self.path,
            line=line,
            column=column,
            message=message,
            symbol=symbol,
            source_line=self.source_line(line),
        )

    def dotted(self, node: ast.expr) -> str | None:
        """The dotted name the chain ``a.b.c`` (or the bare name ``a``)
        spells, its base resolved through :attr:`imports`; an unimported
        base stays as written.  ``None`` when the chain does not start
        at a name."""
        attrs: list[str] = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        return ".".join([self.imports.get(node.id, node.id), *reversed(attrs)])

    def global_assignments(self) -> Iterator[tuple[str, ast.expr, int]]:
        """``(name, value, line)`` for each module-level ``NAME = value``
        and annotated ``NAME: T = value``, in source order."""
        for node in self.tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.value, node.lineno


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
    #: (path, line, message, column) of each file that could not be
    #: loaded (see :func:`load_project`); lint reports each as ``E000``.
    errors: list[tuple[str, int, str, int]] = field(default_factory=list)

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


def _parse_suppressions(
    lines: Sequence[str], marker: str
) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
    """Parse ``# <marker>: disable=...`` comments out of ``lines``.

    Returns:
        ``(per_line, file_wide)``: 1-based line number -> disabled rule
        ids, and the rule ids disabled for the whole file (only honored
        within the first :data:`_FILE_SUPPRESS_WINDOW` lines).
    """
    escaped = re.escape(marker)
    line_re = re.compile(rf"#\s*{escaped}:\s*disable=(?P<ids>[A-Za-z0-9, ]+)")
    file_re = re.compile(rf"#\s*{escaped}:\s*disable-file=(?P<ids>[A-Za-z0-9, ]+)")
    per_line: dict[int, frozenset[str]] = {}
    file_wide: set[str] = set()
    for lineno, text in enumerate(lines, start=1):
        if marker not in text:
            continue
        match = line_re.search(text)
        if match:
            ids = frozenset(
                part.strip() for part in match.group("ids").split(",") if part.strip()
            )
            per_line[lineno] = ids
        match = file_re.search(text)
        if match and lineno <= _FILE_SUPPRESS_WINDOW:
            file_wide.update(
                part.strip() for part in match.group("ids").split(",") if part.strip()
            )
    return per_line, frozenset(file_wide)


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
    return module.dotted(node)


def _collect_dispatch_tables(project: Project, module: ModuleUnit) -> None:
    for name, value, _line in module.global_assignments():
        if not isinstance(value, ast.Dict):
            continue
        refs = [
            target
            for target in (_function_ref_target(module, entry) for entry in value.values)
            if target in project.functions
        ]
        if refs:
            project.dispatch_tables[f"{module.name}.{name}"] = tuple(refs)


def load_project(paths: Sequence[str]) -> Project:
    """Parse the package tree(s) under ``paths`` into a :class:`Project`.

    Each path must be a package directory; its basename becomes the
    root of the dotted module names (``src/repro`` -> ``repro.*``).
    Unreadable or syntactically invalid files are recorded in
    :attr:`Project.errors` rather than aborting the load, and so is a
    file whose module name an earlier path's module already holds.  A
    file that overlapping paths reach twice is read once.
    """
    project = Project()
    seen: set[str] = set()
    for raw in paths:
        root = Path(raw)
        for file_path in _iter_package_files(root):
            posix = str(file_path).replace("\\", "/")
            if posix in seen:
                continue
            seen.add(posix)
            name = _module_name(root, file_path)
            if name in project.modules:
                holder = project.modules[name].path
                project.errors.append(
                    (posix, 1, f"module {name} is already loaded from {holder}", 0)
                )
                continue
            try:
                source = file_path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=posix)
            except OSError as exc:
                project.errors.append((posix, 1, f"cannot read file: {exc}", 0))
                continue
            except SyntaxError as exc:
                project.errors.append(
                    (
                        posix,
                        exc.lineno or 1,
                        f"syntax error: {exc.msg}",
                        (exc.offset or 1) - 1,
                    )
                )
                continue
            lines = source.splitlines()
            module = ModuleUnit(
                name=name,
                path=posix,
                tree=tree,
                lines=lines,
                layer=infer_layer(posix),
                is_package=file_path.name == "__init__.py",
                suppressions={
                    marker: _parse_suppressions(lines, marker)
                    for marker in SUPPRESSION_MARKERS
                },
            )
            project.modules[module.name] = module
            _collect_imports(module)
            _collect_functions(project, module)
    # Dispatch tables need the full function index, so second pass.
    for module in project.modules.values():
        _collect_dispatch_tables(project, module)
    return project
