"""Autofixes for cheap-to-rewrite rules (R001, R009, and hot P003).

The R001 fix swaps a banned builtin exception for its
:mod:`repro.exceptions` replacement on the ``raise`` line and ensures
the replacement is imported, merging into an existing
``from repro.exceptions import ...`` statement when the module already
has one.

The R009 fix converts a mutated mutable default to the ``None``
sentinel: the default expression is replaced by ``None`` on the
``def`` line and an ``if param is None: param = <original>`` guard is
inserted at the top of the body (below the docstring).

The P003 fix (repro-hot) rewrites the list/tuple literal behind a
loop-nested membership test into a set literal.  Fixability is
re-verified against the current source before rewriting: the container
must be bound exactly once, to a single-line literal of hashable
constants, and never mutated in its scope — so a stale finding can
never corrupt a file.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Sequence

from repro.devtools.findings import Finding
from repro.devtools.rules import R001_FIX_MAP

__all__ = [
    "apply_r001_fixes",
    "apply_r009_fixes",
    "apply_p003_fixes",
    "apply_p003_file_fixes",
]

_EXCEPTIONS_MODULE = "repro.exceptions"
_MAX_LINE = 79


def _render_import(names: Sequence[str]) -> list[str]:
    """Render a ``from repro.exceptions import ...`` statement."""
    ordered = sorted(set(names))
    single = f"from {_EXCEPTIONS_MODULE} import {', '.join(ordered)}"
    if len(single) <= _MAX_LINE:
        return [single]
    lines = [f"from {_EXCEPTIONS_MODULE} import ("]
    lines.extend(f"    {name}," for name in ordered)
    lines.append(")")
    return lines


def _locate_exceptions_import(
    tree: ast.Module,
) -> tuple[int, int, list[str]] | None:
    """Find the top-level exceptions import: (start, end, names), 1-based."""
    for node in tree.body:
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module == _EXCEPTIONS_MODULE
        ):
            names = [alias.name for alias in node.names]
            return node.lineno, node.end_lineno or node.lineno, names
    return None


def _import_insertion_line(tree: ast.Module) -> int:
    """1-based line *after which* a fresh import should be inserted."""
    last = 0
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            last = node.end_lineno or node.lineno
        elif last == 0 and isinstance(node, ast.Expr) and isinstance(
            node.value, ast.Constant
        ):
            # Module docstring: insert below it if no imports exist.
            last = node.end_lineno or node.lineno
    return last


def apply_r001_fixes(source: str, findings: Sequence[Finding]) -> str:
    """Rewrite ``source`` fixing the given R001 findings.

    Only findings whose offending line still matches
    ``raise <BannedName>`` are rewritten; the replacement class is then
    added to the module's ``repro.exceptions`` import.

    Returns:
        The fixed source (unchanged when nothing was fixable).
    """
    lines = source.splitlines()
    trailing_newline = source.endswith("\n")
    needed: set[str] = set()
    for finding in findings:
        if finding.rule != "R001" or not finding.fixable:
            continue
        idx = finding.line - 1
        if not 0 <= idx < len(lines):
            continue
        for banned, replacement in R001_FIX_MAP.items():
            pattern = re.compile(rf"(\braise\s+){banned}\b")
            new_line, count = pattern.subn(rf"\g<1>{replacement}", lines[idx])
            if count:
                lines[idx] = new_line
                needed.add(replacement)
                break
    if not needed:
        return source

    tree = ast.parse(source)
    located = _locate_exceptions_import(tree)
    if located is not None:
        start, end, names = located
        if needed.issubset(names):
            rendered = None
        else:
            rendered = _render_import(list(names) + sorted(needed))
        if rendered is not None:
            lines[start - 1 : end] = rendered
    else:
        after = _import_insertion_line(tree)
        rendered = _render_import(sorted(needed))
        if after == 0:
            lines[0:0] = rendered
        else:
            lines[after:after] = rendered
    result = "\n".join(lines)
    if trailing_newline and not result.endswith("\n"):
        result += "\n"
    return result


_P003_MUTATORS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}
)
_P003_HASHABLE = (str, int, float, bool, bytes, type(None))


def _iter_scope(body: Sequence[ast.stmt]):
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _enclosing_scope_body(
    tree: ast.Module, line: int
) -> Sequence[ast.stmt]:
    """Body of the innermost function containing ``line`` (module body
    when the line is at top level)."""
    body: Sequence[ast.stmt] = tree.body
    found = True
    while found:
        found = False
        for node in _iter_scope(body):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.lineno <= line <= (node.end_lineno or node.lineno)
            ):
                body = node.body
                found = True
                break
    return body


def _p003_literal_for(
    tree: ast.Module, line: int, column: int
) -> tuple[ast.List, str] | tuple[ast.Tuple, str] | None:
    """Re-verify one P003 finding against the source and return the
    (literal, container-name) to rewrite, or ``None``."""
    compare: ast.Compare | None = None
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Compare)
            and node.lineno == line
            and node.col_offset == column
            and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        ):
            compare = node
            break
    if compare is None:
        return None
    name: str | None = None
    for op, comparator in zip(compare.ops, compare.comparators):
        if isinstance(op, (ast.In, ast.NotIn)) and isinstance(comparator, ast.Name):
            name = comparator.id
            break
    if name is None:
        return None

    body = _enclosing_scope_body(tree, line)
    assignments: list[ast.expr] = []
    stores = 0
    for node in _iter_scope(body):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if node.id == name:
                stores += 1
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    assignments.append(node.value)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _P003_MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id == name
            ):
                return None
    if stores != 1 or len(assignments) != 1:
        return None
    value = assignments[0]
    if not isinstance(value, (ast.List, ast.Tuple)) or not value.elts:
        return None
    if value.lineno != (value.end_lineno or value.lineno):
        return None
    if not all(
        isinstance(elt, ast.Constant) and isinstance(elt.value, _P003_HASHABLE)
        for elt in value.elts
    ):
        return None
    return value, name


def apply_p003_fixes(source: str, findings: Sequence[Finding]) -> str:
    """Rewrite ``source`` fixing the given P003 findings (list->set).

    Each finding anchors on the membership test; the container's single
    literal binding is re-located and re-verified before the literal's
    brackets are rewritten to a set literal.

    Returns:
        The fixed source (unchanged when nothing was fixable).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return source
    lines = source.splitlines()
    trailing_newline = source.endswith("\n")

    rewrites: dict[tuple[int, int], tuple[int, str]] = {}
    for finding in findings:
        if finding.rule != "P003" or not finding.fixable:
            continue
        located = _p003_literal_for(tree, finding.line, finding.column)
        if located is None:
            continue
        value, _name = located
        idx = value.lineno - 1
        start, end = value.col_offset, value.end_col_offset or 0
        text = lines[idx][start:end]
        if text.startswith(("[", "(")) and text.endswith(("]", ")")):
            inner = text[1:-1].rstrip()
            inner = inner[:-1] if inner.endswith(",") else inner
        else:  # unparenthesized tuple
            inner = text
        rewrites[(value.lineno, start)] = (end, "{" + inner + "}")
    if not rewrites:
        return source

    # Same-line rewrites right-to-left so earlier offsets stay valid.
    for (line, start), (end, text) in sorted(rewrites.items(), reverse=True):
        idx = line - 1
        lines[idx] = lines[idx][:start] + text + lines[idx][end:]
    result = "\n".join(lines)
    if trailing_newline and not result.endswith("\n"):
        result += "\n"
    return result


def apply_p003_file_fixes(findings: Sequence[Finding]) -> list[str]:
    """Apply the P003 list->set autofix for every fixable finding.

    Files are rewritten in place; returns the rewritten paths.  Callers
    should re-run the analysis when any file was rewritten, so the
    report reflects the post-fix tree.
    """
    fixed_files: list[str] = []
    by_path: dict[str, list[Finding]] = {}
    for finding in findings:
        if finding.rule == "P003" and finding.fixable:
            by_path.setdefault(finding.path, []).append(finding)
    for path, path_findings in sorted(by_path.items()):
        file_path = Path(path)
        source = file_path.read_text(encoding="utf-8")
        fixed = apply_p003_fixes(source, path_findings)
        if fixed == source:
            continue
        file_path.write_text(fixed, encoding="utf-8")
        fixed_files.append(path)
    return fixed_files


def _function_for_default(
    tree: ast.Module, line: int, column: int
) -> tuple[ast.FunctionDef | ast.AsyncFunctionDef, str, ast.expr] | None:
    """Locate ``(function, param_name, default_node)`` for a finding.

    R009 findings anchor on the default expression, so the match is by
    the default node's exact position.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        paired = list(
            zip(positional, [None] * (len(positional) - len(args.defaults)) + list(args.defaults))
        ) + list(zip(args.kwonlyargs, args.kw_defaults))
        for arg, default in paired:
            if (
                default is not None
                and default.lineno == line
                and default.col_offset == column
            ):
                return node, arg.arg, default
    return None


def apply_r009_fixes(source: str, findings: Sequence[Finding]) -> str:
    """Rewrite ``source`` fixing the given R009 findings.

    Each fix replaces the default with ``None`` and inserts a sentinel
    guard re-creating the original expression at the top of the body.
    Multi-line defaults are left alone (``fixable`` is already False
    for them, but the guard here keeps the rewrite safe regardless).

    Returns:
        The fixed source (unchanged when nothing was fixable).
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return source
    lines = source.splitlines()
    trailing_newline = source.endswith("\n")

    replacements: list[tuple[int, int, int, str]] = []  # line, start, end, text
    guards: list[tuple[int, list[str]]] = []  # insert-before line (1-based), lines
    for finding in findings:
        if finding.rule != "R009" or not finding.fixable:
            continue
        located = _function_for_default(tree, finding.line, finding.column)
        if located is None:
            continue
        func, param, default = located
        if default.lineno != (default.end_lineno or default.lineno):
            continue
        literal = ast.get_source_segment(source, default)
        if literal is None:
            continue
        replacements.append(
            (default.lineno, default.col_offset, default.end_col_offset or 0, "None")
        )
        body = func.body
        if body[0].lineno <= default.lineno:
            # One-line def: no body line to insert the guard before.
            replacements.pop()
            continue
        insert_at = body[0].lineno
        if (
            isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
            and len(body) > 1
        ):
            insert_at = body[1].lineno
        indent = " " * body[-1].col_offset
        guards.append(
            (
                insert_at,
                [
                    f"{indent}if {param} is None:",
                    f"{indent}    {param} = {literal}",
                ],
            )
        )
    if not replacements:
        return source

    # Same-line replacements right-to-left so earlier offsets stay valid.
    for line, start, end, text in sorted(replacements, reverse=True):
        idx = line - 1
        lines[idx] = lines[idx][:start] + text + lines[idx][end:]
    # Guards bottom-up so earlier insertion points stay valid.
    for insert_at, guard_lines in sorted(guards, reverse=True):
        lines[insert_at - 1 : insert_at - 1] = guard_lines
    result = "\n".join(lines)
    if trailing_newline and not result.endswith("\n"):
        result += "\n"
    return result
