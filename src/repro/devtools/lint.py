"""repro-lint: the per-module half of the project's static analysis.

:func:`lint_paths` runs every rule in :data:`repro.devtools.rules.RULES`
(R001-R009) over each file on its own; a file that cannot be read or
parsed becomes an ``E000`` finding.  Run it through
``python -m repro.devtools.analyze`` (:mod:`repro.devtools.analyze`);
``python -m repro.devtools.lint`` only points there and exits 2.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Sequence

from repro.devtools.autofix import apply_r001_fixes, apply_r009_fixes
from repro.devtools.findings import Finding, assign_occurrences
from repro.devtools.rules import RULES, ModuleInfo, parse_module

__all__ = ["lint_paths", "discover_files"]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}


def discover_files(paths: Sequence[str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _lint_module(module: ModuleInfo) -> list[Finding]:
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule.run(module))
    findings.sort(key=lambda f: (f.line, f.column, f.rule))
    return findings


def lint_paths(
    paths: Sequence[str],
    fix: bool = False,
    fixed_files: list[str] | None = None,
) -> list[Finding]:
    """Lint every python file under ``paths``; optionally autofix.

    Args:
        paths: files or directories to lint.
        fix: apply cheap autofixes (R001, R009) in place, then re-lint
            the fixed source so the report reflects the post-fix tree.
            Fixers run one at a time with a re-lint in between, so the
            findings each fixer sees carry line numbers valid for the
            source it rewrites.
        fixed_files: when given, paths of files ``--fix`` rewrote are
            appended (lets the CLI exit non-zero on applied fixes).

    Returns:
        All findings in (path, line) order, occurrence-stamped.
    """
    all_findings: list[Finding] = []
    for file_path in discover_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            all_findings.append(
                Finding(
                    rule="E000",
                    path=str(file_path),
                    line=1,
                    column=0,
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        try:
            module = parse_module(str(file_path), source)
        except SyntaxError as exc:
            all_findings.append(
                Finding(
                    rule="E000",
                    path=str(file_path),
                    line=exc.lineno or 1,
                    column=(exc.offset or 1) - 1,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        findings = _lint_module(module)
        if fix:
            for apply_fn in (apply_r001_fixes, apply_r009_fixes):
                if not any(f.fixable for f in findings):
                    break
                fixed = apply_fn(source, findings)
                if fixed == source:
                    continue
                file_path.write_text(fixed, encoding="utf-8")
                if fixed_files is not None and str(file_path) not in fixed_files:
                    fixed_files.append(str(file_path))
                source = fixed
                module = parse_module(str(file_path), fixed)
                findings = _lint_module(module)
        all_findings.extend(findings)
    return assign_occurrences(all_findings)


if __name__ == "__main__":
    sys.stderr.write(
        "error: repro-lint has no CLI of its own; run "
        "python -m repro.devtools.analyze\n"
    )
    sys.exit(2)
