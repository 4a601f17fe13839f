"""repro-lint: the per-module half of the project's static analysis.

:func:`lint_paths` runs every rule in :data:`repro.devtools.rules.RULES`
over each file on its own; a file that cannot be read or parsed becomes
an ``E000`` finding.  Run it through
``python -m repro.devtools.analyze`` (:mod:`repro.devtools.analyze`);
``python -m repro.devtools.lint`` only points there and exits 2.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Sequence

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


def lint_paths(paths: Sequence[str]) -> list[Finding]:
    """Lint every python file under the files or directories ``paths``.

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
        all_findings.extend(_lint_module(module))
    return assign_occurrences(all_findings)


if __name__ == "__main__":
    sys.stderr.write(
        "error: repro-lint has no CLI of its own; run "
        "python -m repro.devtools.analyze\n"
    )
    sys.exit(2)
