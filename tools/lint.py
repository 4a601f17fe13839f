"""repro-lint: the per-module half of the project's static analysis.

:func:`lint_findings` runs every rule in :data:`tools.rules.RULES`
over each module of a loaded :class:`~tools.flow.project.Project`, the
same modules the flow, conc and hot analyzers read; a file the project
could not read or parse becomes an ``E000`` finding.  Run it through
``python -m tools.analyze`` (:mod:`tools.analyze`);
``python -m tools.lint`` only points there and exits 2.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tools.findings import Finding, assign_occurrences
from tools.flow.project import Project
from tools.rules import RULES

__all__ = ["lint_findings"]


def lint_findings(project: Project) -> list[Finding]:
    """Every lint finding for ``project``, plus one ``E000`` per file in
    :attr:`~tools.flow.project.Project.errors`.

    Returns:
        All findings in (path, line) order, occurrence-stamped.
    """
    findings = [
        Finding(rule="E000", path=path, line=line, column=column, message=message)
        for path, line, message, column in project.errors
    ]
    for module in project.modules.values():
        for rule in RULES:
            findings.extend(rule.run(module))
    findings.sort(key=lambda f: (Path(f.path), f.line, f.column, f.rule))
    return assign_occurrences(findings)


if __name__ == "__main__":
    sys.stderr.write(
        "error: repro-lint has no CLI of its own; run "
        "python -m tools.analyze\n"
    )
    sys.exit(2)
