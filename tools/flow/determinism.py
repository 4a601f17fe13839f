"""Entrypoint-gated determinism findings (rules D001 and D003).

The interpreter records *events* (unseeded RNG calls, unordered-set
iteration) per function; this module turns them into findings only
when the function is reachable from an experiment entrypoint — public
functions of ``cli.py`` / ``runner.py`` / ``*_pipeline.py`` modules, or
qualnames passed as ``extra_entrypoints`` (the tests root an otherwise
unreached helper this way, to show reachability alone hides its
hazard).  That is the
interprocedural generalization of repro-lint's single-file R002:
a helper three calls deep that touches ``numpy.random.rand`` is flagged
with the call chain that reaches it.

Module-level (import-time) events are reported unconditionally: code
that runs at import runs on every entrypoint.
"""

from __future__ import annotations

from typing import Sequence

from tools.findings import Finding
from tools.flow.callgraph import CallGraph
from tools.flow.interp import AnalysisResult
from tools.flow.project import Project

__all__ = ["determinism_findings"]

_MAX_CHAIN_SHOWN = 5


def _chain_note(entry: str, chain: tuple[str, ...]) -> str:
    if len(chain) <= 1:
        return f"(in entrypoint {entry})"
    shown = chain[-_MAX_CHAIN_SHOWN:]
    prefix = "... -> " if len(chain) > _MAX_CHAIN_SHOWN else ""
    return f"(reachable via {prefix}{' -> '.join(shown)})"


def determinism_findings(
    project: Project,
    result: AnalysisResult,
    graph: CallGraph,
    extra_entrypoints: Sequence[str] = (),
) -> list[Finding]:
    """Determinism events of entrypoint-reachable functions, as findings.

    Each event is reported once, annotated with the shortest call chain
    from the entrypoint that reaches it.
    """
    entry_qualnames = [u.qualname for u in project.entrypoints(extra_entrypoints)]
    reachable = graph.reachable_from_any(entry_qualnames)

    findings: list[Finding] = []
    seen: set[tuple[str, str, int, int]] = set()

    def emit(qualname: str, note: str) -> None:
        for event in result.det_events.get(qualname, ()):
            identity = (event.rule, event.path, event.line, event.column)
            if identity in seen:
                continue
            seen.add(identity)
            findings.append(
                Finding(
                    rule=event.rule,
                    path=event.path,
                    line=event.line,
                    column=event.column,
                    message=f"{event.message} {note}",
                    symbol=event.symbol,
                    source_line=event.source_line,
                )
            )

    # Import-time code first: reachable from every entrypoint.
    for module in project.modules.values():
        emit(f"{module.name}.<module>", "(at import time)")

    for qualname in sorted(reachable):
        entry, chain = reachable[qualname]
        emit(qualname, _chain_note(entry, chain))

    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return findings
