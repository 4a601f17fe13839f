"""Shared project-analysis pipeline for the dataflow-based analyzers.

``repro-flow`` and ``repro-conc`` both need the same expensive
front-end: parse the package trees into a :class:`~repro.devtools.flow.
project.Project`, run the summary fixpoint (:func:`~repro.devtools.
flow.interp.run_analysis`), and build the call graph.  This module
exposes that pipeline once so the concurrency analyzer reuses flow's
summaries instead of re-deriving them, and so ``repro-analyze`` can
share one pass per package tree.  :func:`flow_findings` turns one
analyzed tree into repro-flow's own report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.devtools.findings import Finding, assign_occurrences
from repro.devtools.flow.callgraph import CallGraph, build_call_graph
from repro.devtools.flow.determinism import determinism_findings
from repro.devtools.flow.interp import AnalysisResult, run_analysis
from repro.devtools.flow.project import Project, load_project

__all__ = ["ProjectAnalysis", "analyze_project", "flow_findings"]


@dataclass(slots=True)
class ProjectAnalysis:
    """One fully analyzed package tree: structure, summaries, graph."""

    project: Project
    result: AnalysisResult
    graph: CallGraph


def analyze_project(paths: Sequence[str]) -> ProjectAnalysis:
    """Load, summarize, and graph the package tree(s) under ``paths``."""
    project = load_project(paths)
    result = run_analysis(project)
    graph = build_call_graph(project, result)
    return ProjectAnalysis(project=project, result=result, graph=graph)


def flow_findings(analysis: ProjectAnalysis) -> list[Finding]:
    """All T001/T004 taint and D001/D003 determinism findings for an
    analyzed project, occurrence-stamped, in (path, line) report order."""
    findings = list(analysis.result.taint_findings)
    findings.extend(
        determinism_findings(analysis.project, analysis.result, analysis.graph)
    )
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return assign_occurrences(findings)
