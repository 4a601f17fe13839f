"""Call-graph API over the interprocedural analysis edges.

The edges come from :func:`tools.flow.interp.run_analysis` —
every call the abstract interpreter resolved to a project function,
including methods found via ``self``, aliased imports, dispatch-dict
lookups, and the attribute-name fallback for calls on unknown
receivers.  Keys include one synthetic
``<module>`` node per module for import-time code.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from tools.flow.interp import AnalysisResult, run_analysis
from tools.flow.project import Project

__all__ = ["CallGraph", "build_call_graph"]


@dataclass(slots=True)
class CallGraph:
    """Directed caller -> callee edges between qualified names."""

    edges: dict[str, set[str]] = field(default_factory=dict)

    def callees(self, qualname: str) -> frozenset[str]:
        """Direct callees of ``qualname`` (empty when unknown)."""
        return frozenset(self.edges.get(qualname, ()))

    def reachable_from(self, start: str) -> dict[str, tuple[str, ...]]:
        """Every node reachable from ``start`` mapped to the shortest
        call chain that reaches it (``start`` maps to ``(start,)``)."""
        chains: dict[str, tuple[str, ...]] = {start: (start,)}
        queue: deque[str] = deque([start])
        while queue:
            current = queue.popleft()
            for callee in sorted(self.edges.get(current, ())):
                if callee not in chains:
                    chains[callee] = chains[current] + (callee,)
                    queue.append(callee)
        return chains

    def reachable_from_any(
        self, starts: Iterable[str]
    ) -> dict[str, tuple[str, tuple[str, ...]]]:
        """Union of :meth:`reachable_from` over ``starts``: node ->
        (entrypoint, shortest chain), keeping the shortest chain seen."""
        best: dict[str, tuple[str, tuple[str, ...]]] = {}
        for start in starts:
            for node, chain in self.reachable_from(start).items():
                if node not in best or len(chain) < len(best[node][1]):
                    best[node] = (start, chain)
        return best


def build_call_graph(
    project: Project, result: AnalysisResult | None = None
) -> CallGraph:
    """Build the call graph for ``project`` (reusing ``result`` when the
    analysis already ran)."""
    if result is None:
        result = run_analysis(project)
    edges: Mapping[str, set[str]] = result.call_edges
    return CallGraph(edges={k: set(v) for k, v in edges.items()})
