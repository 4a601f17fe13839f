"""Directed graph with string nodes and weighted edges.

A small, dependency-free adjacency-map digraph sized for the paper's
web graphs (a few thousand nodes).  Node identities are strings
(registrable domains).  Parallel links are folded into one edge with an
additive weight.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.exceptions import GraphError

__all__ = ["DirectedGraph"]


class DirectedGraph:
    """Adjacency-map directed graph."""

    def __init__(self) -> None:
        self._succ: dict[str, dict[str, float]] = {}
        self._pred: dict[str, dict[str, float]] = {}

    # -- mutation --------------------------------------------------------

    def add_node(self, node: str) -> None:
        """Add a node (no-op if present)."""
        if not node:
            raise GraphError("node id must be a non-empty string")
        self._succ.setdefault(node, {})
        self._pred.setdefault(node, {})

    def add_edge(self, src: str, dst: str, weight: float = 1.0) -> None:
        """Add (or reinforce) the edge ``src -> dst``.

        Repeated additions accumulate weight; self-loops are allowed
        but the paper's graphs never produce them.
        """
        if weight <= 0.0:
            raise GraphError(f"edge weight must be > 0, got {weight}")
        self.add_node(src)
        self.add_node(dst)
        self._succ[src][dst] = self._succ[src].get(dst, 0.0) + weight
        self._pred[dst][src] = self._pred[dst].get(src, 0.0) + weight

    # -- queries -----------------------------------------------------------

    def __contains__(self, node: str) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    @property
    def n_edges(self) -> int:
        """Number of directed edges."""
        return sum(len(out) for out in self._succ.values())

    def nodes(self) -> Iterator[str]:
        """Nodes in insertion order."""
        return iter(self._succ)

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """All (src, dst, weight) triples."""
        for src, out in self._succ.items():
            for dst, weight in out.items():
                yield src, dst, weight

    def successors(self, node: str) -> Mapping[str, float]:
        """Outgoing neighbours with weights."""
        self._require(node)
        return dict(self._succ[node])

    def predecessors(self, node: str) -> Mapping[str, float]:
        """Incoming neighbours with weights."""
        self._require(node)
        return dict(self._pred[node])

    def has_edge(self, src: str, dst: str) -> bool:
        """Whether the edge ``src -> dst`` exists."""
        return src in self._succ and dst in self._succ[src]

    def _require(self, node: str) -> None:
        if node not in self._succ:
            raise GraphError(f"unknown node: {node!r}")
