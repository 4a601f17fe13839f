"""TrustRank and Anti-TrustRank (Section 4.2).

TrustRank (Gyöngyi, Garcia-Molina, Pedersen 2004) propagates trust from
a seed of known-good pages through the link graph, on the premise of
*approximate isolation*: good pages rarely point to bad ones.  The
paper's initialization gives trust 1 to the known legitimate pharmacies
of the training fold (P0+) and 0 to everything else, normalizes, and
iterates to convergence.

Anti-TrustRank (Krishnan & Raj 2006) is the dual: distrust propagates
*backwards* from known-bad seeds (an illegitimate site is reachable
from other bad sites), implemented here as TrustRank on the reversed
graph with the illegitimate seed.  It is listed as related work in the
paper and implemented as the "richer input" future-work extension.
"""

from __future__ import annotations

from typing import Iterable

from repro.contracts import check_probability_vector
from repro.network.graph import DirectedGraph
from repro.network.pagerank import _seed_teleport, personalized_pagerank

__all__ = ["trustrank", "anti_trustrank", "reverse_graph"]


@check_probability_vector()
def trustrank(
    graph: DirectedGraph,
    trusted_seed: Iterable[str],
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> dict[str, float]:
    """Propagate trust from ``trusted_seed`` through ``graph``.

    Args:
        graph: the web graph (Algorithm 1 output).
        trusted_seed: known-good nodes (trust score 1 at initialization).
        damping: trust decay per hop (α = 0.85 in the TrustRank paper).
        max_iterations: power-iteration cap.
        tolerance: convergence threshold.

    Returns:
        node -> trust score in [0, 1]; seed nodes score highest,
        nodes unreachable from the seed score 0 (up to dangling
        redistribution).

    Raises:
        GraphError: when no seed node exists in the graph.
    """
    return personalized_pagerank(
        graph,
        teleport=_seed_teleport(trusted_seed, graph),
        damping=damping,
        max_iterations=max_iterations,
        tolerance=tolerance,
    )


def reverse_graph(graph: DirectedGraph) -> DirectedGraph:
    """Return ``graph`` with every edge direction flipped."""
    reversed_g = DirectedGraph()
    for node in graph.nodes():
        reversed_g.add_node(node)
    for src, dst, weight in graph.edges():
        reversed_g.add_edge(dst, src, weight)
    return reversed_g


@check_probability_vector()
def anti_trustrank(
    graph: DirectedGraph,
    distrusted_seed: Iterable[str],
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> dict[str, float]:
    """Propagate *distrust* backwards from known-bad seeds.

    A node that links to distrusted nodes accumulates distrust, so the
    propagation runs on the reversed graph.

    Returns:
        node -> distrust score (higher = more likely illegitimate).
    """
    return trustrank(
        reverse_graph(graph),
        trusted_seed=distrusted_seed,
        damping=damping,
        max_iterations=max_iterations,
        tolerance=tolerance,
    )
