"""PageRank by power iteration over a sparse transition matrix.

TrustRank (Gyöngyi et al. 2004) is biased PageRank: the teleport
distribution is concentrated on a trusted seed instead of being
uniform.  This module holds the one ranking kernel every ranker in
:mod:`repro.network` runs on — uniform PageRank, TrustRank,
Anti-TrustRank, EigenTrust and the block-wise rankers of
:mod:`repro.network.blockrank` all delegate here:

* :func:`_transition_blocks` turns flat ``(src, dst, weight)`` edge
  arrays into destination-major CSR row blocks of
  ``P[dst, src] = w(src, dst) / out_weight(src)`` plus a dangling-node
  mask, one block at a time.  The in-memory rankers use a single block.
* :func:`_power_iteration` runs ::

      rank' = damping * (P @ rank + dangling_mass * t) + (1 - damping) * t

  to L1 convergence, taking the ``P @ rank`` product as a callable so
  the same loop serves one in-memory matrix, a serial loop over
  spilled blocks, and a process-pool map over them.

(``tests.reference.reference_personalized_pagerank`` keeps
the per-node loop form as the equivalence baseline.)
"""

from __future__ import annotations

from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.contracts import check_probability_vector
from repro.exceptions import GraphError, ValidationError
from repro.network.graph import DirectedGraph

__all__ = [
    "pagerank",
    "personalized_pagerank",
    "teleport_vector",
]


def teleport_vector(
    index: Mapping[str, int],
    teleport: Mapping[str, float] | None,
) -> np.ndarray:
    """Normalized teleport distribution over the node order ``index``.

    Raises:
        ValidationError: on negative teleport entries.
        GraphError: when no positive mass lands on indexed nodes.
    """
    n = len(index)
    if teleport is None:
        return np.full(n, 1.0 / n)
    t = np.zeros(n)
    for node, mass in teleport.items():
        if mass < 0.0:
            raise ValidationError(
                f"teleport mass must be >= 0, got {mass} for {node!r}"
            )
        if node in index and mass > 0.0:
            t[index[node]] = mass
    total = t.sum()
    if total <= 0.0:
        raise GraphError("teleport vector has no mass on graph nodes")
    return t / total


def _seed_teleport(
    seed: Iterable[str], members: Container[str]
) -> dict[str, float]:
    """Uniform teleport mass on the seed nodes present in ``members``.

    Raises:
        GraphError: when no seed node is a member.
    """
    teleport = {node: 1.0 for node in seed if node in members}
    if not teleport:
        raise GraphError("trusted seed has no overlap with the graph")
    return teleport


def _transition_blocks(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    weight: np.ndarray,
    offsets: Sequence[int],
) -> tuple[np.ndarray, Iterator[sp.csr_matrix]]:
    """Row blocks of the column-stochastic transition matrix.

    ``src``/``dst`` are node indices in ``range(n)``; parallel edges
    must already be folded.  Returns the dangling mask (nodes with no
    out-edges, whose columns stay empty) and a lazy iterator over the
    CSR blocks holding rows ``offsets[b]:offsets[b+1]``.  Each block is
    assembled from the edges whose destination falls inside it, so
    peak memory is one block plus the edge arrays.  The blocks are in
    canonical CSR form, so row ``i`` carries the same data in the same
    order at any block count — which makes block-wise SpMV bit-equal to
    the one-block product.

    Raises:
        ValidationError: when the edge arrays differ in shape.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    if not (src.shape == dst.shape == weight.shape):
        raise ValidationError("edge arrays must have identical shapes")
    out_weight = np.bincount(src, weights=weight, minlength=n)
    # A node is dangling iff it has no out-edges at all, so exact zero
    # is the intended test.
    dangling = out_weight == 0.0
    if src.size:
        data = weight / out_weight[src]
        order = np.argsort(dst, kind="stable")
        src, dst, data = src[order], dst[order], data[order]
    else:
        data = weight
    bounds = np.searchsorted(dst, offsets)

    def blocks() -> Iterator[sp.csr_matrix]:
        for b in range(len(offsets) - 1):
            lo, hi = bounds[b], bounds[b + 1]
            yield sp.csr_matrix(
                (data[lo:hi], (dst[lo:hi] - offsets[b], src[lo:hi])),
                shape=(offsets[b + 1] - offsets[b], n),
                dtype=np.float64,
            )

    return dangling, blocks()


def _power_iteration(
    index: Mapping[str, int],
    spmv: Callable[[np.ndarray], np.ndarray],
    dangling: np.ndarray,
    teleport: Mapping[str, float] | None,
    damping: float,
    max_iterations: int,
    tolerance: float,
) -> dict[str, float]:
    """The power-iteration loop behind every ranker in this package.

    Dangling nodes redistribute their mass according to the teleport
    vector (the standard TrustRank convention, which keeps trust from
    leaking to untrusted nodes through dead ends).

    Args:
        index: node -> rank-vector position, in position order.
        spmv: ``rank -> P @ rank`` for the transition matrix ``P``.
        dangling: boolean mask of nodes with no out-edges.
        teleport: node -> probability; normalized internally.  ``None``
            means the uniform distribution.
        damping: probability of following a link (α).
        max_iterations: iteration cap.
        tolerance: L1 convergence threshold.

    Returns:
        node -> score; scores sum to 1.

    Raises:
        GraphError: for an all-zero teleport vector.
        ValidationError: for an out-of-range damping factor or negative
            teleport entries.
    """
    if not 0.0 < damping < 1.0:
        raise ValidationError(f"damping must be in (0, 1), got {damping}")
    t = teleport_vector(index, teleport)
    any_dangling = bool(dangling.any())
    rank = t.copy()
    for _ in range(max_iterations):
        new_rank = spmv(rank)
        if any_dangling:
            new_rank = new_rank + rank[dangling].sum() * t
        new_rank = damping * new_rank + (1.0 - damping) * t
        if np.abs(new_rank - rank).sum() < tolerance:
            rank = new_rank
            break
        rank = new_rank
    return dict(zip(index, rank.tolist()))


@check_probability_vector()
def personalized_pagerank(
    graph: DirectedGraph,
    teleport: Mapping[str, float] | None = None,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> dict[str, float]:
    """Power-iteration PageRank with an arbitrary teleport distribution.

    The in-memory ranker: the graph's edges, in node order, compiled
    into a single transition block and ranked by
    :func:`_power_iteration`.

    Args:
        graph: the link graph.
        teleport: node -> probability; normalized internally.  ``None``
            means the uniform distribution (plain PageRank).
        damping: probability of following a link (α).
        max_iterations: iteration cap.
        tolerance: L1 convergence threshold.

    Returns:
        node -> score; scores sum to 1.

    Raises:
        GraphError: for an empty graph or an all-zero teleport vector.
        ValidationError: for an out-of-range damping factor or negative
            teleport entries.
    """
    if graph.n_nodes == 0:
        raise GraphError("cannot rank an empty graph")
    index = {node: i for i, node in enumerate(graph.nodes())}
    edges = list(graph.edges())
    count = len(edges)
    dangling, blocks = _transition_blocks(
        len(index),
        np.fromiter((index[s] for s, _, _ in edges), np.int64, count),
        np.fromiter((index[d] for _, d, _ in edges), np.int64, count),
        np.fromiter((w for _, _, w in edges), np.float64, count),
        (0, len(index)),
    )
    matrix = next(blocks)
    return _power_iteration(
        index, matrix.dot, dangling, teleport, damping, max_iterations, tolerance
    )


def pagerank(
    graph: DirectedGraph,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> dict[str, float]:
    """Plain (uniform-teleport) PageRank."""
    return personalized_pagerank(
        graph,
        teleport=None,
        damping=damping,
        max_iterations=max_iterations,
        tolerance=tolerance,
    )
