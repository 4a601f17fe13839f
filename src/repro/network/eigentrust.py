"""EigenTrust (Kamvar, Schlosser, Garcia-Molina, WWW 2003).

Cited by the paper (Section 2.2) as the related trust algorithm for
peer-to-peer networks, and kept as an alternative to TrustRank for the
network-analysis ablations.  EigenTrust computes the principal left
eigenvector of the normalized *local-trust* matrix, with pre-trust mass
on a seed of known-good peers providing both the start vector and a
blending anchor:

    t_{k+1} = (1 - a) * C^T t_k + a * p

where ``C`` is the row-normalized local trust matrix, ``p`` the
uniform pre-trust distribution, and ``a`` the blending weight; a peer
with no trust statements defers to ``p``.  On a web graph "local
trust" is link weight (a page 'vouches' for what it links to), which
makes this iteration exactly TrustRank with damping ``1 - a`` and the
pre-trusted set as seed — so it runs on the same kernel.
"""

from __future__ import annotations

from typing import Iterable

from repro.contracts import check_probability_vector
from repro.exceptions import ValidationError
from repro.network.graph import DirectedGraph
from repro.network.trustrank import trustrank

__all__ = ["eigentrust"]


@check_probability_vector()
def eigentrust(
    graph: DirectedGraph,
    pretrusted: Iterable[str],
    alpha: float = 0.15,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> dict[str, float]:
    """Compute EigenTrust scores over a directed trust graph.

    Args:
        graph: trust statements as weighted directed edges
            (``src`` vouches for ``dst`` with the edge weight).
        pretrusted: the pre-trusted peer set P (uniform pre-trust mass).
        alpha: blending weight ``a`` toward the pre-trust vector.
        max_iterations: power-iteration cap.
        tolerance: L1 convergence threshold.

    Returns:
        node -> global trust value; values sum to 1.

    Raises:
        GraphError: empty graph or no pre-trusted node in the graph.
        ValidationError: alpha outside (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    return trustrank(
        graph,
        pretrusted,
        damping=1.0 - alpha,
        max_iterations=max_iterations,
        tolerance=tolerance,
    )
