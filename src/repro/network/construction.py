"""Web-graph construction: Algorithm 1 of the paper (GRAPH-CREATION).

For every pharmacy website ``p`` in the working set, add a node for
``p`` itself and, for every outbound link ``u`` of ``p``, a node for
``endpoint(u)`` (the link target's second-level domain) plus the
directed edge ``p -> endpoint(u)``.

The endpoint pruning collapses the URL feature space to registrable
domains, under the assumption that all pages of one domain share one
trustiness value.
"""

from __future__ import annotations

from typing import Sequence

from repro.network.graph import DirectedGraph
from repro.web.site import SiteEvidence

__all__ = ["build_pharmacy_graph"]


def build_pharmacy_graph(
    sites: Sequence[SiteEvidence],
    auxiliary_sites: Sequence[SiteEvidence] = (),
) -> DirectedGraph:
    """Algorithm 1: build the graph G(V, E) from crawled pharmacies.

    Args:
        sites: the pharmacy working set P (labeled and unlabeled).
        auxiliary_sites: non-pharmacy sites whose outbound links are
            also added — the paper's future-work extension (a):
            "include in our network analysis non pharmacy websites that
            point to pharmacies".  Their links give pharmacy nodes
            in-edges and put the seed at graph distance > 1 from some
            pharmacies.  Empty reproduces the paper's graph exactly.

    Returns:
        Directed graph whose nodes are pharmacy domains plus every
        external endpoint linked by a pharmacy or auxiliary site.
    """
    graph = DirectedGraph()
    for site in list(sites) + list(auxiliary_sites):
        graph.add_node(site.domain)
        for endpoint_domain in site.outbound_endpoints():
            graph.add_edge(site.domain, endpoint_domain, 1.0)
    return graph
