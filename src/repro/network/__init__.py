"""Network substrate: web graph, PageRank/TrustRank, the network stage."""

from repro.network.construction import build_pharmacy_graph
from repro.network.eigentrust import eigentrust
from repro.network.features import (
    NetworkFeatureMatrix,
    NetworkStage,
    neighbour_mean,
    top_linked_domains,
)
from repro.network.blockrank import (
    BlockPlan,
    block_personalized_pagerank,
    block_trustrank,
    compile_transition_store_from_edges,
    load_block_plan,
)
from repro.network.graph import DirectedGraph
from repro.network.pagerank import (
    pagerank,
    personalized_pagerank,
    teleport_vector,
)
from repro.network.trustrank import anti_trustrank, reverse_graph, trustrank

__all__ = [
    "BlockPlan",
    "block_personalized_pagerank",
    "block_trustrank",
    "compile_transition_store_from_edges",
    "load_block_plan",
    "teleport_vector",
    "build_pharmacy_graph",
    "eigentrust",
    "NetworkFeatureMatrix",
    "NetworkStage",
    "neighbour_mean",
    "top_linked_domains",
    "DirectedGraph",
    "pagerank",
    "personalized_pagerank",
    "anti_trustrank",
    "reverse_graph",
    "trustrank",
]
