"""Graph containers, utilities, and synthetic graph generators."""

from .generators import (
    SBMConfig,
    erdos_renyi_graph,
    generate_sbm_graph,
    generate_two_gaussian_samples,
)
from .delta import GraphDelta
from .graph import Graph
from .sampling import (
    NeighborSampler,
    SubgraphBatch,
    build_edge_csr,
    khop_subgraph,
)
from .utils import (
    add_self_loops,
    edge_homophily,
    largest_connected_component,
    normalized_adjacency,
    remove_self_loops,
    symmetrize_edges,
    unique_edges,
)

__all__ = [
    "Graph",
    "GraphDelta",
    "NeighborSampler",
    "SubgraphBatch",
    "build_edge_csr",
    "khop_subgraph",
    "SBMConfig",
    "generate_sbm_graph",
    "generate_two_gaussian_samples",
    "erdos_renyi_graph",
    "add_self_loops",
    "remove_self_loops",
    "symmetrize_edges",
    "unique_edges",
    "normalized_adjacency",
    "edge_homophily",
    "largest_connected_component",
]
