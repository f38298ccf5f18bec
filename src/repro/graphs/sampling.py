"""Neighborhood sampling: CSR neighbor lookup, exact k-hop subgraphs, and
GraphSAGE-style fanout-capped expansion.

This module is the scoped-computation backbone of mini-batch training: a GNN
with ``L`` message-passing layers only reads the ``L``-hop receptive field of
a batch, so each training step can run the encoder on that subgraph instead
of the whole graph (see :class:`repro.core.trainer.GraphTrainer` and
``TrainerConfig.sampling``).

Exactness
---------
:func:`khop_subgraph` extracts the *exact* receptive field: the node-induced
subgraph over every node within ``num_hops`` (undirected) hops of the seeds.
Crucially the subgraph's normalized propagation matrix is the row/column
**slice of the full graph's** ``D^{-1/2}(A+I)D^{-1/2}`` — not a
renormalization over subgraph degrees, which would distort boundary-node
weights.  With dropout disabled, an ``L``-layer GCN or GAT evaluated on a
``num_hops >= L`` subgraph therefore reproduces the full-graph outputs at the
seed rows to floating-point accuracy (verified to 1e-8 by
``tests/graphs/test_sampling.py`` and ``tests/core/test_trainer_sampling.py``).

:class:`NeighborSampler` additionally supports per-hop ``fanouts`` caps: each
newly discovered frontier node contributes at most ``fanouts[hop]`` uniformly
drawn neighbors, bounding the per-step receptive field on huge or scale-free
graphs at the price of an approximate (but unbiased-neighborhood) subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .graph import Graph
from .utils import symmetrize_edges


def validate_fanouts(num_hops: int, fanouts) -> Tuple[int, Optional[list]]:
    """Validate and normalize a ``(num_hops, fanouts)`` pair.

    Shared by :class:`NeighborSampler` and
    :class:`repro.core.config.SamplingConfig` so the two entry points cannot
    drift.  Returns ``num_hops`` as an int and ``fanouts`` as a list of ints
    (or ``None`` for uncapped expansion).
    """
    num_hops = int(num_hops)
    if num_hops < 1:
        raise ValueError("num_hops must be >= 1")
    if fanouts is None:
        return num_hops, None
    fanouts = [int(f) for f in fanouts]
    if len(fanouts) != num_hops:
        raise ValueError(
            f"fanouts must list one cap per hop: got {len(fanouts)} caps "
            f"for num_hops={num_hops}"
        )
    if any(f < 1 for f in fanouts):
        raise ValueError("every fanout must be >= 1")
    return num_hops, fanouts


def build_edge_csr(edge_index: np.ndarray, num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Group edge targets by source node in CSR form.

    Returns ``(indptr, indices)`` such that ``indices[indptr[v]:indptr[v+1]]``
    are the targets of edges leaving ``v``, preserving edge multiplicity and
    the relative order the edges have in ``edge_index``.
    """
    src = np.asarray(edge_index[0], dtype=np.int64)
    dst = np.asarray(edge_index[1], dtype=np.int64)
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=num_nodes)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    return indptr, dst[order]


def _gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated neighbor lists of ``nodes`` plus the per-node counts."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), counts
    segment_starts = np.cumsum(counts) - counts
    offsets = np.arange(total) - np.repeat(segment_starts - starts, counts)
    return indices[offsets], counts


@dataclass(frozen=True)
class SubgraphBatch:
    """A training subgraph plus the bookkeeping to map node ids back.

    Attributes
    ----------
    graph:
        The extracted subgraph; node ``i`` of this graph is global node
        ``node_ids[i]``.  Its propagation cache holds the sliced full-graph
        propagation matrix (see module docstring).
    node_ids:
        Local -> global node-id mapping (seeds first).
    seed_local:
        Positions of the seed nodes inside the subgraph
        (``node_ids[seed_local]`` equals the seeds, in order).
    """

    graph: Graph
    node_ids: np.ndarray
    seed_local: np.ndarray
    _local_lookup: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    def to_global(self, local_nodes: np.ndarray) -> np.ndarray:
        """Map subgraph-local node ids back to full-graph ids."""
        return self.node_ids[np.asarray(local_nodes, dtype=np.int64)]

    def to_local(self, global_nodes: np.ndarray) -> np.ndarray:
        """Map full-graph node ids into the subgraph (error if absent)."""
        local = self._local_lookup[np.asarray(global_nodes, dtype=np.int64)]
        if (local < 0).any():
            missing = np.asarray(global_nodes)[local < 0]
            raise KeyError(f"nodes {missing[:5].tolist()} are not in this subgraph")
        return local


def extract_subgraph(graph: Graph, node_ids: np.ndarray, num_seeds: int) -> SubgraphBatch:
    """Node-induced subgraph over ``node_ids`` with full-graph propagation.

    The adjacency pattern (with edge multiplicity) is sliced from the cached
    CSR adjacency in O(nnz of the selected rows), and the subgraph's
    propagation cache is pre-set to the row/column slice of the *full*
    graph's normalized propagation matrix so boundary nodes keep their
    full-graph degrees (the GCN encoder reads that cache).
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    lookup = -np.ones(graph.num_nodes, dtype=np.int64)
    lookup[node_ids] = np.arange(node_ids.shape[0])

    sub_adj = graph.adjacency()[node_ids][:, node_ids].tocoo()
    # ``adjacency()`` sums duplicate directed edges into integer weights;
    # repeat restores the multiplicity the edge list had.
    multiplicity = np.rint(sub_adj.data).astype(np.int64)
    src = np.repeat(sub_adj.row.astype(np.int64), multiplicity)
    dst = np.repeat(sub_adj.col.astype(np.int64), multiplicity)

    subgraph = Graph(
        features=graph.features[node_ids],
        edge_index=np.vstack([src, dst]),
        labels=None if graph.labels is None else graph.labels[node_ids],
        name=f"{graph.name}-sub",
    )
    subgraph._propagation_cache = graph.propagation()[node_ids][:, node_ids].tocsr()
    return SubgraphBatch(
        graph=subgraph,
        node_ids=node_ids,
        seed_local=np.arange(int(num_seeds)),
        _local_lookup=lookup,
    )


class NeighborSampler:
    """Per-batch receptive-field extraction over a fixed graph.

    Parameters
    ----------
    graph:
        The full graph; its adjacency/propagation caches are built once here
        and reused by every :meth:`sample` call.
    num_hops:
        Receptive-field depth.  Must be at least the encoder's number of
        message-passing layers for exact outputs (both in-repo encoders have
        two layers).
    fanouts:
        ``None`` extracts the exact k-hop neighborhood.  A sequence of
        ``num_hops`` ints caps how many neighbors each frontier node
        contributes at each hop (drawn uniformly without replacement from
        its edge slots), GraphSAGE-style.
    rng:
        Generator used for fanout sampling only; exact extraction draws
        nothing.
    """

    def __init__(
        self,
        graph: Graph,
        num_hops: int = 2,
        fanouts: Optional[Sequence[int]] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.graph = graph
        self.num_hops, self.fanouts = validate_fanouts(num_hops, fanouts)
        self.rng = rng if rng is not None else np.random.default_rng()
        # Hop expansion follows edges in either direction so the receptive
        # field covers message flow under both the GCN (source-aggregates)
        # and GAT (target-aggregates) conventions; on the undirected graphs
        # used throughout this repo the two coincide.
        self._indptr, self._indices = build_edge_csr(
            symmetrize_edges(graph.edge_index), graph.num_nodes
        )
        # Warm the caches sample() slices every batch.
        graph.adjacency()
        graph.propagation()

    def sample(self, seed_nodes: np.ndarray) -> SubgraphBatch:
        """Extract the (possibly fanout-capped) receptive field of the seeds.

        ``seed_nodes`` must be unique: a duplicated seed would appear twice
        in the subgraph, double-counting its feature row in the sliced
        propagation and breaking the exactness guarantee, so it is rejected.
        """
        seeds = np.asarray(seed_nodes, dtype=np.int64)
        if np.unique(seeds).shape[0] != seeds.shape[0]:
            raise ValueError("seed_nodes must not contain duplicate node ids")
        node_ids = self._receptive_field(seeds)
        return extract_subgraph(self.graph, node_ids, num_seeds=seeds.shape[0])

    # ------------------------------------------------------------------
    def _receptive_field(self, seeds: np.ndarray) -> np.ndarray:
        """Global ids of the expanded node set, seeds first."""
        in_field = np.zeros(self.graph.num_nodes, dtype=bool)
        in_field[seeds] = True
        layers = [seeds]
        frontier = seeds
        for hop in range(self.num_hops):
            neighbors, counts = _gather_neighbors(self._indptr, self._indices, frontier)
            if self.fanouts is not None:
                neighbors = self._subsample(neighbors, counts, self.fanouts[hop])
            fresh = np.unique(neighbors[~in_field[neighbors]])
            if fresh.size == 0:
                break
            in_field[fresh] = True
            layers.append(fresh)
            frontier = fresh
        return np.concatenate(layers)

    def _subsample(self, neighbors: np.ndarray, counts: np.ndarray, fanout: int) -> np.ndarray:
        """Keep at most ``fanout`` uniform draws per frontier node."""
        total = neighbors.shape[0]
        if total == 0 or (counts <= fanout).all():
            return neighbors
        keys = self.rng.random(total)
        segments = np.repeat(np.arange(counts.shape[0]), counts)
        order = np.lexsort((keys, segments))
        segment_starts = np.cumsum(counts) - counts
        rank = np.arange(total) - np.repeat(segment_starts, counts)
        return neighbors[order[rank < fanout]]


def khop_subgraph(graph: Graph, seed_nodes: np.ndarray, num_hops: int) -> SubgraphBatch:
    """Exact ``num_hops``-hop receptive field of ``seed_nodes``.

    Convenience wrapper over :class:`NeighborSampler` without fanout caps;
    for repeated extraction over the same graph construct the sampler once.
    """
    return NeighborSampler(graph, num_hops=num_hops).sample(seed_nodes)
