"""Incremental graph maintenance for streaming deltas.

:class:`DynamicGraph` wraps a live :class:`~repro.graphs.graph.Graph` and
applies :class:`~repro.graphs.delta.GraphDelta` batches while maintaining, in
O(delta + local neighborhood) per step, everything the incremental inference
path needs:

* a **symmetric edge CSR** (the graph's own ``edge_csr`` cache is dropped on
  every mutation; rebuilding it would cost an O(E log E) argsort per delta,
  so the wrapper merges new edges into its own copy instead),
* the **degree vector** behind the normalized propagation
  ``D^{-1/2}(A+I)D^{-1/2}`` (``d_v = 1 + #non-loop out-edges``), kept current
  with one ``bincount`` over the delta sources, and
* the delta's **affected node set**: for an ``L``-layer message-passing
  encoder, the only embeddings that can change are those within ``L`` hops of
  a *seed* (an arriving node or a delta-edge endpoint).  Adding an edge
  ``(u, w)`` changes the degrees of ``u``/``w``, hence the propagation rows of
  ``u``/``w`` (their incident edge weights), which layer 1 spreads to their
  neighbors — all inside the ``L``-hop ball around the seeds.  GAT's
  attention weights change only at the endpoints themselves, so the same
  bound covers both encoders.

Each :meth:`apply` also pre-builds the :class:`~repro.graphs.sampling.SubgraphBatch`
covering the affected nodes' own receptive field (``2L`` hops from the
seeds): recomputing the affected rows needs their ``L``-hop inputs, and the
subgraph's propagation slice is assembled directly from the maintained degree
vector — value ``A[u,w] / sqrt(d_u d_w)`` off-diagonal, ``1/d_v`` on the
diagonal — which equals the row/column slice of the full graph's propagation
matrix without ever rebuilding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..graphs.delta import GraphDelta
from ..graphs.graph import Graph
from ..graphs.sampling import SubgraphBatch, _gather_neighbors


def check_symmetric_edges(edge_index: np.ndarray, what: str = "edge_index") -> None:
    """Raise unless the directed edge multiset equals its own reverse.

    The repository convention for undirected graphs is that both directions
    of every edge are stored; the affected-set expansion and the maintained
    degree vector both rely on it.
    """
    src = np.asarray(edge_index[0], dtype=np.int64)
    dst = np.asarray(edge_index[1], dtype=np.int64)
    forward = np.lexsort((dst, src))
    backward = np.lexsort((src, dst))
    if not (np.array_equal(src[forward], dst[backward])
            and np.array_equal(dst[forward], src[backward])):
        raise ValueError(
            f"{what} is not symmetric: undirected graphs must store both "
            "directions of every edge (see GraphDelta.undirected)")


@dataclass
class DeltaReport:
    """What one applied delta changed, and the machinery to refresh it.

    Attributes
    ----------
    old_num_nodes / new_num_nodes:
        Node counts before/after the delta.
    old_cache_version / new_cache_version:
        The graph's ``cache_version`` before/after (``apply_delta`` bumps it
        exactly once).
    num_new_edges:
        Directed edges added.
    seeds:
        Sorted node ids directly modified: arriving nodes plus delta-edge
        endpoints.
    affected:
        Node ids whose embeddings may differ from the pre-delta graph — the
        ``num_hops``-hop ball around the seeds (includes the seeds).  Rows
        outside this set are bit-identical under any message-passing encoder
        of depth <= ``num_hops``.
    num_hops:
        The encoder depth bound the affected set was computed for.
    batch:
        Pre-extracted receptive field of the affected nodes (affected nodes
        first, boundary context after), ready for a partial encoder pass;
        ``None`` when nothing was affected.
    """

    old_num_nodes: int
    new_num_nodes: int
    old_cache_version: int
    new_cache_version: int
    num_new_edges: int
    seeds: np.ndarray
    affected: np.ndarray
    num_hops: int
    batch: Optional[SubgraphBatch] = field(default=None, repr=False)

    @property
    def num_affected(self) -> int:
        return int(self.affected.shape[0])

    @property
    def affected_fraction(self) -> float:
        """Share of post-delta nodes whose embeddings need recomputation."""
        if self.new_num_nodes == 0:
            return 0.0
        return self.num_affected / self.new_num_nodes

    def describe(self) -> dict:
        return {
            "old_num_nodes": self.old_num_nodes,
            "new_num_nodes": self.new_num_nodes,
            "num_new_edges": self.num_new_edges,
            "num_seeds": int(self.seeds.shape[0]),
            "num_affected": self.num_affected,
            "affected_fraction": self.affected_fraction,
            "num_hops": self.num_hops,
        }


class DynamicGraph:
    """A mutable graph that reports the k-hop impact of every delta.

    Parameters
    ----------
    graph:
        The live graph; mutated in place by :meth:`apply`.  Must store both
        directions of every edge (checked at construction, and for every
        delta's new edges by :meth:`apply`).
    num_hops:
        Message-passing depth of the encoders reading this graph (both
        in-repo encoders have two layers).  The affected set is exact for
        any encoder of depth <= ``num_hops``; the pre-built refresh batch
        spans ``2 * num_hops`` hops so the affected rows can be recomputed
        from their own full receptive field.
    """

    def __init__(self, graph: Graph, num_hops: int = 2):
        self.graph = graph
        self.num_hops = int(num_hops)
        if self.num_hops < 1:
            raise ValueError("num_hops must be >= 1")
        check_symmetric_edges(graph.edge_index)
        from ..graphs.sampling import build_edge_csr

        self._indptr, self._indices = build_edge_csr(
            graph.edge_index, graph.num_nodes)
        src, dst = graph.edge_index
        self._degrees = (
            np.bincount(src[src != dst], minlength=graph.num_nodes)
            .astype(np.float64) + 1.0
        )
        #: Deltas applied through this wrapper.
        self.deltas_applied = 0
        self.last_report: Optional[DeltaReport] = None

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def apply(self, delta: GraphDelta) -> DeltaReport:
        """Apply ``delta`` to the wrapped graph and report its k-hop impact."""
        graph = self.graph
        old_n = graph.num_nodes
        old_version = graph.cache_version
        if delta.num_new_edges:
            check_symmetric_edges(delta.add_edges, what="delta.add_edges")
        graph.apply_delta(delta)
        new_n = graph.num_nodes

        src = delta.add_edges[0]
        dst = delta.add_edges[1]
        self._merge_edges(src, dst, old_n, new_n)
        if new_n > old_n:
            self._degrees = np.concatenate(
                [self._degrees, np.ones(new_n - old_n)])
        non_loop = src != dst
        if non_loop.any():
            self._degrees += np.bincount(src[non_loop], minlength=new_n)

        seeds = delta.touched_nodes(old_n)
        affected, boundary = self._expand(seeds)
        batch = self._extract(affected, boundary) if affected.size else None
        report = DeltaReport(
            old_num_nodes=old_n,
            new_num_nodes=new_n,
            old_cache_version=old_version,
            new_cache_version=graph.cache_version,
            num_new_edges=delta.num_new_edges,
            seeds=seeds,
            affected=affected,
            num_hops=self.num_hops,
            batch=batch,
        )
        self.deltas_applied += 1
        self.last_report = report
        return report

    # ------------------------------------------------------------------
    # Incremental CSR / degree maintenance
    # ------------------------------------------------------------------
    def _merge_edges(self, src: np.ndarray, dst: np.ndarray,
                     old_n: int, new_n: int) -> None:
        """Merge the delta edges into the maintained CSR in O(E) copies.

        Per-source segments keep their existing order and the new edges are
        appended at each segment's end — no global argsort over the full
        edge list.
        """
        old_counts = np.diff(self._indptr)
        if new_n > old_n:
            old_counts = np.concatenate(
                [old_counts, np.zeros(new_n - old_n, dtype=np.int64)])
        add_counts = np.bincount(src, minlength=new_n)
        counts = old_counts + add_counts
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)

        num_old = self._indices.shape[0]
        if num_old:
            # New position of old entry i (source v, local rank r) is
            # indptr[v] + r; recover v and r from the old CSR layout.
            old_src = np.repeat(np.arange(old_n), np.diff(self._indptr))
            positions = indptr[old_src] + (np.arange(num_old) - self._indptr[old_src])
            indices[positions] = self._indices
        if src.size:
            order = np.argsort(src, kind="stable")
            src_sorted = src[order]
            # Rank of each new edge within its source group.
            group_starts = np.cumsum(add_counts) - add_counts
            rank = np.arange(src_sorted.shape[0]) - group_starts[src_sorted]
            positions = indptr[src_sorted] + old_counts[src_sorted] + rank
            indices[positions] = dst[order]
        self._indptr, self._indices = indptr, indices

    # ------------------------------------------------------------------
    # Affected-region expansion
    # ------------------------------------------------------------------
    def _expand(self, seeds: np.ndarray) -> tuple:
        """BFS the seeds out to ``2 * num_hops`` hops, split by distance.

        Returns ``(affected, boundary)``: nodes within ``num_hops`` of a
        seed (embedding may change) and the remaining ring out to
        ``2 * num_hops`` (unchanged context the recomputation reads).
        """
        if seeds.size == 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        in_field = np.zeros(self.graph.num_nodes, dtype=bool)
        in_field[seeds] = True
        affected_layers = [seeds]
        boundary_layers = []
        frontier = seeds
        for hop in range(1, 2 * self.num_hops + 1):
            neighbors, _ = _gather_neighbors(self._indptr, self._indices, frontier)
            fresh = np.unique(neighbors[~in_field[neighbors]])
            if fresh.size == 0:
                break
            in_field[fresh] = True
            (affected_layers if hop <= self.num_hops else boundary_layers).append(fresh)
            frontier = fresh
        return (np.concatenate(affected_layers),
                np.concatenate(boundary_layers) if boundary_layers
                else np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # Receptive-field extraction with degree-derived propagation
    # ------------------------------------------------------------------
    def _extract(self, affected: np.ndarray, boundary: np.ndarray) -> SubgraphBatch:
        """Build the refresh batch without touching the full graph's caches.

        Equivalent to ``extract_subgraph(graph, node_ids, len(affected))``
        but O(local): the induced edges come from the maintained CSR and the
        propagation slice is assembled from the maintained degrees instead
        of slicing a freshly rebuilt full-graph matrix.
        """
        graph = self.graph
        node_ids = np.concatenate([affected, boundary])
        lookup = -np.ones(graph.num_nodes, dtype=np.int64)
        lookup[node_ids] = np.arange(node_ids.shape[0])

        neighbors, counts = _gather_neighbors(self._indptr, self._indices, node_ids)
        src_global = np.repeat(node_ids, counts)
        keep = lookup[neighbors] >= 0
        src_local = lookup[src_global[keep]]
        dst_local = lookup[neighbors[keep]]

        subgraph = Graph(
            features=graph.features[node_ids],
            edge_index=np.vstack([src_local, dst_local]),
            labels=None if graph.labels is None else graph.labels[node_ids],
            name=f"{graph.name}-delta",
        )
        m = node_ids.shape[0]
        inv_sqrt = 1.0 / np.sqrt(self._degrees[node_ids])
        non_loop = src_local != dst_local
        rows = np.concatenate([src_local[non_loop], np.arange(m)])
        cols = np.concatenate([dst_local[non_loop], np.arange(m)])
        data = np.concatenate([
            inv_sqrt[src_local[non_loop]] * inv_sqrt[dst_local[non_loop]],
            1.0 / self._degrees[node_ids],
        ])
        # coo -> csr sums duplicate (multi-)edges, matching normalized_adjacency.
        subgraph._propagation_cache = sp.csr_matrix(
            (data, (rows, cols)), shape=(m, m))
        return SubgraphBatch(
            graph=subgraph,
            node_ids=node_ids,
            seed_local=np.arange(affected.shape[0]),
            _local_lookup=lookup,
        )

    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:  # returns-frozen
        """The maintained ``A+I`` degree vector (read-only view)."""
        view = self._degrees.view()
        view.setflags(write=False)
        return view

    def __repr__(self) -> str:
        return (f"DynamicGraph(nodes={self.graph.num_nodes}, "
                f"edges={self.graph.num_edges}, num_hops={self.num_hops}, "
                f"deltas={self.deltas_applied})")
