"""Graph container used across the repository.

A :class:`Graph` stores node features, an edge index in COO format (2 x E,
directed edges; undirected graphs store both directions), and optional node
labels.  It mirrors the minimal subset of ``torch_geometric.data.Data``
required by the paper's pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    from ..nn.segment import EdgeGroups


@dataclass
class Graph:
    """An attributed graph with integer node labels.

    Attributes
    ----------
    features:
        Dense node feature matrix of shape (num_nodes, num_features).
    edge_index:
        Array of shape (2, num_edges) with directed edges (source, target).
        For undirected graphs both directions are present.
    labels:
        Integer class labels of shape (num_nodes,), or None for unlabeled
        graphs.
    name:
        Optional human-readable name (e.g. the dataset profile name).

    Mutability contract
    -------------------
    Derived structures (:meth:`adjacency`, :meth:`propagation`,
    :meth:`edge_csr`, :meth:`attention_edges`) are cached on first use and
    assume the graph never changes afterwards.  Treat a graph as immutable
    once constructed: prefer building a new one (:meth:`copy`,
    :meth:`subgraph`, ``dataclasses.replace``) over reassigning fields.  Any code that does
    reassign ``features``, ``edge_index``, or ``labels`` in place MUST call
    :meth:`invalidate_caches` afterwards — otherwise the cached matrices
    silently keep describing the old graph.
    """

    features: np.ndarray
    edge_index: np.ndarray
    labels: Optional[np.ndarray] = None
    name: str = ""
    _adjacency_cache: Optional[sp.csr_matrix] = field(default=None, repr=False, compare=False)
    _propagation_cache: Optional[sp.csr_matrix] = field(default=None, repr=False, compare=False)
    _csr_cache: Optional[tuple] = field(default=None, repr=False, compare=False)
    _attention_cache: Optional["EdgeGroups"] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64)
        if self.edge_index.ndim != 2 or self.edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, num_edges)")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape[0] != self.features.shape[0]:
                raise ValueError("labels must have one entry per node")
        if self.edge_index.size:
            if self.edge_index.min() < 0:
                raise ValueError("edge_index contains negative node ids")
            if self.edge_index.max() >= self.num_nodes:
                raise ValueError("edge_index refers to a node that does not exist")
        # ``dataclasses.replace`` passes the donor's cache fields through the
        # constructor; they may describe different fields, so start fresh.
        self.invalidate_caches()

    def invalidate_caches(self) -> None:
        """Drop every cached derived structure.

        Must be called after reassigning ``features``/``edge_index``/
        ``labels`` on an existing instance (see the class docstring); the
        next :meth:`adjacency` / :meth:`propagation` / :meth:`edge_csr` /
        :meth:`attention_edges` call rebuilds from the current fields.  Also
        bumps :attr:`cache_version`, which external caches keyed on this
        graph (``repro.inference.EmbeddingCache``, serving snapshots)
        compare so a mutated graph can never serve their stale entries.
        """
        self._adjacency_cache = None
        self._propagation_cache = None
        self._csr_cache = None
        self._attention_cache = None
        self._cache_version = getattr(self, "_cache_version", -1) + 1

    @property
    def cache_version(self) -> int:
        """Counter bumped by :meth:`invalidate_caches` (0 for a fresh graph)."""
        return self._cache_version

    # -- basic properties -------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        """Number of directed edges stored in ``edge_index``."""
        return self.edge_index.shape[1]

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            return 0
        return int(self.labels.max()) + 1

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, features={self.num_features}, "
            f"classes={self.num_classes})"
        )

    # -- derived structures ------------------------------------------------
    def adjacency(self) -> sp.csr_matrix:
        """Sparse adjacency matrix (cached)."""
        if self._adjacency_cache is None:
            src, dst = self.edge_index
            data = np.ones(self.num_edges)
            self._adjacency_cache = sp.csr_matrix(
                (data, (src, dst)), shape=(self.num_nodes, self.num_nodes)
            )
        return self._adjacency_cache

    def propagation(self) -> sp.csr_matrix:
        """Symmetric normalized propagation matrix ``D^{-1/2}(A+I)D^{-1/2}``.

        Cached per graph so that every encoder sharing this graph reuses the
        same CSR matrix instead of renormalizing the adjacency.
        """
        if self._propagation_cache is None:
            from .utils import normalized_adjacency

            self._propagation_cache = normalized_adjacency(self)
        return self._propagation_cache

    def degrees(self) -> np.ndarray:
        """Out-degree of every node based on the stored directed edges."""
        from ..nn.segment import Segments

        return Segments(self.edge_index[0], self.num_nodes).counts()

    def edge_csr(self) -> tuple:
        """CSR view ``(indptr, indices)`` of the edge list, grouped by source.

        Cached; preserves edge multiplicity and the relative order edges
        have in ``edge_index``.
        """
        if self._csr_cache is None:
            from .sampling import build_edge_csr

            self._csr_cache = build_edge_csr(self.edge_index, self.num_nodes)
        return self._csr_cache

    def attention_edges(self) -> "EdgeGroups":  # returns-frozen
        """The GAT attention edges: ``edge_index`` plus one self loop per node.

        Existing self loops are dropped first (see
        :func:`~repro.graphs.utils.add_self_loops`).  Cached with their
        by-target and by-source groupings, which sort on first use, so every
        encoder forward on this graph reuses one sort; the edge arrays are
        read-only.
        """
        if self._attention_cache is None:
            from ..nn.segment import EdgeGroups
            from .utils import add_self_loops

            edge_index = add_self_loops(self.edge_index, self.num_nodes)
            edge_index.setflags(write=False)
            self._attention_cache = EdgeGroups.from_edge_index(edge_index, self.num_nodes)
        return self._attention_cache

    def neighbors(self, node: int) -> np.ndarray:
        """Return the targets of edges leaving ``node`` (O(degree) lookup)."""
        indptr, indices = self.edge_csr()
        return indices[indptr[node]: indptr[node + 1]]

    def apply_delta(self, delta) -> None:
        """Append a :class:`~repro.graphs.delta.GraphDelta` in place.

        New feature rows (and labels, when the graph is labeled) are
        appended, the delta's edges are concatenated onto ``edge_index``,
        and :meth:`invalidate_caches` is called so every derived structure —
        including the CSR neighbor cache behind :meth:`neighbors` — is
        rebuilt from the mutated fields and :attr:`cache_version` moves.
        Arriving nodes without a delta label get ``-1`` (unknown).

        This is the raw mutation primitive; incremental consumers that need
        the k-hop-affected node set should apply deltas through
        :class:`repro.streaming.DynamicGraph` instead.
        """
        delta.validate_for(self)
        if delta.num_new_nodes:
            self.features = np.vstack([self.features, delta.add_features])
            if self.labels is not None:
                new_labels = (delta.add_labels if delta.add_labels is not None
                              else -np.ones(delta.num_new_nodes, dtype=np.int64))
                self.labels = np.concatenate([self.labels, new_labels])
        if delta.num_new_edges:
            self.edge_index = np.hstack([self.edge_index, delta.add_edges])
        # Always bump the version, even for an empty delta: callers use the
        # bump as the "a delta was applied here" signal.
        self.invalidate_caches()

    def copy(self) -> "Graph":
        """Deep copy of the graph (caches are not copied)."""
        return Graph(
            features=self.features.copy(),
            edge_index=self.edge_index.copy(),
            labels=None if self.labels is None else self.labels.copy(),
            name=self.name,
        )

    def subgraph(self, nodes: np.ndarray) -> "Graph":
        """Node-induced subgraph with relabeled node indices."""
        nodes = np.asarray(nodes, dtype=np.int64)
        node_set = np.zeros(self.num_nodes, dtype=bool)
        node_set[nodes] = True
        mapping = -np.ones(self.num_nodes, dtype=np.int64)
        mapping[nodes] = np.arange(nodes.shape[0])
        src, dst = self.edge_index
        keep = node_set[src] & node_set[dst]
        new_edges = np.vstack([mapping[src[keep]], mapping[dst[keep]]])
        return Graph(
            features=self.features[nodes],
            edge_index=new_edges,
            labels=None if self.labels is None else self.labels[nodes],
            name=f"{self.name}-sub",
        )
