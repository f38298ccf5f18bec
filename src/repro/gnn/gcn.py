"""Graph Convolutional Network (GCN) encoder with a sparse fast path.

The paper's experiments use GAT, but the method is encoder-agnostic; GCN is
provided as a lighter alternative used in tests, ablations, and the fast
benchmark profiles.  The propagation matrix ``D^{-1/2}(A+I)D^{-1/2}`` is
precomputed with scipy sparse and treated as a constant; only the layer
weights receive gradients.

Backends
--------
The encoder supports two propagation backends selected by the ``backend``
constructor argument (also reachable through
:class:`repro.core.config.EncoderConfig` and :func:`repro.gnn.build_encoder`):

``"sparse"`` (default)
    The propagation matrix stays a ``scipy.sparse.csr_matrix`` end-to-end and
    is applied with :func:`repro.nn.tensor.sparse_matmul`.  One
    forward+backward pass costs O(nnz * d) FLOPs and O(N * d + nnz) memory,
    where ``nnz`` is the number of edges incl. self loops and ``d`` the layer
    width.  For sparse graphs (nnz ~ N * avg_degree) this is linear in N.

``"dense"``
    The propagation matrix is densified once and applied with ordinary
    matmul: O(N^2 * d) FLOPs and O(N^2) memory.  Kept as a reference
    implementation for parity testing and for tiny graphs where BLAS on the
    dense matrix can win; infeasible beyond a few 10^4 nodes.

Both backends compute the same function; the test suite checks forward and
gradient agreement to 1e-8 (``tests/gnn/test_backend_parity.py``).
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from ..graphs.graph import Graph
from ..nn.layers import Dropout, Linear, Module
from ..nn.tensor import Tensor, no_grad, sparse_matmul
from .backends import check_backend

Propagation = Union[np.ndarray, sp.spmatrix]


class GCNLayer(Module):
    """One graph convolution: ``\\hat{A} X W`` (activation applied by caller)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.linear = Linear(in_features, out_features, rng=rng)

    def forward(self, x: Tensor, propagation: Propagation) -> Tensor:
        projected = self.linear(x)
        if sp.issparse(propagation):
            return sparse_matmul(propagation, projected)
        # Dense reference path: the propagation matrix is a constant, so it
        # participates in the graph as a non-gradient tensor.
        return Tensor(propagation).matmul(projected)


class GCNEncoder(Module):
    """Two-layer GCN encoder with dropout, mirroring :class:`GATEncoder`'s API."""

    def __init__(
        self,
        in_features: int,
        hidden_dim: int = 128,
        out_dim: int = 64,
        dropout: float = 0.5,
        backend: str = "sparse",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.layer1 = GCNLayer(in_features, hidden_dim, rng=rng)
        self.layer2 = GCNLayer(hidden_dim, out_dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self.out_dim = out_dim
        #: Message-passing depth == receptive-field hops a node's output needs
        #: (checked against ``sampling.num_hops`` by exact khop training).
        self.num_message_passing_layers = 2
        self.backend = check_backend(backend)
        self._cached_propagation: Optional[Propagation] = None
        # Weak reference to the graph whose densified matrix is cached: a
        # weakref cannot pin a large graph alive, and (unlike keying by
        # id()) it can never mistake a fresh graph at a recycled address
        # for the cached one.  The graph's cache_version is compared too, so
        # the documented in-place mutation path (reassign fields +
        # invalidate_caches()) drops this cache as well.
        self._cached_graph: Optional[weakref.ref] = None
        self._cached_graph_version = -1

    def _propagation(self, graph: Graph) -> Propagation:
        if self.backend == "sparse":
            # Already memoized per graph; no encoder-level state needed.
            self._cached_propagation = graph.propagation()
            return self._cached_propagation
        cached = self._cached_graph() if self._cached_graph is not None else None
        if cached is not graph or self._cached_graph_version != graph.cache_version:
            self._cached_propagation = graph.propagation().toarray()
            self._cached_graph = weakref.ref(graph)
            self._cached_graph_version = graph.cache_version
        return self._cached_propagation

    def forward(self, graph: Graph) -> Tensor:
        propagation = self._propagation(graph)
        x = self.dropout(Tensor(graph.features))
        hidden = self.layer1(x, propagation).relu()
        hidden = self.dropout(hidden)
        return self.layer2(hidden, propagation)

    def embed(self, graph: Graph) -> np.ndarray:
        """Inference-mode embeddings as a plain numpy array."""
        with self.training_mode(False), no_grad():
            return self.forward(graph).numpy()

    # -- layer-wise inference interface ---------------------------------
    def layerwise_plan(self, graph: Graph) -> list:
        """One chunked function per layer for chunked all-node embedding.

        Consumed by :class:`repro.inference.LayerwiseInference`, which calls
        each function as ``layer(h, chunk_size)`` in eval mode under
        ``no_grad``.  A layer computes its output rows chunk by chunk from
        the previous layer's activations, so at any moment only two layer
        activations and one chunk-sized temporary are alive.
        """
        propagation = self._propagation(graph)
        row_sums = np.asarray(propagation.sum(axis=1)).reshape(-1, 1)
        return [
            partial(_propagation_layer, self.layer1, propagation, row_sums, True),
            partial(_propagation_layer, self.layer2, propagation, row_sums, False),
        ]


def _propagation_layer(layer: GCNLayer, propagation: Propagation,
                       row_sums: np.ndarray, relu: bool,
                       h: np.ndarray, chunk_size: int) -> np.ndarray:
    """``layer`` (then ReLU if ``relu``) on all nodes, ``chunk_size`` rows at a time.

    Rows ``[a, b)`` are ``(P[a:b] @ h) @ W + (P 1)[a:b] b``: propagation
    first, so the only temporary is ``chunk x in_features`` instead of the
    full ``N x out_features`` projection.  Matrix associativity makes this
    equal to the training forward's ``P @ (h W + b)`` up to float rounding
    (parity is tested at 1e-8); the bias is added *before* propagation
    there, so it is scaled by the propagation row sums here.  Calling
    :meth:`GCNLayer.forward` per chunk instead would build that full
    projection.
    """
    weight, bias = layer.linear.weight.data, layer.linear.bias
    num_nodes = h.shape[0]
    out = np.empty((num_nodes, weight.shape[1]))
    for start in range(0, num_nodes, chunk_size):
        stop = min(start + chunk_size, num_nodes)
        rows = (propagation[start:stop] @ h) @ weight
        if bias is not None:
            rows = rows + row_sums[start:stop] * bias.data
        out[start:stop] = rows * (rows > 0) if relu else rows
    return out
