"""Graph Convolutional Network (GCN) encoder with a sparse fast path.

The paper's experiments use GAT, but the method is encoder-agnostic; GCN is
provided as a lighter alternative used in tests, ablations, and the fast
benchmark profiles.  The propagation matrix ``D^{-1/2}(A+I)D^{-1/2}`` is
precomputed with scipy sparse and treated as a constant; only the layer
weights receive gradients.

Propagation
-----------
The propagation matrix stays a ``scipy.sparse.csr_matrix`` end-to-end,
cached per graph by :meth:`repro.graphs.graph.Graph.propagation`, and is
applied with :func:`repro.nn.tensor.sparse_matmul`.  One forward+backward
pass costs O(nnz * d) FLOPs and O(N * d + nnz) memory, where ``nnz`` is the
number of edges incl. self loops and ``d`` the layer width.  For sparse
graphs (nnz ~ N * avg_degree) this is linear in N.  A training batch's
forward (``GCNEncoder.forward(graph, targets)``) runs layer 2 on the
batch's propagation rows only.
``tests/gnn/test_backend_parity.py`` checks forward outputs and gradients
against a dense ``P @ (X W)`` reference to 1e-8.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..graphs.graph import Graph
from ..nn.layers import Dropout, Linear, Module
from ..nn.tensor import Tensor, no_grad, sparse_matmul


class GCNLayer(Module):
    """One graph convolution: ``\\hat{A} X W`` (activation applied by caller)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.linear = Linear(in_features, out_features, rng=rng)

    def forward(self, x: Tensor, propagation: sp.spmatrix) -> Tensor:
        return sparse_matmul(propagation, self.linear(x))


class GCNEncoder(Module):
    """Two-layer GCN encoder with dropout, mirroring :class:`GATEncoder`'s API."""

    def __init__(
        self,
        in_features: int,
        hidden_dim: int = 128,
        out_dim: int = 64,
        dropout: float = 0.5,
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

    def forward(self, graph: Graph, targets: Optional[np.ndarray] = None) -> Tensor:
        """Node representations: one row per node, or one per ``targets`` entry.

        With ``targets`` (which must not repeat) layer 2 multiplies only the
        targets' propagation rows, taken in ascending order so that the
        transposed product of the backward adds the same terms in the same
        order as the all-node pass, then puts the rows in ``targets`` order.
        Outputs and gradients equal the all-node pass's ``targets`` rows
        bit for bit.
        """
        propagation = graph.propagation()
        x = self.dropout(Tensor(graph.features))
        hidden = self.layer1(x, propagation).relu()
        hidden = self.dropout(hidden)
        if targets is None:
            return self.layer2(hidden, propagation)
        rows = np.unique(targets)
        if rows.shape[0] != len(targets):
            raise ValueError("targets must not repeat")
        return self.layer2(hidden, propagation[rows]).gather_rows(np.searchsorted(rows, targets))

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
        propagation = graph.propagation()
        row_sums = np.asarray(propagation.sum(axis=1)).reshape(-1, 1)
        return [
            partial(_propagation_layer, self.layer1, propagation, row_sums, True),
            partial(_propagation_layer, self.layer2, propagation, row_sums, False),
        ]


def _propagation_layer(layer: GCNLayer, propagation: sp.spmatrix,
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
