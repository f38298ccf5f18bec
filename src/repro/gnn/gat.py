"""Graph Attention Network (GAT) encoder.

The paper uses a 2-layer GAT with 8 attention heads, hidden dimension 128 and
dropout 0.5 as the feature encoder for every method.  This implementation
follows the original GAT formulation (Velickovic et al., ICLR 2018) on an
edge-index representation:

1. Project node features per head: ``h_i = x_i W_k``.
2. Per edge (i -> j), compute ``e_ij = LeakyReLU(a_src . h_i + a_dst . h_j)``.
3. Normalize with a softmax over the incoming edges of each target node.
4. Aggregate ``z_j = sum_i alpha_ij h_i`` and apply ELU; heads are
   concatenated (hidden layers) or averaged (output layer).

Kernel
------
Attention runs on the edge list, vectorized across all heads in a single
batched projection.  Its per-edge half is two autodiff ops on the segment
kernels of :mod:`repro.nn.segment`.
Steps 2 and 3 are :func:`repro.nn.tensor.edge_softmax`, which reduces by
target with ``np.maximum.reduceat`` and a CSR incidence matmul and whose
backward sums the score gradients by source and by target.  Step 4's
aggregation ``z_j = sum_i alpha_ij h_i`` is
:func:`repro.nn.tensor.edge_aggregate`, a weighted CSR matmul per head whose
backward is a by-source CSR matmul plus a per-edge dot.  No
``E x H x d`` message tensor is built in either direction, so a forward
holds O(N * H * d + E * H) memory, where ``E`` is the number of edges (incl.
self loops), ``H`` the head count, and ``d`` the per-head width.  The edges
and their groupings come cached from :meth:`Graph.attention_edges`, so
repeated forwards on one graph sort once.  ``tests/gnn/test_backend_parity.py``
checks outputs and gradients against a per-head masked N x N reference.

The forward is two halves: :meth:`GATLayer.project` (per node) and
:meth:`GATLayer.attend` (per edge, over any set of targets' incoming edges).
Training projects every node and attends over the whole graph in layer 1,
but in the last layer only over the batch's incoming edges
(``GATEncoder.forward(graph, targets)``): no loss reads the other rows.
Layer-wise inference (:meth:`GATEncoder.layerwise_plan`) runs the per-edge
half per chunk of targets, so all three use one attention kernel.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Union

import numpy as np

from ..graphs.graph import Graph
from ..nn.init import glorot_uniform
from ..nn.layers import Dropout, Module, Parameter
from ..nn.segment import EdgeGroups
from ..nn.tensor import Tensor, edge_aggregate, edge_softmax, no_grad


class GATLayer(Module):
    """Single multi-head graph attention layer."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        num_heads: int = 8,
        concat_heads: bool = True,
        dropout: float = 0.5,
        negative_slope: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.num_heads = num_heads
        self.concat_heads = concat_heads
        self.negative_slope = negative_slope
        # One projection and one attention vector pair per head, stored as a
        # single parameter tensor for efficiency.
        self.weight = Parameter(
            glorot_uniform((num_heads, in_features, out_features), rng), name="weight"
        )
        self.att_src = Parameter(glorot_uniform((num_heads, out_features), rng), name="att_src")
        self.att_dst = Parameter(glorot_uniform((num_heads, out_features), rng), name="att_dst")
        self.feat_dropout = Dropout(dropout, rng=rng)
        self.att_dropout = Dropout(dropout, rng=rng)

    @property
    def output_dim(self) -> int:
        if self.concat_heads:
            return self.num_heads * self.out_features
        return self.out_features

    def forward(self, x: Tensor, edge_index: Union[np.ndarray, EdgeGroups],
                num_nodes: int, targets: Optional[np.ndarray] = None) -> Tensor:
        """Attention over ``edge_index``: a ``(2, E)`` array or cached :class:`EdgeGroups`.

        Returns one row per node, or with ``targets`` one row per target in
        ``targets`` order (a target must not repeat).  Every node is still
        projected, since every edge source needs its projection, but only
        the targets' incoming edges are attended over.  Outputs, gradients
        and the random draws equal those of the all-node pass's
        ``targets`` rows bit for bit.
        """
        x = self.feat_dropout(x)
        edges = (edge_index if isinstance(edge_index, EdgeGroups)
                 else EdgeGroups.from_edge_index(edge_index, num_nodes))
        projected, score_src, score_dst = self.project(x)
        if targets is None:
            return self.attend(projected, score_src, score_dst, edges)
        selection, rows = edges.select_targets(targets)
        return self.attend(projected, score_src, score_dst.gather_rows(targets), selection,
                           rows=rows, num_edges=len(edges))

    def project(self, x: Tensor) -> tuple:
        """Per-node half of the forward, vectorized over every head.

        Returns ``(projected, score_src, score_dst)`` of shapes ``(N, H, O)``,
        ``(N, H)`` and ``(N, H)``: each node's projection and its attention
        scores as an edge source and as an edge target.
        """
        # (N, F) @ (H, F, O) -> (H, N, O) -> (N, H, O): one batched matmul
        # instead of a Python loop over heads.
        projected = x.matmul(self.weight).transpose((1, 0, 2))
        score_src = (projected * self.att_src).sum(axis=-1)
        score_dst = (projected * self.att_dst).sum(axis=-1)
        return projected, score_src, score_dst

    def attend(self, projected: Tensor, score_src: Tensor, score_dst: Tensor,
               edges: EdgeGroups, rows: Optional[np.ndarray] = None,
               num_edges: Optional[int] = None) -> Tensor:
        """Per-edge half: attention over the incoming edges of a set of targets.

        ``score_dst`` holds one row per target and ``edges.dst`` indexes
        those rows; ``edges.src`` indexes rows of ``projected`` and
        ``score_src``.  The edges must be every incoming edge of each
        target, since the softmax normalizes over them.  Returns one output
        row per target.  Two fused ops do the work: :func:`edge_softmax`
        turns the scores into attention coefficients, and, after attention
        dropout, :func:`edge_aggregate` sums the weighted source rows.
        ``rows`` marks ``edges`` as rows ``rows`` of a ``num_edges``-edge
        list: attention dropout then draws its noise for every edge of that
        list and keeps the selected rows, so the generator advances as it
        does in a pass over all of them.
        """
        num_targets = score_dst.shape[0]
        alpha = edge_softmax(score_src, score_dst, edges, self.negative_slope)  # (E, H)
        alpha = self.att_dropout(alpha, rows, num_edges)
        aggregated = edge_aggregate(projected, alpha, edges)  # (T, H, O)

        if self.concat_heads:
            return aggregated.reshape(num_targets, self.num_heads * self.out_features)
        return aggregated.mean(axis=1)


class GATEncoder(Module):
    """Two-layer GAT encoder producing node representations.

    The first layer concatenates its heads and applies ELU; the second layer
    averages its heads, matching the paper's configuration (2 layers, 8
    heads, hidden dim 128, dropout 0.5).
    """

    def __init__(
        self,
        in_features: int,
        hidden_dim: int = 128,
        out_dim: int = 64,
        num_heads: int = 8,
        dropout: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        per_head_hidden = max(1, hidden_dim // num_heads)
        self.layer1 = GATLayer(
            in_features,
            per_head_hidden,
            num_heads=num_heads,
            concat_heads=True,
            dropout=dropout,
            rng=rng,
        )
        self.layer2 = GATLayer(
            self.layer1.output_dim,
            out_dim,
            num_heads=num_heads,
            concat_heads=False,
            dropout=dropout,
            rng=rng,
        )
        self.out_dim = out_dim
        #: Message-passing depth == receptive-field hops a node's output needs
        #: (checked against ``sampling.num_hops`` by exact khop training).
        self.num_message_passing_layers = 2

    def forward(self, graph: Graph, targets: Optional[np.ndarray] = None) -> Tensor:
        """Node representations: one row per node, or one per ``targets`` entry.

        With ``targets`` the last layer runs for them only (see
        :meth:`GATLayer.forward`); layer 1 still covers every node, since
        the targets' in-neighbours need its rows.
        """
        edges = graph.attention_edges()
        x = Tensor(graph.features)
        hidden = self.layer1(x, edges, graph.num_nodes).elu()
        return self.layer2(hidden, edges, graph.num_nodes, targets=targets)

    def embed(self, graph: Graph) -> np.ndarray:
        """Inference-mode embeddings as a plain numpy array."""
        with self.training_mode(False), no_grad():
            return self.forward(graph).numpy()

    # -- layer-wise inference interface ---------------------------------
    def layerwise_plan(self, graph: Graph) -> list:
        """One chunked function per layer for chunked all-node embedding.

        Consumed by :class:`repro.inference.LayerwiseInference`, which calls
        each function as ``h = layer(h, chunk_size)`` in eval mode under
        ``no_grad``.  Each layer computes its nodes' attention scores from
        their projection in row chunks, then runs its per-edge half
        (:meth:`GATLayer.attend`) on the incoming edges of each chunk of
        target nodes, sliced from the graph's cached
        :meth:`~repro.graphs.graph.Graph.attention_edges`.  The first
        function returns layer 2's projection of the hidden features rather
        than the features themselves, so the hidden matrix is freed once
        projected instead of staying alive, held by the caller, through
        layer 2.
        """
        edges = graph.attention_edges()
        return [
            partial(_hidden_layer, self.layer1, self.layer2, edges),
            partial(_attend_in_chunks, self.layer2, edges, False),
        ]


def _project(layer: GATLayer, h: np.ndarray) -> np.ndarray:
    """``layer``'s ``(N, H, O)`` projection of ``h``, as in :meth:`GATLayer.project`."""
    return Tensor(h).matmul(layer.weight).transpose((1, 0, 2)).data


def _hidden_layer(layer: GATLayer, next_layer: GATLayer, edges: EdgeGroups,
                  h: np.ndarray, chunk_size: int) -> np.ndarray:
    """``layer`` then ELU on all nodes, returned as ``next_layer``'s projection of it."""
    hidden = _attend_in_chunks(layer, edges, True, _project(layer, h), chunk_size)
    return _project(next_layer, hidden)


def _attend_in_chunks(layer: GATLayer, edges: EdgeGroups, elu: bool,
                      projected: np.ndarray, chunk_size: int) -> np.ndarray:
    """``layer`` (then ELU if ``elu``) on every node from their projection,
    ``chunk_size`` targets at a time."""
    num_nodes = projected.shape[0]
    spans = [(start, min(start + chunk_size, num_nodes))
             for start in range(0, num_nodes, chunk_size)]
    # A chunk's edges may come from any source, so every source score is
    # needed before the first chunk; the target scores go chunk by chunk.
    score_src = Tensor(np.concatenate([_scores(projected, layer.att_src, start, stop)
                                       for start, stop in spans]))
    out = np.empty((num_nodes, layer.output_dim))
    for start, stop in spans:
        score_dst = Tensor(_scores(projected, layer.att_dst, start, stop))
        rows = layer.attend(Tensor(projected), score_src, score_dst,
                            edges.slice_targets(start, stop))
        out[start:stop] = (rows.elu() if elu else rows).numpy()
    return out


def _scores(projected: np.ndarray, att: Parameter, start: int, stop: int) -> np.ndarray:
    """:meth:`GATLayer.project`'s attention scores of rows ``start .. stop - 1``.

    Computing them a row chunk at a time keeps one chunk's ``(rows, H, O)``
    product alive instead of the whole graph's; each score reduces one row,
    so the values are the same.
    """
    return (projected[start:stop] * att.data).sum(axis=-1)
