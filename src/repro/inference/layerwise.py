"""Layer-wise, chunked all-node embedding computation.

:class:`LayerwiseInference` computes the same deterministic embeddings as
``encoder.embed(graph)`` but **layer by layer in node chunks**:

* each chunk touches only its own rows of the cached normalized propagation
  CSR (GCN) or its own targets' incoming edges (GAT), so the per-chunk
  working set is bounded by ``chunk_size`` rather than ``N``;
* under ``no_grad`` the full forward records no autodiff graph either, so
  what layer-wise saves is the largest buffers full-graph ops build: GAT's
  per-edge ``E x heads`` attention arrays and ``N x heads x out``
  aggregated heads (built here for one chunk of targets at a time) and the
  ``N x heads x out`` product behind its attention scores (here one row
  chunk at a time), and GCN's ``N x out`` projection before propagation.  Neither path builds an ``E x heads x out`` message
  tensor: GAT aggregates with the fused
  :func:`~repro.nn.tensor.edge_aggregate`.  Layer-wise GAT still holds one
  ``N x heads x out`` projection per layer, but not the hidden features
  next to it.

The encoder contract is the duck-typed ``layerwise_plan(graph)`` method
(implemented by :class:`repro.gnn.GCNEncoder` and
:class:`repro.gnn.GATEncoder`), returning one chunked function per layer::

    h = layer(h, chunk_size)    # this layer's output for all N nodes

:meth:`LayerwiseInference.run` calls them in order on the node features,
with the encoder in eval mode (restored afterwards) and gradient recording
off.  What passes between two functions is up to the encoder as long as the
last one returns the embeddings: GAT's first function returns layer 2's
projection of its output, so the caller never holds the hidden features
while layer 2 runs.  GAT's functions run the same attention kernel as training
(:meth:`repro.gnn.gat.GATLayer.attend`) on each chunk of targets, whose
incoming edges are sliced from the graph's cached
:meth:`~repro.graphs.graph.Graph.attention_edges` grouping.

Parity with ``encoder.embed`` is tested at 1e-8 for GCN and GAT, including
chunk sizes that do not divide ``N``, ``chunk_size=1``, ``chunk_size > N``,
and a multigraph with duplicate edges (``tests/inference/test_layerwise.py``).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..nn.tensor import no_grad
from ..obs import REGISTRY, span

#: Default number of node rows computed per chunk.
DEFAULT_CHUNK_SIZE = 4096

_LAYER_SECONDS = REGISTRY.histogram(
    "repro_inference_layer_seconds",
    "Wall time of one layer of chunked layer-wise inference.")


class LayerwiseInference:
    """Chunked layer-by-layer evaluation of a GNN encoder on all nodes."""

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE):
        chunk_size = int(chunk_size)
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size

    def run(self, encoder, graph: Graph) -> np.ndarray:
        """Deterministic all-node embeddings, equal to ``encoder.embed``.

        The encoder runs in eval mode; its training flags are restored on
        return.
        """
        plan = getattr(encoder, "layerwise_plan", None)
        if plan is None:
            raise TypeError(
                f"encoder {type(encoder).__name__} does not implement "
                "layerwise_plan(graph); use mode='full' inference instead"
            )
        h = np.asarray(graph.features, dtype=np.float64)
        with encoder.training_mode(False), no_grad():
            for index, layer in enumerate(plan(graph)):
                with _LAYER_SECONDS.time(), \
                        span("inference.layer", layer=index):
                    h = layer(h, self.chunk_size)
        return h
