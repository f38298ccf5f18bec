"""Layer-wise, chunked all-node embedding computation.

:class:`LayerwiseInference` computes the same deterministic embeddings as
``encoder.embed(graph)`` but **layer by layer in node chunks**, entirely in
numpy (no autodiff graph):

* at any moment only the previous layer's activations, the layer being
  filled, and one chunk-sized temporary are alive — a full autodiff forward
  instead keeps every intermediate of every layer reachable until the output
  tensor is dropped;
* each chunk touches only its own rows of the cached normalized propagation
  CSR (GCN) or its own incoming edges / attention rows (GAT), so the
  per-chunk working set is bounded by ``chunk_size`` rather than ``N``.

The encoder contract is the duck-typed ``layerwise_plan(graph)`` method
(implemented by :class:`repro.gnn.GCNEncoder` and
:class:`repro.gnn.GATEncoder` for both the sparse and the dense backend),
returning ordered *steps* with::

    step.out_dim                       # layer output width
    step.prepare(h, chunk_size)        # per-layer precompute (small buffers)
    step.compute(h, start, stop)       # output rows [start, stop)
    step.finish()                      # release per-layer buffers

Parity with ``encoder.embed`` is tested at 1e-8 for GCN and GAT on both
backends, including chunk sizes that do not divide ``N``, ``chunk_size=1``,
and ``chunk_size > N`` (``tests/inference/test_layerwise.py``).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
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
        """Deterministic all-node embeddings, equal to ``encoder.embed``."""
        plan = getattr(encoder, "layerwise_plan", None)
        if plan is None:
            raise TypeError(
                f"encoder {type(encoder).__name__} does not implement "
                "layerwise_plan(graph); use mode='full' inference instead"
            )
        steps = plan(graph)
        num_nodes = graph.num_nodes
        h = np.asarray(graph.features, dtype=np.float64)
        for index, step in enumerate(steps):
            with _LAYER_SECONDS.time(), \
                    span("inference.layer", layer=index):
                step.prepare(h, self.chunk_size)
                out = np.empty((num_nodes, step.out_dim), dtype=np.float64)
                for start in range(0, num_nodes, self.chunk_size):
                    stop = min(start + self.chunk_size, num_nodes)
                    out[start:stop] = step.compute(h, start, stop)
                step.finish()
                h = out
        return h
