"""Composite differentiable functions built on :class:`repro.nn.tensor.Tensor`.

These functions implement the numerically stable primitives used by the
OpenIMA training objective and its baselines: softmax / log-softmax,
cross-entropy over labeled nodes, L2 row normalization (for contrastive
losses), segment softmax (per-destination normalization of edge attention
scores in GAT), and dropout.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .segment import Segments
from .tensor import Tensor, sparse_matmul

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "l2_normalize",
    "dropout",
    "segment_softmax",
    "pairwise_cosine_similarity",
    "sparse_matmul",
]


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Cross-entropy between ``logits`` of shape (n, c) and integer ``targets``.

    Parameters
    ----------
    logits:
        Unnormalized class scores.
    targets:
        Integer class indices of shape (n,).
    reduction:
        ``"mean"`` (default), ``"sum"``, or ``"none"``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[0] != targets.shape[0]:
        raise ValueError(
            f"logits rows ({logits.shape[0]}) must match targets ({targets.shape[0]})"
        )
    log_probs = log_softmax(logits, axis=-1)
    rows = np.arange(targets.shape[0])
    picked = log_probs[rows, targets]
    losses = -picked
    if reduction == "none":
        return losses
    if reduction == "sum":
        return losses.sum()
    return losses.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over raw ``logits`` against 0/1 ``targets``."""
    targets_t = Tensor(np.asarray(targets, dtype=np.float64))
    # log(1 + exp(-|x|)) + max(x, 0) - x * y  (stable formulation).  |x| is
    # built from relu ops so the log term stays differentiable; detaching it
    # would silently drop the sigmoid part of the gradient (the analytic
    # gradient sigmoid(x) - y is verified by tests/nn/test_gradcheck.py).
    abs_x = logits.relu() + (-logits).relu()
    log_term = ((-abs_x).exp() + 1.0).log()
    relu_term = logits.relu()
    loss = log_term + relu_term - logits * targets_t
    return loss.mean()


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalize rows (or the given axis) of ``x`` to unit L2 norm."""
    squared = (x * x).sum(axis=axis, keepdims=True)
    norm = (squared + eps).sqrt()
    return x / norm


def dropout(x: Tensor, rate: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate`` while training."""
    if not training or rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


def segment_softmax(scores: Tensor, segment_ids: Union[np.ndarray, Segments],
                    num_segments: int) -> Tensor:
    """Softmax of ``scores`` within segments defined by ``segment_ids``.

    Used to normalize GAT attention coefficients over the incoming edges of
    each destination node.  ``scores`` has shape (num_edges,) or
    (num_edges, heads); ``segment_ids`` assigns each edge to a destination
    node in ``[0, num_segments)``, either as an integer array (grouped for
    this call) or as a cached :class:`~repro.nn.segment.Segments`.  The
    per-segment maximum and sum run on that one grouping
    (``np.maximum.reduceat`` and a CSR incidence matmul).
    """
    segments = (segment_ids if isinstance(segment_ids, Segments)
                else Segments(segment_ids, num_segments))
    # Subtract the per-segment maximum (computed outside the graph) for
    # numerical stability; segments with no finite score shift by 0.
    seg_max = segments.max(scores.data)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = scores - Tensor(seg_max[segments.ids])
    exp = shifted.exp()
    denom = exp.scatter_add_rows(segments, num_segments)
    denom_per_edge = denom.gather_rows(segments)
    return exp / (denom_per_edge + 1e-16)


def pairwise_cosine_similarity(x: Tensor) -> Tensor:
    """All-pairs cosine similarity of the rows of ``x`` (n x n matrix)."""
    normalized = l2_normalize(x, axis=-1)
    return normalized.matmul(normalized.transpose())
