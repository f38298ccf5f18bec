"""Composite differentiable functions built on :class:`repro.nn.tensor.Tensor`.

These functions implement the numerically stable primitives used by the
OpenIMA training objective and its baselines: softmax / log-softmax,
cross-entropy over labeled nodes, L2 row normalization (for contrastive
losses), the supervised contrastive loss (one op with a closed-form
gradient), and dropout.  GAT's per-target softmax over edge attention
scores is the fused op :func:`repro.nn.tensor.edge_softmax`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, sparse_matmul

__all__ = [
    "softmax",
    "row_softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "l2_normalize",
    "dropout",
    "supervised_contrastive",
    "pairwise_cosine_similarity",
    "sparse_matmul",
]


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of each row of a plain array (no autodiff)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


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


def dropout(x: Tensor, rate: float, training: bool, rng: Optional[np.random.Generator] = None,
            rows: Optional[np.ndarray] = None, num_rows: Optional[int] = None) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate`` while training.

    With ``rows``, ``x`` holds rows ``rows`` of a ``num_rows``-row input:
    the noise is drawn for all ``num_rows`` rows, exactly as dropout of that
    whole input draws it, and rows ``rows`` of the mask apply.
    """
    if not training or rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    rng = rng if rng is not None else np.random.default_rng()
    if rows is None:
        noise = rng.random(x.shape)
    else:
        noise = rng.random((num_rows, *x.shape[1:]))[rows]
    mask = (noise >= rate) / (1.0 - rate)
    return x * Tensor(mask)


def supervised_contrastive(features: Tensor, positives: np.ndarray,
                           temperature: float) -> Tensor:
    """Supervised contrastive loss of the rows of ``features``, as one op.

    ``positives[i, j]`` marks row ``j`` as a positive of row ``i`` (never
    ``i`` itself).  With ``S = Z Z^T / tau`` and each row's softmax taken
    over the other rows, the loss is the mean over rows ``i`` of
    ``log sum_{k != i} exp(S_ik) - mean_{p in P_i} S_ip`` (Khosla et al.,
    NeurIPS 2020, https://arxiv.org/abs/2004.11362).  The forward builds
    ``S`` once, masks its diagonal and subtracts each row's maximum in
    place.  The backward is the closed-form gradient
    ``G = (softmax(S) - M / |P|) * g / (n tau)``, ``dZ = G Z + G^T Z`` for
    ``n`` rows and the positive mask ``M``: two matmuls.  It keeps one
    ``n x n`` float array, ``exp(S)``, next to the boolean mask, instead of
    a chain of ``n x n`` autodiff nodes.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    total = features.shape[0]
    positives = np.asarray(positives, dtype=bool)
    if positives.shape != (total, total):
        raise ValueError(f"positives must be {total} x {total}, got {positives.shape}")
    counts = positives.sum(axis=1)
    if (counts == 0).any():
        raise RuntimeError("every sample must have at least one positive (its other view)")
    z = features.data
    logits = z @ z.T
    logits *= 1.0 / temperature
    # Self-similarity leaves the softmax: exp(S_ii - 1e9) is exactly 0.
    logits.flat[::total + 1] -= 1e9
    logits -= logits.max(axis=1, keepdims=True)
    positive_mean = logits.sum(axis=1, where=positives) / counts
    exp = np.exp(logits, out=logits)
    row_sums = exp.sum(axis=1, keepdims=True)
    loss = np.log(row_sums).mean() - positive_mean.mean()

    def backward(grad: np.ndarray) -> None:
        coeff = exp / row_sums
        np.subtract(coeff, 1.0 / counts[:, None], out=coeff, where=positives)
        coeff *= grad / (total * temperature)
        grad_z = coeff @ z
        grad_z += coeff.T @ z
        features._accumulate(grad_z)

    return Tensor._make(np.asarray(loss), (features,), backward)


def pairwise_cosine_similarity(x: Tensor) -> Tensor:
    """All-pairs cosine similarity of the rows of ``x`` (n x n matrix)."""
    normalized = l2_normalize(x, axis=-1)
    return normalized.matmul(normalized.transpose())
