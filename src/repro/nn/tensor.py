"""Reverse-mode automatic differentiation on top of numpy arrays.

This module provides the :class:`Tensor` class, a small but complete autodiff
engine that supports every operation needed to train the graph neural networks
used in this repository (matrix multiplication, row gathers, the fused GAT
edge softmax and aggregation, element-wise math, reductions, dropout
masking, and the activation functions used by GAT/GCN encoders).

The design mirrors the familiar PyTorch semantics:

* ``Tensor(data, requires_grad=True)`` wraps a numpy array.
* Operations build a computation graph; ``loss.backward()`` accumulates
  gradients into ``tensor.grad`` for every tensor that requires gradients.
* ``Tensor.detach()`` cuts the graph, and ``no_grad()`` provides a context in
  which no graph is recorded (used at inference time).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .segment import EdgeGroups, Segments

ArrayLike = Union[np.ndarray, float, int, Sequence[float]]


class _GradState(threading.local):
    """Per-thread grad-recording flag.

    Thread-local (not a module global) so a ``no_grad()`` block in one
    thread — e.g. a serving thread running inference — can never switch off
    graph recording for a training step running concurrently in another
    thread.  Each thread
    starts with recording enabled.
    """

    enabled = True


_grad_state = _GradState()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode)."""
    previous = _grad_state.enabled
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autodiff graph."""
    return _grad_state.enabled


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            return value.astype(np.float64)
        return value
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` so that it matches ``shape`` (reverse of broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # ensure numpy defers to Tensor operators

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Iterable["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _grad_state.enabled
        self.grad: Optional[np.ndarray] = None
        self._parents = tuple(_parents) if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor that shares data but is cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _grad_state.enabled and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data, requires_grad=False)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add a gradient its op just allocated for this tensor alone.

        The first one becomes ``self.grad`` as is (no copy); later ones add
        into it.  A gradient that aliases another buffer must go through
        :meth:`_accumulate_view` instead.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad if grad.dtype == np.float64 else grad.astype(np.float64)
        else:
            self.grad += grad

    def _accumulate_view(self, grad: np.ndarray) -> None:
        """Add a pass-through gradient: the output's ``.grad`` or a view of it.

        Copied on first touch, so no two tensors' ``.grad`` buffers share
        memory and a later ``+=`` into one never changes another.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def _accumulate_broadcast(self, grad: np.ndarray) -> None:
        """Accumulate a gradient that broadcasts against ``self.data``.

        Equivalent to ``self._accumulate(np.broadcast_to(grad,
        self.data.shape).copy())`` but never materializes the broadcast
        temporary: with an existing buffer ``np.add`` reads the broadcast
        view straight into it, and otherwise the owned buffer is allocated
        once and filled by ``np.copyto`` — one full-size array either way
        instead of two.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.empty(self.data.shape, dtype=np.float64)
            np.copyto(self.grad, grad)
        else:
            np.add(self.grad, grad, out=self.grad)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        # Topological order of the graph rooted at self.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate_view(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_view(_unbroadcast(grad, self.data.shape))
            other_t._accumulate_view(_unbroadcast(grad, other_t.data.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other_t)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other_t.data, self.data.shape))
            other_t._accumulate(_unbroadcast(grad * self.data, other_t.data.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other_t.data, self.data.shape))
            other_t._accumulate(
                _unbroadcast(-grad * self.data / (other_t.data ** 2), other_t.data.shape)
            )

        return Tensor._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product with numpy ``@`` broadcasting over batch dimensions.

        Supports the classic 2-D case as well as stacked operands such as
        ``(N, F) @ (H, F, O) -> (H, N, O)``; gradients for broadcast batch
        dimensions are summed back to the operand's shape.
        """
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        if self.data.ndim < 2 or other_t.data.ndim < 2:
            raise ValueError(
                "matmul requires operands with ndim >= 2; reshape vectors to "
                "(n, 1) / (1, n) explicitly"
            )
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            # Skip the (potentially large) gradient product for constant
            # operands — e.g. a dense propagation matrix multiplied against a
            # projected feature tensor must not allocate an N x N gradient.
            a, b = self.data, other_t.data
            if a.ndim == 2 and b.ndim == 2:
                if self.requires_grad:
                    self._accumulate(grad @ b.T)
                if other_t.requires_grad:
                    other_t._accumulate(a.T @ grad)
                return
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Element-wise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)
        out_data = self.data * scale

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * scale)

        return Tensor._make(out_data, (self,), backward)

    def elu(self, alpha: float = 1.0) -> "Tensor":
        mask = self.data > 0
        exp_part = alpha * (np.exp(np.minimum(self.data, 0.0)) - 1.0)
        out_data = np.where(mask, self.data, exp_part)

        def backward(grad: np.ndarray) -> None:
            local = np.where(mask, 1.0, exp_part + alpha)
            self._accumulate(grad * local)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate_broadcast(grad)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Max reduction; gradients flow to the (first) argmax entries."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if axis is None:
                mask = self.data == out_data
                contribution = np.multiply(grad, mask / mask.sum())
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                grad_expanded = grad if keepdims else np.expand_dims(grad, axis)
                mask = self.data == expanded
                counts = mask.sum(axis=axis, keepdims=True)
                contribution = grad_expanded * mask / counts
            # The contribution is already a fresh full-shape temporary, so
            # the broadcast accumulator adds it in place (existing buffer)
            # or claims one owned copy (no buffer) — never copy-on-copy.
            self._accumulate_broadcast(contribution)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation and indexing
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate_view(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        out_data = self.data.transpose(axes) if axes is not None else self.data.T

        def backward(grad: np.ndarray) -> None:
            if axes is None:
                self._accumulate_view(grad.T)
            else:
                inverse = np.argsort(axes)
                self._accumulate_view(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Select rows ``self[indices]``; gradients sum back per row."""
        ids = np.asarray(indices, dtype=np.int64)
        out_data = self.data[ids]
        shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            by_row = Segments(ids.ravel(), shape[0])
            self._accumulate(by_row.sum(grad.reshape(ids.size, *shape[1:])))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, indices) -> "Tensor":
        if isinstance(indices, (np.ndarray, list)):
            return self.gather_rows(np.asarray(indices))
        out_data = self.data[indices]
        shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(shape, dtype=np.float64)
            full[indices] = grad
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def concat(self, others: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        return cat([self, *others], axis=axis)

    # Convenience aliases -------------------------------------------------
    def dot(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0, *sizes])

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:], strict=True):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate_view(grad[tuple(slicer)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        split = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, split, strict=True):
            tensor._accumulate_view(piece)

    return Tensor._make(out_data, tensors, backward)


def sparse_matmul(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Product ``matrix @ dense`` where ``matrix`` is a sparse constant.

    ``matrix`` is a scipy sparse matrix (converted to CSR once per call) that
    does not receive gradients — the typical use is the fixed propagation
    matrix ``D^{-1/2}(A+I)D^{-1/2}`` of a GCN.  The backward rule is the
    transpose product ``grad_dense = matrix.T @ grad``, which scipy evaluates
    without ever densifying, keeping one forward/backward pass at
    O(nnz * out_features) time and O(N * out_features + nnz) memory instead
    of the O(N^2) cost of a densified propagation matrix.
    """
    if not sp.issparse(matrix):
        raise TypeError(
            f"sparse_matmul expects a scipy sparse matrix, got {type(matrix).__name__}; "
            "use Tensor.matmul for dense operands"
        )
    dense_t = dense if isinstance(dense, Tensor) else Tensor(dense)
    if dense_t.ndim != 2:
        raise ValueError("sparse_matmul expects a 2-D dense operand")
    csr = matrix.tocsr()
    out_data = csr @ dense_t.data

    def backward(grad: np.ndarray) -> None:
        # ``csr.T`` is a free CSC view; scipy multiplies it directly.
        dense_t._accumulate(csr.T @ grad)

    return Tensor._make(out_data, (dense_t,), backward)


def edge_softmax(score_src: Tensor, score_dst: Tensor, edges: EdgeGroups,
                 negative_slope: float) -> Tensor:
    """GAT's attention coefficients: a softmax over each target's incoming edges.

    ``alpha[e] = exp(x[e]) / (sum of exp(x[e']) over edges e' into dst[e])``
    with ``x[e] = LeakyReLU(score_src[src[e]] + score_dst[dst[e]])``, for
    scores of shape (N, ...) and (T, ...) (one column per head); returns
    (E, ...).  Each target's maximum is subtracted before ``exp`` and its
    sum gets ``1e-16``; a target with no incoming edge gets no row.

    One op in place of the chain of two gathers, add, leaky-ReLU, max
    shift, ``exp``, scatter-add, gather and divide.  The backward repeats
    that chain's float operations in the same order (``g / d``; the
    denominator's term summed by target and gathered back; times ``exp``;
    times the leaky slope; summed by source and by target), so the output
    and both gradients are bitwise equal to it; ``tests/nn/test_segment.py``
    checks them against ``ref_segment_softmax`` over ``ref_gather`` scores.
    Every reduction runs on the cached groupings of ``edges``, and the
    backward keeps three ``E x H`` arrays: ``exp``, the denominators, and
    the leaky-ReLU sign mask.
    """
    by_target = edges.by_target
    src, dst = edges.src, edges.dst
    # ``take`` copies the same rows as ``[...]`` indexing, several times faster.
    scores = score_src.data.take(src, axis=0) + score_dst.data.take(dst, axis=0)
    positive = scores > 0
    scores *= np.where(positive, 1.0, negative_slope)
    seg_max = by_target.max(scores)
    seg_max[~np.isfinite(seg_max)] = 0.0
    scores -= seg_max.take(dst, axis=0)
    exp = np.exp(scores, out=scores)
    denom = by_target.sum(exp).take(dst, axis=0)
    denom += 1e-16
    out_data = exp / denom

    def backward(grad: np.ndarray) -> None:
        grad_exp = grad / denom
        grad_exp += by_target.sum(-grad * exp / (denom ** 2)).take(dst, axis=0)
        grad_scores = grad_exp * exp * np.where(positive, 1.0, negative_slope)
        if score_src.requires_grad:
            score_src._accumulate(edges.by_source.sum(grad_scores))
        if score_dst.requires_grad:
            score_dst._accumulate(by_target.sum(grad_scores))

    return Tensor._make(out_data, (score_src, score_dst), backward)


#: Edges per block of the per-edge dot in :func:`edge_aggregate`'s backward.
_EDGE_BLOCK = 4096


def edge_aggregate(values: Tensor, weights: Tensor, edges: EdgeGroups) -> Tensor:
    """Per-head weighted sum of edge sources into targets: GAT's aggregation.

    ``out[t, h] = sum over edges e into t of weights[e, h] * values[src[e], h]``
    for ``values`` of shape (N, H, O) and ``weights`` of shape (E, H);
    returns (T, H, O).  The result and both gradients are bitwise equal to
    gathering the source rows, scaling them by ``weights`` and scatter-adding
    them by target (``ref_aggregate`` in ``tests/nn/test_segment.py``),
    but no ``E x H x O`` message buffer exists in either direction: the
    forward is one weighted CSR matmul per head over the by-target grouping,
    and the backward, head by head, one by-source CSR matmul for ``values``
    plus a per-edge dot, block by block, for ``weights``.
    """
    num_heads = values.shape[1]
    out_data = np.empty((edges.num_targets, *values.shape[1:]))
    for head in range(num_heads):
        out_data[:, head] = edges.sum_to_targets(weights.data[:, head], values.data[:, head])

    def backward(grad: np.ndarray) -> None:
        grad_values = np.empty(values.shape) if values.requires_grad else None
        grad_weights = np.empty(weights.shape) if weights.requires_grad else None
        for head in range(num_heads):
            grad_head = np.ascontiguousarray(grad[:, head])
            if grad_values is not None:
                grad_values[:, head] = edges.sum_to_sources(weights.data[:, head], grad_head)
            if grad_weights is not None:
                # Each dot reduces one contiguous row of out_features, the
                # same reduction as summing the (E, H, O) product's last axis.
                values_head = np.ascontiguousarray(values.data[:, head])
                for start in range(0, len(edges), _EDGE_BLOCK):
                    block = slice(start, start + _EDGE_BLOCK)
                    grad_weights[block, head] = (
                        grad_head.take(edges.dst[block], axis=0)
                        * values_head.take(edges.src[block], axis=0)).sum(axis=1)
        if grad_values is not None:
            values._accumulate(grad_values)
        if grad_weights is not None:
            weights._accumulate(grad_weights)

    return Tensor._make(out_data, (values, weights), backward)


def zeros(shape: Sequence[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape: Sequence[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)
