"""Segment kernels: sums and maxima of rows grouped by an integer key.

Message passing reduces per-edge rows into per-node rows, keyed by each
edge's target (the forward) or source (the gradient back to the sources).
:class:`Segments` is one such grouping: a stable by-key order of the rows and
its CSR ``indptr``, sorted on first use and then shared by every reduction
over the same keys.  The reductions are

* :meth:`Segments.sum` — a CSR incidence matmul (``num_segments x rows``,
  unit entries).  scipy adds the entries of each output row in CSR order,
  which is the rows' original relative order within the key, so the result
  is bitwise equal to an ``np.add.at`` scatter-add of ``values`` by ``ids``
  into zeros (the tests check exactly that) at a fraction of its cost;
* :meth:`Segments.max` — ``np.maximum.reduceat`` over the sorted rows.

:class:`EdgeGroups` pairs the two groupings of one edge list for GAT
attention.  Its weighted sums (:meth:`EdgeGroups.sum_to_targets` and
:meth:`EdgeGroups.sum_to_sources`) are CSR matmuls whose entries are one
weight per edge, so aggregating weighted source rows never builds a
per-edge message row.  They equal the product-then-scatter composition bit
for bit where scipy's CSR kernel rounds each product before adding it (no
fused multiply-add), as its x86-64 builds do.  The by-source order is
sorted only when a gradient first needs it, so inference never pays for it.
Two methods take the incoming edges of some targets:
:meth:`EdgeGroups.slice_targets` (a contiguous range, grouped by target, for
layer-wise inference) and :meth:`EdgeGroups.select_targets` (any targets, in
edge order, for a training batch).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class Segments:
    """Rows ``0 .. len(ids) - 1`` grouped by key ``ids[i]`` in ``[0, num_segments)``.

    ``order`` lists the rows key by key, keeping their relative order within
    a key; rows ``order[indptr[k]:indptr[k + 1]]`` have key ``k``.  Both are
    computed on first use (or passed in by a caller whose rows are already
    grouped) and are read-only.
    """

    __slots__ = ("ids", "num_segments", "_order", "_indptr", "_incidence")

    def __init__(self, ids: np.ndarray, num_segments: int,
                 order: Optional[np.ndarray] = None,
                 indptr: Optional[np.ndarray] = None):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.num_segments = int(num_segments)
        self._order = order
        self._indptr = indptr
        self._incidence: Optional[_Pattern] = None

    def __len__(self) -> int:
        return self.ids.shape[0]

    def counts(self) -> np.ndarray:
        """Number of rows under each key."""
        return np.bincount(self.ids, minlength=self.num_segments)

    @property
    def order(self) -> np.ndarray:
        if self._order is None:
            self._order = _frozen(np.argsort(self.ids, kind="stable"))
        return self._order

    @property
    def indptr(self) -> np.ndarray:
        if self._indptr is None:
            indptr = np.zeros(self.num_segments + 1, dtype=np.int64)
            np.cumsum(self.counts(), out=indptr[1:])
            self._indptr = _frozen(indptr)
        return self._indptr

    def pattern(self, columns: np.ndarray, num_columns: int) -> "_Pattern":
        """Sparsity of the ``num_segments x num_columns`` matrix with an entry
        at ``(ids[i], columns[i])`` for every row ``i``.

        Entries stay in ``order``, so a matmul adds each key's rows in
        their original order.
        """
        matrix = sp.csr_matrix((np.ones(len(self)), columns[self.order], self.indptr),
                               shape=(self.num_segments, num_columns))
        return _Pattern(matrix.indices, matrix.indptr, matrix.shape)

    def sum(self, values: np.ndarray) -> np.ndarray:
        """``out[k] = sum of values[i] over rows i with key k`` (zeros if none)."""
        if self._incidence is None:
            self._incidence = self.pattern(np.arange(len(self)), len(self))
        tail = values.shape[1:]
        flat = values.reshape(len(self), math.prod(tail)) if tail else values
        return self._incidence.matmul(np.ones(len(self)), flat).reshape(
            self.num_segments, *tail)

    def max(self, values: np.ndarray) -> np.ndarray:
        """``out[k] = max of values[i] over rows i with key k`` (-inf if none)."""
        out = np.full((self.num_segments, *values.shape[1:]), -np.inf)
        starts = self.indptr[:-1]
        nonempty = starts < self.indptr[1:]
        if nonempty.any():
            # Empty keys contribute no start, so each reduceat span is
            # exactly one nonempty key's rows.
            grouped = values.take(self.order, axis=0)
            out[nonempty] = np.maximum.reduceat(grouped, starts[nonempty], axis=0)
        return out


class EdgeGroups:
    """Edges ``src[e] -> dst[e]`` grouped by target and by source.

    Sources index ``num_sources`` rows, targets ``num_targets`` rows (fewer
    than the sources for one chunk of targets, see :meth:`slice_targets`).
    ``by_target`` and ``by_source`` are the two :class:`Segments`; each
    sorts on first use.
    """

    __slots__ = ("src", "dst", "num_sources", "num_targets", "by_target", "by_source",
                 "_to_targets", "_to_sources")

    def __init__(self, src: np.ndarray, dst: np.ndarray, num_sources: int, num_targets: int,
                 by_target: Optional[Segments] = None):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.num_sources = int(num_sources)
        self.num_targets = int(num_targets)
        self.by_target = by_target if by_target is not None else Segments(self.dst, num_targets)
        self.by_source = Segments(self.src, num_sources)
        self._to_targets: Optional[_Pattern] = None
        self._to_sources: Optional[_Pattern] = None

    @classmethod
    def from_edge_index(cls, edge_index: np.ndarray, num_nodes: int) -> "EdgeGroups":
        return cls(edge_index[0], edge_index[1], num_nodes, num_nodes)

    def __len__(self) -> int:
        return self.src.shape[0]

    def sum_to_targets(self, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``out[t] = sum over edges e into t of weights[e] * values[src[e]]``."""
        if self._to_targets is None:
            self._to_targets = self.by_target.pattern(self.src, self.num_sources)
        return self._to_targets.matmul(weights[self.by_target.order], values)

    def sum_to_sources(self, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``out[s] = sum over edges e out of s of weights[e] * values[dst[e]]``."""
        if self._to_sources is None:
            self._to_sources = self.by_source.pattern(self.dst, self.num_targets)
        return self._to_sources.matmul(weights[self.by_source.order], values)

    def slice_targets(self, start: int, stop: int) -> "EdgeGroups":
        """The incoming edges of targets ``start .. stop - 1``, renumbered from 0.

        Edges come out grouped by target, so the slice's own by-target
        grouping is the identity and costs no sort.
        """
        indptr = self.by_target.indptr
        lo, hi = int(indptr[start]), int(indptr[stop])
        rows = self.by_target.order[lo:hi]
        dst = self.dst[rows] - start
        by_target = Segments(dst, stop - start, order=np.arange(hi - lo),
                             indptr=indptr[start:stop + 1] - lo)
        return EdgeGroups(self.src[rows], dst, self.num_sources, stop - start, by_target)

    def select_targets(self, targets: np.ndarray) -> tuple:
        """The incoming edges of ``targets``, with ``targets[i]`` renumbered ``i``.

        Returns the selection and the selected edges' indices into this edge
        list.  Unlike :meth:`slice_targets`, the edges keep their original
        order, so every by-target and by-source sum over the selection adds
        the same terms in the same order as the sum over all edges does; the
        terms the selection leaves out are those of the other targets.
        Raises ``ValueError`` if a target repeats.
        """
        targets = np.asarray(targets, dtype=np.int64)
        positions = np.arange(targets.shape[0])
        local = np.full(self.num_targets, -1, dtype=np.int64)
        local[targets] = positions
        if not np.array_equal(local[targets], positions):
            raise ValueError("targets must not repeat")
        dst = local[self.dst]
        rows = np.flatnonzero(dst >= 0)
        selection = EdgeGroups(self.src[rows], dst[rows], self.num_sources,
                               targets.shape[0])
        return selection, rows


class _Pattern(NamedTuple):
    """A CSR sparsity structure, in the index dtype scipy chose for it.

    Only the structure is kept: the entries change with every call, and
    reusing scipy's index arrays spares each call their conversion.
    """

    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def matmul(self, data: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The matrix with entries ``data`` (in CSR order) times ``values``."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape) @ values
