"""Hungarian (Kuhn-Munkres) algorithm for optimal assignment.

OpenIMA uses the Hungarian algorithm twice: to align cluster ids with class
ids on the labeled nodes (Eq. 5) and to compute the clustering-accuracy
evaluation metric.  This implementation is the O(n^3) shortest augmenting
path formulation (Jonker & Volgenant, 1987, with row and column
potentials) and works on rectangular cost matrices by transposing the tall
ones.  Each step of an augmenting path updates the reduced costs of every
free column in one array pass; ``argmin`` picks the first column of least
reduced cost, the tie-break of a scalar loop that keeps a strictly smaller
minimum.  Ties decide which optimal matching comes out, so do not swap in
``scipy.optimize.linear_sum_assignment``: it breaks them differently.
"""

from __future__ import annotations

import numpy as np


def hungarian(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the minimum-cost assignment problem.

    Parameters
    ----------
    cost:
        Cost matrix of shape (n, m).  If the matrix is rectangular, the
        smaller dimension is fully matched.

    Returns
    -------
    (row_indices, col_indices):
        Arrays such that ``cost[row_indices, col_indices].sum()`` is minimal
        and each row/column is used at most once, sorted by row.

    Raises
    ------
    ValueError
        If ``cost`` is not 2-D or holds a NaN or infinite entry.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if not np.isfinite(cost).all():
        # A NaN or infinite cost poisons the potentials: no reduced cost is
        # then a strict minimum and the augmenting path never ends.
        raise ValueError("cost must be finite (no NaN or infinity)")
    num_rows, num_cols = cost.shape
    transposed = False
    if num_rows > num_cols:
        cost = cost.T
        num_rows, num_cols = cost.shape
        transposed = True

    # Potentials u (rows), v (columns) and matching arrays (1-based internal
    # indexing with a dummy 0-th element, the classic formulation).
    u = np.zeros(num_rows + 1)
    v = np.zeros(num_cols + 1)
    match_col = np.zeros(num_cols + 1, dtype=np.int64)  # column -> row
    way = np.zeros(num_cols + 1, dtype=np.int64)

    for row in range(1, num_rows + 1):
        match_col[0] = row
        current_col = 0
        min_value = np.full(num_cols + 1, np.inf)
        used = np.zeros(num_cols + 1, dtype=bool)
        while True:
            used[current_col] = True
            current_row = match_col[current_col]
            free = np.flatnonzero(~used)
            reduced = cost[current_row - 1, free - 1] - u[current_row] - v[free]
            better = reduced < min_value[free]
            min_value[free[better]] = reduced[better]
            way[free[better]] = current_col
            next_col = free[min_value[free].argmin()]
            delta = min_value[next_col]
            # Used columns hold distinct rows (column 0 the row being added),
            # so the fancy-indexed += raises each row's potential once.
            u[match_col[used]] += delta
            v[used] -= delta
            min_value[free] -= delta
            current_col = next_col
            if match_col[current_col] == 0:
                break
        # Augment along the alternating path.
        while current_col != 0:
            previous_col = way[current_col]
            match_col[current_col] = match_col[previous_col]
            current_col = previous_col

    cols = np.flatnonzero(match_col[1:])
    rows = match_col[1:][cols] - 1
    order = np.argsort(rows)
    rows, cols = rows[order], cols[order]
    if transposed:
        return cols, rows
    return rows, cols


def max_profit_assignment(profit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-profit assignment (e.g. maximize matched label counts)."""
    profit = np.asarray(profit, dtype=np.float64)
    return hungarian(profit.max() - profit)
