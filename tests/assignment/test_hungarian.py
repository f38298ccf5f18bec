"""Tests for the Hungarian algorithm, including comparison with scipy."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.assignment.hungarian import hungarian, max_profit_assignment


def reference_hungarian(cost):
    """The scalar-loop solver: one Python iteration per free column."""
    cost = np.asarray(cost, dtype=np.float64)
    num_rows, num_cols = cost.shape
    transposed = False
    if num_rows > num_cols:
        cost = cost.T
        num_rows, num_cols = cost.shape
        transposed = True
    u = np.zeros(num_rows + 1)
    v = np.zeros(num_cols + 1)
    match_col = np.zeros(num_cols + 1, dtype=np.int64)
    way = np.zeros(num_cols + 1, dtype=np.int64)
    for row in range(1, num_rows + 1):
        match_col[0] = row
        current_col = 0
        min_value = np.full(num_cols + 1, np.inf)
        used = np.zeros(num_cols + 1, dtype=bool)
        while True:
            used[current_col] = True
            current_row = match_col[current_col]
            delta = np.inf
            next_col = 0
            for col in range(1, num_cols + 1):
                if used[col]:
                    continue
                reduced = cost[current_row - 1, col - 1] - u[current_row] - v[col]
                if reduced < min_value[col]:
                    min_value[col] = reduced
                    way[col] = current_col
                if min_value[col] < delta:
                    delta = min_value[col]
                    next_col = col
            for col in range(num_cols + 1):
                if used[col]:
                    u[match_col[col]] += delta
                    v[col] -= delta
                else:
                    min_value[col] -= delta
            current_col = next_col
            if match_col[current_col] == 0:
                break
        while current_col != 0:
            previous_col = way[current_col]
            match_col[current_col] = match_col[previous_col]
            current_col = previous_col
    rows = []
    cols = []
    for col in range(1, num_cols + 1):
        if match_col[col] != 0:
            rows.append(match_col[col] - 1)
            cols.append(col - 1)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    order = np.argsort(rows)
    rows, cols = rows[order], cols[order]
    if transposed:
        return cols, rows
    return rows, cols


def error_within(call, timeout=10.0):
    """The exception ``call`` raises, failing the test if it does not return
    within ``timeout`` seconds (it keeps running in a daemon thread)."""
    outcome = {}

    def target():
        try:
            call()
        except Exception as error:
            outcome["error"] = error

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"no return within {timeout} s"
    return outcome.get("error")


class TestKnownCases:
    def test_identity_cost(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        rows, cols = hungarian(cost)
        assert cost[rows, cols].sum() == 0.0

    def test_classic_example(self):
        cost = np.array([
            [4.0, 1.0, 3.0],
            [2.0, 0.0, 5.0],
            [3.0, 2.0, 2.0],
        ])
        rows, cols = hungarian(cost)
        assert cost[rows, cols].sum() == pytest.approx(5.0)

    def test_rectangular_wide(self):
        cost = np.array([[1.0, 2.0, 0.0], [2.0, 0.0, 5.0]])
        rows, cols = hungarian(cost)
        assert len(rows) == 2
        assert cost[rows, cols].sum() == pytest.approx(0.0)

    def test_rectangular_tall(self):
        cost = np.array([[1.0, 2.0], [2.0, 0.0], [0.0, 5.0]])
        rows, cols = hungarian(cost)
        assert len(rows) == 2
        assert cost[rows, cols].sum() == pytest.approx(0.0)

    def test_single_element(self):
        rows, cols = hungarian(np.array([[7.0]]))
        assert rows.tolist() == [0] and cols.tolist() == [0]

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros(3))

    @pytest.mark.parametrize("cost", [
        [[np.nan]],
        [[1.0, np.inf], [np.inf, np.inf]],
        [[0.0, -np.inf], [2.0, 1.0]],
        [[0.0, 1.0, 2.0], [3.0, np.nan, 5.0]],
    ])
    def test_non_finite_cost_raises(self, cost):
        error = error_within(lambda: hungarian(np.array(cost)))
        assert isinstance(error, ValueError) and "finite" in str(error)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_profit_raises(self):
        error = error_within(lambda: max_profit_assignment(np.array([[1.0, np.inf], [0.0, 2.0]])))
        assert isinstance(error, ValueError) and "finite" in str(error)

    def test_empty_cost(self):
        for shape in [(0, 3), (3, 0)]:
            rows, cols = hungarian(np.zeros(shape))
            assert rows.shape == cols.shape == (0,)

    def test_assignment_is_a_matching(self):
        rng = np.random.default_rng(0)
        cost = rng.random((6, 6))
        rows, cols = hungarian(cost)
        assert len(set(rows.tolist())) == 6
        assert len(set(cols.tolist())) == 6


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(8))
    def test_square_matrices_match_scipy_cost(self, seed):
        rng = np.random.default_rng(seed)
        size = rng.integers(2, 12)
        cost = rng.random((size, size)) * 10
        rows, cols = hungarian(cost)
        ref_rows, ref_cols = linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(cost[ref_rows, ref_cols].sum(), abs=1e-8)

    @pytest.mark.parametrize("shape", [(3, 7), (7, 3), (1, 5), (5, 1)])
    def test_rectangular_matrices_match_scipy_cost(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        cost = rng.random(shape) * 5
        rows, cols = hungarian(cost)
        ref_rows, ref_cols = linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(cost[ref_rows, ref_cols].sum(), abs=1e-8)

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_property_optimal_cost_matches_scipy(self, size, seed):
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, 20, size=(size, size)).astype(float)
        rows, cols = hungarian(cost)
        ref_rows, ref_cols = linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(cost[ref_rows, ref_cols].sum(), abs=1e-8)


class TestAgainstScalarLoop:
    """The exact matching, not just its cost: ties decide alignments."""

    @pytest.mark.parametrize("shape", [(1, 1), (6, 6), (25, 25), (60, 60),
                                       (4, 11), (23, 60), (11, 4), (60, 23)])
    @pytest.mark.parametrize("levels", [2, 5])
    def test_same_matching_on_tie_heavy_integer_costs(self, shape, levels):
        rng = np.random.default_rng(shape[0] * 100 + shape[1] + levels)
        cost = rng.integers(0, levels, size=shape).astype(float)
        rows, cols = hungarian(cost)
        ref_rows, ref_cols = reference_hungarian(cost)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(cols, ref_cols)
        assert rows.dtype == cols.dtype == np.int64

    @pytest.mark.parametrize("shape", [(7, 7), (5, 9), (9, 5)])
    def test_same_matching_on_constant_costs(self, shape):
        cost = np.full(shape, 3.0)
        rows, cols = hungarian(cost)
        ref_rows, ref_cols = reference_hungarian(cost)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(cols, ref_cols)

    def test_same_matching_on_contingency_profits(self):
        # Alignment's input: co-occurrence counts of 47 clusters x 24 classes.
        rng = np.random.default_rng(47)
        counts = np.zeros((47, 24))
        np.add.at(counts, (rng.integers(0, 47, 400), rng.integers(0, 24, 400)), 1.0)
        rows, cols = max_profit_assignment(counts)
        ref_rows, ref_cols = reference_hungarian(counts.max() - counts)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(cols, ref_cols)


class TestMaxProfit:
    def test_maximizes_profit(self):
        profit = np.array([[10.0, 1.0], [1.0, 10.0]])
        rows, cols = max_profit_assignment(profit)
        assert profit[rows, cols].sum() == pytest.approx(20.0)

    def test_matches_scipy_maximize(self):
        rng = np.random.default_rng(5)
        profit = rng.random((7, 7))
        rows, cols = max_profit_assignment(profit)
        ref_rows, ref_cols = linear_sum_assignment(profit, maximize=True)
        assert profit[rows, cols].sum() == pytest.approx(profit[ref_rows, ref_cols].sum(), abs=1e-8)
