"""Tests for the autodiff Tensor engine, including numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, cat, is_grad_enabled, no_grad, ones, stack, zeros


def numerical_gradient(func, array, eps=1e-6):
    """Central-difference numerical gradient of a scalar-valued ``func``."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = func(array)
        flat[i] = original - eps
        minus = func(array)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(op, shape, seed=0, atol=1e-4):
    """Compare autodiff gradient of ``op(Tensor)`` against finite differences."""
    rng = np.random.default_rng(seed)
    array = rng.normal(size=shape)
    tensor = Tensor(array.copy(), requires_grad=True)
    out = op(tensor)
    out.backward()
    analytic = tensor.grad

    def scalar_fn(values):
        return float(op(Tensor(values)).data)

    numeric = numerical_gradient(scalar_fn, array.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestBasicOps:
    def test_add_backward(self):
        check_gradient(lambda t: (t + 3.0).sum(), (4, 3))

    def test_mul_backward(self):
        check_gradient(lambda t: (t * t).sum(), (4, 3))

    def test_sub_and_neg_backward(self):
        check_gradient(lambda t: (t - t * 2.0).sum(), (5,))

    def test_div_backward(self):
        check_gradient(lambda t: (t / (t * t + 2.0)).sum(), (3, 3))

    def test_pow_backward(self):
        check_gradient(lambda t: (t ** 3).sum(), (4,))

    def test_matmul_backward(self):
        rng = np.random.default_rng(1)
        other = rng.normal(size=(3, 2))
        check_gradient(lambda t: t.matmul(Tensor(other)).sum(), (4, 3))

    def test_exp_log_backward(self):
        check_gradient(lambda t: ((t.exp() + 1.0).log()).sum(), (4, 2))

    def test_broadcast_add_backward(self):
        rng = np.random.default_rng(2)
        bias = Tensor(rng.normal(size=(3,)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = (x + bias).sum()
        out.backward()
        np.testing.assert_allclose(bias.grad, np.full(3, 5.0))
        np.testing.assert_allclose(x.grad, np.ones((5, 3)))

    def test_radd_rmul_with_scalars(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = (3.0 + t) * 2.0
        np.testing.assert_allclose(out.data, [8.0, 10.0])

    def test_rsub_rtruediv(self):
        t = Tensor(np.array([2.0, 4.0]))
        np.testing.assert_allclose((10.0 - t).data, [8.0, 6.0])
        np.testing.assert_allclose((8.0 / t).data, [4.0, 2.0])


class TestActivations:
    def test_relu_backward(self):
        check_gradient(lambda t: t.relu().sum(), (6,), seed=3)

    def test_leaky_relu_backward(self):
        check_gradient(lambda t: t.leaky_relu(0.1).sum(), (6,), seed=4)

    def test_elu_backward(self):
        check_gradient(lambda t: t.elu().sum(), (6,), seed=5)

    def test_sigmoid_backward(self):
        check_gradient(lambda t: t.sigmoid().sum(), (5,), seed=6)

    def test_tanh_backward(self):
        check_gradient(lambda t: t.tanh().sum(), (5,), seed=7)

    def test_elu_values(self):
        t = Tensor(np.array([-1.0, 0.0, 2.0]))
        out = t.elu().data
        np.testing.assert_allclose(out, [np.expm1(-1.0), 0.0, 2.0])

    def test_clip(self):
        t = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        out = t.clip(-1.0, 1.0)
        np.testing.assert_allclose(out.data, [-1.0, 0.5, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis_backward(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), (3, 4))

    def test_mean_backward(self):
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(), (3, 4))

    def test_mean_value(self):
        t = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert t.mean().item() == pytest.approx(2.5)

    def test_max_backward_axis(self):
        rng = np.random.default_rng(8)
        array = rng.normal(size=(4, 3))
        t = Tensor(array, requires_grad=True)
        out = t.max(axis=1).sum()
        out.backward()
        # Gradient of max puts 1 at the argmax of each row.
        expected = np.zeros_like(array)
        expected[np.arange(4), array.argmax(axis=1)] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_max_global(self):
        t = Tensor(np.array([[1.0, 5.0], [2.0, 3.0]]), requires_grad=True)
        t.max().backward()
        assert t.grad[0, 1] == pytest.approx(1.0)
        assert t.grad.sum() == pytest.approx(1.0)

    def test_sum_backward_accumulates_into_existing_buffer(self):
        # The broadcast accumulator must add into the buffer in place (no
        # broadcast_to(...).copy() temporary, no rebinding).
        t = Tensor(np.ones((3, 4)), requires_grad=True)
        (t.sum() + (t * 2.0).sum()).backward()
        np.testing.assert_allclose(t.grad, np.full((3, 4), 3.0))
        buffer = t.grad
        first = t.sum()
        first.backward()
        assert t.grad is buffer
        np.testing.assert_allclose(t.grad, np.full((3, 4), 4.0))

    def test_sum_backward_allocates_owned_buffer(self):
        # With no prior grad, the accumulated buffer must be owned and
        # writable — not a frozen broadcast view of the output grad.
        t = Tensor(np.ones((2, 5)), requires_grad=True)
        t.sum().backward()
        assert t.grad.shape == (2, 5)
        assert t.grad.flags.writeable and t.grad.flags.owndata
        np.testing.assert_allclose(t.grad, np.ones((2, 5)))

    def test_sum_keepdims_backward(self):
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) ** 2).sum(),
                       (3, 4))

    def test_max_backward_accumulates_into_existing_buffer(self):
        array = np.array([[1.0, 5.0], [2.0, 3.0]])
        t = Tensor(array, requires_grad=True)
        (t.max() + t.sum()).backward()
        buffer = t.grad
        np.testing.assert_allclose(
            t.grad, np.array([[1.0, 2.0], [1.0, 1.0]]))
        t.max(axis=1).sum().backward()
        assert t.grad is buffer
        np.testing.assert_allclose(
            t.grad, np.array([[1.0, 3.0], [1.0, 2.0]]))


class TestGradientOwnership:
    """Ops claim the gradients they allocate; pass-through gradients are copied."""

    @staticmethod
    def graph_tensors(root):
        seen, stack_ = {}, [root]
        while stack_:
            node = stack_.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack_.extend(node._parents)
        return list(seen.values())

    @pytest.mark.parametrize("build", [
        lambda x: x + x,
        lambda x: (x + 1.0) + x.reshape(4, 3).reshape(3, 4),
        lambda x: x.transpose().transpose() + x,
        lambda x: x.transpose((1, 0)).reshape(12).reshape(4, 3).T,
        lambda x: cat([x, x], axis=0)[np.arange(3)] + stack([x, x])[0],
    ])
    def test_pass_through_gradient_never_shares_a_buffer(self, build):
        x = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        out = build(x)
        (out * Tensor(np.ones(out.shape))).sum().backward()
        grads = [t.grad for t in self.graph_tensors(out) if t.grad is not None]
        assert len(grads) >= 2
        for i, first in enumerate(grads):
            for second in grads[i + 1:]:
                assert not np.shares_memory(first, second)

    def test_root_gradient_is_copied(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        product = x.matmul(Tensor(np.ones((3, 4))))
        upstream = np.ones((2, 4))
        product.backward(upstream)
        assert not np.shares_memory(product.grad, upstream)
        np.testing.assert_allclose(x.grad, np.full((2, 3), 4.0))


class TestIndexingAndShapes:
    def test_gather_rows_backward(self):
        array = np.arange(12, dtype=float).reshape(4, 3)
        t = Tensor(array, requires_grad=True)
        gathered = t.gather_rows(np.array([0, 2, 2]))
        gathered.sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 1.0
        expected[2] = 2.0
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_tuple(self):
        t = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        picked = t[np.array([0, 1]), np.array([2, 0])]
        np.testing.assert_allclose(picked.data, [2.0, 3.0])
        picked.sum().backward()
        expected = np.zeros((2, 3))
        expected[0, 2] = 1.0
        expected[1, 0] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_reshape_backward(self):
        check_gradient(lambda t: (t.reshape(6) ** 2).sum(), (2, 3))

    def test_transpose_backward(self):
        check_gradient(lambda t: (t.transpose() ** 2).sum(), (2, 3))

    def test_cat_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((3, 2), 2.0), requires_grad=True)
        out = cat([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 3.0))
        np.testing.assert_allclose(b.grad, np.full((3, 2), 3.0))

    def test_stack(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.backward()

    def test_detach_cuts_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        detached = t.detach()
        assert not detached.requires_grad
        out = (detached * 2.0).sum()
        assert not out.requires_grad

    def test_no_grad_context(self):
        t = Tensor(np.ones(3), requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            out = (t * 2.0).sum()
            assert not out.requires_grad
        assert is_grad_enabled()

    def test_no_grad_is_thread_local(self):
        # A threads-backend inference worker entering no_grad() must not
        # switch off recording for a concurrently training thread.
        import threading

        entered = threading.Event()
        release = threading.Event()
        seen_in_thread = []

        def hold_no_grad():
            with no_grad():
                entered.set()
                release.wait(timeout=5.0)

        def record_elsewhere():
            seen_in_thread.append(is_grad_enabled())

        holder = threading.Thread(target=hold_no_grad)
        holder.start()
        try:
            assert entered.wait(timeout=5.0)
            # This thread and a third, fresh thread both still record.
            assert is_grad_enabled()
            t = Tensor(np.ones(2), requires_grad=True)
            assert (t * 2.0).sum().requires_grad
            other = threading.Thread(target=record_elsewhere)
            other.start()
            other.join(timeout=5.0)
            assert seen_in_thread == [True]
        finally:
            release.set()
            holder.join(timeout=5.0)
        assert is_grad_enabled()

    def test_gradient_accumulation_over_reuse(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        out = (t * t + t).sum()  # d/dt = 2t + 1 = 5
        out.backward()
        np.testing.assert_allclose(t.grad, [5.0])

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2.0).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_repr_and_properties(self):
        t = Tensor(np.ones((2, 3)))
        assert "shape=(2, 3)" in repr(t)
        assert t.ndim == 2
        assert t.size == 6
        assert len(t) == 2

    def test_helpers(self):
        assert zeros((2, 2)).data.sum() == 0
        assert ones((2, 2)).data.sum() == 4


class TestPropertyBased:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_matmul_gradient_shapes(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        a = Tensor(rng.normal(size=(n, m)), requires_grad=True)
        b = Tensor(rng.normal(size=(m, 3)), requires_grad=True)
        out = a.matmul(b).sum()
        out.backward()
        assert a.grad.shape == (n, m)
        assert b.grad.shape == (m, 3)

    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_sum_matches_numpy(self, values):
        array = np.asarray(values)
        assert Tensor(array).sum().item() == pytest.approx(array.sum(), abs=1e-9)

    @given(st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_exp_positive(self, values):
        out = Tensor(np.asarray(values)).exp().data
        assert (out > 0).all()
