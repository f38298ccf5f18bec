"""Tests for the Module/layer abstractions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import ELU, Dropout, Linear, Module, Parameter, ReLU, Sequential
from repro.nn.tensor import Tensor


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((4, 5))))
        assert out.shape == (4, 3)

    def test_no_bias(self):
        layer = Linear(5, 3, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_forward_matches_manual(self):
        rng = np.random.default_rng(1)
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_gradients_reach_parameters(self):
        layer = Linear(3, 2, rng=np.random.default_rng(2))
        out = layer(Tensor(np.ones((5, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, np.full(2, 5.0))


class TestDropout:
    def test_train_vs_eval(self):
        layer = Dropout(0.5, rng=np.random.default_rng(3))
        x = Tensor(np.ones((50, 10)))
        layer.train()
        dropped = layer(x).data
        assert (dropped == 0).any()
        layer.eval()
        np.testing.assert_array_equal(layer(x).data, x.data)


class TestModule:
    def test_parameters_collects_children(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(4, 3, rng=np.random.default_rng(0))
                self.fc2 = Linear(3, 2, rng=np.random.default_rng(1))

            def forward(self, x):
                return self.fc2(self.fc1(x).relu())

        net = Net()
        assert len(net.parameters()) == 4
        names = dict(net.named_parameters())
        assert "fc1.weight" in names and "fc2.bias" in names

    def test_train_eval_propagates(self):
        seq = Sequential(Linear(4, 4, rng=np.random.default_rng(0)), Dropout(0.5), ReLU())
        seq.eval()
        assert all(not m.training for m in seq.modules())
        seq.train()
        assert all(m.training for m in seq.modules())

    def test_training_mode_restores_every_flag(self):
        seq = Sequential(Linear(4, 4, rng=np.random.default_rng(0)), Dropout(0.5), ReLU())
        seq.layer_1.eval()  # a mixed tree: only the dropout is off
        before = [m.training for m in seq.modules()]
        with pytest.raises(RuntimeError):
            with seq.training_mode(False):
                assert all(not m.training for m in seq.modules())
                raise RuntimeError("restored even when the block raises")
        assert [m.training for m in seq.modules()] == before

    def test_zero_grad(self):
        layer = Linear(3, 3, rng=np.random.default_rng(0))
        layer(Tensor(np.ones((2, 3)))).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        layer_a = Linear(4, 2, rng=np.random.default_rng(0))
        layer_b = Linear(4, 2, rng=np.random.default_rng(99))
        assert not np.allclose(layer_a.weight.data, layer_b.weight.data)
        layer_b.load_state_dict(layer_a.state_dict())
        np.testing.assert_allclose(layer_a.weight.data, layer_b.weight.data)

    def test_state_dict_mismatch_raises(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((4, 2))})

    def test_state_dict_shape_mismatch_raises(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        bad = layer.state_dict()
        bad["weight"] = np.zeros((3, 2))
        with pytest.raises(ValueError):
            layer.load_state_dict(bad)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestSequentialAndActivations:
    def test_sequential_applies_in_order(self):
        rng = np.random.default_rng(4)
        seq = Sequential(Linear(3, 3, rng=rng), ReLU(), Linear(3, 1, rng=rng))
        out = seq(Tensor(np.ones((2, 3))))
        assert out.shape == (2, 1)
        assert len(seq) == 3

    def test_relu_module(self):
        out = ReLU()(Tensor(np.array([-1.0, 2.0]))).data
        np.testing.assert_allclose(out, [0.0, 2.0])

    def test_elu_module(self):
        out = ELU()(Tensor(np.array([-1.0, 2.0]))).data
        np.testing.assert_allclose(out, [np.expm1(-1.0), 2.0])

    def test_parameter_is_trainable(self):
        param = Parameter(np.ones(3))
        assert param.requires_grad


class TestStrictStateDict:
    def _layer(self, seed=0):
        return Linear(4, 2, rng=np.random.default_rng(seed))

    def test_strict_error_lists_missing_and_unexpected(self):
        layer = self._layer()
        state = layer.state_dict()
        del state["bias"]
        state["extra"] = np.zeros(3)
        with pytest.raises(KeyError) as excinfo:
            layer.load_state_dict(state)
        message = str(excinfo.value)
        assert "missing" in message and "bias" in message
        assert "unexpected" in message and "extra" in message

    def test_non_strict_loads_intersection(self):
        layer_a = self._layer(0)
        layer_b = self._layer(99)
        state = layer_a.state_dict()
        del state["bias"]
        state["extra"] = np.zeros(3)
        result = layer_b.load_state_dict(state, strict=False)
        assert result.missing_keys == ["bias"]
        assert result.unexpected_keys == ["extra"]
        np.testing.assert_allclose(layer_a.weight.data, layer_b.weight.data)

    def test_shape_error_reports_both_shapes(self):
        layer = self._layer()
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 2))
        with pytest.raises(ValueError) as excinfo:
            layer.load_state_dict(state)
        message = str(excinfo.value)
        assert "(3, 2)" in message and "(4, 2)" in message and "weight" in message

    def test_shape_error_even_when_not_strict(self):
        layer = self._layer()
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 2))
        with pytest.raises(ValueError):
            layer.load_state_dict(state, strict=False)

    def test_successful_load_returns_empty_result(self):
        layer_a = self._layer(0)
        layer_b = self._layer(99)
        result = layer_b.load_state_dict(layer_a.state_dict())
        assert result.missing_keys == [] and result.unexpected_keys == []
