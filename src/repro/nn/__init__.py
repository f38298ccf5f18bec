"""Minimal reverse-mode autodiff + neural network toolkit built on numpy.

This subpackage is the substrate standing in for PyTorch: it provides the
:class:`~repro.nn.tensor.Tensor` autodiff engine, module/layer abstractions,
initializers, optimizers, the segment kernels message passing reduces with
(:mod:`~repro.nn.segment`), and the differentiable functions required by the
GNN encoders and contrastive objectives used throughout the repository.
"""

from . import functional
from .init import glorot_normal, glorot_uniform, zeros_init
from .layers import ELU, Dropout, Linear, Module, Parameter, ReLU, Sequential
from .optim import SGD, Adam, Optimizer
from .segment import EdgeGroups, Segments
from .tensor import (
    Tensor,
    cat,
    edge_aggregate,
    edge_softmax,
    is_grad_enabled,
    no_grad,
    ones,
    sparse_matmul,
    stack,
    zeros,
)

__all__ = [
    "Tensor",
    "cat",
    "sparse_matmul",
    "edge_softmax",
    "edge_aggregate",
    "Segments",
    "EdgeGroups",
    "stack",
    "zeros",
    "ones",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "Dropout",
    "Sequential",
    "ReLU",
    "ELU",
    "Adam",
    "SGD",
    "Optimizer",
    "glorot_uniform",
    "glorot_normal",
    "zeros_init",
]
