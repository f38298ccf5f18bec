"""Neural network module system: parameters, modules, and basic layers.

The design follows the familiar ``torch.nn`` interface: a :class:`Module`
owns :class:`Parameter` objects and child modules, exposes ``parameters()``
for the optimizer, and switches between train/eval behaviour with
``train()`` / ``eval()`` (which controls dropout), or for one ``with``
block with ``training_mode()``.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, NamedTuple, Optional

import numpy as np

from . import functional as F
from .init import glorot_uniform, zeros_init
from .tensor import Tensor


class LoadStateResult(NamedTuple):
    """Key-level outcome of :meth:`Module.load_state_dict`."""

    missing_keys: List[str]
    unexpected_keys: List[str]


class Parameter(Tensor):
    """A tensor that is always trainable and registered with its module.

    Assigning ``data`` (including augmented assignment, the optimizers'
    ``param.data -= ...``) automatically bumps a version counter;
    :meth:`Module.parameter_version` folds the per-parameter counters into a
    single monotonically increasing integer that embedding caches use to
    detect stale results.  The one hole the property cannot see is in-place
    *element* mutation of the array itself (``param.data[i] = ...``) — code
    doing that must call :meth:`bump_version` explicitly.
    """

    def __init__(self, data: np.ndarray, name: str = ""):
        self._version = 0
        super().__init__(data, requires_grad=True, name=name)
        self._version = 0  # construction itself is version 0

    # ``data`` shadows the Tensor slot with a version-counting property so
    # cache invalidation is structural, not a call-site convention.
    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        self._version += 1

    @property
    def version(self) -> int:
        """Number of recorded updates to ``data`` since construction."""
        return self._version

    def bump_version(self) -> None:
        """Record an in-place element mutation of ``data`` (see class doc)."""
        self._version += 1


class Module:
    """Base class for all layers and models."""

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- registration ----------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, parameter: Parameter) -> None:
        self._parameters[name] = parameter
        object.__setattr__(self, name, parameter)

    # -- traversal -------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return every parameter of this module and its children."""
        params: List[Parameter] = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[tuple]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for child_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    # -- mode switching ---------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @contextlib.contextmanager
    def training_mode(self, mode: bool) -> Iterator["Module"]:
        """Set ``training`` on the module tree for the ``with`` block.

        Every module's previous flag is restored on exit, also when the
        block raises.
        """
        previous = [(module, module.training) for module in self.modules()]
        self.train(mode)
        try:
            yield self
        finally:
            for module, training in previous:
                module.training = training

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def parameter_version(self) -> int:
        """Monotonic counter covering every parameter of the module tree.

        The value increases whenever any parameter announces an update via
        :meth:`Parameter.bump_version` (optimizer steps, ``load_state_dict``),
        so equal values guarantee the parameters are unchanged.  Used as the
        key of :class:`repro.inference.EmbeddingCache`.
        """
        return sum(param._version for param in self.parameters())

    # -- state dict -------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of all parameter arrays keyed by dotted names."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray],
                        strict: bool = True) -> "LoadStateResult":
        """Load parameter arrays produced by :meth:`state_dict`.

        With ``strict=True`` (the default) any missing or unexpected key
        raises a ``KeyError`` listing both sets; with ``strict=False`` the
        intersection is loaded and the mismatches are reported in the
        returned :class:`LoadStateResult`.  A shape mismatch is always an
        error — every offending key is listed with the checkpoint and model
        shapes so a bad checkpoint is diagnosable in one read.
        """
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if strict and (missing or unexpected):
            raise KeyError(
                "load_state_dict(strict=True) key mismatch: "
                f"missing keys (in model, not in checkpoint): {missing or 'none'}; "
                f"unexpected keys (in checkpoint, not in model): {unexpected or 'none'}"
            )
        loadable = [name for name in state if name in own]
        shape_errors = [
            f"{name}: checkpoint shape {np.shape(state[name])} vs "
            f"model shape {own[name].data.shape}"
            for name in loadable
            if tuple(np.shape(state[name])) != tuple(own[name].data.shape)
        ]
        if shape_errors:
            raise ValueError(
                "load_state_dict shape mismatch for "
                f"{len(shape_errors)} parameter(s): " + "; ".join(shape_errors)
            )
        for name in loadable:
            # Assigning Parameter.data bumps its version, invalidating any
            # version-keyed embedding cache.
            own[name].data = np.array(state[name], dtype=np.float64, copy=True)
        return LoadStateResult(missing_keys=missing, unexpected_keys=unexpected)

    # -- call ---------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Fully connected layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(glorot_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(zeros_init((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout(Module):
    """Inverted dropout layer; active only in training mode."""

    def __init__(self, rate: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor, rows: Optional[np.ndarray] = None,
                num_rows: Optional[int] = None) -> Tensor:
        """Dropout of ``x``, or of rows ``rows`` of a ``num_rows``-row input
        (see :func:`repro.nn.functional.dropout`)."""
        return F.dropout(x, self.rate, training=self.training, rng=self.rng,
                         rows=rows, num_rows=num_rows)


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._ordered: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer_{index}", module)
            self._ordered.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._ordered:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self._ordered)

    def __len__(self):
        return len(self._ordered)


class ReLU(Module):
    """ReLU activation as a module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class ELU(Module):
    """ELU activation as a module (GAT default)."""

    def __init__(self, alpha: float = 1.0):
        super().__init__()
        self.alpha = alpha

    def forward(self, x: Tensor) -> Tensor:
        return x.elu(self.alpha)
