"""Neural-network building blocks (the ``nn.Module`` layer of the substrate).

Provides the module abstraction plus the layers Naru needs: dense layers,
*masked* dense layers (the core of the MADE autoregressive architecture),
embedding tables, dropout and small containers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from . import init
from .autograd import Tensor, masked_linear

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "MaskedLinear",
    "Embedding",
    "ReLU",
    "Dropout",
    "Sequential",
]


class Parameter(Tensor):
    """A tensor that is registered as a trainable model parameter.

    ``version`` counts the writes to ``data``: the optimisers' ``step`` and
    :meth:`Module.load_state_dict` bump it, so state derived from parameter
    values (:class:`repro.core.made.MADEModel`'s inference plan) can tell
    that it is stale by comparing stamps.  Writing to ``data`` in place by
    any other route is outside the contract — nothing would see the write.
    """

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        self.version = 0


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically for optimisation and
    (de)serialisation, mirroring the PyTorch API the paper's code relies on.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------ #
    # Parameter / submodule discovery
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs for this module and its children."""
        for name, value in vars(self).items():
            full_name = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full_name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full_name}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full_name}.{index}.")
                    elif isinstance(item, Parameter):
                        yield f"{full_name}.{index}", item

    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters of the module tree."""
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters (used for storage budgets)."""
        return sum(param.size for param in self.parameters())

    def size_bytes(self, bytes_per_weight: int = 4) -> int:
        """Approximate serialized model size, assuming float32 storage."""
        return self.num_parameters() * bytes_per_weight

    # ------------------------------------------------------------------ #
    # Train / eval mode
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Return a name → array mapping of all parameters (copies)."""
        return OrderedDict((name, param.data.copy())
                           for name, param in self.named_parameters())

    def load_state_dict(self, state: dict) -> None:
        """Load parameter values from :meth:`state_dict` output."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.data.shape}, got {value.shape}")
            param.data = value
            param.version += 1

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Fully connected layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class MaskedLinear(Module):
    """Dense layer whose weight matrix is elementwise-multiplied by a fixed mask.

    This is the building block of MADE [Germain et al. 2015]: the binary mask
    zeroes the connections that would violate the autoregressive property.

    The forward product is row-exact
    (:func:`repro.nn.autograd.rowwise_matmul_data`): every output row is a
    pure function of its input row — bit-identical no matter how the batch is
    composed.  Serving-side optimisations that re-group rows (prefix
    deduplication, conditional caching, chunked dispatch) rely on this; the
    fixed-tile kernel behind it runs at gemm speed.
    """

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None
        # The mask is a buffer, not a parameter: it is never trained.
        self.mask = np.ones((in_features, out_features))

    def set_mask(self, mask: np.ndarray) -> None:
        """Install the autoregressive connectivity mask (shape ``in × out``)."""
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (self.in_features, self.out_features):
            raise ValueError(
                f"mask shape {mask.shape} does not match layer "
                f"({self.in_features}, {self.out_features})")
        self.mask = mask

    def forward(self, x: Tensor) -> Tensor:
        return masked_linear(x, self.weight, self.mask, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Used both for *input* encoding of large-domain columns and, via weight
    tying, for the *embedding reuse* decoding optimisation (§4.2 of the paper).
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), rng, std=0.1))

    def forward(self, indices: np.ndarray) -> Tensor:
        return self.weight.take_rows(np.asarray(indices, dtype=np.int64))


class ReLU(Module):
    """Rectified linear unit as a module (for use inside ``Sequential``)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Dropout(Module):
    """Inverted dropout; identity when the module is in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)
