"""NumPy-based neural-network substrate used by the Naru reproduction.

The original system is built on PyTorch; this package provides the equivalent
pieces from scratch so the estimator is self-contained:

* :mod:`repro.nn.autograd` — reverse-mode autodiff tensors,
* :mod:`repro.nn.modules` — layers (``Linear``, ``MaskedLinear``, ``Embedding`` …),
* :mod:`repro.nn.functional` — activations and losses,
* :mod:`repro.nn.optim` — SGD and Adam,
* :mod:`repro.nn.serialization` — ``.npz`` model checkpoints.
"""

from .autograd import (Tensor, concatenate, masked_linear, no_grad,
                       rowwise_matmul_data)
from .functional import (
    binary_cross_entropy,
    cross_entropy,
    log_softmax,
    mse_loss,
    nll_loss,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from .modules import (
    Dropout,
    Embedding,
    Linear,
    MaskedLinear,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from .optim import SGD, Adam, Optimizer
from .serialization import (
    load_into_module,
    load_state_dict,
    save_module,
    save_state_dict,
)

__all__ = [
    "Tensor",
    "no_grad",
    "concatenate",
    "rowwise_matmul_data",
    "masked_linear",
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "binary_cross_entropy",
    "Module",
    "Parameter",
    "Linear",
    "MaskedLinear",
    "Embedding",
    "ReLU",
    "Dropout",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
    "save_state_dict",
    "load_state_dict",
    "save_module",
    "load_into_module",
]
