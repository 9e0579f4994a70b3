"""Functional interface over :mod:`repro.nn.autograd` tensors.

These helpers mirror the subset of ``torch.nn.functional`` the Naru estimator
uses: activations, losses, and the stable softmax family.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "binary_cross_entropy",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    return x.log_softmax(axis=axis)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood of integer ``targets`` under ``log_probs``.

    Parameters
    ----------
    log_probs:
        ``(batch, classes)`` tensor of log probabilities.
    targets:
        ``(batch,)`` integer class indices.
    """
    picked = log_probs.gather(np.asarray(targets, dtype=np.int64))
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy between ``logits`` and integer ``targets``.

    The bits of ``nll_loss(log_softmax(logits), targets)`` through one fused
    node (:meth:`Tensor.log_softmax_pick`) that never builds the full matrix.
    """
    return -logits.log_softmax_pick(targets).mean()


def mse_loss(prediction: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error."""
    target_tensor = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target_tensor
    return (diff * diff).mean()


def binary_cross_entropy(prediction: Tensor, target: np.ndarray | Tensor,
                         eps: float = 1e-12) -> Tensor:
    """Binary cross-entropy on probabilities in ``(0, 1)``."""
    target_tensor = target if isinstance(target, Tensor) else Tensor(target)
    clipped = Tensor(np.clip(prediction.data, eps, 1.0 - eps),
                     requires_grad=prediction.requires_grad)
    # Preserve the graph: re-express the clip as a pass-through on the original
    # tensor when no clipping actually occurred (the common case).
    if np.array_equal(clipped.data, prediction.data):
        clipped = prediction
    loss = -(target_tensor * clipped.log()
             + (1.0 - target_tensor) * (1.0 - clipped).log())
    return loss.mean()
