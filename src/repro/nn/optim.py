"""Gradient-descent optimisers for the NumPy neural-network substrate."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .modules import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base class: holds parameters and implements ``zero_grad``."""

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-2,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad
            param.version += 1


class Adam(Optimizer):
    """Adam optimiser [Kingma & Ba 2015] — the optimiser used by the paper."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 2e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Two scratch buffers per parameter: a step allocates nothing.
        self._scratch = [(np.empty_like(p.data), np.empty_like(p.data))
                         for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        for param, m, v, (update, root) in zip(self.parameters, self._m, self._v,
                                               self._scratch):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=update)
            v *= self.beta2
            np.square(grad, out=root)
            v += np.multiply(root, 1.0 - self.beta2, out=root)
            # lr * m_hat / (sqrt(v_hat) + eps), in that order.
            np.divide(m, bias1, out=update)
            np.multiply(update, self.lr, out=update)
            np.divide(v, bias2, out=root)
            np.sqrt(root, out=root)
            np.add(root, self.eps, out=root)
            param.data -= np.divide(update, root, out=update)
            param.version += 1
