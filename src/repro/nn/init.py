"""Weight-initialisation helpers for the NumPy neural-network substrate."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["kaiming_uniform", "normal", "zeros"]


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform initialisation, suited for ReLU networks."""
    fan_in = shape[0]
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def normal(shape: tuple[int, ...], rng: np.random.Generator,
           std: float = 0.02) -> np.ndarray:
    """Zero-mean Gaussian initialisation (used for embedding matrices)."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros initialisation (used for biases)."""
    return np.zeros(shape)
