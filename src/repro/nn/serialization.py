"""Saving and loading model weights as ``.npz`` archives."""

from __future__ import annotations

import os

import numpy as np

from .modules import Module

__all__ = ["save_state_dict", "load_state_dict", "save_module", "load_into_module"]


def save_state_dict(state: dict[str, np.ndarray], path: str | os.PathLike) -> None:
    """Write a name → array mapping to ``path`` as a compressed ``.npz``."""
    arrays = {name: np.asarray(value) for name, value in state.items()}
    np.savez_compressed(path, **arrays)


def load_state_dict(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state_dict`."""
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def save_module(module: Module, path: str | os.PathLike) -> None:
    """Serialise all parameters of ``module`` to ``path``."""
    save_state_dict(module.state_dict(), path)


def load_into_module(module: Module, path: str | os.PathLike) -> Module:
    """Load parameters from ``path`` into ``module`` (in place) and return it."""
    module.load_state_dict(load_state_dict(path))
    return module

