"""Unsupervised maximum-likelihood training loop and goodness-of-fit metrics.

Naru is trained exactly like a classical synopsis is built: by reading tuples
of the relation, with no queries or feedback involved (§4.1).  The training
objective is the cross-entropy between the empirical joint and the model
(Equation 2); the interpretable goodness-of-fit is the *entropy gap*
``H(P, P̂) − H(P) = KL(P ‖ P̂)`` in bits (§3.3).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..data.table import Table

__all__ = ["data_entropy_bits", "cross_entropy_bits", "TrainingHistory", "Trainer"]

_NATS_TO_BITS = 1.0 / np.log(2.0)


def data_entropy_bits(table: Table) -> float:
    """Entropy ``H(P)`` of the table's empirical joint distribution, in bits."""
    _, counts = np.unique(table.encoded(), axis=0, return_counts=True)
    probabilities = counts / counts.sum()
    return float(-(probabilities * np.log2(probabilities)).sum())


def cross_entropy_bits(model, codes: np.ndarray, batch_size: int = 2048) -> float:
    """Cross-entropy ``H(P, P̂)`` of coded tuples under the model, in bits."""
    codes = np.asarray(codes, dtype=np.int64)
    total = 0.0
    for start in range(0, codes.shape[0], batch_size):
        batch = codes[start:start + batch_size]
        total += float(-model.log_prob(batch).sum())
    return total / codes.shape[0] * _NATS_TO_BITS


@dataclass
class TrainingHistory:
    """Per-epoch training diagnostics."""

    epoch_losses_bits: list[float] = field(default_factory=list)
    epoch_entropy_gaps_bits: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    @property
    def num_epochs(self) -> int:
        return len(self.epoch_losses_bits)


class Trainer:
    """Runs the maximum-likelihood training loop for an autoregressive model.

    Parameters
    ----------
    model:
        Any :class:`repro.core.made.AutoregressiveModel`.
    table:
        The relation whose tuples are the training data.
    batch_size, learning_rate:
        Optimisation hyper-parameters (Adam is used, as in the paper).
    seed:
        Seed for shuffling.
    """

    def __init__(self, model, table: Table, batch_size: int = 512,
                 learning_rate: float = 2e-3, seed: int = 0) -> None:
        self.model = model
        self.table = table
        self.batch_size = batch_size
        self.optimizer = nn.Adam(model.parameters(), lr=learning_rate)
        self._rng = np.random.default_rng(seed)
        self.history = TrainingHistory()
        self._data_entropy_bits: float | None = None

    # ------------------------------------------------------------------ #
    def data_entropy(self) -> float:
        """Cached empirical data entropy ``H(P)`` in bits."""
        if self._data_entropy_bits is None:
            self._data_entropy_bits = data_entropy_bits(self.table)
        return self._data_entropy_bits

    def entropy_gap_bits(self, sample_rows: int | None = 4096, seed: int = 0) -> float:
        """Current entropy gap (KL divergence) of the model, in bits."""
        codes = self.table.encoded()
        if sample_rows is not None and sample_rows < codes.shape[0]:
            rng = np.random.default_rng(seed)
            codes = codes[rng.integers(0, codes.shape[0], size=sample_rows)]
        gap = cross_entropy_bits(self.model, codes) - self.data_entropy()
        return max(0.0, gap)

    # ------------------------------------------------------------------ #
    def train_epoch(self, codes: np.ndarray | None = None) -> float:
        """One pass over the data; returns the mean loss in bits per tuple."""
        start_time = time.perf_counter()
        if codes is None:
            codes = self.table.encoded()
        permutation = self._rng.permutation(codes.shape[0])
        codes = codes[permutation]

        total_loss = 0.0
        total_rows = 0
        self.model.train()
        for start in range(0, codes.shape[0], self.batch_size):
            batch = codes[start:start + self.batch_size]
            self.optimizer.zero_grad()
            loss = self.model.nll(batch)
            loss.backward()
            self.optimizer.step()
            total_loss += loss.item() * batch.shape[0]
            total_rows += batch.shape[0]
        self.model.eval()

        mean_loss_bits = total_loss / total_rows * _NATS_TO_BITS
        self.history.epoch_losses_bits.append(mean_loss_bits)
        self.history.epoch_seconds.append(time.perf_counter() - start_time)
        return mean_loss_bits

    def train(self, epochs: int, track_entropy_gap: bool = False,
              entropy_gap_sample: int = 2048,
              codes: np.ndarray | None = None) -> TrainingHistory:
        """Train for ``epochs`` passes over the data.

        Parameters
        ----------
        epochs:
            Number of passes over the relation.
        track_entropy_gap:
            If true, the entropy gap is evaluated after every epoch and
            recorded in the history (used by the Figure 5 reproduction).
        entropy_gap_sample:
            Number of tuples sampled for the gap evaluation.
        codes:
            Coded tuples to train on instead of the trainer's own table.
        """
        for _ in range(epochs):
            self.train_epoch(codes=codes)
            if track_entropy_gap:
                self.history.epoch_entropy_gaps_bits.append(
                    self.entropy_gap_bits(sample_rows=entropy_gap_sample))
        # The tape frees itself by reference count, so this finds no garbage.
        # It settles the collector instead — survivors to the oldest
        # generation, counters to zero — so that the estimates served next
        # are not billed the young-generation collection (~1 ms) that
        # training's allocations have brought almost due.
        gc.collect()
        return self.history
