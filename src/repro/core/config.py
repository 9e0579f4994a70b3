"""Configuration objects for building Naru estimators."""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["NaruConfig"]


@dataclass
class NaruConfig:
    """Hyper-parameters of a :class:`repro.core.estimator.NaruEstimator`.

    The defaults mirror the paper's choices scaled to CPU training: a masked
    multi-layer perceptron (architecture B, §4.3), one-hot input encoding for
    domains up to 64 values and 64-dimensional embeddings with embedding-reuse
    decoding above that, trained with Adam on the maximum-likelihood objective.

    Attributes
    ----------
    hidden_sizes:
        Widths of the hidden layers of the autoregressive network.
    architecture:
        ``"made"`` for the masked autoencoder (architecture B) or ``"column"``
        for the per-column-network design of §3.2 (architecture A).
    embedding_threshold:
        Domains strictly larger than this use embedding encoding/decoding.
    embedding_dim:
        Width ``h`` of the learned embeddings (input and reuse decoding).
    epochs, batch_size, learning_rate:
        Training-loop parameters for the unsupervised maximum-likelihood fit.
    progressive_samples:
        Default number of progressive-sampling paths per query.
    enumeration_threshold:
        Query regions with at most this many points are answered by exact
        enumeration through the model instead of sampling (§5).
    max_dnf_branches:
        Largest disjunction (branch count of a
        :class:`repro.query.predicates.DNFQuery`) the estimator answers by
        inclusion–exclusion.  The expansion has ``2^k − 1`` conjunctive
        terms, so wider disjunctions are declared unservable
        (:meth:`~repro.core.estimator.NaruEstimator.can_serve` returns
        ``False``) and the serving layer routes them to a fallback
        estimator instead.
    column_order:
        Optional explicit autoregressive ordering (list of column positions);
        defaults to the table order, as in the paper.
    seed:
        Seed controlling weight initialisation, batching and sampling.
    """

    hidden_sizes: tuple[int, ...] = (128, 128, 128)
    architecture: str = "made"
    embedding_threshold: int = 64
    embedding_dim: int = 64
    epochs: int = 10
    batch_size: int = 512
    learning_rate: float = 5e-3
    progressive_samples: int = 1000
    enumeration_threshold: int = 2000
    max_dnf_branches: int = 4
    column_order: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.architecture not in ("made", "column"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if not self.hidden_sizes:
            raise ValueError("at least one hidden layer is required")
        if self.embedding_dim < 1 or self.embedding_threshold < 1:
            raise ValueError("embedding parameters must be positive")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("invalid training parameters")
        if self.progressive_samples < 1:
            raise ValueError("progressive_samples must be positive")
        if self.max_dnf_branches < 1:
            raise ValueError("max_dnf_branches must be positive")

    def with_overrides(self, **kwargs) -> "NaruConfig":
        """Return a copy of the config with the given fields replaced."""
        return replace(self, **kwargs)
