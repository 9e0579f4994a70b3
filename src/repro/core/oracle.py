"""Oracle density models computed directly from the data (§6.7 of the paper).

For the Conviva-B micro-benchmarks the paper replaces the neural network with
an *emulated oracle model*: the exact conditional distributions obtained by
scanning the (tiny) table.  This isolates the error contributed by progressive
sampling from the error contributed by density estimation.  The paper further
injects an artificial entropy gap into the oracle to study how inaccurate the
density model is allowed to be (Figure 7); :class:`NoisyOracleModel` implements
that knob by mixing the exact conditionals with a uniform distribution.
"""

from __future__ import annotations

import numpy as np

from ..data.table import Table

__all__ = ["OracleModel", "NoisyOracleModel"]


class OracleModel:
    """Exact autoregressive conditionals obtained by scanning the table.

    Implements the same protocol as the neural models
    (:class:`repro.core.made.AutoregressiveModel`), so it can be plugged into
    the progressive sampler, the uniform sampler and the enumerator unchanged.
    Per-column groupings of the data by prefix are cached, so answering many
    queries against the same oracle is fast even for 100-column tables.
    """

    #: Each row's answer is looked up by its own prefix: row-exact.
    row_exact = True

    def __init__(self, table: Table, order: list[int] | None = None) -> None:
        self.table = table
        self.codes = table.encoded()
        self.domain_sizes_list = table.domain_sizes
        self.order = list(order) if order is not None else list(range(table.num_columns))
        if sorted(self.order) != list(range(table.num_columns)):
            raise ValueError("order must be a permutation of the column positions")
        self._cache: dict[int, tuple] = {}

    @property
    def num_columns(self) -> int:
        return len(self.domain_sizes_list)

    def domain_sizes(self) -> list[int]:
        return list(self.domain_sizes_list)

    # ------------------------------------------------------------------ #
    def _prefix_columns(self, column_index: int) -> list[int]:
        position = self.order.index(column_index)
        return self.order[:position]

    def _column_grouping(self, column_index: int) -> tuple:
        """Cache: (prefix cols, prefix→group map, group conditionals, marginal)."""
        if column_index in self._cache:
            return self._cache[column_index]
        prefix = self._prefix_columns(column_index)
        domain = self.domain_sizes_list[column_index]
        marginal = np.bincount(self.codes[:, column_index], minlength=domain).astype(float)
        marginal /= marginal.sum()
        if not prefix:
            entry = (prefix, {}, np.empty((0, domain)), marginal)
            self._cache[column_index] = entry
            return entry
        data_prefix = np.ascontiguousarray(self.codes[:, prefix])
        unique_rows, inverse = np.unique(data_prefix, axis=0, return_inverse=True)
        counts = np.zeros((unique_rows.shape[0], domain))
        np.add.at(counts, (inverse, self.codes[:, column_index]), 1.0)
        conditionals = counts / counts.sum(axis=1, keepdims=True)
        key_to_group = {unique_rows[g].tobytes(): g for g in range(unique_rows.shape[0])}
        entry = (prefix, key_to_group, conditionals, marginal)
        self._cache[column_index] = entry
        return entry

    def conditional_probs(self, column_index: int, codes: np.ndarray) -> np.ndarray:
        """Exact ``P(X_i | x_<i)`` for each row of a (partially filled) batch.

        Rows whose prefix never occurs in the data receive the column's
        unconditional marginal (such prefixes only arise on zero-weight sample
        paths, so any valid distribution would do).

        Like the neural models, the output is row-independent: any subset of
        rows (including the empty batch) may be evaluated in any grouping and
        yields the same per-row distributions.  The returned matrix is a
        fresh copy the caller may overwrite.
        """
        codes = np.asarray(codes, dtype=np.int64)
        prefix, key_to_group, conditionals, marginal = self._column_grouping(column_index)
        output = np.empty((codes.shape[0], marginal.size))
        if codes.shape[0] == 0:
            return output
        if not prefix:
            output[:] = marginal
            return output
        query_prefix = np.ascontiguousarray(codes[:, prefix])
        unique_queries, inverse = np.unique(query_prefix, axis=0, return_inverse=True)
        for group, prefix_values in enumerate(unique_queries):
            match = key_to_group.get(prefix_values.tobytes())
            distribution = marginal if match is None else conditionals[match]
            output[inverse == group] = distribution
        return output

    def log_prob(self, codes: np.ndarray) -> np.ndarray:
        """Exact log joint probability of each tuple (``-inf`` if absent)."""
        codes = np.asarray(codes, dtype=np.int64)
        counts = np.zeros(codes.shape[0])
        for index, row in enumerate(codes):
            matches = np.all(self.codes == row[None, :], axis=1)
            counts[index] = matches.sum()
        with np.errstate(divide="ignore"):
            return np.log(counts / self.table.num_rows)

    def entropy_bits(self) -> float:
        """Exact entropy ``H(P)`` of the empirical joint, in bits."""
        _, counts = np.unique(self.codes, axis=0, return_counts=True)
        probabilities = counts / counts.sum()
        return float(-(probabilities * np.log2(probabilities)).sum())


class NoisyOracleModel(OracleModel):
    """Oracle conditionals blurred towards uniform to emulate an entropy gap.

    Parameters
    ----------
    table:
        The relation.
    noise:
        Mixing weight in ``[0, 1]``: each conditional becomes
        ``(1 - noise) · exact + noise · uniform``.  ``0`` is the perfect
        oracle; larger values move probability mass off the true data
        distribution, increasing the model's entropy gap.
    """

    def __init__(self, table: Table, noise: float,
                 order: list[int] | None = None) -> None:
        super().__init__(table, order=order)
        if not 0.0 <= noise <= 1.0:
            raise ValueError("noise must be in [0, 1]")
        self.noise = noise

    def conditional_probs(self, column_index: int, codes: np.ndarray) -> np.ndarray:
        exact = super().conditional_probs(column_index, codes)
        domain = self.domain_sizes_list[column_index]
        uniform = 1.0 / domain
        return (1.0 - self.noise) * exact + self.noise * uniform

    def log_prob(self, codes: np.ndarray) -> np.ndarray:
        """Log probability under the *noisy* autoregressive factorisation."""
        codes = np.asarray(codes, dtype=np.int64)
        total = np.zeros(codes.shape[0])
        for column in self.order:
            probs = self.conditional_probs(column, codes)
            picked = probs[np.arange(codes.shape[0]), codes[:, column]]
            with np.errstate(divide="ignore"):
                total += np.log(picked)
        return total

    def entropy_gap_bits(self, sample_rows: int | None = 2000,
                         seed: int = 0) -> float:
        """Empirical KL divergence (bits) between the data and this model.

        Computed as the cross-entropy of (a sample of) the data under the
        noisy model minus the exact data entropy.
        """
        rng = np.random.default_rng(seed)
        if sample_rows is None or sample_rows >= self.table.num_rows:
            sample = self.codes
        else:
            sample = self.codes[rng.integers(0, self.table.num_rows, size=sample_rows)]
        cross_entropy_bits = float(-(self.log_prob(sample) / np.log(2.0)).mean())
        return max(0.0, cross_entropy_bits - self.entropy_bits())
