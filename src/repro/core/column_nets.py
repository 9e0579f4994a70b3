"""Per-column autoregressive networks (architecture A, §3.2 of the paper).

Each column gets its own compact MLP whose input is the aggregated encoding
of the columns preceding it in the autoregressive order (vector concatenation
is used as the aggregation operator ⊕).  The first column's network receives
a constant input, making its output an unconditional marginal — exactly the
``0 → M_city`` construction in the paper's travel-checkins example.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.table import Table
from .encoding import TupleEncoder
from .made import AutoregressiveModel

__all__ = ["ColumnNetworkModel"]


class ColumnNetworkModel(AutoregressiveModel):
    """One small MLP per column, conditioned on the preceding columns.

    Not row-exact: its ``nn.Linear`` layers are plain ``x @ W`` products,
    whose bits may depend on the other rows of the batch, so the serving
    engine refuses it (see :class:`repro.serve.engine.NotRowExactError`).
    """

    row_exact = False

    def __init__(self, table: Table, hidden_sizes: tuple[int, ...] = (64, 64),
                 embedding_threshold: int = 64, embedding_dim: int = 64,
                 order: list[int] | None = None, seed: int = 0) -> None:
        super().__init__(table, order=order)
        rng = np.random.default_rng(seed)
        self.encoder = TupleEncoder(table, embedding_threshold=embedding_threshold,
                                    embedding_dim=embedding_dim, rng=rng)
        self.hidden_sizes = tuple(hidden_sizes)

        input_widths = self.encoder.input_widths
        output_widths = self.encoder.output_widths

        # ``column_nets[i]`` predicts the distribution of table column ``i``.
        self.column_nets: list[nn.Sequential] = []
        self._context_columns: list[list[int]] = []
        for position, column in enumerate(self.order):
            context = self.order[:position]
            context_width = sum(input_widths[c] for c in context)
            in_width = max(context_width, 1)  # the first column sees a constant
            layers: list[nn.Module] = []
            previous = in_width
            for width in self.hidden_sizes:
                layers.append(nn.Linear(previous, width, rng=rng))
                layers.append(nn.ReLU())
                previous = width
            layers.append(nn.Linear(previous, output_widths[column], rng=rng))
            self.column_nets.append(nn.Sequential(*layers))
            self._context_columns.append(context)

        # Map table-column index -> position in ``self.order`` (and hence in
        # ``column_nets``), so forward_logits can return logits in table order.
        self._position_of_column = {column: position
                                    for position, column in enumerate(self.order)}

    def _context_input(self, position: int, codes: np.ndarray) -> nn.Tensor:
        context = self._context_columns[position]
        if not context:
            return nn.Tensor(np.ones((codes.shape[0], 1)))
        blocks = [self.encoder.encode_column(column, codes[:, column])
                  for column in context]
        return nn.concatenate(blocks, axis=1)

    def _column_logits(self, column: int, codes: np.ndarray) -> nn.Tensor:
        position = self._position_of_column[column]
        output = self.column_nets[position](self._context_input(position, codes))
        return self.encoder.decode_logits(column, output)

    def forward_logits(self, codes: np.ndarray) -> list[nn.Tensor]:
        codes = np.asarray(codes, dtype=np.int64)
        return [self._column_logits(column, codes)
                for column in range(self.num_columns)]

    def conditional_probs(self, column_index: int, codes: np.ndarray) -> np.ndarray:
        """Run the requested column's network alone.

        No network reads another's output, so these are the very operations
        :meth:`conditional_probs_unfused` performs for this column — the same
        bits — without the other ``n - 1`` networks it runs and discards.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.shape[0] == 0:
            return np.empty((0, self.domain_sizes_list[column_index]))
        with nn.no_grad():
            logits = self._column_logits(column_index, codes)
            return np.exp(logits.log_softmax(axis=-1).numpy())
