"""Column encoding and decoding strategies (§4.2 of the paper).

Every column is dictionary-encoded by the data substrate; this module maps
those integer codes into neural-network inputs and maps network outputs back
into per-domain probability distributions:

* **Small domains** (``|A_i| ≤ threshold``, default 64): one-hot input
  encoding and a direct fully-connected output head of width ``|A_i|``.
* **Large domains**: a learned embedding matrix ``E_i ∈ R^{|A_i| × h}`` is used
  for the input, and the *same* matrix decodes the output ("embedding reuse"):
  the network produces an ``h``-dimensional feature vector ``H`` and the logits
  are ``H E_iᵀ``, cutting the output-head cost from ``O(|A_i|)`` to ``O(h)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..data.table import Table

__all__ = ["ColumnCodec", "TupleEncoder"]


@dataclass(frozen=True)
class ColumnCodec:
    """Per-column encoding/decoding decision.

    Attributes
    ----------
    name:
        Column name.
    domain_size:
        ``|A_i|``.
    use_embedding:
        Whether the column uses embedding encoding (and embedding-reuse
        decoding) instead of one-hot / direct softmax.
    input_width:
        Width of the column's block in the concatenated network input.
    output_width:
        Width of the column's block in the network output (``|A_i|`` for the
        direct head, ``h`` for embedding reuse).
    """

    name: str
    domain_size: int
    use_embedding: bool
    input_width: int
    output_width: int


class TupleEncoder(nn.Module):
    """Encodes integer-coded tuples into the network input representation.

    The encoder owns the per-column embedding tables; the same tables are
    handed to the model's output stage for embedding-reuse decoding.
    """

    def __init__(self, table: Table, embedding_threshold: int = 64,
                 embedding_dim: int = 64,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embedding_threshold = embedding_threshold
        self.embedding_dim = embedding_dim
        self.codecs: list[ColumnCodec] = []
        self.embeddings: list[nn.Embedding | None] = []
        for column in table.columns:
            use_embedding = column.domain_size > embedding_threshold
            width = embedding_dim if use_embedding else column.domain_size
            self.codecs.append(ColumnCodec(
                name=column.name,
                domain_size=column.domain_size,
                use_embedding=use_embedding,
                input_width=width,
                output_width=embedding_dim if use_embedding else column.domain_size,
            ))
            self.embeddings.append(
                nn.Embedding(column.domain_size, embedding_dim, rng=rng)
                if use_embedding else None)

    # ------------------------------------------------------------------ #
    @property
    def num_columns(self) -> int:
        return len(self.codecs)

    @property
    def input_widths(self) -> list[int]:
        """Per-column widths of the concatenated input encoding."""
        return [codec.input_width for codec in self.codecs]

    @property
    def output_widths(self) -> list[int]:
        """Per-column widths of the network's output blocks."""
        return [codec.output_width for codec in self.codecs]

    @property
    def total_input_width(self) -> int:
        return sum(self.input_widths)

    def domain_sizes(self) -> list[int]:
        return [codec.domain_size for codec in self.codecs]

    # ------------------------------------------------------------------ #
    def encode_column(self, column_index: int, codes: np.ndarray) -> nn.Tensor:
        """Encode one column's codes into its input block ``(batch, width)``."""
        codec = self.codecs[column_index]
        codes = np.asarray(codes, dtype=np.int64)
        if codec.use_embedding:
            return self.embeddings[column_index](codes)
        one_hot = np.zeros((codes.size, codec.domain_size))
        one_hot[np.arange(codes.size), codes] = 1.0
        return nn.Tensor(one_hot)

    def forward(self, codes: np.ndarray) -> nn.Tensor:
        """Encode a batch of tuples ``(batch, num_columns)`` into the input."""
        codes = np.asarray(codes, dtype=np.int64)
        blocks = [self.encode_column(index, codes[:, index])
                  for index in range(self.num_columns)]
        return nn.concatenate(blocks, axis=1)

    # ------------------------------------------------------------------ #
    def decode_logits(self, column_index: int, output_block: nn.Tensor,
                      row_exact: bool = False) -> nn.Tensor:
        """Turn a column's output block into logits over its domain.

        For small domains the block already *is* the logits; for large domains
        the block is an ``h``-dimensional feature vector multiplied with the
        (shared) embedding matrix — the embedding-reuse optimisation.  With
        ``row_exact=True`` that product is row-exact
        (:meth:`repro.nn.autograd.Tensor.rowwise_matmul`), so decoded logits
        are bit-identical for any batch composition — required by models whose
        serving path regroups rows (see :class:`repro.core.made.MADEModel`).
        """
        codec = self.codecs[column_index]
        if not codec.use_embedding:
            return output_block
        embedding = self.embeddings[column_index]
        if row_exact:
            return output_block.rowwise_matmul(embedding.weight.T)
        return output_block @ embedding.weight.T
