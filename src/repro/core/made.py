"""Masked autoregressive MLP over relational tuples (architecture B, §4.3).

This is the model the paper defaults to: a multi-layer perceptron whose weight
matrices are multiplied by binary masks so that the output block of column
``i`` only receives information from the input blocks of columns appearing
*earlier* in the autoregressive order — the MADE construction of Germain et
al. adapted to grouped (per-column, possibly embedded) inputs and outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..data.table import Table
from ..nn.autograd import rowwise_matmul_data, scatter_add_rows
from .encoding import TupleEncoder

__all__ = ["AutoregressiveModel", "MADEModel", "PrefixSums", "StoredRows"]


class AutoregressiveModel(nn.Module):
    """Interface shared by all Naru density models.

    A model maps a batch of integer-coded tuples to one probability
    distribution per column, conditioned on the values of the columns that
    precede it in :attr:`order`.  Both the training loop and the progressive
    sampler are written against this interface, so architectures are
    interchangeable (and the oracle model in :mod:`repro.core.oracle`
    implements the same protocol without a neural network).
    """

    #: Whether :meth:`conditional_probs` is row-exact: an output row is a pure
    #: function of its input row, bit-identical in any batch.  The serving
    #: engine regroups rows freely and refuses a model that does not declare it.
    row_exact: bool = False
    #: Whether :meth:`conditional_probs` accepts a :class:`PrefixSums` carry.
    carries_prefix_sums: bool = False
    #: Whether :meth:`conditional_probs` answers each row's CDF (the running
    #: sum of its probabilities) instead of the probabilities; the
    #: progressive sampler takes such rows as they are, and hands such a
    #: model a :class:`StoredRows` holder (``stored=``) so it may answer with
    #: CDFs it keeps, read in place.
    cumulative: bool = False

    def __init__(self, table: Table, order: list[int] | None = None) -> None:
        super().__init__()
        self.column_names = table.column_names
        self.domain_sizes_list = table.domain_sizes
        self.order = list(order) if order is not None else list(range(table.num_columns))
        if sorted(self.order) != list(range(table.num_columns)):
            raise ValueError("order must be a permutation of the column positions")

    @property
    def num_columns(self) -> int:
        return len(self.domain_sizes_list)

    def domain_sizes(self) -> list[int]:
        return list(self.domain_sizes_list)

    # -- protocol ------------------------------------------------------- #
    def forward_logits(self, codes: np.ndarray) -> list[nn.Tensor]:
        """Per-column logits ``(batch, |A_i|)`` for a batch of coded tuples."""
        raise NotImplementedError

    def nll(self, codes: np.ndarray) -> nn.Tensor:
        """Mean negative log-likelihood (nats per tuple) of a coded batch.

        This is the maximum-likelihood / cross-entropy training objective
        (Equation 2 of the paper).
        """
        codes = np.asarray(codes, dtype=np.int64)
        logits = self.forward_logits(codes)
        total = None
        for index, column_logits in enumerate(logits):
            picked = column_logits.log_softmax_pick(codes[:, index])
            total = picked if total is None else total + picked
        return -total.mean()

    def log_prob(self, codes: np.ndarray) -> np.ndarray:
        """Log probability (nats) of each tuple in a coded batch."""
        codes = np.asarray(codes, dtype=np.int64)
        with nn.no_grad():
            logits = self.forward_logits(codes)
            total = np.zeros(codes.shape[0])
            for index, column_logits in enumerate(logits):
                total += column_logits.log_softmax_pick(codes[:, index]).numpy()
        return total

    def conditional_probs(self, column_index: int, codes: np.ndarray) -> np.ndarray:
        """``P(X_i | x_<i)`` for each row of a (partially filled) coded batch.

        Columns at or after ``column_index`` in the autoregressive order are
        ignored by construction (:class:`MADEModel` never reads them), so
        their entries in ``codes`` may hold arbitrary placeholder values.

        The batch contract is row-independent: each output row depends only on
        the corresponding input row, so callers (the batched progressive
        sampler, the serving-layer conditional cache) are free to evaluate any
        subset of rows in any grouping — including the empty batch, which
        returns an empty ``(0, |A_i|)`` matrix without touching the network.
        The returned matrix is the caller's: it may overwrite it (the
        progressive sampler turns it into CDFs in place), so an
        implementation never returns memory it keeps or shares.  The one
        exception is a ``cumulative`` model called with a :class:`StoredRows`
        holder: it may return a read-only view of CDFs it keeps and name in
        the holder the row of that view that answers each input row.

        Subclasses may override this with a fused fast path (see
        :meth:`MADEModel.conditional_probs`); the base implementation
        delegates to :meth:`conditional_probs_unfused`, the reference path.
        """
        return self.conditional_probs_unfused(column_index, codes)

    def conditional_probs_unfused(self, column_index: int,
                                  codes: np.ndarray) -> np.ndarray:
        """Reference path: run the *full* forward and slice out one column.

        Kept alongside any fused override both as the bit-exactness oracle of
        the serving tests and as the pre-fusion baseline the throughput
        benchmark's sequential mode measures against.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.shape[0] == 0:
            return np.empty((0, self.domain_sizes_list[column_index]))
        with nn.no_grad():
            logits = self.forward_logits(codes)[column_index]
            return np.exp(logits.log_softmax(axis=-1).numpy())


def _degrees_for_blocks(block_widths: list[int], block_degrees: list[int]) -> np.ndarray:
    """Expand per-block degrees to per-unit degrees."""
    return np.concatenate([
        np.full(width, degree, dtype=np.int64)
        for width, degree in zip(block_widths, block_degrees)
    ])


def _add(total: np.ndarray, addend: np.ndarray) -> np.ndarray:
    """``total + addend``; in place (same bits) on a 2-D total: a fresh gather or sum."""
    return np.add(total, addend, out=total) if total.ndim == 2 else total + addend


@dataclass
class PrefixSums:
    """First-layer sums one :meth:`MADEModel.conditional_probs` call hands the next.

    The walk visits the columns in autoregressive order, so a prefix's first
    hidden pre-activation (before the bias) is its parent prefix's plus one
    gather-table row.  ``sums`` holds the previous call's, one row per row it
    was shown (or one broadcast row when they all share it; ``None`` for the
    empty prefix), and ``parent[r]`` is the row of ``sums`` that row ``r`` of
    the next call extends.  A call reads both and leaves its own sums in
    ``sums``; the caller sets ``parent`` before each call.
    """

    sums: np.ndarray | None = None
    parent: np.ndarray | None = None


@dataclass
class StoredRows:
    """Where a ``cumulative`` model's answer to one call lies, when it is
    memory the model keeps.

    A caller that can read a stored matrix in place passes an empty holder
    (``conditional_probs(..., stored=holder)``).  A model that answers from
    its own memory returns a read-only view of it and sets ``rows``: input
    row ``r``'s CDF is row ``rows[r]`` of the view.  A model that answers
    with a table of its own — one row per input row, the caller's — leaves
    ``rows`` as ``None``.
    """

    rows: np.ndarray | None = None


@dataclass(frozen=True)
class _InferencePlan:
    """The batch-independent operands of :meth:`MADEModel.conditional_probs`."""

    parameters: list[nn.Parameter]
    stamp: tuple[int, ...]  # the parameters' versions when the plan was built
    tables: list[np.ndarray]  # per input column: T_c of ``_first_hidden``
    first_bias: np.ndarray | None
    hidden: list[tuple[np.ndarray, np.ndarray]]  # later layers: masked weight, bias
    outputs: list[tuple]  # per column: masked block, bias slice, C-ordered decode | None
    visible: list[list[int]]  # per column: the input columns before it, in ``order``


class MADEModel(AutoregressiveModel):
    """Masked multi-layer perceptron with grouped column blocks.

    Every matrix product in this model is *row-exact* (see
    :func:`repro.nn.autograd.rowwise_matmul_data`): an output row is a pure
    function of its input row, bit-identical for any batch composition.  That
    property is what lets the serving stack regroup rows freely — prefix
    deduplication in the progressive sampler, the conditional LRU cache and
    chunked dispatch all return the very bits of an unfused full-batch
    forward, so "drift 0.0" holds exactly rather than to round-off.

    :meth:`conditional_probs` only consumes a lazily built, immutable
    *inference plan*: what does not depend on the batch (per-column gather
    tables of the first layer, masked hidden weights, each column's masked
    output block and C-ordered embedding-decode operand) is built once per
    weight version and rebuilt by itself after an optimiser step or
    ``load_state_dict``.  A call reads only the columns the mask lets the
    requested block see and multiplies only that block; :meth:`forward_logits`
    computes its blocks by the same sliced products, so the two agree bit for
    bit (tests assert it).

    Parameters
    ----------
    table:
        Table whose joint distribution is being modelled (defines domains).
    hidden_sizes:
        Hidden-layer widths.
    embedding_threshold, embedding_dim:
        Encoding strategy thresholds, see :class:`TupleEncoder`.
    order:
        Autoregressive ordering of the columns (defaults to table order).
    seed:
        Weight-initialisation seed.
    """

    row_exact = True
    carries_prefix_sums = True

    def __init__(self, table: Table, hidden_sizes: tuple[int, ...] = (128, 128),
                 embedding_threshold: int = 64, embedding_dim: int = 64,
                 order: list[int] | None = None, seed: int = 0) -> None:
        super().__init__(table, order=order)
        rng = np.random.default_rng(seed)
        self.encoder = TupleEncoder(table, embedding_threshold=embedding_threshold,
                                    embedding_dim=embedding_dim, rng=rng)
        self.hidden_sizes = tuple(hidden_sizes)

        input_widths = self.encoder.input_widths
        output_widths = self.encoder.output_widths
        # Degree of column c = 1 + its position in the autoregressive order.
        position = {column: index for index, column in enumerate(self.order)}
        column_degrees = [position[column] + 1 for column in range(self.num_columns)]

        input_degrees = _degrees_for_blocks(input_widths, column_degrees)
        output_degrees = _degrees_for_blocks(output_widths, column_degrees)

        max_hidden_degree = max(1, self.num_columns - 1)
        self.layers: list[nn.MaskedLinear] = []
        previous_degrees = input_degrees
        previous_width = sum(input_widths)
        for width in self.hidden_sizes:
            layer = nn.MaskedLinear(previous_width, width, rng=rng)
            hidden_degrees = (np.arange(width) % max_hidden_degree) + 1
            mask = (hidden_degrees[None, :] >= previous_degrees[:, None]).astype(float)
            layer.set_mask(mask)
            self.layers.append(layer)
            previous_degrees = hidden_degrees
            previous_width = width

        self.output_layer = nn.MaskedLinear(previous_width, sum(output_widths), rng=rng)
        output_mask = (output_degrees[None, :] > previous_degrees[:, None]).astype(float)
        self.output_layer.set_mask(output_mask)
        self._output_slices = self._block_slices(output_widths)
        self._input_slices = self._block_slices(input_widths)

    @staticmethod
    def _block_slices(widths: list[int]) -> list[slice]:
        slices = []
        offset = 0
        for width in widths:
            slices.append(slice(offset, offset + width))
            offset += width
        return slices

    def _first_hidden(self, codes: np.ndarray) -> nn.Tensor:
        """First hidden activations computed as per-column table lookups.

        The first layer's input is a concatenation of per-column blocks that
        are each a pure function of one column's code (a one-hot vector or an
        embedding row), so its pre-activation decomposes into a sum of
        per-column contributions::

            h_pre[row] = sum_c T_c[codes[row, c]] + b,
            T_c = E_c @ W_c          (embedded columns)
            T_c = masked W rows of c (one-hot columns)

        The sum runs left to right in autoregressive order (``self.order``),
        so the sum over a prefix's columns is a partial sum of the full one —
        the running sum :meth:`conditional_probs` extends one column at a time.

        Each table ``T_c`` is a small ``(|A_c|, hidden)`` matrix that does not
        depend on the batch at all, and the per-row work collapses to one row
        gather per column plus elementwise adds — no wide matmul, no one-hot
        materialisation.  Gathers and elementwise sums are trivially
        row-exact, so this preserves the model's bit-exact regrouping
        guarantee while replacing its single most expensive product.

        The whole layer is one graph node.  Its vjp masks the upstream
        gradient by the ReLU, sums it over rows into the bias, scatter-adds it
        into one zero buffer per table and takes each buffer back through the
        table's construction: ``* M`` into ``W``'s rows of a one-hot column,
        the two matmul gradients of ``E_c @ W_c`` for an embedded one — the
        arithmetic of the composed gather/add/slice/mask graph, in its order,
        so trained weights keep their bits.
        """
        layer = self.layers[0]
        weight, bias, mask = layer.weight, layer.bias, layer.mask
        embeddings = self.encoder.embeddings
        slices = self._input_slices
        masked, tables = self._first_layer_tables()
        first, *rest = self.order
        pre = tables[first][codes[:, first]]
        for index in rest:
            np.add(pre, tables[index][codes[:, index]], out=pre)
        np.add(pre, bias.data, out=pre)
        active = pre > 0
        value = np.multiply(pre, active, out=pre)

        def backward(out: nn.Tensor) -> None:
            grad = out.grad * active
            if bias.requires_grad:
                bias._accumulate(grad.sum(axis=0))
            for index, (block, embedding) in enumerate(zip(slices, embeddings)):
                table_grad = scatter_add_rows(tables[index].shape, codes[:, index], grad)
                if embedding is not None:
                    if embedding.weight.requires_grad:
                        embedding.weight._accumulate(table_grad @ masked[block].T)
                    table_grad = embedding.weight.data.T @ table_grad
                if weight.requires_grad:
                    weight._grad_buffer()[block] += table_grad * mask[block]

        parents = [weight, bias] + [embedding.weight for embedding in embeddings
                                    if embedding is not None]
        return nn.Tensor._make(value, parents, backward)

    def _first_layer_tables(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """The first layer's masked weight and its per-input-column tables ``T_c``."""
        first = self.layers[0]
        masked = first.weight.data * first.mask
        return masked, [masked[block] if embedding is None
                        else embedding.weight.data @ masked[block]
                        for block, embedding in zip(self._input_slices,
                                                    self.encoder.embeddings)]

    def forward_logits(self, codes: np.ndarray) -> list[nn.Tensor]:
        codes = np.asarray(codes, dtype=np.int64)
        if self.layers:
            hidden = self._first_hidden(codes)
            for layer in self.layers[1:]:
                hidden = layer(hidden).relu()
        else:
            hidden = self.encoder(codes)
        # The output layer is applied one column block at a time: each block's
        # logits are the product with that block's weight columns alone, the
        # same sliced computation the conditional_probs fast path performs —
        # so sliced and full forwards agree bit for bit by construction.
        out = self.output_layer
        logits = []
        for index, block in enumerate(self._output_slices):
            block_out = nn.masked_linear(hidden, out.weight, out.mask, out.bias,
                                         columns=block)
            logits.append(self.encoder.decode_logits(index, block_out,
                                                     row_exact=True))
        return logits

    # -- fused serving path -------------------------------------------- #
    _plan: _InferencePlan | None = None

    def __getstate__(self) -> dict:
        """Drop the plan: it is derived state, so copies and pickles rebuild it."""
        state = self.__dict__.copy()
        state.pop("_plan", None)
        return state

    def _inference_plan(self) -> _InferencePlan:
        """The plan for the current weights, rebuilt if any of them changed.

        Every public write to a parameter bumps its ``version``, so comparing
        stamps is the whole staleness check.  The stamp is read before the
        data and the plan is published by one assignment: racing builders
        store equal plans, and one that raced a write is redone next call.
        """
        plan = self._plan
        if plan is not None and plan.stamp == tuple(
                [param.version for param in plan.parameters]):
            return plan
        parameters = self.parameters()
        stamp = tuple([param.version for param in parameters])
        embeddings = self.encoder.embeddings
        tables, first_bias, hidden = [], None, []
        if self.layers:
            tables = self._first_layer_tables()[1]
            first_bias = self.layers[0].bias.data
            hidden = [(layer.weight.data * layer.mask, layer.bias.data)
                      for layer in self.layers[1:]]
        out = self.output_layer
        outputs = [(out.weight.data[:, block] * out.mask[:, block],
                    out.bias.data[block],
                    None if embedding is None
                    else np.ascontiguousarray(embedding.weight.data.T))
                   for block, embedding in zip(self._output_slices, embeddings)]
        visible = [self.order[:self.order.index(column)]
                   for column in range(self.num_columns)]
        self._plan = plan = _InferencePlan(parameters, stamp, tables, first_bias,
                                           hidden, outputs, visible)
        return plan

    def _encode_data(self, codes: np.ndarray, visible: list[int]) -> np.ndarray:
        """Raw-numpy ``self.encoder(codes)`` with the invisible blocks left zero."""
        blocks = [np.zeros((codes.shape[0], width)) for width in self.encoder.input_widths]
        for index in visible:
            embedding = self.encoder.embeddings[index]
            if embedding is None:
                blocks[index][np.arange(codes.shape[0]), codes[:, index]] = 1.0
            else:
                blocks[index] = embedding.weight.data[codes[:, index]]
        return np.concatenate(blocks, axis=1)

    def conditional_probs(self, column_index: int, codes: np.ndarray, *,
                          carry: PrefixSums | None = None) -> np.ndarray:
        """Column-sliced fast path over the inference plan.

        Mirrors :meth:`forward_logits` in raw numpy on operands built once per
        weight version (:meth:`_inference_plan`), with two cuts.  Only the
        requested column's output block is multiplied and decoded: per-element
        dot products are independent, so slicing changes no bit.  And only the
        columns *before* ``column_index`` in ``order`` are read, summed left to
        right in that order like the full pass: a dropped column's table is
        ``±0.0`` on every hidden unit that reaches the block (its mask is zero
        there), adding ``±0.0`` changes no value, and the units it would have
        changed meet only masked-zero weights on the way to the block.  At most
        the sign of a zero differs upstream and the softmax maps both zeros to
        the same bits, so the result is bit-identical to
        :meth:`conditional_probs_unfused`; every product is row-exact, so the
        base class's batch contract holds exactly.

        With a ``carry`` (:class:`PrefixSums`) holding the previous position's
        sums, the call adds only the newest column's table row to each row's
        parent sum — the very addends of the full sum, in its order, so the
        same bits — and leaves its own sums in the carry for the next position.
        Without one it sums every visible column and keeps nothing.
        """
        codes = np.asarray(codes, dtype=np.int64)
        rows = codes.shape[0]
        if rows == 0:
            return np.empty((0, self.domain_sizes_list[column_index]))
        plan = self._inference_plan()
        visible = plan.visible[column_index]
        if self.layers:
            total: np.ndarray | None = None
            if carry is not None and carry.sums is not None:
                # Each row's parent prefix's sum; only the newest column is left.
                parents = carry.sums
                total = parents if parents.ndim == 1 else parents[carry.parent]
                visible = visible[-1:]
            for index in visible:
                column_codes = codes[:, index]
                if (column_codes == column_codes[0]).all():
                    # Shared code (an equality predicate, a single row): one
                    # broadcast row adds the very addends of the full gather.
                    contribution = plan.tables[index][column_codes[0]]
                else:
                    contribution = plan.tables[index][column_codes]
                total = contribution if total is None else _add(total, contribution)
            if carry is not None:
                # The sums stay the next position's parents: the bias goes
                # into a new array.
                carry.sums = total
                pre = plan.first_bias if total is None else total + plan.first_bias
            else:
                pre = plan.first_bias if total is None else _add(total, plan.first_bias)
            if pre.ndim == 1:
                pre = np.broadcast_to(pre, (rows, pre.size))
                hidden = pre * (pre > 0)
            else:
                hidden = np.multiply(pre, pre > 0, out=pre)
            for weight, bias in plan.hidden:
                pre = rowwise_matmul_data(hidden, weight)
                np.add(pre, bias, out=pre)
                hidden = np.multiply(pre, pre > 0, out=pre)
        else:
            hidden = self._encode_data(codes, visible)
        weight, bias, decode = plan.outputs[column_index]
        logits = rowwise_matmul_data(hidden, weight)
        np.add(logits, bias, out=logits)
        if decode is not None:
            logits = rowwise_matmul_data(logits, decode)
        np.subtract(logits, logits.max(axis=-1, keepdims=True), out=logits)
        log_probs = np.subtract(
            logits, np.log(np.exp(logits).sum(axis=-1, keepdims=True)),
            out=logits)
        return np.exp(log_probs, out=log_probs)
