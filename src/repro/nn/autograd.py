"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the lowest layer of the neural-network substrate used by the
Naru reproduction.  The paper's reference implementation relies on PyTorch;
this environment has no deep-learning framework installed, so we provide a
small, well-tested tensor engine with exactly the operations the estimator
needs: broadcasting arithmetic, matrix products, ReLU, log/exp, reductions,
stable ``log_softmax`` (and its fused one-entry-per-row pick, the loss), row
gathering for embeddings, and concatenation.

The design follows the classic tape-based approach, and the graph is acyclic:
every operation returns a new :class:`Tensor` that holds its forward value,
its parents and a vjp closure; the closure holds the parents and whatever
forward values it needs, and is *handed* the node whose gradient it spreads —
nothing refers to itself or to a child.  :meth:`Tensor.backward` topologically
sorts the graph and calls the vjps in reverse order; once the last reference
to the result (the loss) goes, the whole graph is freed by reference count.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "rowwise_matmul_data", "masked_linear",
           "scatter_add_rows"]

_GRAD_ENABLED = True
_TILE = 16  # rows per gemm: 8, 16 and 32 measured row-exact, 64 not


def _tile_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as a stack of ``(_TILE, k) @ (k, n)`` gemms, the last one zero-padded."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    (rows, k), n = a.shape, b.shape[1]
    full = rows - rows % _TILE
    out = np.empty((rows, n))
    np.matmul(a[:full].reshape(-1, _TILE, k), b, out=out[:full].reshape(-1, _TILE, n))
    if full < rows:
        tail = np.zeros((_TILE, k))
        tail[:rows - full] = a[full:]
        out[full:] = (tail @ b)[:rows - full]
    return out


def _gufunc_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as one standalone ``(1, k) @ (k, n)`` product (a gemv) per row."""
    b = np.ascontiguousarray(b, dtype=np.float64)
    return np.matmul(a[:, None, :], np.broadcast_to(b, (a.shape[0],) + b.shape))[:, 0, :]


def _tile_self_check(kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> bool:
    """Whether ``kernel``'s rows are bit-identical for any batch composition:
    on four model shapes, the batch permuted, ``b`` handed over F-ordered, and
    single rows at and beside the tile edges."""
    rng = np.random.default_rng(0)
    singles = [0, 1, 15, 16, 17, 31, 32, 36]
    for k, n in ((64, 64), (64, 391), (64, 73), (16, 59)):
        a, b = rng.normal(size=(37, k)), rng.normal(size=(k, n))
        full, order = kernel(a, b), rng.permutation(37)
        alone = np.concatenate([kernel(a[row:row + 1], b) for row in singles])
        if not (np.array_equal(kernel(a[order], b), full[order])
                and np.array_equal(kernel(a, np.asfortranarray(b)), full)
                and np.array_equal(alone, full[singles])):
            return False
    return True


_TILE_EXACT = _tile_self_check(_tile_matmul)


def rowwise_matmul_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with every output row a pure function of its input row (row-exact).

    BLAS gemm kernels pick different instruction blockings for different
    batch sizes, so ``(a @ b)[rows]`` and ``a[rows] @ b`` can disagree in the
    last ulp — which breaks any scheme that evaluates a *subset* of rows and
    expects the bits of the full evaluation (prefix deduplication, the
    conditional LRU cache, chunked dispatch).  So the batch size never reaches
    BLAS: ``a`` is cut into tiles of ``_TILE`` = 16 rows, the full tiles run
    as one batched :func:`numpy.matmul` and the ragged tail as one more tile
    padded with zero rows.  Every gemm is then the same ``(16, k) @ (k, n)``
    call, in which a row's dot products depend neither on its slot in the
    tile nor on the other rows.  On OpenBLAS that holds under two measured
    conditions: ``b`` is made C-contiguous (with the F-ordered
    ``embedding.weight.T`` of the embedding decode, 40 of 200 sampled rows at
    16×64·64×391 depended on their slot), and the tile is small (8, 16 and 32
    rows were exact on every model shape, 64 was not).  A BLAS may behave
    otherwise, so an import-time self-check (:func:`_tile_self_check`,
    ≈ 2 ms) tries the kernel on four model shapes; if it fails, every row is
    one standalone ``(1, k) @ (k, n)`` gufunc product (a gemv) instead —
    slower, never wrong; ``b`` is made C-contiguous there too, because a
    gemv's bits depend on the layout as well (F against C: 10 994 of 14 467
    entries differ at 37×64·64×391).  Cost, one BLAS thread: gemm speed at
    the model's shapes (297×64·64×391: 0.24 ms against the gufunc's 1.05;
    4000×64·64×142: 1.2 against 5.1 ms), but a single row pays for a padded
    tile (64×391: 0.036 against 0.014 ms).
    """
    return _tile_matmul(a, b) if _TILE_EXACT else _gufunc_matmul(a, b)


class no_grad:
    """Context manager that disables graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got Tensor")
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A NumPy array with an optional gradient and autodiff history.

    Parameters
    ----------
    data:
        Array-like forward value.  Stored as ``float64`` for numerical
        robustness (the models here are small, so memory is not a concern).
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[Tensor], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        """Return the forward value as a NumPy array (shared, do not mutate)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() only works on single-element tensors")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------ #
    # Graph plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[["Tensor"], None] | None) -> "Tensor":
        """Create a result tensor wired into the graph if grad is enabled."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires and backward is not None:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # One pass, the bits of ``zeros += grad`` (sign of zero included),
            # and always a fresh array: ``grad`` may be a view of a child's.
            self.grad = grad + 0.0
        else:
            self.grad += grad

    def _grad_buffer(self) -> np.ndarray:
        """``self.grad``, zeroed on first use, for a vjp that adds into a part of it."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        self._accumulate(np.broadcast_to(np.asarray(grad, dtype=np.float64), self.shape))

        # Topological order via iterative DFS (avoids recursion limits).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(out: Tensor) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad, b.shape))

        return self._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def backward(out: Tensor) -> None:
            a._accumulate(-out.grad)

        return self._make(-a.data, (a,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(out: Tensor) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad * a.data, b.shape))

        return self._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("only scalar exponents are supported")
        a = self
        value = a.data ** exponent

        def backward(out: Tensor) -> None:
            a._accumulate(out.grad * exponent * a.data ** (exponent - 1.0))

        return self._make(value, (a,), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(out: Tensor) -> None:
            if a.requires_grad:
                a._accumulate(out.grad @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ out.grad)

        return self._make(a.data @ b.data, (a, b), backward)

    __matmul__ = matmul

    def rowwise_matmul(self, other: "Tensor") -> "Tensor":
        """Row-exact matrix product, see :func:`rowwise_matmul_data`.

        Forward values are bit-identical for any grouping of the rows of
        ``self`` (unlike :meth:`matmul`, whose BLAS kernel rounds differently
        per batch size); gradients are the ordinary matmul gradients.
        """
        other = self._coerce(other)
        a, b = self, other

        def backward(out: Tensor) -> None:
            if a.requires_grad:
                a._accumulate(out.grad @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ out.grad)

        return self._make(rowwise_matmul_data(a.data, b.data), (a, b), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0

        def backward(out: Tensor) -> None:
            a._accumulate(out.grad * mask)

        return self._make(a.data * mask, (a,), backward)

    def exp(self) -> "Tensor":
        a = self
        value = np.exp(a.data)

        def backward(out: Tensor) -> None:
            a._accumulate(out.grad * value)

        return self._make(value, (a,), backward)

    def log(self) -> "Tensor":
        a = self

        def backward(out: Tensor) -> None:
            a._accumulate(out.grad / a.data)

        return self._make(np.log(a.data), (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        value = np.tanh(a.data)

        def backward(out: Tensor) -> None:
            a._accumulate(out.grad * (1.0 - value ** 2))

        return self._make(value, (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        value = 1.0 / (1.0 + np.exp(-a.data))

        def backward(out: Tensor) -> None:
            a._accumulate(out.grad * value * (1.0 - value))

        return self._make(value, (a,), backward)

    # ------------------------------------------------------------------ #
    # Reductions and shape ops
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        a = self
        value = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            a._accumulate(np.broadcast_to(grad, a.shape))

        return self._make(value, (a,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None,
             keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        original = a.shape

        def backward(out: Tensor) -> None:
            a._accumulate(out.grad.reshape(original))

        return self._make(a.data.reshape(shape), (a,), backward)

    def transpose(self) -> "Tensor":
        a = self

        def backward(out: Tensor) -> None:
            a._accumulate(out.grad.T)

        return self._make(a.data.T, (a,), backward)

    def __getitem__(self, key) -> "Tensor":
        a = self

        def backward(out: Tensor) -> None:
            # A basic index (slices, ints, None, ...) names every element once.
            if all(item is None or item is Ellipsis
                   or isinstance(item, (slice, int, np.integer))
                   for item in (key if isinstance(key, tuple) else (key,))):
                a._grad_buffer()[key] += out.grad
            else:
                grad = np.zeros_like(a.data)
                np.add.at(grad, key, out.grad)
                a._accumulate(grad)

        return self._make(a.data[key], (a,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row lookup (embedding gather): ``out[j] = self[indices[j]]``."""
        a = self
        idx = np.asarray(indices, dtype=np.int64)

        def backward(out: Tensor) -> None:
            a._accumulate(scatter_add_rows(a.shape, idx, out.grad))

        return self._make(a.data[idx], (a,), backward)

    def gather(self, indices: np.ndarray) -> "Tensor":
        """Pick one element per row: ``out[j] = self[j, indices[j]]``."""
        a = self
        idx = np.asarray(indices, dtype=np.int64)
        rows = np.arange(a.shape[0])

        def backward(out: Tensor) -> None:
            a._grad_buffer()[rows, idx] += out.grad  # (row, idx) pairs are unique

        return self._make(a.data[rows, idx], (a,), backward)

    # ------------------------------------------------------------------ #
    # Softmax family (numerically stable, fused backward)
    # ------------------------------------------------------------------ #
    def log_softmax(self, axis: int = -1) -> "Tensor":
        a = self
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        value = shifted - log_norm

        def backward(out: Tensor) -> None:
            grad = out.grad - np.exp(out.data) * out.grad.sum(axis=axis, keepdims=True)
            a._accumulate(grad)

        return self._make(value, (a,), backward)

    def log_softmax_pick(self, indices: np.ndarray) -> "Tensor":
        """``self.log_softmax(axis=-1).gather(indices)`` as one node, with its bits.

        The forward pass normalises as :meth:`log_softmax` does but subtracts
        the normaliser only at the picked entries, so the full log-softmax
        matrix is never built.  The vjp forms ``-(exp(shifted - log_norm) * g)``
        and adds ``g`` at ``(row, indices[row])``: per element the composed
        pair's ``B - exp(value) * B.sum(-1)``, with ``B`` gather's one-hot
        buffer, except that its ``0 - p*g`` is ``+0.0`` where this is
        ``-0.0`` — a sign that :meth:`_accumulate`'s ``+ 0.0`` erases.
        """
        a = self
        idx = np.asarray(indices, dtype=np.int64)
        rows = np.arange(a.shape[0])
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

        def backward(out: Tensor) -> None:
            grad = np.subtract(shifted, log_norm)
            np.exp(grad, out=grad)
            np.multiply(grad, out.grad[:, None], out=grad)
            np.negative(grad, out=grad)
            grad[rows, idx] += out.grad
            a._accumulate(grad)

        return self._make(shifted[rows, idx] - log_norm[:, 0], (a,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        return self.log_softmax(axis=axis).exp()

    # ------------------------------------------------------------------ #
    # Structural ops
    # ------------------------------------------------------------------ #
    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        sizes = [t.shape[axis] for t in tensors]
        value = np.concatenate([t.data for t in tensors], axis=axis)

        def backward(out: Tensor) -> None:
            offset = 0
            for tensor, size in zip(tensors, sizes):
                slicer = [slice(None)] * out.grad.ndim
                slicer[axis] = slice(offset, offset + size)
                tensor._accumulate(out.grad[tuple(slicer)])
                offset += size

        return Tensor._make(value, tensors, backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor equal to ``self`` where ``mask`` is False, else ``value``."""
        a = self
        mask = np.asarray(mask, dtype=bool)
        out_value = np.where(mask, value, a.data)

        def backward(out: Tensor) -> None:
            a._accumulate(np.where(mask, 0.0, out.grad))

        return self._make(out_value, (a,), backward)


def scatter_add_rows(shape: tuple[int, ...], indices: np.ndarray,
                     grad: np.ndarray) -> np.ndarray:
    """The vjp of a row gather: zeros of ``shape`` with ``grad[j]`` added at row ``indices[j]``.

    One flat 1-D scatter-add: a row's elements are consecutive flat
    positions, and every position still gets its addends in row order.
    """
    total = np.zeros(shape)
    width = int(np.prod(shape[1:]))
    flat = np.asarray(indices, dtype=np.int64).reshape(-1, 1) * width + np.arange(width)
    np.add.at(total.reshape(-1), flat.reshape(-1), grad.reshape(-1))
    return total


def masked_linear(x: Tensor, weight: Tensor, mask: np.ndarray, bias: Tensor | None,
                  columns: slice | None = None) -> Tensor:
    """``x.rowwise_matmul(weight[:, columns] * mask[:, columns]) + bias[columns]``, fused.

    One node instead of five (two slices, mask product, product, bias add),
    with the composed graph's bits: the vjp forms the same masked weight
    gradient and bias row sum and adds them straight into the parameters'
    gradient slices.  What it skips are additions of ``+0.0``, and no
    gradient buffer ever holds ``-0.0`` (each starts as zeros or ``grad + 0.0``).
    """
    columns = slice(None) if columns is None else columns
    block_mask = mask[:, columns]
    masked = weight.data[:, columns] * block_mask
    value = rowwise_matmul_data(x.data, masked)
    if bias is not None:
        value += bias.data[columns]

    def backward(out: Tensor) -> None:
        if weight.requires_grad:
            weight._grad_buffer()[:, columns] += (x.data.T @ out.grad) * block_mask
        if bias is not None and bias.requires_grad:
            bias._grad_buffer()[columns] += out.grad.sum(axis=0)
        if x.requires_grad:
            x._accumulate(out.grad @ masked.T)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(value, parents, backward)


def concatenate(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Module-level alias of :meth:`Tensor.concatenate`."""
    return Tensor.concatenate(tensors, axis=axis)
