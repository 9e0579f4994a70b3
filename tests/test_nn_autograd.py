"""Unit and property tests for the autodiff engine (repro.nn.autograd).

Every differentiable operation is checked against numerical (finite
difference) gradients, plus broadcasting and graph-mechanics corner cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import MADEModel
from repro.data import ColumnSpec, make_correlated_table
from repro.nn import Tensor, autograd, concatenate, masked_linear, no_grad, rowwise_matmul_data


def numerical_gradient(function, value: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function."""
    gradient = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    flat_grad = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(value)
        flat[index] = original - epsilon
        lower = function(value)
        flat[index] = original
        flat_grad[index] = (upper - lower) / (2 * epsilon)
    return gradient


def check_gradient(build_loss, shape, seed=0, atol=1e-5):
    """Compare autodiff and numerical gradients of a scalar loss."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    tensor = Tensor(data.copy(), requires_grad=True)
    loss = build_loss(tensor)
    loss.backward()

    def scalar(value: np.ndarray) -> float:
        return build_loss(Tensor(value)).item()

    expected = numerical_gradient(scalar, data.copy())
    np.testing.assert_allclose(tensor.grad, expected, atol=atol)


class TestElementwiseGradients:
    def test_add_mul(self):
        check_gradient(lambda t: ((t * 3.0 + 1.5) * t).sum(), (4, 3))

    def test_sub_div(self):
        check_gradient(lambda t: ((t - 2.0) / 4.0).sum(), (5,))

    def test_pow(self):
        check_gradient(lambda t: (t ** 3.0).sum(), (3, 2), seed=2)

    def test_relu(self):
        check_gradient(lambda t: (t.relu() * 2.0).sum(), (6, 4))

    def test_exp_log(self):
        check_gradient(lambda t: ((t.exp() + 1.0).log()).sum(), (4, 4))

    def test_tanh(self):
        check_gradient(lambda t: t.tanh().sum(), (7,))

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid().sum(), (3, 5))

    def test_neg(self):
        check_gradient(lambda t: (-t).sum(), (2, 2))


class TestMatrixAndShapeGradients:
    def test_matmul(self):
        rng = np.random.default_rng(0)
        other = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t @ Tensor(other)).sum(), (5, 3))

    def test_matmul_right_operand(self):
        rng = np.random.default_rng(1)
        left = rng.normal(size=(4, 3))
        check_gradient(lambda t: (Tensor(left) @ t).sum(), (3, 6))

    def test_transpose(self):
        check_gradient(lambda t: (t.T @ t).sum(), (4, 2))

    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(6, 2) * 2.0).sum(), (3, 4))

    def test_getitem(self):
        check_gradient(lambda t: (t[1:3] * 3.0).sum(), (5, 2))

    def test_take_rows(self):
        indices = np.array([0, 2, 2, 1])
        check_gradient(lambda t: t.take_rows(indices).sum(), (3, 4))

    def test_gather(self):
        indices = np.array([1, 0, 2, 1])
        check_gradient(lambda t: t.gather(indices).sum(), (4, 3))

    def test_concatenate(self):
        rng = np.random.default_rng(3)
        other = rng.normal(size=(4, 2))
        check_gradient(
            lambda t: concatenate([t, Tensor(other)], axis=1).sum(), (4, 3))

    def test_masked_fill(self):
        mask = np.array([[True, False, False], [False, True, False]])
        check_gradient(lambda t: t.masked_fill(mask, 0.0).sum(), (2, 3))


class TestReductionsAndSoftmax:
    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2.0).sum(), (5, 3))

    def test_sum_keepdims(self):
        check_gradient(lambda t: (t - t.sum(axis=1, keepdims=True)).sum(), (4, 3))

    def test_mean(self):
        check_gradient(lambda t: (t.mean(axis=1) ** 2.0).sum(), (3, 4))

    def test_log_softmax_gradient(self):
        check_gradient(lambda t: t.log_softmax(axis=-1).gather(np.array([0, 1, 2])).sum(),
                       (3, 4))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        tensor = Tensor(rng.normal(size=(6, 9)) * 10)
        np.testing.assert_allclose(tensor.softmax(axis=-1).numpy().sum(axis=1),
                                   np.ones(6), atol=1e-12)

    def test_log_softmax_stability_with_large_logits(self):
        tensor = Tensor(np.array([[1e6, 1e6 - 1.0]]))
        result = tensor.log_softmax(axis=-1).numpy()
        assert np.all(np.isfinite(result))


class TestBroadcasting:
    def test_bias_broadcast(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(5, 3))
        check_gradient(lambda t: (Tensor(matrix) + t).sum(), (3,))

    def test_scalar_broadcast(self):
        check_gradient(lambda t: (t * 2.5 + 7.0).sum(), (1,))

    def test_column_broadcast(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(4, 3))
        check_gradient(lambda t: (Tensor(matrix) * t).sum(), (4, 1))


class TestGraphMechanics:
    def test_backward_requires_scalar_or_grad(self):
        tensor = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (tensor * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        tensor = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            tensor.backward()

    def test_grad_accumulates_across_backward_calls(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        (tensor * 2.0).sum().backward()
        (tensor * 2.0).sum().backward()
        np.testing.assert_allclose(tensor.grad, np.full(3, 4.0))

    def test_zero_grad(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        (tensor * 2.0).sum().backward()
        tensor.zero_grad()
        assert tensor.grad is None

    def test_no_grad_context(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            result = (tensor * 2.0).sum()
        assert not result.requires_grad

    def test_detach(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        assert not tensor.detach().requires_grad

    def test_reused_node_gets_correct_gradient(self):
        tensor = Tensor(np.array([2.0]), requires_grad=True)
        result = tensor * tensor + tensor
        result.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.array([5.0]))

    def test_item_and_shape(self):
        tensor = Tensor(np.array([[3.5]]))
        assert tensor.item() == pytest.approx(3.5)
        assert tensor.shape == (1, 1)
        assert tensor.ndim == 2
        assert len(tensor) == 1


class TestPropertyBased:
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_distribution(self, values):
        tensor = Tensor(np.array([values]))
        probs = tensor.softmax(axis=-1).numpy()
        assert probs.min() >= 0
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_matmul_shape(self, rows, cols):
        left = Tensor(np.ones((rows, 3)))
        right = Tensor(np.ones((3, cols)))
        assert (left @ right).shape == (rows, cols)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_sum_matches_numpy(self, values):
        array = np.array(values)
        assert Tensor(array).sum().item() == pytest.approx(array.sum(), rel=1e-9)


# --------------------------------------------------------------------- #
# Bit-exactness of the hand-written backward code
# --------------------------------------------------------------------- #
def signed_values(seed: int, shape) -> np.ndarray:
    """Normal draws with about a third of the entries replaced by ``±0.0``."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)
    zeros = rng.choice([0.0, -0.0], size=shape)
    return np.where(rng.random(size=shape) < 0.3, zeros, values)


def same_bits(actual: np.ndarray, expected: np.ndarray) -> bool:
    """Equal shape and equal bytes: ``array_equal`` plus the sign of every zero."""
    return (actual.shape == expected.shape and np.array_equal(actual, expected)
            and np.array_equal(np.signbit(actual), np.signbit(expected)))


def scatter_reference(shape, key, upstreams) -> np.ndarray:
    """What the tape computed before: one plain ``np.add.at`` buffer per write."""
    total = np.zeros(shape)
    for upstream in upstreams:
        buffer = np.zeros(shape)
        np.add.at(buffer, key, upstream)
        total += buffer
    return total


def graph_nodes(root: Tensor) -> list[Tensor]:
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def composed_log_softmax_pick(logits: Tensor, indices: np.ndarray) -> Tensor:
    """What :meth:`Tensor.log_softmax_pick` fuses: the full log-softmax, then a gather."""
    return logits.log_softmax(axis=-1).gather(indices)


def composed_first_hidden(model: MADEModel, codes: np.ndarray) -> Tensor:
    """What ``MADEModel._first_hidden`` fuses: gathers, adds, slices and a mask product."""
    layer = model.layers[0]
    masked = layer.weight * Tensor(layer.mask)
    total = None
    for index, embedding in enumerate(model.encoder.embeddings):
        block = masked[model._input_slices[index]]
        if embedding is not None:
            block = embedding.weight @ block
        contribution = block.take_rows(codes[:, index])
        total = contribution if total is None else total + contribution
    return (total + layer.bias).relu()


def composed_nll(model, codes: np.ndarray) -> Tensor:
    """``AutoregressiveModel.nll`` over the composed log-softmax and gather."""
    codes = np.asarray(codes, dtype=np.int64)
    total = None
    for index, column_logits in enumerate(model.forward_logits(codes)):
        picked = composed_log_softmax_pick(column_logits, codes[:, index])
        total = picked if total is None else total + picked
    return -total.mean()


seeds = st.integers(0, 2 ** 32 - 1)

# Domains of 5, 15, 2 and 7 values: one-hot or embedded by the threshold.  (The
# last column in the order reaches no hidden unit; three others do.)
FIRST_LAYER_TABLE = make_correlated_table(
    [ColumnSpec("small", 5), ColumnSpec("large", 120, "ordinal"), ColumnSpec("tiny", 2),
     ColumnSpec("mid", 7)], num_rows=50, seed=3)

GETITEM_KEYS = [
    slice(1, 4), slice(None, None, 2), slice(4, 0, -2), -1, 2, None, Ellipsis,
    (slice(None), slice(1, None, 3)), (1, slice(None)), (-2, -1), (Ellipsis, 0),
    (slice(0, 2), None, slice(None)), (None, Ellipsis, -1), np.int64(3),
    # Not basic: these must take (and exercise) the generic np.add.at path.
    np.array([0, 0, 2, 0]), [1, 1, 4], np.array([-1, 0, -1]),
    (np.array([0, 1, 1, 1]), np.array([2, 3, 3, 3])),
    (slice(None), np.array([1, 1, 0])), (np.array([2, 2]), slice(1, 3)),
    np.array([True, False, True, True, False]),
    np.arange(30).reshape(5, 6) % 3 == 0, np.zeros(5, dtype=bool),
]


class TestBackwardBitExactness:
    @given(st.integers(1, 7), st.integers(1, 5),
           st.lists(st.integers(-7, 6), max_size=40), seeds)
    @settings(max_examples=120, deadline=None)
    def test_take_rows(self, rows, width, indices, seed):
        idx = np.array([index % rows for index in indices], dtype=np.int64)
        idx[::2] -= rows * (idx[::2] > 0)  # negative spellings of the same rows
        table = Tensor(signed_values(seed, (rows, width)), requires_grad=True)
        upstreams = [signed_values(seed + step, (idx.size, width)) for step in (1, 2)]
        for upstream in upstreams:  # a first write and a later one
            table.take_rows(idx).backward(upstream)
        assert same_bits(table.grad, scatter_reference(table.shape, idx, upstreams))

    @pytest.mark.parametrize("indices", [[], [3], [2] * 9, [0, 5, 0, 5, 5, 1]])
    def test_take_rows_corner_indices(self, indices):
        idx = np.array(indices, dtype=np.int64)
        table = Tensor(signed_values(0, (6, 4)), requires_grad=True)
        upstream = signed_values(1, (idx.size, 4))
        table.take_rows(idx).backward(upstream)
        assert same_bits(table.grad, scatter_reference(table.shape, idx, [upstream]))

    def test_take_rows_of_a_cube_with_a_matrix_of_indices(self):
        idx = np.array([[0, 2, 2], [1, 2, 0]])
        cube = Tensor(signed_values(0, (3, 2, 4)), requires_grad=True)
        upstream = signed_values(1, (2, 3, 2, 4))
        cube.take_rows(idx).backward(upstream)
        assert same_bits(cube.grad, scatter_reference(cube.shape, idx, [upstream]))

    @pytest.mark.parametrize("key", GETITEM_KEYS, ids=repr)
    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_getitem(self, key, seed):
        matrix = Tensor(signed_values(seed, (5, 6)), requires_grad=True)
        shape = matrix.data[key].shape
        upstreams = [signed_values(seed + step, shape) for step in (1, 2)]
        for upstream in upstreams:
            matrix[key].backward(upstream)
        assert same_bits(matrix.grad, scatter_reference(matrix.shape, key, upstreams))

    @given(st.integers(1, 9), st.integers(1, 6), seeds)
    @settings(max_examples=60, deadline=None)
    def test_gather(self, rows, classes, seed):
        idx = np.random.default_rng(seed).integers(0, classes, size=rows)
        matrix = Tensor(signed_values(seed, (rows, classes)), requires_grad=True)
        upstreams = [signed_values(seed + step, (rows,)) for step in (1, 2)]
        for upstream in upstreams:
            matrix.gather(idx).backward(upstream)
        assert same_bits(matrix.grad, scatter_reference(
            matrix.shape, (np.arange(rows), idx), upstreams))

    @given(st.integers(1, 9), st.integers(1, 6), st.sampled_from([1.0, 400.0]), seeds)
    @settings(max_examples=80, deadline=None)
    def test_log_softmax_pick(self, rows, classes, scale, seed):
        # scale 400: some probabilities underflow to 0.0, so -(p * g) is a zero.
        idx = np.random.default_rng(seed).integers(0, classes, size=rows)
        upstreams = [signed_values(seed + step, (rows,)) for step in (1, 2)]

        def run(pick):
            logits = Tensor(signed_values(seed, (rows, classes)) * scale, requires_grad=True)
            for upstream in upstreams:  # the second pass adds into a gradient that exists
                out = pick(logits, idx)
                out.backward(upstream)
            return out.data, logits.grad

        for actual, expected in zip(run(Tensor.log_softmax_pick),
                                    run(composed_log_softmax_pick)):
            assert same_bits(actual, expected)

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_cross_entropy_is_nll_of_log_softmax(self, seed):
        idx = np.random.default_rng(seed).integers(0, 6, size=9)

        def run(loss):
            logits = Tensor(signed_values(seed, (9, 6)) * 30.0, requires_grad=True)
            for _ in range(2):
                out = loss(logits)
                out.backward()
            return out.data, logits.grad

        fused = run(lambda logits: nn.cross_entropy(logits, idx))
        composed = run(lambda logits: nn.nll_loss(logits.log_softmax(axis=-1), idx))
        for actual, expected in zip(fused, composed):
            assert same_bits(actual, expected)

    @pytest.mark.parametrize("threshold, embedded", [(3, 3), (10, 1), (200, 0)],
                             ids=["two-embedded", "one-embedded", "all-one-hot"])
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_made_first_hidden(self, threshold, embedded, seed):
        rng = np.random.default_rng(seed)
        codes = np.stack([rng.integers(0, size, 40)
                          for size in FIRST_LAYER_TABLE.domain_sizes], axis=1)
        codes[::3] = codes[1]  # every column repeats codes
        upstreams = [signed_values(seed + step, (40, 16)) for step in (1, 2)]

        def run(first_hidden):
            model = MADEModel(FIRST_LAYER_TABLE, hidden_sizes=(16,),
                              embedding_threshold=threshold, embedding_dim=8, seed=0)
            model.load_state_dict({name: signed_values(seed + 3 + index, value.shape)
                                   for index, (name, value)
                                   in enumerate(model.state_dict().items())})
            for upstream in upstreams:  # the second pass adds into gradients that exist
                out = first_hidden(model, codes)
                out.backward(upstream)
            return [out.data] + [param.grad for param in model.parameters()]

        fused, composed = run(MADEModel._first_hidden), run(composed_first_hidden)
        assert sum(grad is not None for grad in fused[1:]) == 2 + embedded  # W, b, E_c
        for actual, expected in zip(fused, composed):
            assert (actual is None and expected is None) or same_bits(actual, expected)

    @pytest.mark.parametrize("columns", [None, slice(0, 3), slice(3, 8), slice(8, 10)])
    @pytest.mark.parametrize("with_bias", [True, False])
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_masked_linear_matches_the_composed_primitives(self, columns, with_bias, seed):
        rng = np.random.default_rng(seed)
        mask = (rng.random((4, 10)) < 0.6).astype(float)
        width = mask[:, columns if columns else slice(None)].shape[1]
        upstream = signed_values(seed + 3, (7, width))

        def run(fused: bool):
            x = Tensor(signed_values(seed, (7, 4)), requires_grad=True)
            w = Tensor(signed_values(seed + 1, (4, 10)), requires_grad=True)
            b = Tensor(signed_values(seed + 2, (10,)), requires_grad=True)
            for _ in range(2):  # the second pass adds into gradients that exist
                if fused:
                    out = masked_linear(x, w, mask, b if with_bias else None, columns)
                elif columns is None:
                    out = x.rowwise_matmul(w * Tensor(mask))
                    out = out + b if with_bias else out
                else:
                    out = x.rowwise_matmul(w[:, columns] * Tensor(mask[:, columns]))
                    out = out + b[columns] if with_bias else out
                out.backward(upstream)
            return out.data, x.grad, w.grad, b.grad

        for actual, expected in zip(run(fused=True), run(fused=False)):
            assert (actual is None and expected is None) or same_bits(actual, expected)

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_masked_linear_blocks_accumulate_in_the_composed_order(self, seed):
        # MADE's output loop: every block reads one hidden tensor, whose
        # gradient is a float sum over the blocks — the order must not move.
        mask = (np.random.default_rng(seed).random((4, 10)) < 0.6).astype(float)
        blocks = [slice(0, 3), slice(3, 8), slice(8, 10)]
        upstream = signed_values(seed + 3, (7, 10))

        def run(fused: bool):
            x = Tensor(signed_values(seed, (7, 4)), requires_grad=True)
            w = Tensor(signed_values(seed + 1, (4, 10)), requires_grad=True)
            b = Tensor(signed_values(seed + 2, (10,)), requires_grad=True)
            hidden = x.relu()
            outs = [masked_linear(hidden, w, mask, b, block) if fused else
                    hidden.rowwise_matmul(w[:, block] * Tensor(mask[:, block])) + b[block]
                    for block in blocks]
            total = outs[0].sum(axis=1)
            for out in outs[1:]:
                total = total + out.sum(axis=1)
            concatenate(outs + [total.reshape(-1, 1)], axis=1).backward(
                np.concatenate([upstream, upstream[:, :1]], axis=1))
            return hidden.grad, x.grad, w.grad, b.grad

        for actual, expected in zip(run(fused=True), run(fused=False)):
            assert same_bits(actual, expected)

    def test_masked_linear_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        mask = (rng.random((4, 6)) < 0.6).astype(float)
        x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 6)), rng.normal(size=6)
        block = slice(2, 5)
        check_gradient(lambda t: (masked_linear(t, Tensor(w), mask, Tensor(b), block)
                                  ** 2.0).sum(), (5, 4))
        check_gradient(lambda t: (masked_linear(Tensor(x), t, mask, Tensor(b), block)
                                  ** 2.0).sum(), (4, 6))
        check_gradient(lambda t: (masked_linear(Tensor(x), Tensor(w), mask, t, block)
                                  ** 2.0).sum(), (6,))

    def test_masked_linear_skips_parents_without_grad(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w, b = Tensor(np.ones((3, 4))), Tensor(np.ones(4))
        masked_linear(x, w, np.ones((3, 4)), b).sum().backward()
        assert w.grad is None and b.grad is None
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 4.0))

    @pytest.mark.parametrize("build", [
        lambda x, c: x + c, lambda x, c: c + x, lambda x, c: x * c, lambda x, c: c * x,
        lambda x, c: x @ c, lambda x, c: c @ x,
        lambda x, c: x.rowwise_matmul(c), lambda x, c: c.rowwise_matmul(x),
    ], ids=["add", "radd", "mul", "rmul", "matmul", "rmatmul", "rowwise", "rrowwise"])
    def test_vjps_skip_parents_without_grad(self, build, monkeypatch):
        # Dropout's mask and architecture A's constant first input are such parents.
        handed = []
        accumulate = Tensor._accumulate
        monkeypatch.setattr(Tensor, "_accumulate",
                            lambda tensor, grad: handed.append(tensor) or accumulate(tensor, grad))
        x = Tensor(np.arange(9.0).reshape(3, 3), requires_grad=True)
        constant = Tensor(np.full((3, 3), 2.0))
        build(x, constant).sum().backward()
        assert handed and not any(tensor is constant for tensor in handed)
        assert constant.grad is None
        reference = Tensor(x.data, requires_grad=True)
        build(reference, Tensor(constant.data, requires_grad=True)).sum().backward()
        assert same_bits(x.grad, reference.grad)

    @pytest.mark.parametrize("build", [
        lambda x: x + x,
        lambda x: x.reshape(3, 4) + x.reshape(3, 4),
        lambda x: concatenate([x, x], axis=0),
        lambda x: x.T + x.T,
        lambda x: (x + x).sum(axis=0) + x.sum(axis=0),
    ], ids=["add", "reshape", "concatenate", "transpose", "sum"])
    def test_first_write_never_aliases_an_upstream_gradient(self, build):
        def two_passes(unshare: bool):
            x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
            out = build(x)
            upstream = np.arange(1.0, out.size + 1).reshape(out.shape)
            out.backward(upstream)
            nodes = graph_nodes(out)
            if unshare:  # the reference: no two gradients can be one buffer
                for node in nodes:
                    node.grad = node.grad.copy()
            # The second pass adds in place into every gradient of the graph.
            out.backward(upstream)
            return x.grad, [upstream] + [node.grad for node in nodes]

        actual, buffers = two_passes(unshare=False)
        expected, _ = two_passes(unshare=True)
        np.testing.assert_array_equal(actual, expected)
        for index, buffer in enumerate(buffers):
            for other in buffers[index + 1:]:
                assert not np.shares_memory(buffer, other)

    def test_log_softmax_does_not_exponentiate_without_a_graph(self, monkeypatch):
        calls = []
        real_exp = np.exp
        monkeypatch.setattr(np, "exp", lambda *a, **k: calls.append(1) or real_exp(*a, **k))
        with no_grad():
            Tensor(np.ones((2, 3)), requires_grad=True).log_softmax()
        assert len(calls) == 1  # the normaliser; the softmax is backward's business


# --------------------------------------------------------------------- #
# The row-exact matmul kernel
# --------------------------------------------------------------------- #
# Every (in, out) product the benchmark models hand the kernel: the hidden
# layers and output blocks of the 64- and 16-wide DMV and fleet models, and
# the embedding decodes 64 x |A|.
KERNEL_SHAPES = ([(k, n) for k in (16, 64)
                  for n in (2, 4, 5, 8, 9, 14, 16, 39, 59, 63, 64)]
                 + [(64, n) for n in (73, 142, 300, 391, 400)])


def gufunc_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One standalone ``(1, k) @ (k, n)`` product per row, ``b`` C-ordered."""
    b = np.ascontiguousarray(b)
    return np.stack([np.matmul(row[None, :], b)[0] for row in a])


class TestRowExactKernel:
    @given(shape=st.sampled_from(KERNEL_SHAPES), transposed=st.booleans(),
           rows=st.sampled_from([1, 15, 16, 17, 53, 297]), seed=seeds)
    @settings(max_examples=150, deadline=None)
    def test_a_row_has_the_same_bits_in_any_batch(self, shape, transposed, rows, seed):
        k, n = shape
        rng = np.random.default_rng(seed)
        a = signed_values(seed, (rows, k))
        # The embedding decode hands over ``weight.T``: an F-ordered view.
        b = rng.normal(size=(n, k)).T if transposed else rng.normal(size=(k, n))
        full = rowwise_matmul_data(a, b)
        assert same_bits(rowwise_matmul_data(a, np.asfortranarray(b)), full)
        # Any subset, in any order, with repeats...
        idx = rng.integers(0, rows, size=rng.integers(1, rows + 20))
        assert same_bits(rowwise_matmul_data(a[idx], b), full[idx])
        # ...and the same rows among other neighbours, in other tile slots.
        batch = signed_values(seed + 1, (idx.size + int(rng.integers(0, 40)), k))
        slots = rng.choice(len(batch), size=idx.size, replace=False)
        batch[slots] = a[idx]
        assert same_bits(rowwise_matmul_data(batch, b)[slots], full[idx])

    def test_self_check_rejects_a_position_dependent_kernel(self):
        def position_dependent(a, b):
            slot = np.arange(a.shape[0]) % autograd._TILE
            return autograd._tile_matmul(a, b) + slot[:, None] * 1e-12

        assert not autograd._tile_self_check(position_dependent)
        assert autograd._tile_self_check(autograd._gufunc_matmul)
        assert autograd._TILE_EXACT == autograd._tile_self_check(autograd._tile_matmul)

    def test_fallback_is_the_per_row_gufunc(self, monkeypatch):
        monkeypatch.setattr(autograd, "_TILE_EXACT", False)
        rng = np.random.default_rng(0)
        for rows, (k, n) in [(1, (64, 391)), (17, (16, 59)), (53, (64, 73))]:
            a, b = rng.normal(size=(rows, k)), rng.normal(size=(n, k)).T
            assert same_bits(rowwise_matmul_data(a, b), gufunc_reference(a, b))
