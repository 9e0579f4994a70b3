"""Tests for encoders, the MADE model, per-column networks and training.

The central invariant verified here is *autoregressiveness*: the model's
distribution for column ``i`` must not change when any column at or after
``i`` in the ordering changes — this is what makes the chain-rule
factorisation, and hence progressive sampling, valid.
"""

from __future__ import annotations

import copy
import gc
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import (
    ColumnNetworkModel,
    MADEModel,
    NaruConfig,
    NaruEstimator,
    Trainer,
    TupleEncoder,
    cross_entropy_bits,
    data_entropy_bits,
)
from repro.data import ColumnSpec, make_correlated_table, make_users
from repro.estimators import MSCNEstimator
from repro.query import WorkloadGenerator
from test_nn_autograd import composed_first_hidden, composed_nll, same_bits


@pytest.fixture(scope="module")
def embed_table():
    """A table with both small (one-hot) and large (embedding) domains."""
    specs = [
        ColumnSpec("small", 5, "categorical"),
        ColumnSpec("large", 120, "ordinal"),
        ColumnSpec("tiny", 2, "categorical"),
    ]
    return make_correlated_table(specs, num_rows=600, seed=3, name="embed")


class TestTupleEncoder:
    def test_encoding_strategy_selection(self, embed_table):
        encoder = TupleEncoder(embed_table, embedding_threshold=20, embedding_dim=16)
        small, large, tiny = embed_table.domain_sizes
        assert not encoder.codecs[0].use_embedding
        assert encoder.codecs[1].use_embedding
        assert encoder.input_widths == [small, 16, tiny]
        assert encoder.output_widths == [small, 16, tiny]

    def test_one_hot_encoding_values(self, embed_table):
        encoder = TupleEncoder(embed_table, embedding_threshold=20)
        block = encoder.encode_column(0, np.array([2, 0])).numpy()
        np.testing.assert_allclose(block.sum(axis=1), [1.0, 1.0])
        assert block[0, 2] == 1.0 and block[1, 0] == 1.0

    def test_embedding_encoding_shape(self, embed_table):
        encoder = TupleEncoder(embed_table, embedding_threshold=20, embedding_dim=16)
        block = encoder.encode_column(1, np.array([3, 7, 7])).numpy()
        assert block.shape == (3, 16)
        np.testing.assert_allclose(block[1], block[2])

    def test_forward_concatenates_all_columns(self, embed_table):
        encoder = TupleEncoder(embed_table, embedding_threshold=20, embedding_dim=16)
        codes = embed_table.encoded()[:4]
        assert encoder(codes).shape == (4, encoder.total_input_width)

    def test_embedding_reuse_decoding_shape(self, embed_table):
        from repro import nn

        encoder = TupleEncoder(embed_table, embedding_threshold=20, embedding_dim=16)
        feature = nn.Tensor(np.random.default_rng(0).normal(size=(4, 16)))
        logits = encoder.decode_logits(1, feature)
        assert logits.shape == (4, embed_table.column("large").domain_size)

    def test_direct_decoding_passthrough(self, embed_table):
        from repro import nn

        encoder = TupleEncoder(embed_table)
        block = nn.Tensor(np.zeros((2, 5)))
        assert encoder.decode_logits(0, block) is block


def _check_autoregressive(model, table, column_index):
    """Changing columns >= column_index must not change that column's output."""
    rng = np.random.default_rng(0)
    base = table.encoded()[:8].copy()
    perturbed = base.copy()
    position = model.order.index(column_index)
    for later in model.order[position:]:
        perturbed[:, later] = rng.integers(0, table.domain_sizes[later], size=8)
    base_probs = model.conditional_probs(column_index, base)
    perturbed_probs = model.conditional_probs(column_index, perturbed)
    assert np.array_equal(base_probs, perturbed_probs)


class TestMADEModel:
    def test_conditional_outputs_are_distributions(self, embed_table):
        model = MADEModel(embed_table, hidden_sizes=(32, 32), seed=0)
        codes = embed_table.encoded()[:16]
        for column in range(embed_table.num_columns):
            probs = model.conditional_probs(column, codes)
            assert probs.shape == (16, embed_table.domain_sizes[column])
            np.testing.assert_allclose(probs.sum(axis=1), np.ones(16), atol=1e-9)
            assert probs.min() >= 0.0

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_autoregressive_property_natural_order(self, embed_table, column):
        model = MADEModel(embed_table, hidden_sizes=(32, 32), seed=1)
        _check_autoregressive(model, embed_table, column)

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_autoregressive_property_custom_order(self, embed_table, column):
        model = MADEModel(embed_table, hidden_sizes=(32,), order=[2, 0, 1], seed=2)
        _check_autoregressive(model, embed_table, column)

    def test_first_column_in_order_is_unconditional(self, embed_table):
        model = MADEModel(embed_table, hidden_sizes=(32, 32), order=[1, 2, 0], seed=0)
        rng = np.random.default_rng(0)
        random_codes = np.stack([
            rng.integers(0, size, 12) for size in embed_table.domain_sizes
        ], axis=1)
        probs = model.conditional_probs(1, random_codes)
        # The first column in the order must produce the same (marginal)
        # distribution regardless of the input tuple — which is never read.
        assert np.array_equal(probs, np.broadcast_to(probs[0], probs.shape))

    def test_invalid_order_rejected(self, embed_table):
        with pytest.raises(ValueError):
            MADEModel(embed_table, order=[0, 0, 1])

    def test_log_prob_sums_conditionals(self, embed_table):
        model = MADEModel(embed_table, hidden_sizes=(16,), seed=0)
        codes = embed_table.encoded()[:5]
        expected = np.zeros(5)
        for column in range(embed_table.num_columns):
            probs = model.conditional_probs(column, codes)
            expected += np.log(probs[np.arange(5), codes[:, column]])
        np.testing.assert_allclose(model.log_prob(codes), expected, atol=1e-9)

    def test_nll_matches_log_prob(self, embed_table):
        model = MADEModel(embed_table, hidden_sizes=(16,), seed=0)
        codes = embed_table.encoded()[:32]
        nll = model.nll(codes).item()
        assert nll == pytest.approx(-model.log_prob(codes).mean(), rel=1e-6)


class TestFusedConditionalKernel:
    """Bit-exactness of the column-sliced serving fast path.

    The fused :meth:`MADEModel.conditional_probs` must return the *very bits*
    of the unfused reference (full forward, slice one column) — not merely
    values within tolerance — because the serving stack's prefix
    deduplication, caching and chunking all rely on regrouping rows freely.
    """

    @pytest.mark.parametrize("order", [None, [2, 0, 1]])
    def test_sliced_equals_full_forward_bitwise(self, embed_table, order):
        model = MADEModel(embed_table, hidden_sizes=(24, 24), order=order,
                          seed=4)
        codes = embed_table.encoded()[:48]
        for column in range(embed_table.num_columns):
            fused = model.conditional_probs(column, codes)
            reference = model.conditional_probs_unfused(column, codes)
            assert np.array_equal(fused, reference)

    def test_row_subsets_return_identical_bits(self, embed_table):
        # Row-exactness: evaluating any subset, in any order, with repeats,
        # returns exactly the rows of the full-batch result.
        model = MADEModel(embed_table, hidden_sizes=(24, 24), seed=4)
        codes = embed_table.encoded()[:48]
        full = model.conditional_probs(1, codes)
        subset = np.array([7, 3, 3, 47, 0, 21])
        assert np.array_equal(model.conditional_probs(1, codes[subset]),
                              full[subset])

    def test_shared_placeholder_columns_are_exact(self, embed_table):
        # Serving batches hold a shared placeholder (0) in every not-yet
        # sampled column; the kernel's broadcast shortcut for such constant
        # columns must not change a single bit.
        model = MADEModel(embed_table, hidden_sizes=(24, 24), seed=4)
        codes = embed_table.encoded()[:48].copy()
        codes[:, 2] = 0
        assert np.array_equal(model.conditional_probs(1, codes),
                              model.conditional_probs_unfused(1, codes))

    def test_no_hidden_layer_model_still_exact(self, embed_table):
        model = MADEModel(embed_table, hidden_sizes=(), seed=4)
        codes = embed_table.encoded()[:16]
        for column in range(embed_table.num_columns):
            assert np.array_equal(
                model.conditional_probs(column, codes),
                model.conditional_probs_unfused(column, codes))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_plan_grid_is_bit_exact(self, embed_table, data):
        """The inference plan's visibility argument, carried by examples:
        order x depth x codec kinds x batch size x arbitrary invisible codes,
        on weights that have moved (negative weights, ``-0.0`` in the masked
        tables, non-zero biases)."""
        order = list(data.draw(st.permutations(range(3)), label="order"))
        model = MADEModel(
            embed_table, order=order, embedding_dim=8, seed=5,
            hidden_sizes=data.draw(
                st.sampled_from([(), (16,), (24, 24), (16, 16, 16)]), label="hidden"),
            # 3: small and large embedded, tiny one-hot; 20: large embedded only.
            embedding_threshold=data.draw(st.sampled_from([3, 20]), label="threshold"))
        _take_steps(model, nn.Adam(model.parameters(), lr=0.05),
                    embed_table.encoded()[:64], steps=3)
        batch = data.draw(st.sampled_from([1, 2, 50]), label="batch")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16), label="seed"))
        domains = embed_table.domain_sizes
        codes = np.stack([rng.integers(0, size, batch) for size in domains], axis=1)
        rows = rng.integers(0, batch, size=batch + 3)    # a subset, permuted, repeats
        for position, column in enumerate(order):
            fused = model.conditional_probs(column, codes)
            assert np.array_equal(fused, model.conditional_probs_unfused(column, codes))
            assert np.array_equal(model.conditional_probs(column, codes[rows]), fused[rows])
            # Invisible columns are never read: any int64 at all may sit there.
            garbage = codes.copy()
            garbage[:, order[position:]] = rng.integers(
                -2 ** 40, 2 ** 40, size=(batch, len(order) - position))
            assert np.array_equal(model.conditional_probs(column, garbage), fused)


class TestTileKernelFallback:
    """On a BLAS that fails the row-exact tile kernel's import-time
    self-check, every product runs as the per-row gufunc — and the serving
    path's contract must hold there just the same."""

    def test_fused_kernel_contract_holds_on_the_gufunc(self, monkeypatch, embed_table):
        from repro.nn import autograd

        tiled = []
        real = autograd._tile_matmul
        monkeypatch.setattr(autograd, "_TILE_EXACT", False)
        monkeypatch.setattr(autograd, "_tile_matmul",
                            lambda a, b: tiled.append(a.shape) or real(a, b))
        contract = TestFusedConditionalKernel()
        contract.test_sliced_equals_full_forward_bitwise(embed_table, order=None)
        contract.test_row_subsets_return_identical_bits(embed_table)
        # The same with an embedded column: the plan decodes with a C-ordered
        # copy of the embedding, the unfused forward with its transposed view.
        model = MADEModel(embed_table, hidden_sizes=(24, 24), embedding_threshold=20,
                          embedding_dim=8, seed=4)
        assert model.encoder.codecs[1].use_embedding
        codes = embed_table.encoded()[:48]
        subset = np.array([7, 3, 3, 47, 0, 21])
        for column in range(embed_table.num_columns):
            full = model.conditional_probs(column, codes)
            assert np.array_equal(full, model.conditional_probs_unfused(column, codes))
            assert np.array_equal(model.conditional_probs(column, codes[subset]), full[subset])
        assert not tiled


def _take_steps(model, optimizer, codes, steps=1):
    """A few real optimiser steps on ``codes`` (train mode left as found)."""
    for _ in range(steps):
        optimizer.zero_grad()
        model.nll(codes).backward()
        optimizer.step()


_PLAN_CONFIG = NaruConfig(epochs=1, hidden_sizes=(8, 8), batch_size=64,
                          progressive_samples=40, seed=0)


def _users_registry():
    from repro.serve import ModelRegistry

    registry = ModelRegistry(default_config=_PLAN_CONFIG)
    registry.register_table(make_users(num_users=120, seed=4))
    registry.fit_all()
    return registry


class TestInferencePlanInvalidation:
    """No public path changes the weights without the next
    ``conditional_probs`` answering from the new ones — and the plan is
    invisible to everything that sizes, saves or ships a model."""

    # Each mutation takes (registry, estimator, codes) and returns the model
    # that has to answer from the new weights.
    @staticmethod
    def _adam_step(registry, estimator, codes):
        _take_steps(estimator.model, nn.Adam(estimator.model.parameters(), lr=0.05), codes)
        return estimator.model

    @staticmethod
    def _sgd_step(registry, estimator, codes):
        _take_steps(estimator.model, nn.SGD(estimator.model.parameters(), lr=0.5), codes)
        return estimator.model

    @staticmethod
    def _load_state_dict(registry, estimator, codes):
        state = estimator.model.state_dict()
        estimator.model.load_state_dict(
            {name: value + 0.01 for name, value in state.items()})
        return estimator.model

    @staticmethod
    def _estimator_refresh(registry, estimator, codes):
        estimator.refresh(codes, epochs=1)
        return estimator.model

    @staticmethod
    def _refresh_controller(registry, estimator, codes):
        """A refresh of a relation a live router is serving: the served
        estimator object is fine-tuned in place, and the router's next scope
        must answer like the unfused sequential walk at the new epoch."""
        from repro.query import WorkloadGenerator
        from repro.serve import FleetRouter, RefreshController, run_fleet_sequential

        queries = [query.qualified("users") for query in WorkloadGenerator(
            registry.relation("users"), min_filters=1, max_filters=2,
            seed=21).generate(8)]
        router = FleetRouter(registry, batch_size=4, num_samples=40, seed=3)
        stale = router.run(queries)
        controller = RefreshController(registry, max_staleness=0)
        controller.ingest("users", make_users(num_users=30, seed=7))
        assert controller.refresh("users") is estimator
        fresh = router.run(queries)
        expected = run_fleet_sequential(registry, queries, num_samples=40, seed=3)
        assert np.array_equal(fresh.selectivities, expected.selectivities)
        assert not np.array_equal(fresh.selectivities, stale.selectivities)
        return estimator.model

    @staticmethod
    def _restore_estimator(registry, estimator, codes):
        from repro.serve.procfleet import export_relation, restore_estimator

        estimator.refresh(codes, epochs=1)
        restored = restore_estimator(export_relation(registry, "users"))
        for column in range(estimator.model.num_columns):
            assert np.array_equal(restored.model.conditional_probs(column, codes),
                                  estimator.model.conditional_probs(column, codes))
        return restored.model

    @pytest.mark.parametrize("path", [
        "adam_step", "sgd_step", "load_state_dict", "estimator_refresh",
        "refresh_controller", "restore_estimator"])
    def test_next_call_answers_from_the_new_weights(self, path):
        registry = _users_registry()
        estimator = registry.estimator("users")
        codes = estimator.table.encoded()[:32]
        columns = range(estimator.model.num_columns)
        before = [estimator.model.conditional_probs(column, codes)
                  for column in columns]
        assert estimator.model._plan is not None         # answered: the plan exists
        model = getattr(self, f"_{path}")(registry, estimator, codes)
        for column in columns:
            after = model.conditional_probs(column, codes)
            assert np.array_equal(after, model.conditional_probs_unfused(column, codes))
            assert not np.array_equal(after, before[column])

    def test_plan_is_not_part_of_any_payload(self):
        from repro.serve.procfleet import export_relation

        registry = _users_registry()
        estimator = registry.estimator("users")
        model = estimator.model

        def footprint():
            return (len(pickle.dumps(export_relation(registry, "users"))),
                    len(pickle.dumps(model)), estimator.size_bytes(),
                    list(model.state_dict()), len(model.parameters()))

        assert model._plan is None                       # fit() builds none
        without = footprint()
        model.conditional_probs(0, estimator.table.encoded()[:4])
        assert model._plan is not None
        assert footprint() == without
        assert pickle.loads(pickle.dumps(model))._plan is None

    def test_deepcopy_trains_apart_from_the_original(self, embed_table):
        model = MADEModel(embed_table, hidden_sizes=(16, 16), seed=0)
        codes = embed_table.encoded()[:32]
        before = model.conditional_probs(1, codes)
        clone = copy.deepcopy(model)
        _take_steps(clone, nn.Adam(clone.parameters(), lr=0.05), codes)
        assert np.array_equal(model.conditional_probs(1, codes), before)
        assert np.array_equal(clone.conditional_probs(1, codes),
                              clone.conditional_probs_unfused(1, codes))
        assert not np.array_equal(clone.conditional_probs(1, codes), before)


class TestColumnNetworkModel:
    def test_conditional_outputs_are_distributions(self, embed_table):
        model = ColumnNetworkModel(embed_table, hidden_sizes=(16, 16), seed=0)
        codes = embed_table.encoded()[:8]
        for column in range(embed_table.num_columns):
            probs = model.conditional_probs(column, codes)
            np.testing.assert_allclose(probs.sum(axis=1), np.ones(8), atol=1e-9)

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_autoregressive_property(self, embed_table, column):
        model = ColumnNetworkModel(embed_table, hidden_sizes=(16,), seed=1)
        _check_autoregressive(model, embed_table, column)

    @pytest.mark.parametrize("order", [None, [2, 0, 1], [1, 2, 0]])
    def test_conditional_probs_runs_one_network_bitwise(self, embed_table,
                                                        monkeypatch, order):
        model = ColumnNetworkModel(embed_table, hidden_sizes=(16, 16),
                                   embedding_threshold=20, order=order, seed=2)
        codes = embed_table.encoded()[:24]
        ran = []
        forward = nn.Sequential.forward
        monkeypatch.setattr(nn.Sequential, "forward",
                            lambda net, x: ran.append(net) or forward(net, x))
        for column in range(embed_table.num_columns):
            ran.clear()
            probs = model.conditional_probs(column, codes)
            assert ran == [model.column_nets[model.order.index(column)]]
            assert np.array_equal(probs, model.conditional_probs_unfused(column, codes))
            assert len(ran) == 1 + embed_table.num_columns   # the reference runs all
        assert model.conditional_probs(1, codes[:0]).shape == (0, embed_table.domain_sizes[1])

    def test_training_reduces_loss(self, embed_table):
        model = ColumnNetworkModel(embed_table, hidden_sizes=(32,), seed=0)
        trainer = Trainer(model, embed_table, batch_size=128, learning_rate=5e-3)
        first = trainer.train_epoch()
        for _ in range(5):
            last = trainer.train_epoch()
        assert last < first


class ComposedMADE(MADEModel):
    """A MADE whose training step builds the composed graphs the fused nodes replace."""

    _first_hidden = composed_first_hidden
    nll = composed_nll


class TestTraining:
    @pytest.mark.parametrize("threshold", [20, 200], ids=["embedded", "one-hot"])
    def test_fused_nodes_train_the_composed_graphs_weights(self, embed_table, threshold):
        def trained(model_class):
            model = model_class(embed_table, hidden_sizes=(32, 32), seed=0,
                                embedding_threshold=threshold, embedding_dim=16)
            Trainer(model, embed_table, batch_size=128, learning_rate=5e-3).train(epochs=2)
            return model.state_dict()

        fused, composed = trained(MADEModel), trained(ComposedMADE)
        assert list(fused) == list(composed)
        assert any("embeddings" in name for name in fused) == (threshold == 20)
        for name in fused:
            assert fused[name].tobytes() == composed[name].tobytes(), name

    @pytest.mark.parametrize("model_class", [MADEModel, ColumnNetworkModel])
    def test_log_prob_keeps_the_bits_of_the_full_log_softmax(self, embed_table,
                                                             model_class):
        model = model_class(embed_table, hidden_sizes=(16,), embedding_threshold=20,
                            embedding_dim=8, seed=0)
        codes = embed_table.encoded()[:64]
        _take_steps(model, nn.Adam(model.parameters(), lr=0.05), codes, steps=3)
        expected = np.zeros(64)
        with nn.no_grad():
            for index, logits in enumerate(model.forward_logits(codes)):
                expected += logits.log_softmax(axis=-1).numpy()[np.arange(64), codes[:, index]]
        assert same_bits(model.log_prob(codes), expected)

    def test_data_entropy_of_uniform_unique_rows(self):
        table = make_correlated_table(
            [ColumnSpec("a", 64, correlation=0.0, skew=0.0)], num_rows=64, seed=0)
        # Not exactly uniform, but entropy is bounded by log2(64).
        assert 0 < data_entropy_bits(table) <= 6.0 + 1e-9

    def test_training_reduces_loss_and_entropy_gap(self, embed_table):
        model = MADEModel(embed_table, hidden_sizes=(32, 32), seed=0)
        trainer = Trainer(model, embed_table, batch_size=128, learning_rate=5e-3)
        initial_gap = trainer.entropy_gap_bits(sample_rows=None)
        history = trainer.train(epochs=6)
        final_gap = trainer.entropy_gap_bits(sample_rows=None)
        assert history.num_epochs == 6
        assert history.epoch_losses_bits[-1] < history.epoch_losses_bits[0]
        assert final_gap < initial_gap

    def test_track_entropy_gap_option(self, embed_table):
        model = MADEModel(embed_table, hidden_sizes=(16,), seed=0)
        trainer = Trainer(model, embed_table, batch_size=256)
        history = trainer.train(epochs=2, track_entropy_gap=True)
        assert len(history.epoch_entropy_gaps_bits) == 2

    def test_cross_entropy_bits_nonnegative_vs_entropy(self, embed_table):
        model = MADEModel(embed_table, hidden_sizes=(16,), seed=0)
        cross = cross_entropy_bits(model, embed_table.encoded())
        assert cross >= data_entropy_bits(embed_table) - 1e-6

    def test_training_leaves_no_garbage_behind(self, embed_table):
        # The autograd tape is acyclic, so a step's graph dies by reference
        # count.  With the automatic collector off, the only collections are
        # explicit — Trainer.train's own (it settles the collector before
        # serving) and the ones below — and none of them may find anything.
        found = []

        def watch(phase, info):
            if phase == "stop":
                found.append(info["collected"] + info["uncollectable"])

        model = MADEModel(embed_table, hidden_sizes=(16,), seed=0)
        trainer = Trainer(model, embed_table, batch_size=256)
        estimator = NaruEstimator(embed_table, NaruConfig(hidden_sizes=(16,), epochs=1))
        mscn = MSCNEstimator(embed_table, sample_size=50, hidden_sizes=(8,))
        labelled = WorkloadGenerator(embed_table, seed=0).generate_labeled(40)
        gc.collect()
        gc.disable()
        gc.callbacks.append(watch)
        try:
            trainer.train(epochs=4)
            assert gc.collect() == 0
            trainer.fine_tune(embed_table, epochs=1)
            assert gc.collect() == 0
            estimator.refresh(embed_table.encoded(), epochs=1)
            assert gc.collect() == 0
            mscn.fit(labelled, epochs=2)
            assert gc.collect() == 0
            assert len(found) >= 4 and not any(found)
        finally:
            gc.callbacks.remove(watch)
            gc.enable()

    def test_step_graph_is_freed_when_the_loss_is_rebound(self, embed_table):
        model = MADEModel(embed_table, hidden_sizes=(16,), seed=0)
        codes = embed_table.encoded()[:64]
        gc.disable()
        try:
            loss = model.nll(codes)
            loss.backward()
            # Tensor has __slots__ and no __weakref__; its arrays stand in for it.
            inner = loss._parents[0]._parents[0]._parents[0]  # -(sum(inner) * 1/n)
            graph = [weakref.ref(array) for array in (loss.data, inner.data, inner.grad)]
            del inner
            loss = model.nll(codes)
            assert [ref() for ref in graph] == [None, None, None]
        finally:
            gc.enable()

    def test_traced_memory_does_not_grow_with_the_number_of_steps(self, embed_table):
        def peak_over(steps: int) -> int:
            model = MADEModel(embed_table, hidden_sizes=(16,), seed=0)
            trainer = Trainer(model, embed_table, batch_size=20)
            codes = embed_table.encoded()[:20 * steps]
            tracemalloc.start()
            try:
                trainer.train(epochs=1, codes=codes)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        gc.disable()
        try:
            assert peak_over(30) <= 2 * peak_over(3)
        finally:
            gc.enable()

    def test_fine_tune_runs(self, embed_table):
        model = MADEModel(embed_table, hidden_sizes=(16,), seed=0)
        trainer = Trainer(model, embed_table, batch_size=256)
        trainer.train(epochs=1)
        history = trainer.fine_tune(embed_table, epochs=1)
        assert history.num_epochs == 2


class TestNaruConfig:
    def test_invalid_architecture(self):
        with pytest.raises(ValueError):
            NaruConfig(architecture="transformer")

    def test_invalid_hidden_sizes(self):
        with pytest.raises(ValueError):
            NaruConfig(hidden_sizes=())

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            NaruConfig(progressive_samples=0)

    def test_with_overrides(self):
        config = NaruConfig(epochs=3)
        updated = config.with_overrides(epochs=7, progressive_samples=2000)
        assert updated.epochs == 7
        assert updated.progressive_samples == 2000
        assert config.epochs == 3
