"""Tests for the oracle models and the querying schemes of §5.

The key statistical properties verified:

* enumeration over the oracle model reproduces exact selectivities,
* progressive sampling is (empirically) unbiased and converges to the truth
  as the number of sample paths grows,
* progressive sampling beats uniform region sampling on skewed data — the
  motivation for Algorithm 1.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    MADEModel,
    NoisyOracleModel,
    OracleModel,
    ProgressiveSampler,
    Trainer,
    UniformRegionSampler,
    enumerate_region,
)
from repro.core import progressive
from repro.core.progressive import _search_cumulative
from repro.data import ColumnSpec, make_correlated_table
from repro.query import (OODWorkloadGenerator, Query, WorkloadGenerator,
                         true_selectivity)


@pytest.fixture(scope="module")
def skewed_table():
    specs = [
        ColumnSpec("a", 12, "ordinal", skew=1.6),
        ColumnSpec("b", 8, "categorical", skew=1.4),
        ColumnSpec("c", 15, "ordinal", skew=1.5),
        ColumnSpec("d", 6, "categorical", skew=1.3),
    ]
    return make_correlated_table(specs, num_rows=1200, seed=21, name="skewed")


@pytest.fixture(scope="module")
def oracle(skewed_table):
    return OracleModel(skewed_table)


@pytest.fixture(scope="module")
def workload(skewed_table):
    generator = WorkloadGenerator(skewed_table, min_filters=2, max_filters=4, seed=5)
    return generator.generate(25)


class TestOracleModel:
    def test_conditionals_are_distributions(self, skewed_table, oracle):
        codes = skewed_table.encoded()[:10]
        for column in range(skewed_table.num_columns):
            probs = oracle.conditional_probs(column, codes)
            np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), atol=1e-9)

    def test_first_column_conditional_is_marginal(self, skewed_table, oracle):
        probs = oracle.conditional_probs(0, skewed_table.encoded()[:3])
        np.testing.assert_allclose(probs[0], skewed_table.columns[0].marginal())

    def test_chain_rule_recovers_joint(self, skewed_table, oracle):
        """Product of oracle conditionals equals the empirical joint probability."""
        codes, counts = np.unique(skewed_table.encoded(), axis=0, return_counts=True)
        subset = codes[:20]
        product = np.ones(20)
        for column in range(skewed_table.num_columns):
            probs = oracle.conditional_probs(column, subset)
            product *= probs[np.arange(20), subset[:, column]]
        expected = counts[:20] / skewed_table.num_rows
        np.testing.assert_allclose(product, expected, rtol=1e-9)

    def test_log_prob_of_present_and_absent_tuples(self, skewed_table, oracle):
        present = skewed_table.encoded()[:1]
        assert np.isfinite(oracle.log_prob(present))[0]
        absent = present.copy()
        # Construct a tuple guaranteed absent by using an impossible combination
        # only if it does not occur; otherwise fall back to checking finiteness.
        absent[0, 0] = (absent[0, 0] + 1) % skewed_table.domain_sizes[0]
        log_prob = oracle.log_prob(absent)[0]
        assert log_prob <= 0.0

    def test_entropy_bits_positive(self, oracle):
        assert oracle.entropy_bits() > 0

    def test_invalid_order_rejected(self, skewed_table):
        with pytest.raises(ValueError):
            OracleModel(skewed_table, order=[0, 0, 1, 2])


class TestNoisyOracle:
    def test_noise_bounds_validated(self, skewed_table):
        with pytest.raises(ValueError):
            NoisyOracleModel(skewed_table, noise=1.5)

    def test_zero_noise_matches_oracle(self, skewed_table, oracle):
        noisy = NoisyOracleModel(skewed_table, noise=0.0)
        codes = skewed_table.encoded()[:5]
        for column in range(skewed_table.num_columns):
            np.testing.assert_allclose(noisy.conditional_probs(column, codes),
                                       oracle.conditional_probs(column, codes))

    def test_entropy_gap_grows_with_noise(self, skewed_table):
        gaps = [NoisyOracleModel(skewed_table, noise).entropy_gap_bits(sample_rows=None)
                for noise in (0.0, 0.3, 0.8)]
        assert gaps[0] == pytest.approx(0.0, abs=1e-6)
        assert gaps[0] < gaps[1] < gaps[2]


class TestEnumeration:
    def test_enumeration_is_exact_on_oracle(self, skewed_table, oracle, workload):
        for query in workload[:10]:
            estimate = enumerate_region(oracle, query.column_masks(skewed_table))
            truth = true_selectivity(skewed_table, query)
            assert estimate == pytest.approx(truth, abs=1e-9)

    def test_enumeration_respects_point_cap(self, skewed_table, oracle):
        with pytest.raises(ValueError):
            enumerate_region(oracle, [None] * skewed_table.num_columns, max_points=10)

    def test_enumeration_of_empty_region(self, skewed_table, oracle):
        masks = [None] * skewed_table.num_columns
        masks[0] = np.zeros(skewed_table.domain_sizes[0], dtype=bool)
        assert enumerate_region(oracle, masks) == 0.0


class TestProgressiveSampling:
    def test_accuracy_against_truth(self, skewed_table, oracle, workload):
        sampler = ProgressiveSampler(oracle, seed=0)
        for query in workload:
            truth = true_selectivity(skewed_table, query)
            estimate = sampler.estimate_selectivity(query.column_masks(skewed_table),
                                                    num_samples=2000)
            assert estimate == pytest.approx(truth, abs=max(0.02, truth * 0.35))

    def test_empty_region_returns_zero(self, skewed_table, oracle):
        masks = [None] * skewed_table.num_columns
        masks[1] = np.zeros(skewed_table.domain_sizes[1], dtype=bool)
        sampler = ProgressiveSampler(oracle, seed=0)
        assert sampler.estimate_selectivity(masks, num_samples=100) == 0.0

    def test_full_wildcard_query_estimates_one(self, skewed_table, oracle):
        sampler = ProgressiveSampler(oracle, seed=0)
        estimate = sampler.estimate_selectivity([None] * skewed_table.num_columns,
                                                num_samples=200)
        assert estimate == pytest.approx(1.0, abs=1e-6)

    def test_variance_decreases_with_more_samples(self, skewed_table, oracle, workload):
        query = workload[0]
        masks = query.column_masks(skewed_table)
        truth = true_selectivity(skewed_table, query)

        def spread(num_samples: int) -> float:
            estimates = [ProgressiveSampler(oracle, seed=seed).estimate_selectivity(
                masks, num_samples=num_samples) for seed in range(8)]
            return float(np.std(estimates))

        assert spread(1000) <= spread(20) + 1e-9

    def test_unbiasedness_empirical(self, skewed_table, oracle, workload):
        """Mean of many low-sample estimates approaches the exact selectivity."""
        query = workload[1]
        masks = query.column_masks(skewed_table)
        truth = true_selectivity(skewed_table, query)
        estimates = [ProgressiveSampler(oracle, seed=seed).estimate_selectivity(
            masks, num_samples=50) for seed in range(40)]
        assert np.mean(estimates) == pytest.approx(truth, rel=0.3, abs=0.01)

    def test_mask_count_validation(self, skewed_table, oracle):
        sampler = ProgressiveSampler(oracle, seed=0)
        with pytest.raises(ValueError):
            sampler.estimate_selectivity([None], num_samples=10)

    def test_progressive_beats_uniform_on_skewed_data(self, skewed_table, oracle):
        """The motivating comparison of §5.1 (Figure 3)."""
        generator = WorkloadGenerator(skewed_table, min_filters=3, max_filters=4, seed=77)
        queries = generator.generate_labeled(15)
        progressive = ProgressiveSampler(oracle, seed=1)
        uniform = UniformRegionSampler(oracle, seed=1)

        def total_error(sampler) -> float:
            total = 0.0
            for item in queries:
                estimate = sampler.estimate_selectivity(
                    item.query.column_masks(skewed_table), num_samples=200)
                total += abs(estimate - item.selectivity)
            return total

        assert total_error(progressive) <= total_error(uniform)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_estimates_always_in_unit_interval(self, skewed_table, oracle, seed):
        generator = WorkloadGenerator(skewed_table, min_filters=1, max_filters=4, seed=seed)
        query = generator.generate_query()
        sampler = ProgressiveSampler(oracle, seed=seed)
        estimate = sampler.estimate_selectivity(query.column_masks(skewed_table),
                                                num_samples=64)
        assert 0.0 <= estimate <= 1.0 + 1e-9


class TestUniformRegionSampler:
    def test_empty_region(self, skewed_table, oracle):
        masks = [None] * skewed_table.num_columns
        masks[2] = np.zeros(skewed_table.domain_sizes[2], dtype=bool)
        sampler = UniformRegionSampler(oracle, seed=0)
        assert sampler.estimate_selectivity(masks, num_samples=50) == 0.0

    def test_reasonable_on_tiny_region(self, skewed_table, oracle):
        # Single-point region: uniform sampling must be exact.
        row = skewed_table.encoded()[0]
        masks = []
        for column, code in enumerate(row):
            mask = np.zeros(skewed_table.domain_sizes[column], dtype=bool)
            mask[code] = True
            masks.append(mask)
        sampler = UniformRegionSampler(oracle, seed=0)
        query = Query([])
        truth = np.exp(oracle.log_prob(row[None, :]))[0]
        assert sampler.estimate_selectivity(masks, num_samples=10) == pytest.approx(truth)


def _reference_estimate(model, masks, num_samples, seed):
    """The pre-optimisation Algorithm 1 loop, kept verbatim as an oracle.

    Processes every column (no wildcard skipping) and keeps zero-weight rows
    sampling from a uniform fallback (no dead-row skipping); the optimised
    sampler must reproduce its estimates.
    """
    rng = np.random.default_rng(seed)
    domain_sizes = model.domain_sizes()
    codes = np.zeros((num_samples, len(domain_sizes)), dtype=np.int64)
    weights = np.ones(num_samples)
    alive = np.ones(num_samples, dtype=bool)
    for column in model.order:
        mask = masks[column]
        if not alive.any():
            break
        probs = model.conditional_probs(column, codes)
        if mask is not None:
            probs = probs * mask[None, :]
        mass = probs.sum(axis=1)
        weights *= np.where(alive, mass, 0.0)
        alive &= ~(mass <= 0.0)
        safe_mass = np.where(mass > 0.0, mass, 1.0)
        normalised = probs / safe_mass[:, None]
        fallback = np.full(probs.shape, 1.0 / probs.shape[1])
        cumulative = np.cumsum(np.where(alive[:, None], normalised, fallback), axis=1)
        cumulative[:, -1] = 1.0
        draws = rng.random((probs.shape[0], 1))
        codes[:, column] = np.argmax(cumulative >= draws, axis=1)
    return float(weights.mean())


class TestBatchedProgressiveSampling:
    def test_matches_reference_implementation(self, skewed_table, oracle, workload):
        """Dead-row and wildcard skipping leave the estimates unchanged."""
        for seed, query in enumerate(workload[:12]):
            masks = query.column_masks(skewed_table)
            reference = _reference_estimate(oracle, masks, 400, seed=seed)
            optimised = ProgressiveSampler(oracle, seed=seed).estimate_selectivity(
                masks, num_samples=400)
            assert optimised == pytest.approx(reference, rel=1e-9, abs=1e-12)

    def test_dead_rows_skipped_without_changing_estimates(self, skewed_table, oracle):
        """Regression for the dead-row waste fix: zero-mass paths used to keep
        drawing uniform-fallback samples every remaining column."""
        generator = OODWorkloadGenerator(skewed_table, min_filters=3,
                                         max_filters=4, seed=13)
        for seed, query in enumerate(generator.generate(10)):
            masks = query.column_masks(skewed_table)
            reference = _reference_estimate(oracle, masks, 300, seed=seed)
            optimised = ProgressiveSampler(oracle, seed=seed).estimate_selectivity(
                masks, num_samples=300)
            assert optimised == pytest.approx(reference, rel=1e-9, abs=1e-12)

    def test_wildcard_skipping_equivalence(self, skewed_table, oracle):
        """Queries constraining only early columns skip the trailing wildcards
        yet estimate the same mass as the full per-column walk."""
        row = skewed_table.encoded()[0]
        masks = [None] * skewed_table.num_columns
        masks[0] = np.zeros(skewed_table.domain_sizes[0], dtype=bool)
        masks[0][row[0]] = True
        reference = _reference_estimate(oracle, masks, 500, seed=5)
        optimised = ProgressiveSampler(oracle, seed=5).estimate_selectivity(
            masks, num_samples=500)
        assert optimised == pytest.approx(reference, rel=1e-9, abs=1e-12)

    def test_batch_matches_individual_queries(self, skewed_table, oracle, workload):
        masks_batch = [query.column_masks(skewed_table) for query in workload[:6]]
        rngs = [np.random.default_rng(1000 + index) for index in range(6)]
        batched = ProgressiveSampler(oracle, seed=0).estimate_selectivity_batch(
            masks_batch, num_samples=200, rngs=rngs)
        for index, masks in enumerate(masks_batch):
            alone = ProgressiveSampler(oracle, seed=0).estimate_selectivity_batch(
                [masks], num_samples=200,
                rngs=[np.random.default_rng(1000 + index)])[0]
            assert batched[index] == pytest.approx(alone, rel=1e-9, abs=1e-12)

    def test_empty_batch(self, oracle):
        estimates = ProgressiveSampler(oracle, seed=0).estimate_selectivity_batch(
            [], num_samples=50)
        assert estimates.shape == (0,)

    def test_rng_count_validation(self, skewed_table, oracle):
        masks = [None] * skewed_table.num_columns
        with pytest.raises(ValueError):
            ProgressiveSampler(oracle, seed=0).estimate_selectivity_batch(
                [masks, masks], num_samples=10,
                rngs=[np.random.default_rng(0)])

    def test_mask_count_validation_in_batch(self, skewed_table, oracle):
        with pytest.raises(ValueError):
            ProgressiveSampler(oracle, seed=0).estimate_selectivity_batch(
                [[None]], num_samples=10)

    @pytest.mark.parametrize("num_samples", [0, -3])
    def test_degenerate_sample_budget_rejected(self, skewed_table, oracle,
                                               num_samples):
        """Zero paths used to average to NaN (with a RuntimeWarning) and a
        negative count died inside numpy; both are a typed error up front."""
        masks = [None] * skewed_table.num_columns
        sampler = ProgressiveSampler(oracle, seed=0)
        with pytest.raises(ValueError, match="num_samples must be a positive"):
            sampler.estimate_selectivity(masks, num_samples=num_samples)
        with pytest.raises(ValueError, match="num_samples must be a positive"):
            sampler.estimate_selectivity_batch([], num_samples=num_samples)


#: Widths around every power of two up to 128: the halving schedule of the
#: search differs on each side of one.
_SEARCH_WIDTHS = sorted({1, 2, 3} | {2 ** k + d for k in range(2, 8)
                                     for d in (-1, 0, 1)})


class TestSearchCumulative:
    """The lockstep binary search must equal the full-width gather/compare/
    argmax it replaced on every input the sampler can produce."""

    @staticmethod
    def _cdf_rows(kinds, width, rng):
        """CDF rows built the way the sampler builds them, one per kind."""
        probs = np.zeros((len(kinds), width))
        for row, kind in enumerate(kinds):
            if kind == "dense":
                probs[row] = rng.random(width)
            elif kind in ("plateau", "overshoot"):
                support = rng.choice(width, size=min(width, 3), replace=False)
                probs[row, support] = rng.random(support.size) + 0.1
            # "zero": a zero-mass row stays all zero.
        mass = probs.sum(axis=1)
        cumulative = np.cumsum(
            probs / np.where(mass > 0.0, mass, 1.0)[:, None], axis=1)
        cumulative[:, -1] = 1.0
        if width > 1:
            for row, kind in enumerate(kinds):
                if kind == "overshoot":
                    # Rounding can push the running sum one ulp past the
                    # forced final 1.0.
                    cumulative[row, -2] = np.nextafter(1.0, 2.0)
        return cumulative

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_argmax(self, data):
        width = data.draw(st.sampled_from(_SEARCH_WIDTHS), label="width")
        kinds = data.draw(st.lists(
            st.sampled_from(["dense", "plateau", "zero", "overshoot"]),
            min_size=1, max_size=5), label="kinds")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        cumulative = self._cdf_rows(kinds, width, rng)
        # Repeated and unsorted group references.
        groups = np.asarray(data.draw(st.lists(
            st.integers(0, len(kinds) - 1), min_size=1, max_size=40),
            label="groups"), dtype=np.int64)
        draw_specs = data.draw(st.lists(
            st.one_of(st.just(0.0),
                      st.floats(0.0, 1.0, exclude_max=True),
                      # A draw exactly on one of its row's CDF values.
                      st.integers(0, width - 1).map(lambda index: (index,))),
            min_size=groups.size, max_size=groups.size), label="draws")
        draws = np.empty(groups.size)
        for row, spec in enumerate(draw_specs):
            if isinstance(spec, tuple):
                spec = cumulative[groups[row], spec[0]]
                if spec >= 1.0:   # draws live in [0, 1)
                    spec = np.nextafter(1.0, 0.0)
            draws[row] = spec
        expected = np.argmax(cumulative[groups] >= draws[:, None], axis=1)
        assert np.array_equal(_search_cumulative(cumulative, groups, draws),
                              expected)

    @pytest.mark.parametrize("width", _SEARCH_WIDTHS)
    def test_zero_mass_rows(self, width):
        """An all-zero row answers the forced final entry — or index 0 for a
        zero draw, which every entry reaches — exactly like ``argmax``."""
        cumulative = np.zeros((2, width))
        cumulative[:, -1] = 1.0
        groups = np.array([1, 0, 1])
        draws = np.array([0.5, 0.0, np.nextafter(1.0, 0.0)])
        assert _search_cumulative(cumulative, groups, draws).tolist() == [
            width - 1, 0, width - 1]


class _SpikeModel:
    """Row-exact stub autoregressive model over declared (huge) domains.

    Each conditional puts its mass on three codes derived from the row's
    visible prefix — one of them at the top of the domain, so packed prefixes
    really do reach the declared radix product, and few enough that sample
    paths keep sharing prefixes.  ``order`` is the autoregressive order
    (storage order when omitted).
    """

    def __init__(self, domain_sizes, order=None):
        self._domain_sizes = list(domain_sizes)
        self.order = list(range(len(self._domain_sizes))
                          if order is None else order)

    def domain_sizes(self):
        return list(self._domain_sizes)

    def conditional_probs(self, column_index, codes):
        size = self._domain_sizes[column_index]
        rows = np.arange(codes.shape[0])
        position = self.order.index(column_index)
        mix = (codes[:, self.order[:position]]
               * (7919 * (np.arange(position) + 1))).sum(axis=1)
        probs = np.zeros((codes.shape[0], size))
        probs[rows, mix % size] += 0.5
        probs[rows, (mix * 31 + 7) % size] += 0.3
        probs[rows, size - 1 - mix % 3] += 0.2
        return probs


class TestPrefixDeduplication:
    """Prefix-deduplicated sampling must be *bit-identical* to the unfused
    per-row walk: the model is row-exact, the random draws are consumed
    before liveness checks, and the representative-space truncate/weigh/
    sample arithmetic is row-pure — so turning dedup on changes performance
    counters, never a single output bit."""

    def _estimates(self, model, skewed_table, workload, dedup):
        masks_batch = [query.column_masks(skewed_table) for query in workload[:8]]
        rngs = [np.random.default_rng(500 + index) for index in range(8)]
        sampler = ProgressiveSampler(model, seed=0, dedup=dedup)
        estimates = sampler.estimate_selectivity_batch(
            masks_batch, num_samples=250, rngs=rngs)
        return sampler, estimates

    def test_dedup_is_bit_identical_on_oracle(self, skewed_table, oracle,
                                              workload):
        _, fused = self._estimates(oracle, skewed_table, workload, dedup=True)
        _, plain = self._estimates(oracle, skewed_table, workload, dedup=False)
        assert np.array_equal(fused, plain)

    def test_dedup_is_bit_identical_on_made(self, skewed_table, workload):
        from repro.core import MADEModel
        model = MADEModel(skewed_table, hidden_sizes=(16, 16), seed=7)
        _, fused = self._estimates(model, skewed_table, workload, dedup=True)
        _, plain = self._estimates(model, skewed_table, workload, dedup=False)
        assert np.array_equal(fused, plain)

    def test_mixed_wildcard_batch_is_bit_identical(self, skewed_table, oracle):
        """Every column sees filtered and wildcard queries side by side — and
        queries that finish early — so the fused (prefix, query) sort has to
        keep each row with its own query's mask."""
        rng = np.random.default_rng(17)

        def mask(column):
            size = skewed_table.domain_sizes[column]
            chosen = rng.random(size) < 0.6
            chosen[rng.integers(size)] = True
            return chosen

        filtered_columns = [(0, 2), (1,), (0, 1, 2, 3), (3,), (1, 3), (0,), ()]
        masks_batch = [[mask(column) if column in columns else None
                        for column in range(skewed_table.num_columns)]
                       for columns in filtered_columns]
        from repro.core import MADEModel
        made = MADEModel(skewed_table, hidden_sizes=(16, 16), seed=7)
        for model in (oracle, made):
            estimates = []
            for dedup in (True, False):
                rngs = [np.random.default_rng(900 + index)
                        for index in range(len(masks_batch))]
                estimates.append(ProgressiveSampler(
                    model, seed=0, dedup=dedup).estimate_selectivity_batch(
                        masks_batch, num_samples=300, rngs=rngs))
            assert np.array_equal(estimates[0], estimates[1])
            assert estimates[0][-1] == 1.0   # the all-wildcard query

    @pytest.mark.parametrize("domain_sizes, num_queries, row_wise", [
        # Four prefix columns of 2^16 cannot be packed into an int64: the
        # last position dedups through the row-wise np.unique(axis=0).
        ([2 ** 16] * 5, 2, True),
        # Five prefix columns of 2^12 pack (2^60), but times twelve queries
        # the fused key would wrap (and, twelve being no power of two, lose
        # the query): the single sort must decline.
        ([2 ** 12] * 6, 12, False),
    ])
    def test_overflow_fallbacks_are_bit_identical(self, domain_sizes,
                                                  num_queries, row_wise):
        model = _SpikeModel(domain_sizes)
        last = len(domain_sizes) - 1
        _, radix, span = ProgressiveSampler(model)._prefix_packing(last)
        assert (radix is None) == row_wise
        assert span * num_queries >= 2 ** 62
        rng = np.random.default_rng(3)
        masks_batch = []
        for query in range(num_queries):
            masks = [None] * len(domain_sizes)
            for column in {last, query % last}:
                masks[column] = rng.random(domain_sizes[column]) < 0.7
                masks[column][-3:] = True
            masks_batch.append(masks)
        results = []
        for dedup in (True, False):
            sampler = ProgressiveSampler(model, seed=0, dedup=dedup)
            rngs = [np.random.default_rng(40 + index)
                    for index in range(num_queries)]
            results.append((sampler.estimate_selectivity_batch(
                masks_batch, num_samples=24, rngs=rngs), sampler.stats))
        (fused, fused_stats), (plain, plain_stats) = results
        assert np.array_equal(fused, plain)
        assert 0.0 < fused.min() and fused.max() < 1.0
        assert fused_stats.rows_submitted == plain_stats.rows_submitted
        assert fused_stats.unique_rows < plain_stats.unique_rows

    def test_dedup_counters(self, skewed_table, oracle, workload):
        fused_sampler, _ = self._estimates(oracle, skewed_table, workload,
                                           dedup=True)
        plain_sampler, _ = self._estimates(oracle, skewed_table, workload,
                                           dedup=False)
        fused, plain = fused_sampler.stats, plain_sampler.stats
        # Same rows walk through the sampler either way; dedup only shrinks
        # what reaches the model.
        assert fused.rows_submitted == plain.rows_submitted
        assert plain.unique_rows == plain.rows_submitted
        assert 0 < fused.unique_rows < fused.rows_submitted
        assert fused.forward_calls == plain.forward_calls > 0

    # ------------------------------------------------------------------ #
    # The sorted-order walk: tiles, carried keys, working set.

    @staticmethod
    def _random_masks(rng, domain_sizes, filtered_columns):
        """One mask list per entry of ``filtered_columns``; every mask keeps
        the top three codes (where ``_SpikeModel`` always has mass)."""
        masks_batch = []
        for columns in filtered_columns:
            masks = [None] * len(domain_sizes)
            for column in columns:
                masks[column] = rng.random(domain_sizes[column]) < 0.5
                masks[column][-3:] = True
            masks_batch.append(masks)
        return masks_batch

    @pytest.fixture(scope="class")
    def trained_made(self, skewed_table):
        model = MADEModel(skewed_table, hidden_sizes=(16, 16), seed=7)
        Trainer(model, skewed_table, batch_size=128).train(epochs=2)
        return model

    @pytest.mark.parametrize("filtered_columns", [
        [(0, 2), (1,), (0, 1, 2, 3), (3,), (1, 3), (0,), ()],   # mixed wildcards
        [(0, 1, 3)],                                             # a batch of one
    ], ids=["mixed", "one"])
    def test_tile_boundaries_do_not_move_a_bit(self, monkeypatch, skewed_table,
                                               oracle, trained_made,
                                               filtered_columns):
        """Wherever the group-space walk cuts its tiles — one group a tile,
        a few, or all of them in one — every estimate keeps its bits, and
        they are the bits of the unfused per-row walk."""
        sizes = list(skewed_table.domain_sizes)
        # Narrow masks over a spiky model: most groups have no mass at all,
        # so zero-mass groups open and close tiles.
        spike = _SpikeModel(sizes)
        searches = []

        def counting_search(*args):
            searches.append(1)
            return _search_cumulative(*args)

        monkeypatch.setattr(progressive, "_search_cumulative", counting_search)
        for model in (oracle, spike, trained_made):
            masks_batch = self._random_masks(np.random.default_rng(23), sizes,
                                             filtered_columns)
            if model is spike:
                for masks in masks_batch:
                    for mask in masks:
                        if mask is not None:
                            mask[-3:] = [False, True, False]

            def estimates(dedup):
                rngs = [np.random.default_rng(700 + index)
                        for index in range(len(masks_batch))]
                return ProgressiveSampler(
                    model, seed=0, dedup=dedup).estimate_selectivity_batch(
                        masks_batch, num_samples=200, rngs=rngs)

            plain = estimates(dedup=False)
            counts = []
            for elements in (1, max(sizes), 3 * max(sizes) + 1, 2 ** 30):
                monkeypatch.setattr(progressive, "_TILE_ELEMENTS", elements)
                del searches[:]
                assert np.array_equal(estimates(dedup=True), plain)
                counts.append(len(searches))
            if model is spike:
                assert 0.0 < plain.min() < 1.0
            # The patch took: one group a tile means many tiles, one tile
            # for everything means one search per sampled column.
            assert counts == sorted(counts, reverse=True)
            assert counts[0] > counts[-1] and counts[-1] <= len(sizes)

    @settings(max_examples=40, deadline=None)
    @given(domain_sizes=st.lists(st.sampled_from([2, 3, 11, 2 ** 16]),
                                 min_size=3, max_size=6),
           shuffle=st.randoms(use_true_random=False),
           seed=st.integers(0, 2 ** 32 - 1))
    # Four prefix columns of 2^16 overflow the radix: the last positions
    # take the rank fallback, fed from the codes.
    @example(domain_sizes=[3] + [2 ** 16] * 5, shuffle=None, seed=1)
    def test_carried_key_is_the_packed_prefix(self, domain_sizes, shuffle, seed):
        """The key a row carries into position ``p`` is ``prefix @ radix`` of
        the codes sampled for it so far, and the model is shown exactly the
        distinct prefixes of the alive rows, each once, in sorted order —
        at positions whose radix overflows as well."""
        order = list(range(len(domain_sizes)))
        if shuffle is None:
            order.reverse()
        else:
            shuffle.shuffle(order)
        model = _SpikeModel(domain_sizes, order)
        sampler = ProgressiveSampler(model, seed=0)
        rng = np.random.default_rng(seed)
        masks_batch = self._random_masks(
            rng, domain_sizes,
            [tuple(np.flatnonzero(rng.random(len(domain_sizes)) < 0.7))
             for _ in range(3)] + [tuple(order)])
        shown, expected, packable = [], [], []
        inner_groups, inner_probs = (sampler._conditional_groups,
                                     model.conditional_probs)

        def spy_groups(position, column, codes, packed, alive_rows, *rest):
            prefix_columns, radix, _ = sampler._prefix_packing(position)
            prefixes = codes[alive_rows][:, prefix_columns]
            if radix is not None:
                assert np.array_equal(packed[alive_rows], prefixes @ radix)
            packable.append(radix is not None)
            expected.append(np.unique(prefixes, axis=0))
            return inner_groups(position, column, codes, packed, alive_rows,
                                *rest)

        def spy_probs(column, codes):
            shown.append(codes[:, order[:order.index(column)]])
            return inner_probs(column, codes)

        sampler._conditional_groups = spy_groups
        model.conditional_probs = spy_probs
        sampler.estimate_selectivity_batch(
            masks_batch, num_samples=12,
            rngs=[np.random.default_rng(seed + index) for index in range(4)])
        assert len(shown) == len(expected) == len(domain_sizes)
        for seen, reference in zip(shown, expected):
            assert np.array_equal(seen, reference)
        if shuffle is None:
            assert packable == [True] * 4 + [False] * 2

    def test_working_set_is_the_answer_plus_a_few_tiles(self):
        """One 16-query × 800-path batch over a warm conditional cache peaks
        at the model's own answer plus a few tiles and row-length vectors —
        not at several more arrays the size of the answer."""
        from repro.serve import CachedConditionalModel
        table = make_correlated_table([
            ColumnSpec("a", 10, "categorical", skew=0.3),
            ColumnSpec("b", 10, "categorical", skew=0.3),
            ColumnSpec("c", 200, "ordinal", skew=0.3),
            ColumnSpec("d", 150, "ordinal", skew=0.3),
        ], num_rows=4000, seed=2, name="wide")
        model = CachedConditionalModel(
            MADEModel(table, hidden_sizes=(8,), seed=0))
        rng = np.random.default_rng(5)
        masks_batch = self._random_masks(rng, table.domain_sizes,
                                         [(0, 1, 2, 3)] * 16)
        answers = []
        inner = model.conditional_probs

        def spy(column, codes):
            answers.append(inner(column, codes))
            return answers[-1]

        model.conditional_probs = spy
        sampler = ProgressiveSampler(model, seed=0)

        def batch():
            del answers[:]
            return sampler.estimate_selectivity_batch(
                masks_batch, num_samples=800,
                rngs=[np.random.default_rng(60 + index) for index in range(16)])

        cold = batch()
        evaluated = model.rows_evaluated
        gc.disable()
        tracemalloc.start()
        try:
            warm = batch()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert np.array_equal(warm, cold)
        assert model.rows_evaluated == evaluated      # every lookup hit
        rows = 16 * 800
        # The spy keeps the four answers alive; the walk itself may add
        # four tiles and the row-length vectors (codes, keys, draws, order,
        # the cache's probe positions ...), counted generously.
        held = sum(answer.nbytes for answer in answers)
        allowance = (4 * progressive._TILE_ELEMENTS * 8
                     + (table.num_columns + 24) * rows * 8)
        assert max(answer.nbytes for answer in answers) > 2 * allowance
        assert peak < held + allowance
