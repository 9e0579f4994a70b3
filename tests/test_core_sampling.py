"""Tests for the oracle models and the querying schemes of §5.

The key statistical properties verified:

* enumeration over the oracle model reproduces exact selectivities,
* progressive sampling is (empirically) unbiased and converges to the truth
  as the number of sample paths grows,
* progressive sampling beats uniform region sampling on skewed data — the
  motivation for Algorithm 1.
"""

from __future__ import annotations

import functools
import gc
import math
import tracemalloc
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    ColumnNetworkModel,
    MADEModel,
    NoisyOracleModel,
    OracleModel,
    ProgressiveSampler,
    Trainer,
    UniformRegionSampler,
    enumerate_region,
)
from repro.core import progressive
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


def _mask_runs(mask):
    """Maximal runs ``(lo, hi)`` of a boolean mask, in code order."""
    runs, start = [], None
    for code, admitted in enumerate(list(mask) + [False]):
        if admitted and start is None:
            start = code
        elif not admitted and start is not None:
            runs.append((start, code - 1))
            start = None
    return runs


class _DrawCase(NamedTuple):
    """One call of :func:`repro.core.progressive._truncated_draws`, as drawn
    by :func:`_draw_cases` (``TestTruncatedDraws`` builds the arrays)."""

    width: int
    seed: int           # of the CDF rows' values and of the masks' codes
    kinds: list         # one CDF row kind per CDF row
    masks: list         # one mask kind per query
    row_cdf: list
    row_query: list
    draws: list         # a float, or ``(code,)``: exactly on the row's F(code)
    block: int          # _PICK_BLOCK


@st.composite
def _draw_cases(draw):
    width = draw(st.sampled_from(_SEARCH_WIDTHS))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    kinds = draw(st.lists(st.sampled_from(
        ["dense", "sparse", "one-hot", "subnormal", "zero"]),
        min_size=1, max_size=4))
    masks = draw(st.lists(st.sampled_from(
        ["wildcard", "one run", "one code", "several", "empty"]),
        min_size=1, max_size=4))
    num_rows = draw(st.integers(1, 30))
    rows_of = functools.partial(st.lists, min_size=num_rows,
                                max_size=num_rows)
    row_cdf = draw(rows_of(st.integers(0, len(kinds) - 1)))
    row_query = draw(rows_of(st.integers(0, len(masks) - 1)))
    draws = draw(rows_of(st.one_of(
        st.just(0.0), st.just(np.nextafter(1.0, 0.0)),
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(0, width - 1).map(lambda code: (code,)))))
    # Blocks of runs as small as one entry: sums carried across many
    # blocks must be the run-order sums of the reference.
    block = draw(st.sampled_from([progressive._PICK_BLOCK, 1, 7, 64]))
    return _DrawCase(width, seed, kinds, masks, row_cdf, row_query, draws,
                     block)


def _reference_target(cumulative, runs, draw):
    """The draw's target in one CDF row and the in-range mass, by the rule
    :func:`repro.core.progressive._truncated_draws` documents, one scalar
    at a time."""
    def bounds(lo, hi):
        return (cumulative[lo - 1] if lo > 0 else 0.0), cumulative[hi]

    if len(runs) == 1:
        lower, upper = bounds(*runs[0])
        mass = upper - lower
        return min(lower + draw * mass, np.nextafter(upper, 0.0)), mass
    masses = [upper - lower for lower, upper in (bounds(*run) for run in runs)]
    mass = 0.0
    for run_mass in masses:
        mass += run_mass
    threshold, running = draw * mass, 0.0
    for run, run_mass in zip(runs, masses):
        if running + run_mass > threshold:
            lower, upper = bounds(*run)
            return min(lower + (threshold - running),
                       np.nextafter(upper, 0.0)), mass
        running += run_mass
    positive = [run for run, run_mass in zip(runs, masses) if run_mass > 0.0]
    if not positive:
        return None, mass
    return np.nextafter(bounds(*positive[-1])[1], 0.0), mass


class TestTruncatedDraws:
    """Inverse-CDF draws from a prefix's plain CDF, truncated to the query's
    admitted runs: the lockstep search must land where a full-row ``argmax``
    does, on an admitted code of positive probability, with the in-range
    mass within its stated round-off bound."""

    @staticmethod
    def _probability_rows(kinds, width, rng):
        probs = np.zeros((len(kinds), width))
        for row, kind in enumerate(kinds):
            if kind == "dense":
                probs[row] = rng.random(width)
                probs[row] /= probs[row].sum()
            elif kind == "sparse":
                support = rng.choice(width, size=min(width, 3), replace=False)
                probs[row, support] = rng.random(support.size) + 0.1
                probs[row] /= probs[row].sum()
            elif kind == "one-hot":
                probs[row, rng.integers(width)] = 1.0
            elif kind == "subnormal":
                probs[row] = rng.random(width) * 1e-310
                probs[row, rng.integers(width)] = 1.0 - 1e-300
            # "zero": the row stays all zero.
        return probs

    @staticmethod
    def _mask(kind, width, rng):
        if kind == "wildcard":
            return None
        mask = np.zeros(width, dtype=bool)
        if kind == "one run":
            lo = int(rng.integers(width))
            mask[lo:int(rng.integers(lo, width)) + 1] = True
        elif kind == "one code":        # an equality literal
            mask[rng.integers(width)] = True
        elif kind == "several":
            mask = rng.random(width) < 0.5
        # "empty": nothing admitted.
        return mask

    @settings(max_examples=400, deadline=None)
    @given(case=_draw_cases())
    # Only one-code runs: every row takes its code, none searches.
    @example(case=_DrawCase(
        16, 1, ["dense", "sparse", "zero", "one-hot"], ["one code"] * 3,
        [0, 1, 2, 3, 0, 1, 2, 3], [0, 1, 2, 0, 1, 2, 0, 1],
        [0.0, 0.5, (3,), 0.9, (15,), 0.25, np.nextafter(1.0, 0.0), 0.75], 7))
    # Only empty masks: every row is dead, and still holds a valid code —
    # in a one-code domain too, where the empty run's lo is not one.
    @example(case=_DrawCase(1, 2, ["dense", "zero"], ["empty"], [0, 1, 0],
                            [0, 0, 0], [0.0, 0.7, (0,)],
                            progressive._PICK_BLOCK))
    @example(case=_DrawCase(9, 2, ["dense", "zero"], ["empty", "empty"],
                            [0, 1, 0, 1], [0, 1, 1, 0], [0.3, 0.0, (8,), 0.9],
                            progressive._PICK_BLOCK))
    # One-code rows mixed with a wide run (and with several runs): only the
    # wide rows search, in a window as wide as their widest run.
    @example(case=_DrawCase(
        33, 3, ["dense", "one-hot", "subnormal"],
        ["one code", "wildcard", "one code", "several"],
        [0, 1, 2, 0, 1, 2, 0, 1], [0, 1, 2, 3, 0, 1, 2, 3],
        [0.1, 0.0, (5,), 0.99, (32,), 0.5, 0.3, np.nextafter(1.0, 0.0)], 1))
    @example(case=_DrawCase(
        127, 4, ["dense", "sparse"], ["one run", "one code", "empty"],
        [0, 1, 0, 1, 0, 1], [0, 1, 2, 1, 0, 1], [0.2, 0.4, 0.6, (0,), (126,),
                                                 0.0], 64))
    def test_draw_equals_argmax_reference(self, case):
        width = case.width
        rng = np.random.default_rng(case.seed)
        probs = self._probability_rows(case.kinds, width, rng)
        masks = [self._mask(kind, width, rng) for kind in case.masks]
        num_rows = len(case.row_cdf)
        row_cdf = np.asarray(case.row_cdf, dtype=np.int64)
        row_query = np.asarray(case.row_query, dtype=np.int64)
        cumulative = np.cumsum(probs, axis=1)
        draws = np.empty(num_rows)
        for row, spec in enumerate(case.draws):
            if isinstance(spec, tuple):
                spec = min(cumulative[row_cdf[row], spec[0]],
                           np.nextafter(1.0, 0.0))
            draws[row] = spec

        with mock.patch.object(progressive, "_PICK_BLOCK", case.block):
            sampled, mass = progressive._truncated_draws(
                cumulative.copy(), row_cdf, row_query,
                progressive._admitted_runs(masks, width), draws)

        for row in range(num_rows):
            p, cdf_row = probs[row_cdf[row]], cumulative[row_cdf[row]]
            mask = masks[row_query[row]]
            mask = np.ones(width, dtype=bool) if mask is None else mask
            runs = _mask_runs(mask)
            exact = math.fsum(p[mask])
            top = cdf_row[runs[-1][1]] if runs else 0.0
            assert abs(mass[row] - exact) <= (width + 2) * 2.0 ** -52 * top
            assert 0 <= sampled[row] < width
            if mass[row] > 0.0:
                assert mask[sampled[row]] and p[sampled[row]] > 0.0
                target, reference_mass = _reference_target(cdf_row, runs,
                                                           draws[row])
                assert mass[row] == reference_mass
                assert sampled[row] == np.argmax(cdf_row > target)
            else:
                assert exact <= (width + 2) * 2.0 ** -52 * top

    @pytest.mark.parametrize("mask", [
        None, [True] * 3 + [False] * 5, [False, True, True, False, True,
                                         False, False, True]],
        ids=["wildcard", "one run", "several"])
    def test_draws_follow_the_truncated_distribution(self, mask):
        """A fine grid of draws lands on each admitted code in proportion to
        its probability, and never outside the mask."""
        probs = np.array([[0.05, 0.2, 0.0, 0.15, 0.1, 0.3, 0.05, 0.15]])
        mask = None if mask is None else np.asarray(mask)
        grid = 10_000
        draws = (np.arange(grid) + 0.5) / grid
        sampled, mass = progressive._truncated_draws(
            np.cumsum(probs, axis=1), np.zeros(grid, dtype=np.int64),
            np.zeros(grid, dtype=np.int64),
            progressive._admitted_runs([mask], probs.shape[1]), draws)
        admitted = probs[0] * (1.0 if mask is None else mask)
        assert mass == pytest.approx(np.full(grid, admitted.sum()), rel=1e-15)
        counts = np.bincount(sampled, minlength=probs.shape[1]) / grid
        np.testing.assert_allclose(counts, admitted / admitted.sum(),
                                   atol=1.5 / grid)

    @pytest.mark.parametrize("width", _SEARCH_WIDTHS)
    def test_zero_mass_rows(self, width):
        """An all-zero CDF row, a mask admitting only zero-probability codes
        and an empty mask all give mass exactly 0 and a code inside the
        row, at every draw; the positive-mass row they share a call with
        samples what it samples alone."""
        probs = np.zeros((3, width))
        probs[1, 0] = 1.0                   # mass only on code 0
        probs[2] = np.arange(1, width + 1) / (width * (width + 1) / 2)
        cumulative = np.cumsum(probs, axis=1)
        masks = [None, np.arange(width) > 0, np.zeros(width, dtype=bool),
                 np.arange(width) % 2 == 0]
        if width == 1:
            masks[1] = np.zeros(1, dtype=bool)
        top = np.nextafter(1.0, 0.0)
        # (cdf row, query) pairs: the zero-mass ones, then the live one last
        # so its window is read next to the zero rows' slots.
        pairs = [(0, 0), (0, 3), (1, 1), (2, 2), (0, 2), (2, 3)]
        row_cdf = np.array([cdf for cdf, _ in pairs for _ in range(3)])
        row_query = np.array([query for _, query in pairs for _ in range(3)])
        draws = np.tile([0.0, 0.5, top], len(pairs))
        runs = progressive._admitted_runs(masks, width)
        sampled, mass = progressive._truncated_draws(
            cumulative.copy(), row_cdf, row_query, runs, draws)
        assert ((0 <= sampled) & (sampled < width)).all()
        assert (mass[:-3] == 0.0).all()
        alone, alone_mass = progressive._truncated_draws(
            cumulative.copy(), row_cdf[-3:], row_query[-3:], runs, draws[-3:])
        assert sampled[-3:].tolist() == alone.tolist()
        assert mass[-3:].tolist() == alone_mass.tolist()
        assert alone_mass[0] > 0.0 and (sampled[-3:] % 2 == 0).all()


class _ChainStub:
    """Two-column stub: ``P(x0) = first``, and ``P(x1 = 1 | x0)`` is 0.9
    when ``x0 == spike`` and 0.1 otherwise."""

    order = [0, 1]

    def __init__(self, first, spike):
        self.first, self.spike = np.asarray(first), spike

    def domain_sizes(self):
        return [self.first.size, 2]

    def conditional_probs(self, column_index, codes):
        if column_index == 0:
            return np.tile(self.first, (codes.shape[0], 1))
        one = np.where(codes[:, 0] == self.spike, 0.9, 0.1)
        return np.stack([1.0 - one, one], axis=1)


class _ConstantDraws:
    """A generator stand-in whose every uniform draw is one value."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


class TestDrawsStayInsideTheMask:
    """Regressions: a draw at either end of ``[0, 1)`` used to sample a code
    the query excludes, and every later column conditioned on it."""

    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("first, spike, admitted, draw, exact", [
        # A zero draw reached the first CDF entry, of an excluded code.
        ([0.5, 0.25, 0.25], 2, [False, False, True], 0.0, 0.25 * 0.9),
        # A ``<=`` range whose last renormalised CDF entry rounded just
        # below the draw fell through to the forced final column, 4.
        ([0.22, 0.11, 0.25, 0.07, 0.35], 4, [True, True, True, True, False],
         np.nextafter(1.0, 0.0), 0.65 * 0.1),
    ], ids=["zero-draw", "top-draw"])
    def test_sampled_code_is_admitted(self, dedup, first, spike, admitted,
                                      draw, exact):
        masks = [np.asarray(admitted), np.array([False, True])]
        estimate = ProgressiveSampler(
            _ChainStub(first, spike), dedup=dedup).estimate_selectivity_batch(
                [masks], num_samples=4, rngs=[_ConstantDraws(draw)])
        assert estimate[0] == pytest.approx(exact, rel=1e-12)


class _SpikeModel:
    """Row-exact stub autoregressive model over declared (huge) domains.

    Each conditional puts its mass on three codes derived from the row's
    visible prefix — one of them at the top of the domain, so sampled codes
    really do reach the declared domain, and few enough that sample paths
    keep sharing prefixes.  ``order`` is the autoregressive order
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


class TestAnswerOwnership:
    """The sampler turns each ``conditional_probs`` answer into CDFs in
    place, so every model — and every wrapper path — must hand out memory it
    does not keep: overwriting one answer cannot change the next."""

    @staticmethod
    def _model(case, skewed_table, oracle):
        from repro.serve import CachedConditionalModel
        from repro.serve.engine import _UnfusedConditionals
        if case == "made":
            return MADEModel(skewed_table, hidden_sizes=(16, 16), seed=7)
        if case == "oracle":
            return oracle
        if case == "noisy-oracle":
            return NoisyOracleModel(skewed_table, noise=0.3)
        if case == "column-networks":
            return ColumnNetworkModel(skewed_table, hidden_sizes=(8,), seed=0)
        if case == "unfused":
            return _UnfusedConditionals(
                MADEModel(skewed_table, hidden_sizes=(16, 16), seed=7))
        if case == "cache-unpacked":
            # Prefixes of four 2^16 columns do not pack: served uncached.
            return CachedConditionalModel(_SpikeModel([2 ** 16] * 5))
        return CachedConditionalModel(
            MADEModel(skewed_table, hidden_sizes=(16, 16), seed=7))

    @pytest.mark.parametrize("case", [
        "made", "oracle", "noisy-oracle", "column-networks", "unfused",
        "cache-full-hit", "cache-partial-hit", "cache-unpacked"])
    def test_caller_may_overwrite_the_answer(self, skewed_table, oracle, case):
        model = self._model(case, skewed_table, oracle)
        codes = skewed_table.encoded()[:60]
        if case == "cache-unpacked":
            codes = np.random.default_rng(0).integers(0, 2 ** 16, (60, 5))
            assert model._prefix_radix[4] is None
        for column in model.order:
            if case == "cache-full-hit":
                model.conditional_probs(column, codes)
            elif case == "cache-partial-hit":
                model.conditional_probs(column, codes[::2])
            stats = getattr(model, "stats", None)
            hits, misses = (stats.hits, stats.misses) if stats else (0, 0)
            answer = model.conditional_probs(column, codes)
            expected = answer.copy()
            answer[...] = -1.0
            if case == "cache-full-hit":
                assert stats.misses == misses
            elif case == "cache-partial-hit" and column != model.order[0]:
                assert stats.hits > hits and stats.misses > misses
            assert np.array_equal(model.conditional_probs(column, codes),
                                  expected)


class TestPrefixDeduplication:
    """Prefix-deduplicated sampling must be *bit-identical* to the unfused
    per-row walk: the model is row-exact, the random draws are consumed
    before liveness checks, and the draw from a prefix's shared CDF is
    row-pure — so turning dedup on changes performance counters, never a
    single output bit."""

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

    def test_mixed_wildcard_batch_is_bit_identical(self, skewed_table, oracle,
                                                   trained_made):
        """Every column sees filtered and wildcard queries side by side — and
        queries that finish early — so each row has to draw inside its own
        query's runs from the CDF its prefix shares with other queries'
        rows.  Narrow masks over a spiky model add prefixes with no mass at
        all, in a mixed batch and in a batch of one."""
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
        made = MADEModel(skewed_table, hidden_sizes=(16, 16), seed=7)
        sizes = list(skewed_table.domain_sizes)
        spike = _SpikeModel(sizes)
        cases = [(model, masks_batch) for model in (oracle, made)]
        for batch in (filtered_columns, [(0, 1, 3)]):
            narrow = self._random_masks(np.random.default_rng(23), sizes, batch)
            for masks in narrow:
                for column_mask in masks:
                    if column_mask is not None:
                        column_mask[-3:] = [False, True, False]
            cases += [(spike, narrow), (oracle, narrow), (trained_made, narrow)]
        for model, masks in cases:
            estimates = []
            for dedup in (True, False):
                rngs = [np.random.default_rng(900 + index)
                        for index in range(len(masks))]
                estimates.append(ProgressiveSampler(
                    model, seed=0, dedup=dedup).estimate_selectivity_batch(
                        masks, num_samples=300, rngs=rngs))
            assert np.array_equal(estimates[0], estimates[1])
            if model is spike:
                assert 0.0 < estimates[0].min() < 1.0
            if len(masks) == len(filtered_columns):
                assert estimates[0][-1] == 1.0   # the all-wildcard query

    @pytest.mark.parametrize("domain_sizes, num_queries", [
        # Four prefix columns of 2^16: 2^64 possible prefixes, more than any
        # int64 mixed radix packs — the walk keys a prefix by its parent's
        # rank, which never exceeds the rows.
        ([2 ** 16] * 5, 2),
        # Five prefix columns of 2^12 pack (2^60); times twelve queries the
        # old fused (prefix, query) key would have wrapped.  That key and its
        # overflow branch are gone — rows sort by prefix alone — and the
        # case stays to show the rank key still serves twelve queries.
        ([2 ** 12] * 6, 12),
    ])
    def test_overflow_fallbacks_are_bit_identical(self, domain_sizes,
                                                  num_queries):
        model = _SpikeModel(domain_sizes)
        last = len(domain_sizes) - 1
        assert math.prod(domain_sizes[:last]) * num_queries >= 2 ** 62
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
    # The sorted-order walk: carried keys, working set.

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

    @settings(max_examples=40, deadline=None)
    @given(domain_sizes=st.lists(st.sampled_from([2, 3, 11, 2 ** 16]),
                                 min_size=3, max_size=6),
           shuffle=st.randoms(use_true_random=False),
           seed=st.integers(0, 2 ** 32 - 1))
    # Four prefix columns of 2^16 have more prefixes than an int64 mixed
    # radix packs (the conditional cache serves them uncached); the rank
    # walk keys them like any other.
    @example(domain_sizes=[3] + [2 ** 16] * 5, shuffle=None, seed=1)
    def test_model_sees_each_distinct_prefix_once_in_order(
            self, domain_sizes, shuffle, seed):
        """At every position the model is shown exactly the distinct visible
        prefixes of the alive rows, each once, in sorted order:
        ``np.unique(codes[alive][:, order[:p]], axis=0)``.  The alive rows'
        codes are what the dedup-off walk, drawing the same codes, shows."""
        from repro.serve.cache import prefix_radix
        order = list(range(len(domain_sizes)))
        if shuffle is None:
            order.reverse()
        else:
            shuffle.shuffle(order)
        rng = np.random.default_rng(seed)
        masks_batch = self._random_masks(
            rng, domain_sizes,
            [tuple(np.flatnonzero(rng.random(len(domain_sizes)) < 0.7))
             for _ in range(3)] + [tuple(order)])
        seen = {}
        for dedup in (True, False):
            model = _SpikeModel(domain_sizes, order)
            calls = seen[dedup] = []
            inner = model.conditional_probs

            def spy(column, codes, inner=inner, calls=calls):
                calls.append((column, codes.copy()))
                return inner(column, codes)

            model.conditional_probs = spy
            ProgressiveSampler(model, seed=0, dedup=dedup).estimate_selectivity_batch(
                masks_batch, num_samples=12,
                rngs=[np.random.default_rng(seed + index) for index in range(4)])
        assert len(seen[True]) == len(seen[False]) == len(domain_sizes)
        for position, ((column, shown), (reference_column, alive_codes)) in enumerate(
                zip(seen[True], seen[False])):
            assert column == reference_column == order[position]
            prefix = order[:position]
            assert np.array_equal(shown[:, prefix],
                                  np.unique(alive_codes[:, prefix], axis=0))
            # Unsampled columns are still zero: a shown row is its prefix.
            assert not shown[:, order[position:]].any()
        if shuffle is None:
            packs = [prefix_radix([domain_sizes[column] for column in order[:position]])
                     is not None for position in range(len(order))]
            assert packs == [True] * 4 + [False] * 2

    @settings(max_examples=40, deadline=None)
    @given(size=st.sampled_from([2, 11, 2 ** 16, 2 ** 40, 2 ** 50]),
           prefixes=st.integers(1, 5000),
           data=st.data())
    # A declared domain of 2^40 under 4096 ranks leaves no room for 4096 row
    # ids below 2^63: the stable argsort orders the keys.
    @example(size=2 ** 40, prefixes=4096, data=None)
    def test_rank_keys_sort_rows_by_prefix(self, size, prefixes, data):
        """``rank × |A| + code`` with the row id in the low bits sorts in one
        ``np.sort``; where the ids do not fit, ``argsort`` gives the same
        rows and keys.  Both order by prefix, then by row."""
        rng = np.random.default_rng(prefixes)
        count = prefixes if data is None else data.draw(st.integers(1, 3 * prefixes))
        rows = np.sort(rng.choice(4 * count, size=count, replace=False))
        rank = rng.integers(0, prefixes, count)
        if data is None:
            rank[:prefixes] = np.arange(prefixes)
        code = rng.integers(max(0, size - 3), size, count)   # the top codes
        code[::2] = rng.integers(0, min(size, 3), code[::2].size)
        key = rank * size + code
        order = np.lexsort((rows, key))
        expected_rows, expected_key = rows[order], key[order]
        shift = int(rows[-1]).bit_length()
        argsorted = prefixes * size << shift > 2 ** 63
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            sorted_rows, sorted_key = progressive._sort_by_key(
                key.copy(), rows, prefixes * size)
        assert argsort.called == argsorted
        if data is None:
            assert argsorted
        assert np.array_equal(sorted_rows, expected_rows)
        assert np.array_equal(sorted_key, expected_key)

    def test_a_hit_read_in_place_draws_from_its_own_stored_row(
            self, skewed_table, workload):
        """A warm batch that hits only some entries of a stored run reads
        each prefix's CDF at the row the cache names, not at its rank: the
        estimates are the uncached model's bits, and the hits were read in
        place."""
        from repro.serve import CachedConditionalModel
        made = MADEModel(skewed_table, hidden_sizes=(16, 16), seed=7)
        model = CachedConditionalModel(made)
        masks_batch = [query.column_masks(skewed_table) for query in workload[:12]]

        def estimate(sampler, queries):
            return sampler.estimate_selectivity_batch(
                [masks_batch[index] for index in queries], num_samples=200,
                rngs=[np.random.default_rng(70 + index) for index in queries])

        estimate(ProgressiveSampler(model, seed=0), range(12))   # cold: one run a column
        misses = model.stats.misses
        read_in_place = []
        inner = model.conditional_probs

        def spy(column, codes, **kwargs):
            answer = inner(column, codes, **kwargs)
            read_in_place.append(kwargs["stored"].rows is not None)
            return answer

        model.conditional_probs = spy
        warm = estimate(ProgressiveSampler(model, seed=0), [5, 6])
        assert np.array_equal(warm, estimate(ProgressiveSampler(made, seed=0), [5, 6]))
        assert model.stats.misses == misses and sum(read_in_place) >= 2

    def test_working_set_is_the_answer_plus_row_vectors(self):
        """One 16-query × 800-path batch over a warm conditional cache peaks
        at the cache's owned answers plus row-length vectors — not at more
        arrays the size of the answer.  An answer read in place is a view
        of the store, not an allocation."""
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

        def spy(column, codes, **kwargs):
            answers.append(inner(column, codes, **kwargs))
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
        # the row-length vectors (codes, keys, draws, order, run bounds,
        # search positions, the cache's probe positions ...), counted
        # generously.
        held = sum(answer.nbytes for answer in answers if answer.flags.owndata)
        allowance = (table.num_columns + 24) * rows * 8
        assert max(answer.nbytes for answer in answers) > 2 * allowance
        assert peak < held + allowance


class _Stateless:
    """A model seen without its carry: the sampler calls it the stateless way."""

    def __init__(self, model):
        self.model, self.order = model, model.order

    def domain_sizes(self):
        return self.model.domain_sizes()

    def conditional_probs(self, column_index, codes):
        return self.model.conditional_probs(column_index, codes)


def _table_of_codes(domain_sizes, seed):
    """A table whose columns take every code of their domain."""
    from repro.data import Table
    rng = np.random.default_rng(seed)
    rows = max(domain_sizes)
    return Table.from_dict({f"c{index}": rng.permutation(rows) % size
                            for index, size in enumerate(domain_sizes)})


#: One-hot or embedded by the threshold drawn; the second table's prefixes of
#: five 2^13 columns are more than an int64 mixed radix packs.
_CARRY_TABLES = {"mixed": [5, 120, 2, 30], "wide": [2 ** 13] * 5 + [3]}


class TestPrefixSumCarry:
    """A MADE carries each prefix's first-layer sum down the walk and adds
    one gather-table row per position: the estimates must be the bits of
    the stateless walk, and every answer the bits of the unfused forward."""

    @pytest.fixture(scope="class")
    def tables(self):
        return {name: _table_of_codes(sizes, seed=11)
                for name, sizes in _CARRY_TABLES.items()}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_carried_equals_stateless_and_unfused(self, tables, data):
        name = data.draw(st.sampled_from(sorted(tables)), label="table")
        table = tables[name]
        width = table.num_columns
        if name == "wide":
            # The narrow column last: position 5's prefix is five wide ones.
            order = list(data.draw(st.permutations(range(width - 1)),
                                   label="order")) + [width - 1]
        else:
            order = list(data.draw(st.permutations(range(width)), label="order"))
        model = MADEModel(
            table, order=order, embedding_dim=4, seed=3,
            hidden_sizes=data.draw(st.sampled_from([(), (8,), (8, 8)]),
                                   label="hidden"),
            # The wide columns are always embedded; one-hot they would need
            # a 40k-square first layer.
            embedding_threshold=data.draw(st.sampled_from(
                [3, 40] if name == "wide" else [3, 40, 1000]), label="threshold"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="seed"))
        for param in model.parameters():   # moved weights: signs, biases
            param.data = rng.normal(size=param.data.shape) * 0.5
        kinds = ["wildcard", "point", "range", "several"]
        masks_batch = []
        for query in range(data.draw(st.integers(1, 3), label="queries")):
            masks = []
            for column, size in enumerate(table.domain_sizes):
                kind = data.draw(st.sampled_from(kinds), label=f"q{query}c{column}")
                mask = np.zeros(size, dtype=bool)
                if kind == "wildcard":
                    mask = None
                elif kind == "point":     # every row shares the code
                    mask[rng.integers(size)] = True
                elif kind == "range":
                    lo = int(rng.integers(size))
                    mask[lo:int(rng.integers(lo, size)) + 1] = True
                else:
                    mask = rng.random(size) < 0.5
                    mask[rng.integers(size)] = True
                masks.append(mask)
            masks_batch.append(masks)
        if name == "wide" and masks_batch[0][-1] is None:
            masks_batch[0][-1] = np.ones(3, dtype=bool)   # walk to position 5
        dedup = data.draw(st.booleans(), label="dedup")
        num_samples = 6 if name == "wide" else 40

        carried_calls = []
        inner = model.conditional_probs

        def spy(column_index, codes, *, carry=None):
            carried_calls.append(carry is not None and carry.sums is not None)
            answer = inner(column_index, codes, carry=carry)
            assert np.array_equal(
                answer, model.conditional_probs_unfused(column_index, codes))
            return answer

        model.conditional_probs = spy

        def estimates(target):
            rngs = [np.random.default_rng(70 + index)
                    for index in range(len(masks_batch))]
            return ProgressiveSampler(target, seed=0, dedup=dedup) \
                .estimate_selectivity_batch(masks_batch, num_samples=num_samples,
                                            rngs=rngs)

        carried = estimates(model)
        used = list(carried_calls)
        assert np.array_equal(carried, estimates(_Stateless(model)))
        # A carry reaches every call after the second when there is a
        # first layer to carry; the stateless walk passes none.
        assert used[2:] == [bool(model.layers)] * len(used[2:])
        assert not any(carried_calls[len(used):])
