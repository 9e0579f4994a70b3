"""Tests for the baseline estimators of Table 2 (plus the Chow-Liu extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ColumnSpec, make_independent_table, make_users
from repro.estimators import (
    CardinalityEstimator,
    ChowLiuEstimator,
    DBMS1Estimator,
    IndependenceEstimator,
    KDEEstimator,
    KDESupervEstimator,
    MSCNEstimator,
    MultiDimHistogramEstimator,
    PostgresEstimator,
    SamplingEstimator,
    TruthEstimator,
)
from repro.query import (DNFQuery, Operator, Predicate, Query, WorkloadGenerator, q_error,
                         true_selectivity)
from repro.serve import generate_shape_workload


def _labeled_workload(table, count, seed=0, min_filters=2, max_filters=4):
    generator = WorkloadGenerator(table, min_filters=min_filters,
                                  max_filters=max_filters, seed=seed)
    return generator.generate_labeled(count)


def _median_q_error(estimator, labeled):
    errors = [q_error(estimator.estimate_cardinality(item.query), item.cardinality)
              for item in labeled]
    return float(np.median(errors))


class TestTruthEstimator:
    def test_always_exact(self, medium_table):
        estimator = TruthEstimator(medium_table)
        for item in _labeled_workload(medium_table, 10):
            assert estimator.estimate_cardinality(item.query) == pytest.approx(item.cardinality)

    def test_set_row_count_validation(self, medium_table):
        estimator = TruthEstimator(medium_table)
        with pytest.raises(ValueError):
            estimator.set_row_count(0)


class TestIndependenceEstimator:
    def test_exact_on_independent_data(self):
        specs = [ColumnSpec("a", 6), ColumnSpec("b", 8, "ordinal")]
        table = make_independent_table(specs, 20_000, seed=0)
        estimator = IndependenceEstimator(table)
        query = Query.from_tuples([("a", "=", str(table.column("a").domain[0])),
                                   ("b", "<=", int(table.column("b").domain[4]))])
        truth = true_selectivity(table, query)
        assert estimator.estimate_selectivity(query) == pytest.approx(truth, rel=0.15)

    def test_single_filter_is_exact(self, medium_table):
        estimator = IndependenceEstimator(medium_table)
        value = medium_table.column("a").domain[0]
        query = Query.from_tuples([("a", "=", str(value))])
        assert estimator.estimate_selectivity(query) == pytest.approx(
            true_selectivity(medium_table, query), abs=1e-12)

    def test_underestimates_on_correlated_data(self, medium_table):
        estimator = IndependenceEstimator(medium_table)
        labeled = _labeled_workload(medium_table, 30, seed=3, min_filters=3, max_filters=5)
        ratios = []
        for item in labeled:
            if item.cardinality > 5:
                ratios.append(estimator.estimate_cardinality(item.query) / item.cardinality)
        assert np.median(ratios) < 1.0

    def test_zero_for_absent_literal(self, medium_table):
        query = Query.from_tuples([("a", "=", "no_such_value")])
        assert IndependenceEstimator(medium_table).estimate_selectivity(query) == 0.0


class TestHistogramEstimator:
    def test_exact_with_one_bucket_per_value(self, tiny_table):
        estimator = MultiDimHistogramEstimator(tiny_table, buckets_per_column=1000)
        for item in _labeled_workload(tiny_table, 15, seed=1):
            assert estimator.estimate_cardinality(item.query) == pytest.approx(
                item.cardinality, abs=1e-6)

    def test_budget_limits_size(self, medium_table):
        small = MultiDimHistogramEstimator(medium_table, storage_budget_bytes=10_000)
        assert small.size_bytes() <= 10_000

    def test_wildcard_query(self, medium_table):
        estimator = MultiDimHistogramEstimator(medium_table, buckets_per_column=3)
        assert estimator.estimate_selectivity(Query([])) == pytest.approx(1.0, abs=1e-9)

    def test_coarse_buckets_lose_accuracy(self, tiny_table):
        labeled = [item for item in _labeled_workload(tiny_table, 25, seed=2)
                   if item.cardinality > 0]
        fine = MultiDimHistogramEstimator(tiny_table, buckets_per_column=1000)
        coarse = MultiDimHistogramEstimator(tiny_table, buckets_per_column=2)
        assert _median_q_error(fine, labeled) <= _median_q_error(coarse, labeled)


class TestPostgresEstimator:
    def test_single_equality_mcv_is_near_exact(self, medium_table):
        estimator = PostgresEstimator(medium_table, num_mcvs=200)
        common_code = int(np.argmax(medium_table.column("a").marginal()))
        value = medium_table.column("a").domain[common_code]
        query = Query.from_tuples([("a", "=", str(value))])
        assert estimator.estimate_selectivity(query) == pytest.approx(
            true_selectivity(medium_table, query), rel=0.05)

    def test_range_predicate_reasonable(self, medium_table):
        estimator = PostgresEstimator(medium_table)
        cutoff = int(medium_table.column("d").domain[25])
        query = Query.from_tuples([("d", "<=", cutoff)])
        truth = true_selectivity(medium_table, query)
        assert estimator.estimate_selectivity(query) == pytest.approx(truth, abs=0.2)

    def test_all_operator_kinds_supported(self, medium_table):
        estimator = PostgresEstimator(medium_table)
        column = medium_table.column("d")
        literal = int(column.domain[10])
        for operator in ("=", "!=", "<", "<=", ">", ">="):
            query = Query.from_tuples([("d", operator, literal)])
            assert 0.0 <= estimator.estimate_selectivity(query) <= 1.0
        in_query = Query([Predicate("d", Operator.IN, [literal, int(column.domain[11])])])
        between_query = Query([Predicate("d", Operator.BETWEEN,
                                         (literal, int(column.domain[20])))])
        assert 0.0 <= estimator.estimate_selectivity(in_query) <= 1.0
        assert 0.0 <= estimator.estimate_selectivity(between_query) <= 1.0

    def test_size_reported(self, medium_table):
        assert PostgresEstimator(medium_table).size_bytes() > 0


class TestDBMS1Estimator:
    def test_better_than_postgres_on_correlated_equalities(self, medium_table):
        labeled = [item for item in _labeled_workload(medium_table, 40, seed=7,
                                                      min_filters=3, max_filters=5)
                   if item.cardinality > 0]
        postgres = PostgresEstimator(medium_table)
        dbms1 = DBMS1Estimator(medium_table)
        assert _median_q_error(dbms1, labeled) <= _median_q_error(postgres, labeled) * 1.5

    def test_estimates_bounded(self, medium_table):
        estimator = DBMS1Estimator(medium_table)
        for item in _labeled_workload(medium_table, 20, seed=8):
            assert 0.0 <= estimator.estimate_selectivity(item.query) <= 1.0


class TestSamplingEstimator:
    def test_full_sample_is_exact(self, medium_table):
        estimator = SamplingEstimator(medium_table, fraction=1.0, seed=0)
        for item in _labeled_workload(medium_table, 15, seed=4):
            assert estimator.estimate_cardinality(item.query) == pytest.approx(item.cardinality)

    def test_sample_size_argument(self, medium_table):
        estimator = SamplingEstimator(medium_table, sample_size=100)
        assert estimator.sample_size == 100

    def test_invalid_fraction(self, medium_table):
        with pytest.raises(ValueError):
            SamplingEstimator(medium_table, fraction=0.0)

    def test_low_selectivity_failure_mode(self, medium_table):
        """With no qualifying sampled tuple the estimate collapses to zero."""
        estimator = SamplingEstimator(medium_table, sample_size=20, seed=0)
        rare = Query.from_tuples([
            ("a", "=", str(medium_table.column("a").domain[-1])),
            ("e", "=", str(medium_table.column("e").domain[-1])),
            ("g", "=", str(medium_table.column("g").domain[-1])),
        ])
        assert estimator.estimate_selectivity(rare) in (0.0, pytest.approx(0.0, abs=0.2))

    def test_good_accuracy_on_high_selectivity(self, medium_table):
        estimator = SamplingEstimator(medium_table, fraction=0.3, seed=1)
        labeled = [item for item in _labeled_workload(medium_table, 30, seed=5)
                   if item.selectivity > 0.05]
        assert _median_q_error(estimator, labeled) < 1.6


class TestKDEEstimators:
    def test_estimates_bounded(self, medium_table):
        estimator = KDEEstimator(medium_table, sample_size=300)
        for item in _labeled_workload(medium_table, 20, seed=6):
            assert 0.0 <= estimator.estimate_selectivity(item.query) <= 1.0

    def test_feedback_tuning_does_not_hurt(self, medium_table):
        labeled = [item for item in _labeled_workload(medium_table, 30, seed=11)
                   if item.cardinality > 0]
        train, test = labeled[:20], labeled[20:]
        untuned = KDEEstimator(medium_table, sample_size=300, seed=0)
        tuned = KDESupervEstimator(medium_table, sample_size=300, seed=0)
        tuned.fit_feedback([(item.query, item.cardinality) for item in train], passes=1)
        assert _median_q_error(tuned, test) <= _median_q_error(untuned, test) * 1.2

    def test_feedback_requires_training_queries(self, medium_table):
        with pytest.raises(ValueError):
            KDESupervEstimator(medium_table).fit_feedback([])

    def test_size_reported(self, medium_table):
        assert KDEEstimator(medium_table, sample_size=100).size_bytes() > 0


class TestMSCNEstimator:
    def test_requires_training(self, medium_table):
        estimator = MSCNEstimator(medium_table, sample_size=50)
        with pytest.raises(RuntimeError):
            estimator.estimate_selectivity(Query.from_tuples([("a", "=", "a_0")]))

    def test_requires_nonempty_training_set(self, medium_table):
        with pytest.raises(ValueError):
            MSCNEstimator(medium_table).fit([])

    def test_training_reduces_loss_and_learns_workload(self, medium_table):
        labeled = _labeled_workload(medium_table, 150, seed=12, min_filters=2, max_filters=5)
        estimator = MSCNEstimator(medium_table, sample_size=200, seed=0)
        losses = estimator.fit(labeled, epochs=15)
        assert losses[-1] < losses[0]
        test = [item for item in _labeled_workload(medium_table, 30, seed=13)
                if item.cardinality > 0]
        assert _median_q_error(estimator, test) < 20.0

    def test_variant_without_sample_bitmap(self, medium_table):
        labeled = _labeled_workload(medium_table, 80, seed=14)
        estimator = MSCNEstimator(medium_table, sample_size=0, seed=0)
        assert estimator.name == "MSCN-0"
        estimator.fit(labeled, epochs=5)
        query = labeled[0].query
        assert 0.0 <= estimator.estimate_selectivity(query) <= 1.0

    def test_names_reflect_sample_size(self, medium_table):
        assert MSCNEstimator(medium_table, sample_size=500).name == "MSCN-500"


class TestChowLiuEstimator:
    def test_single_filter_matches_marginal(self, medium_table):
        estimator = ChowLiuEstimator(medium_table)
        value = medium_table.column("c").domain[0]
        query = Query.from_tuples([("c", "=", str(value))])
        assert estimator.estimate_selectivity(query) == pytest.approx(
            true_selectivity(medium_table, query), rel=0.05)

    def test_better_than_independence_on_correlated_data(self, medium_table):
        labeled = [item for item in _labeled_workload(medium_table, 40, seed=15,
                                                      min_filters=2, max_filters=3)
                   if item.cardinality > 0]
        chow_liu = ChowLiuEstimator(medium_table)
        independence = IndependenceEstimator(medium_table)
        assert _median_q_error(chow_liu, labeled) <= _median_q_error(independence, labeled)

    def test_estimates_bounded(self, medium_table):
        estimator = ChowLiuEstimator(medium_table)
        for item in _labeled_workload(medium_table, 15, seed=16):
            assert 0.0 <= estimator.estimate_selectivity(item.query) <= 1.0

    def test_tree_structure_is_spanning(self, medium_table):
        estimator = ChowLiuEstimator(medium_table)
        roots = [child for child, parent in enumerate(estimator._parents) if parent is None]
        assert len(roots) == 1
        assert len(estimator._parents) == medium_table.num_columns


class _TermsByWidth(CardinalityEstimator):
    """Answers a conjunction by its predicate count alone, a DNF by expansion."""

    def __init__(self, table, by_width: dict[int, float]) -> None:
        super().__init__(table)
        self.by_width = by_width

    def estimate_selectivity(self, query):
        if isinstance(query, DNFQuery):
            return self._inclusion_exclusion(query, self.estimate_selectivity)
        return self.by_width[len(query.predicates)]


class TestInclusionExclusionClips:
    # Two one-predicate branches: the expansion is +A +B -(A and B).
    QUERY = DNFQuery.from_tuples([[("a", "=", "0")], [("b", "=", "1")]])

    @pytest.mark.parametrize("by_width, expected, clips", [
        ({1: 0.3, 2: 0.1}, 0.3 + 0.3 - 0.1, 0),   # inside [0, 1]: returned as summed
        ({1: 0.2, 2: 0.5}, 0.0, 1),                # sums to -0.1
        ({1: 0.7, 2: 0.2}, 1.0, 1),                # sums to 1.2
    ])
    def test_each_clip_is_counted_and_the_value_kept(self, by_width, expected, clips):
        table = make_independent_table([ColumnSpec("a", 3), ColumnSpec("b", 3)], 30)
        estimator = _TermsByWidth(table, by_width)
        assert estimator.inclusion_exclusion_clips == 0
        for repeat in (1, 2):
            assert estimator.estimate_selectivity(self.QUERY) == expected
            assert estimator.inclusion_exclusion_clips == clips * repeat
        assert _TermsByWidth(table, by_width).inclusion_exclusion_clips == 0

    def test_exact_terms_reproduce_the_exact_union(self):
        """With exact per-term selectivities the expansion is the union's
        exact selectivity, up to float round-off, and nothing is clipped."""
        users = make_users(num_users=120)
        truth = TruthEstimator(users)
        queries = [query for query in generate_shape_workload(
            {"users": users}, 8, dnf_fraction=1.0, like_fraction=0.0,
            dnf_branches=(2, 3), min_filters=1, max_filters=2, seed=1)
            if isinstance(query, DNFQuery)]
        assert queries
        for query in queries:
            expanded = truth._inclusion_exclusion(query,
                                                  truth.estimate_selectivity)
            assert abs(expanded - truth.estimate_selectivity(query)) <= 1e-9
        assert truth.inclusion_exclusion_clips == 0
