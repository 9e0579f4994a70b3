"""Integration tests for the public NaruEstimator API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NaruConfig, NaruEstimator
from repro.data import ColumnSpec, make_correlated_table
from repro.query import Query, WorkloadGenerator, q_error


class TestNaruEstimatorLifecycle:
    def test_estimating_before_fit_raises(self, tiny_table):
        estimator = NaruEstimator(tiny_table, NaruConfig(epochs=1, hidden_sizes=(8,)))
        with pytest.raises(RuntimeError):
            estimator.estimate_selectivity(Query.from_tuples([("city", "=", "city_0")]))

    def test_fit_returns_history(self, tiny_table):
        estimator = NaruEstimator(tiny_table, NaruConfig(epochs=2, hidden_sizes=(16,)))
        history = estimator.fit()
        assert history.num_epochs == 2

    def test_name_includes_sample_count(self, tiny_table):
        estimator = NaruEstimator(tiny_table,
                                  NaruConfig(epochs=0, progressive_samples=123))
        assert estimator.name == "Naru-123"

    def test_size_bytes_counts_parameters(self, tiny_table):
        estimator = NaruEstimator(tiny_table, NaruConfig(epochs=0, hidden_sizes=(32,)))
        assert estimator.size_bytes() == estimator.model.num_parameters() * 4

    def test_column_architecture_variant(self, tiny_table):
        config = NaruConfig(architecture="column", epochs=1, hidden_sizes=(16,),
                            progressive_samples=100)
        estimator = NaruEstimator(tiny_table, config)
        estimator.fit()
        query = Query.from_tuples([("year", ">=", int(tiny_table.column("year").domain[3]))])
        assert 0.0 <= estimator.estimate_selectivity(query) <= 1.0


class TestNaruEstimatorAccuracy:
    def test_selectivity_in_unit_interval(self, trained_naru, tiny_table):
        generator = WorkloadGenerator(tiny_table, min_filters=1, max_filters=4, seed=0)
        for query in generator.generate(20):
            assert 0.0 <= trained_naru.estimate_selectivity(query) <= 1.0

    def test_cardinality_scales_selectivity(self, trained_naru, tiny_table):
        query = Query.from_tuples([("city", "=", str(tiny_table.column("city").domain[0]))])
        selectivity = trained_naru.estimate_selectivity(query)
        assert trained_naru.estimate_cardinality(query) == pytest.approx(
            selectivity * tiny_table.num_rows)

    def test_accuracy_beats_random_guessing(self, trained_naru, tiny_table):
        generator = WorkloadGenerator(tiny_table, min_filters=2, max_filters=4, seed=9)
        errors = []
        for item in generator.generate_labeled(25):
            estimate = trained_naru.estimate_cardinality(item.query)
            errors.append(q_error(estimate, item.cardinality))
        assert np.median(errors) < 6.0

    def test_wildcard_query_estimates_full_table(self, trained_naru):
        assert trained_naru.estimate_selectivity(Query([])) == pytest.approx(1.0, abs=0.05)

    def test_methods_agree_on_small_regions(self, trained_naru, tiny_table):
        query = Query.from_tuples([
            ("city", "=", str(tiny_table.column("city").domain[0])),
            ("stars", "=", str(tiny_table.column("stars").domain[0])),
        ])
        enumerated = trained_naru.estimate_selectivity(query, method="enumerate")
        sampled = trained_naru.estimate_selectivity(query, method="progressive",
                                                    num_samples=4000)
        assert sampled == pytest.approx(enumerated, rel=0.3, abs=0.01)

    def test_unknown_method_rejected(self, trained_naru, tiny_table):
        query = Query.from_tuples([("city", "=", "city_0")])
        with pytest.raises(ValueError):
            trained_naru.estimate_selectivity(query, method="magic")

    def test_uniform_method_available_for_ablation(self, trained_naru, tiny_table):
        query = Query.from_tuples([("year", ">=", int(tiny_table.column("year").domain[2]))])
        estimate = trained_naru.estimate_selectivity(query, method="uniform",
                                                     num_samples=500)
        assert 0.0 <= estimate <= 1.0

    def test_point_likelihood(self, trained_naru, tiny_table):
        values = dict(zip(tiny_table.column_names, tiny_table.raw_row(0)))
        likelihood = trained_naru.point_likelihood(values)
        assert 0.0 < likelihood <= 1.0

    def test_point_likelihood_requires_all_columns(self, trained_naru, tiny_table):
        with pytest.raises(ValueError, match="missing"):
            trained_naru.point_likelihood({"city": tiny_table.raw_row(0)[0]})

    def test_point_likelihood_rejects_unknown_columns(self, trained_naru, tiny_table):
        # Unknown names must raise a clear ValueError *before* the encoding
        # loop can surface an opaque KeyError — even when every real column
        # is present alongside the bogus one.
        values = dict(zip(tiny_table.column_names, tiny_table.raw_row(0)))
        values["no_such_column"] = 1
        with pytest.raises(ValueError, match="no_such_column"):
            trained_naru.point_likelihood(values)
        # And the unknown-name diagnosis wins over the missing-name one.
        with pytest.raises(ValueError, match="not in table"):
            trained_naru.point_likelihood({"bogus": 1})

    def test_entropy_gap_reported(self, trained_naru):
        gap = trained_naru.entropy_gap_bits(sample_rows=500)
        assert gap >= 0.0


class TestNaruRefresh:
    def test_refresh_improves_fit_on_shifted_data(self):
        specs = [ColumnSpec("a", 10, skew=1.4), ColumnSpec("b", 15, "ordinal", skew=1.2),
                 ColumnSpec("c", 6, skew=1.3)]
        full = make_correlated_table(specs, num_rows=1500, seed=33)
        estimator = NaruEstimator(full, NaruConfig(epochs=0, hidden_sizes=(32, 32),
                                                   progressive_samples=200))
        # Train only on the first half of the rows, then refresh on the rest.
        codes = full.encoded()
        estimator.refresh(codes[:750], epochs=6)
        stale_gap = estimator.entropy_gap_bits(sample_rows=None)
        estimator.refresh(codes, epochs=4)
        refreshed_gap = estimator.entropy_gap_bits(sample_rows=None)
        assert refreshed_gap <= stale_gap + 0.5

    def test_refresh_alone_fits_the_model(self, tiny_table):
        """An estimator trained only through refresh() answers; epochs=0
        trains nothing and leaves it unfitted."""
        estimator = NaruEstimator(tiny_table, NaruConfig(
            epochs=0, hidden_sizes=(16,), progressive_samples=100))
        query = Query.from_tuples([("city", "=", "city_0")])
        codes = tiny_table.encoded()
        estimator.refresh(codes, epochs=0)
        with pytest.raises(RuntimeError):
            estimator.estimate_selectivity(query)
        estimator.refresh(codes, epochs=1)
        assert 0.0 <= estimator.estimate_selectivity(query) <= 1.0
