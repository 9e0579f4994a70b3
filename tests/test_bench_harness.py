"""Tests for the benchmark harness, report formatting, scales and registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    EXPERIMENTS,
    PAPER,
    SMOKE,
    EstimatorRun,
    NaruSampleVariant,
    accuracy_by_bucket,
    active_scale,
    compare_estimators,
    format_accuracy_table,
    format_latency_table,
    format_series,
    format_summary_table,
    list_experiments,
    run_experiment,
    run_estimator,
)
from repro.bench.reports import format_error
from repro.core import NaruConfig, NaruEstimator
from repro.estimators import IndependenceEstimator, TruthEstimator
from repro.query import ErrorSummary, WorkloadGenerator


@pytest.fixture()
def workload(medium_table):
    generator = WorkloadGenerator(medium_table, min_filters=2, max_filters=4, seed=3)
    return generator.generate_labeled(12)


class TestHarness:
    def test_run_estimator_records_everything(self, medium_table, workload):
        run = run_estimator(TruthEstimator(medium_table), workload)
        assert run.name == "Truth"
        assert len(run.errors) == len(workload)
        assert len(run.latencies_ms) == len(workload)
        assert all(latency >= 0 for latency in run.latencies_ms)
        # The truth estimator is exact, so every q-error is 1.
        assert run.max_error() == pytest.approx(1.0)
        assert run.overall_summary().median == pytest.approx(1.0)

    def test_compare_estimators_keys_by_name(self, medium_table, workload):
        runs = compare_estimators(
            [TruthEstimator(medium_table), IndependenceEstimator(medium_table)], workload)
        assert set(runs) == {"Truth", "Indep"}

    def test_accuracy_by_bucket_structure(self, medium_table, workload):
        runs = compare_estimators([TruthEstimator(medium_table)], workload)
        buckets = accuracy_by_bucket(runs)
        assert set(buckets["Truth"]) == {"high", "medium", "low"}

    def test_latency_quantiles(self, medium_table, workload):
        run = run_estimator(IndependenceEstimator(medium_table), workload)
        quantiles = run.latency_quantiles()
        assert set(quantiles) == {0.5, 0.95, 0.99}
        assert quantiles[0.5] <= quantiles[0.99] + 1e-9

    def test_empty_run_summary(self):
        run = EstimatorRun(name="empty")
        assert np.isnan(run.overall_summary().median)
        assert np.isnan(run.max_error())


class TestNaruSampleVariant:
    def test_variant_uses_fixed_sample_budget(self, tiny_table, trained_naru, workload):
        variant = NaruSampleVariant(trained_naru, 128)
        assert variant.name == "Naru-128"
        generator = WorkloadGenerator(tiny_table, min_filters=2, max_filters=3, seed=5)
        query = generator.generate_query()
        estimate = variant.estimate_selectivity(query)
        assert 0.0 <= estimate <= 1.0
        assert variant.size_bytes() == trained_naru.size_bytes()


class TestReports:
    def test_format_error_ranges(self):
        assert format_error(float("nan")) == "-"
        assert format_error(1.234) == "1.23"
        assert format_error(123.4) == "123"
        assert format_error(23_456) == "2e4"

    def test_accuracy_table_contains_all_estimators(self):
        summary = ErrorSummary(count=3, median=1.2, p95=2.0, p99=3.0, maximum=4.0)
        results = {"Naru": {"high": summary, "medium": summary, "low": summary}}
        text = format_accuracy_table(results, "Title")
        assert "Naru" in text and "Title" in text and "1.20" in text

    def test_summary_table(self):
        summary = ErrorSummary(count=3, median=1.0, p95=1.5, p99=2.0, maximum=5.0)
        text = format_summary_table({"Sample": summary}, "OOD")
        assert "Sample" in text and "5.00" in text

    def test_series_formatting_handles_mixed_types(self):
        text = format_series([{"dataset": "DMV", "value": 1.5}], ["dataset", "value"], "S")
        assert "DMV" in text and "1.5" in text

    def test_series_columns_never_touch(self):
        """An 18-character header and a 19-character value (the widths that
        glued columns under the old fixed ``>18`` cells) stay apart."""
        header, value = "queries_per_second", "sessions_join_users"
        assert (len(header), len(value)) == (18, 19)
        rows = [{"route": value, header: 802.7, "n": 20},
                {"route": "users", header: 1211.0, "n": 7}]
        title, rule, *lines = format_series(rows, ["route", header, "n"], "S").split("\n")
        assert len({len(line) for line in lines}) == 1
        assert [line.split() for line in lines] == [
            ["route", header, "n"], [value, "802.7", "20"], ["users", "1211", "7"]]

    def test_latency_table(self):
        text = format_latency_table({"Naru": {0.5: 10.0, 0.95: 12.0, 0.99: 15.0}}, "Lat")
        assert "Naru" in text and "p99" in text


class TestScalesAndRegistry:
    def test_presets_are_consistent(self):
        assert SMOKE.dmv_rows < PAPER.dmv_rows
        assert SMOKE.num_queries < PAPER.num_queries
        assert len(SMOKE.naru_samples) >= 1

    def test_active_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert active_scale() is PAPER
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert active_scale() is SMOKE
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            active_scale()

    def test_registry_covers_every_table_and_figure(self):
        names = set(EXPERIMENTS)
        expected = {"figure4", "table3", "table4", "table5", "figure5", "figure6",
                    "table6", "table7", "figure7", "figure8", "table8"}
        assert expected <= names

    def test_list_experiments_matches_registry(self):
        assert {name for name, _ in list_experiments()} == set(EXPERIMENTS)

    def test_run_experiment_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiment("table99")


class TestEndToEndMiniExperiment:
    def test_mini_comparison_produces_paper_shape(self, medium_table):
        """A miniature Table-3-style run: Naru beats Indep at the tail."""
        naru = NaruEstimator(medium_table, NaruConfig(
            epochs=8, hidden_sizes=(48, 48), batch_size=128, progressive_samples=300,
            seed=1))
        naru.fit()
        workload = WorkloadGenerator(medium_table, min_filters=3, max_filters=5,
                                     seed=21).generate_labeled(20)
        runs = compare_estimators([naru, IndependenceEstimator(medium_table)], workload)
        naru_run = runs[naru.name]
        indep_run = runs["Indep"]
        assert naru_run.max_error() <= indep_run.max_error() * 1.5
