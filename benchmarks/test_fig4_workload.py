"""Figure 4 — distribution of query selectivities produced by the generator."""

from __future__ import annotations

from repro.bench import figure4_selectivity_distribution


def test_figure4_selectivity_distribution(bench_scale, save_report):
    result = figure4_selectivity_distribution(scale=bench_scale)
    save_report("figure4_workload", result)

    for dataset, data in result["results"].items():
        fractions = data["bucket_fractions"]
        # The generator covers the whole selectivity spectrum (the paper's goal):
        # every bucket is populated and low-selectivity queries are plentiful.
        assert fractions["low"] > 0.1, dataset
        assert fractions["high"] > 0.05, dataset
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
