"""Figure 8 — progressive-sampling accuracy as the column count grows to 100."""

from __future__ import annotations

from repro.bench import figure8_column_scaling


def test_figure8_column_scaling(bench_scale, save_report):
    result = figure8_column_scaling(scale=bench_scale,
                                    column_counts=(5, 15, 30, 50, 100),
                                    sample_counts=(100, 1000))
    save_report("figure8_columns", result)

    rows = result["results"]
    # The joint space blows up with the column count ...
    assert rows[-1]["log10_joint"] > rows[0]["log10_joint"]
    assert rows[-1]["log10_joint"] > 50  # astronomically large at 100 columns
    # ... yet the oracle + progressive sampling stays tractable: with 1000
    # sample paths the worst-case error at 100 columns remains bounded and far
    # below the independence heuristic.
    final = rows[-1]
    assert final["max_error_naru_1000"] < 100.0
    assert final["max_error_naru_1000"] <= final["max_error_Indep"]
