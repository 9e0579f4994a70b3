"""Figure 7 — estimation accuracy vs artificial entropy gap of an oracle model."""

from __future__ import annotations

from repro.bench import figure7_entropy_gap


def test_figure7_entropy_gap(bench_scale, save_report):
    result = figure7_entropy_gap(scale=bench_scale,
                                 noise_levels=(0.0, 0.1, 0.5, 0.9),
                                 sample_counts=(50, 250, 1000))
    save_report("figure7_entropy_gap", result)

    sweep = result["sweep"]
    # The injected noise increases the measured entropy gap monotonically.
    gaps = [entry["entropy_gap_bits"] for entry in sweep]
    assert gaps == sorted(gaps)
    # With a perfect model and 1000 sample paths the worst-case error is small.
    assert sweep[0]["max_error_naru_1000"] < 15.0
    # More sample paths never hurt the perfect-model case by much.
    assert sweep[0]["max_error_naru_1000"] <= sweep[0]["max_error_naru_50"] * 1.5
