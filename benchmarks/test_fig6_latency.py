"""Figure 6 — per-query estimation latency of every estimator."""

from __future__ import annotations

from repro.bench import figure6_estimation_latency


def test_figure6_estimation_latency(bench_scale, save_report):
    result = figure6_estimation_latency(scale=bench_scale)
    save_report("figure6_latency", result)

    latencies = result["latencies"]
    naru_name = f"Naru-{bench_scale.naru_samples[-1]}"

    # Every estimator answers in sub-second time at the median on the bench scale.
    for name, quantiles in latencies.items():
        assert quantiles[0.5] < 2_000.0, name
    # More progressive samples cost more time (monotone within noise).
    small_name = f"Naru-{bench_scale.naru_samples[0]}"
    assert latencies[naru_name][0.5] >= 0.5 * latencies[small_name][0.5]
