"""Table 5 — robustness to out-of-distribution queries."""

from __future__ import annotations

from repro.bench import table5_ood_robustness


def test_table5_ood_robustness(bench_scale, save_report):
    result = table5_ood_robustness(scale=bench_scale)
    save_report("table5_ood", result)

    summaries = result["summaries"]
    naru_name = f"Naru-{bench_scale.naru_samples[-1]}"

    # Most OOD queries are empty, so a data-driven estimator should be nearly
    # perfect at the median while the supervised MSCN degrades (the paper's point).
    assert summaries[naru_name].median < 2.0
    assert summaries[naru_name].median <= summaries["MSCN-base"].median
    assert summaries[naru_name].maximum <= summaries["MSCN-base"].maximum
    # The workload is genuinely out of distribution.
    assert result["zero_fraction"] > 0.5
