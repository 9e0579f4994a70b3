"""Table 6 — query-region size vs (estimated) enumeration vs Naru latency."""

from __future__ import annotations

from repro.bench import table6_query_region


def test_table6_query_region(bench_scale, save_report):
    result = table6_query_region(scale=bench_scale)
    save_report("table6_region", result)

    for dataset, row in result["results"].items():
        # The 99th-percentile query region is far beyond anything enumerable.
        assert row["region_size_p99"] > 1e6, dataset
        # Estimated exhaustive enumeration takes hours; progressive sampling
        # answers the same query in (at most) seconds — the paper's headline gap.
        assert row["enumeration_hours_estimated"] * 3600.0 * 1000.0 \
            > 100.0 * row["naru_latency_ms"], dataset
