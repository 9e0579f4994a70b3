"""Table 4 — estimation errors on the Conviva-A dataset."""

from __future__ import annotations

from repro.bench import table4_conviva_accuracy


def test_table4_conviva_accuracy(bench_scale, save_report):
    result = table4_conviva_accuracy(scale=bench_scale)
    save_report("table4_conviva", result)

    buckets = result["buckets"]
    naru_name = f"Naru-{bench_scale.naru_samples[-1]}"

    # Naru's median error stays in the low single digits across buckets.
    for bucket in ("high", "medium"):
        assert buckets[naru_name][bucket].median < 10.0

    # Naru's low-selectivity tail is no worse than the classical DBMS-style baseline.
    naru_low_max = buckets[naru_name]["low"].maximum
    assert naru_low_max <= buckets["DBMS-1"]["low"].maximum * 2.0 or naru_low_max < 15.0
