"""Table 3 — estimation errors on the DMV dataset (all estimator families)."""

from __future__ import annotations

from repro.bench import table3_dmv_accuracy


def test_table3_dmv_accuracy(bench_scale, save_report):
    result = table3_dmv_accuracy(scale=bench_scale)
    save_report("table3_dmv", result)

    buckets = result["buckets"]
    naru_name = f"Naru-{bench_scale.naru_samples[-1]}"

    # Shape check 1: Naru's worst-case (low-selectivity max) error beats the
    # independence-assumption estimators by a wide margin, as in the paper.
    naru_low_max = buckets[naru_name]["low"].maximum
    indep_low_max = buckets["Indep"]["low"].maximum
    assert naru_low_max <= indep_low_max * 1.5 or naru_low_max < 15.0

    # Shape check 2: Naru is at least competitive with every baseline at the tail.
    worst_naru = max(buckets[naru_name][bucket].maximum
                     for bucket in ("high", "medium", "low"))
    worst_others = {name: max(summary[bucket].maximum for bucket in ("high", "medium", "low"))
                    for name, summary in buckets.items() if not name.startswith("Naru")}
    assert worst_naru <= 2.0 * min(worst_others.values()) or worst_naru < 20.0

    # Shape check 3: more progressive samples never hurt the tail much.
    small_name = f"Naru-{bench_scale.naru_samples[0]}"
    assert buckets[naru_name]["low"].maximum <= buckets[small_name]["low"].maximum * 2.0
