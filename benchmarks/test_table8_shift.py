"""Table 8 — robustness to data shifts (stale vs refreshed model)."""

from __future__ import annotations

from repro.bench import table8_data_shift


def test_table8_data_shift(bench_scale, save_report):
    result = table8_data_shift(scale=bench_scale)
    save_report("table8_shift", result)

    rows = result["results"]
    # The refreshed estimator's accuracy stays bounded across all ingests.
    # (The synthetic partitions drift far less than the real DMV feed, so the
    # stale estimator does not necessarily degrade at bench scale; the check
    # here is that periodic refreshing never costs much and stays accurate.)
    assert rows[-1]["refreshed_max"] <= max(rows[-1]["stale_max"] * 3.0, 30.0)
    assert rows[-1]["refreshed_p90"] < 25.0
    assert all(row["refreshed_p90"] < 25.0 for row in rows)
