"""Table 7 — model size vs entropy gap on Conviva-A."""

from __future__ import annotations

from repro.bench import table7_model_size


def test_table7_model_size(bench_scale, save_report):
    result = table7_model_size(scale=bench_scale, widths=(32, 64, 128), epochs=3)
    save_report("table7_model_size", result)

    sizes = [entry["size_mb"] for entry in result["results"].values()]
    gaps = [entry["entropy_gap_bits"] for entry in result["results"].values()]
    # Larger architectures are larger on disk ...
    assert sizes == sorted(sizes)
    # ... and the largest model fits the data at least as well as the smallest.
    assert gaps[-1] <= gaps[0] + 0.25
