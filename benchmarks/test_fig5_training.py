"""Figure 5 — training time vs model quality (entropy gap and max error)."""

from __future__ import annotations

from repro.bench import figure5_training_quality


def test_figure5_training_quality(bench_scale, save_report):
    result = figure5_training_quality(scale=bench_scale)
    save_report("figure5_training", result)

    for dataset, curve in result["results"].items():
        gaps = [point["entropy_gap_bits"] for point in curve]
        # The entropy gap shrinks as training progresses (allowing small noise).
        assert gaps[-1] <= gaps[0] + 0.25, dataset
        # Estimation quality at the end of training is sane.
        assert curve[-1]["median_error"] < 50.0, dataset
