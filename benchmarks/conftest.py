"""Shared configuration for the benchmark suite.

Each benchmark regenerates one table or figure of the paper — or runs one
serving wall-clock gate beyond it — at a reduced ("bench") scale; the whole
suite takes a few minutes on a CPU.  The ``save_report`` fixture is the one writer of ``results/``
(see docs/reproducing.md for the artifact ↔ experiment map).

Set ``REPRO_SCALE=paper`` and run ``python -m repro.bench run all`` for the
larger configuration.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.bench.scales import SMOKE, ExperimentScale

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

#: Reduced scale used by the pytest benchmarks (one notch below SMOKE).
BENCH_SCALE: ExperimentScale = dataclasses.replace(
    SMOKE,
    name="bench",
    dmv_rows=9_000,
    conviva_a_rows=7_000,
    conviva_b_rows=600,
    num_queries=70,
    ood_queries=60,
    naru_epochs=10,
    naru_hidden=(96, 96),
    naru_batch_size=128,
    naru_samples=(500, 1000),
    mscn_training_queries=180,
    mscn_epochs=12,
    kde_sample=500,
    kde_feedback_queries=30,
    latency_queries=30,
    training_curve_epochs=4,
    training_curve_queries=20,
    oracle_queries=25,
    shift_queries=30,
)


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    return BENCH_SCALE


def _save_report(name: str, result: dict) -> None:
    """Persist one experiment's result under ``results/``, split by tracking.

    What the seed determines (``text``) goes to the tracked
    ``results/<name>.txt`` and comes back byte-identical from a run on an
    unchanged tree; whatever a clock was read for (``timing_text``, and the
    ``timing`` JSON of the serving experiments) goes to the git-ignored
    ``results/timing/``.  Each part is written only if the result has it.
    """
    for directory, text, data in (
            (RESULTS_DIR, result.get("text"), None),
            (os.path.join(RESULTS_DIR, "timing"),
             result.get("timing_text"), result.get("timing"))):
        os.makedirs(directory, exist_ok=True)
        if text is not None:
            with open(os.path.join(directory, f"{name}.txt"), "w") as handle:
                handle.write(text + "\n")
        if data is not None:
            with open(os.path.join(directory, f"{name}.json"), "w") as handle:
                json.dump(data, handle, indent=1)
                handle.write("\n")


@pytest.fixture(scope="session")
def save_report():
    """The one writer of ``results/``: ``save_report(name, result)``.

    A fixture rather than an import so the benchmark modules import nothing
    but the package — ``tests/test_bench_serve.py`` loads their
    ``check_invariants`` functions to run them at a tiny scale in tier-1.
    """
    return _save_report
