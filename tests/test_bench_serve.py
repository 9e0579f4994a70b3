"""Tier-1 run of the eight ``serve_*`` experiments at a tiny scale.

``benchmarks/test_serve_*.py`` run them at bench scale and write
``results/``; this file runs the same ``check_invariants`` functions at the
one tiny scale defined below (the only place serve sizes are overridden) and
pins the byte-stability the tracked ``results/serve_*`` files rely on, and
that each report's estimates digest is a true claim about the run.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os

import numpy as np
import pytest

from repro import bench
from repro.bench.experiments import estimates_digest
from repro.bench.scales import ServeScale

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "benchmarks")

SERVE_EXPERIMENTS = ("serve_throughput", "serve_multi", "serve_replicated",
                     "serve_stream", "serve_procfleet", "serve_refresh",
                     "serve_loadgen", "serve_ensemble")

#: The experiments whose tracked report keeps a digest of their estimates.
TRACKS_ESTIMATES = tuple(name for name in SERVE_EXPERIMENTS
                         if name != "serve_loadgen")

#: Seconds-scale sizes: enough queries for every gate to bite, nothing more.
#: Each experiment's sizes not named here are SMOKE's.
TINY = dataclasses.replace(
    bench.SMOKE,
    serve_throughput=ServeScale(rows=800, queries=16, samples=300, batch_size=8,
                                epochs=2),
    serve_multi=ServeScale(rows=700, users=120, queries=18, samples=200,
                           batch_size=6, epochs=2),
    serve_replicated=dataclasses.replace(
        bench.SMOKE.serve_replicated, rows=700, users=120, queries=24,
        samples=200, batch_size=6, epochs=2, replicas=3, max_pending=12),
    serve_stream=dataclasses.replace(
        bench.SMOKE.serve_stream, rows=700, users=120, queries=48, samples=200,
        batch_size=12, epochs=2, burst=6),
    serve_procfleet=ServeScale(rows=700, users=120, queries=24, samples=200,
                               batch_size=6, epochs=2, workers=2),
    serve_refresh=dataclasses.replace(
        bench.SMOKE.serve_refresh, rows=1_200, queries=16, samples=200,
        batch_size=6, epochs=2, partitions=3),
    serve_loadgen=dataclasses.replace(
        bench.SMOKE.serve_loadgen, rows=700, users=120, queries=32, samples=200,
        epochs=2, duration_s=0.1),
    serve_ensemble=ServeScale(rows=1_200, users=150, queries=32, samples=200,
                              batch_size=8, epochs=2, fallback_sample=512,
                              oracle_rows=120, oracle_queries=8),
)


def _check_invariants(name: str):
    """The gates of ``benchmarks/test_<name>.py`` that hold at any scale."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCHMARKS, f"test_{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_invariants


def _check_estimates(report: dict, selectivities) -> None:
    """The report's estimates claim holds: one estimate per query, every one a
    finite probability, and the digest is that of ``selectivities`` (another
    run's estimates)."""
    digest = report["estimates"]
    assert digest["count"] == report["num_queries"]
    assert np.isfinite([digest["min"], digest["max"]]).all()
    assert 0.0 <= digest["min"] <= digest["max"] <= 1.0
    assert digest["sha256"] == estimates_digest(selectivities)["sha256"]


@pytest.mark.parametrize("name", SERVE_EXPERIMENTS)
def test_serve_experiment_is_exact_and_byte_stable(name):
    experiment = getattr(bench, name)
    first = experiment(scale=TINY)
    _check_invariants(name)(first, TINY)

    # What save_report tracks must not depend on the run: a second call
    # renders the same text and the same JSON, byte for byte.
    second = experiment(scale=TINY)
    assert second["text"] == first["text"]
    assert json.dumps(second["report"]) == json.dumps(first["report"])
    if name in TRACKS_ESTIMATES:
        _check_estimates(first["report"], second["selectivities"])

    # Nothing is written to both sides of the split, and the clock side
    # serialises too.
    assert not set(first["report"]) & set(first["timing"])
    json.dumps(first["timing"])


def test_estimates_digest_is_exact_and_moves_with_any_bit():
    values = np.linspace(0.01, 0.9, 7)
    digest = estimates_digest(values)
    # The recipe a reader can recompute from a JSON list of the estimates.
    assert digest == estimates_digest(values.tolist())
    assert digest == estimates_digest(values.astype(">f8"))
    assert (digest["count"], digest["min"], digest["max"]) == (7, 0.01, 0.9)

    nudged = values.copy()
    nudged[3] = np.nextafter(nudged[3], 1.0)
    swapped = values.copy()
    swapped[[1, 4]] = swapped[[4, 1]]
    for moved in (nudged, swapped):
        other = estimates_digest(moved)
        assert other["sha256"] != digest["sha256"]
        assert {key: other[key] for key in ("count", "min", "max")} == \
            {key: digest[key] for key in ("count", "min", "max")}

    # min and max are exact, not rounded: one ulp on the largest value shows.
    nudged[-1] = np.nextafter(nudged[-1], 1.0)
    assert estimates_digest(nudged)["max"] == np.nextafter(0.9, 1.0)
