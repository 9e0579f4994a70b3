"""Tier-1 run of the three ``serve_*`` wall-clock gates at a tiny scale.

``benchmarks/test_serve_*.py`` run them at bench scale, where their
wall-clock gates are asserted; this file runs the same ``check_invariants``
functions — the checks that hold at any scale — at the one tiny scale
defined below (the only place serve sizes are overridden).
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os

import pytest

from repro import bench
from repro.bench.scales import ServeScale

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "benchmarks")

SERVE_EXPERIMENTS = ("serve_stream", "serve_procfleet", "serve_loadgen")

#: Seconds-scale sizes: enough queries for every check to bite, nothing more.
#: Each experiment's sizes not named here are SMOKE's.
TINY = dataclasses.replace(
    bench.SMOKE,
    serve_stream=dataclasses.replace(
        bench.SMOKE.serve_stream, rows=700, users=120, queries=48, samples=200,
        batch_size=12, epochs=2, burst=6),
    serve_procfleet=ServeScale(rows=700, users=120, queries=24, samples=200,
                               batch_size=6, epochs=2, workers=2),
    serve_loadgen=dataclasses.replace(
        bench.SMOKE.serve_loadgen, rows=700, users=120, queries=32, samples=200,
        epochs=2, duration_s=0.1),
)


def _check_invariants(name: str):
    """The checks of ``benchmarks/test_<name>.py`` that hold at any scale."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCHMARKS, f"test_{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_invariants


@pytest.mark.parametrize("name", SERVE_EXPERIMENTS)
def test_serve_experiment_runs_at_tiny_scale(name):
    result = getattr(bench, name)(scale=TINY)
    _check_invariants(name)(result, TINY)
    # A wall-clock gate has only the timing side, and it serialises.
    assert set(result) == {"timing_text", "timing"}
    json.dumps(result["timing"])
