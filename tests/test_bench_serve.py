"""Tier-1 run of the eight ``serve_*`` experiments at a tiny scale.

``benchmarks/test_serve_*.py`` run them at bench scale and write
``results/``; this file runs the same ``check_invariants`` functions at the
one tiny scale defined below (the only place serve sizes are overridden) and
pins the byte-stability the tracked ``results/serve_*`` files rely on.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os

import pytest

from repro import bench

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "benchmarks")

SERVE_EXPERIMENTS = ("serve_throughput", "serve_multi", "serve_replicated",
                     "serve_stream", "serve_procfleet", "serve_refresh",
                     "serve_loadgen", "serve_ensemble")

#: Seconds-scale sizes: enough queries for every gate to bite, nothing more.
TINY = dataclasses.replace(
    bench.SMOKE,
    serve_rows=800, serve_queries=16, serve_samples=300, serve_epochs=2,
    serve_batch_size=8,
    serve_multi_rows=700, serve_multi_users=120, serve_multi_queries=18,
    serve_multi_samples=200, serve_multi_epochs=2, serve_multi_batch_size=6,
    serve_repl_rows=700, serve_repl_users=120, serve_repl_queries=24,
    serve_repl_samples=200, serve_repl_epochs=2, serve_repl_batch_size=6,
    serve_repl_replicas=3, serve_repl_max_pending=12,
    serve_stream_rows=700, serve_stream_users=120, serve_stream_queries=48,
    serve_stream_samples=200, serve_stream_epochs=2,
    serve_stream_max_batch=12, serve_stream_burst=6,
    serve_proc_rows=700, serve_proc_users=120, serve_proc_queries=24,
    serve_proc_samples=200, serve_proc_epochs=2, serve_proc_batch_size=6,
    serve_proc_workers=2,
    serve_refresh_rows=1_200, serve_refresh_queries=16,
    serve_refresh_samples=200, serve_refresh_epochs=2,
    serve_refresh_batch_size=6, serve_refresh_partitions=3,
    serve_loadgen_rows=700, serve_loadgen_users=120, serve_loadgen_queries=32,
    serve_loadgen_samples=200, serve_loadgen_epochs=2,
    serve_loadgen_duration_s=0.1,
    serve_ens_rows=1_200, serve_ens_users=150, serve_ens_queries=32,
    serve_ens_samples=200, serve_ens_epochs=2, serve_ens_batch_size=8,
    serve_ens_fallback_sample=512, serve_ens_oracle_rows=120,
    serve_ens_oracle_queries=8,
)


def _check_invariants(name: str):
    """The gates of ``benchmarks/test_<name>.py`` that hold at any scale."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCHMARKS, f"test_{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_invariants


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

    # Nothing is written to both sides of the split, and the clock side
    # serialises too.
    assert not set(first["report"]) & set(first["timing"])
    json.dumps(first["timing"])
