"""End-to-end latency SLOs — fixed vs SLO-adaptive micro-batching.

Not a reproduction of a paper table: this benchmark guards the latency
control of :class:`repro.serve.FleetRouter`.  A bursty workload is served
with a fixed max-size micro-batch and with the same router given an
``slo_ms`` (its controller steers micro-batch sizes against end-to-end
latency — queue wait + dispatch) plus a flush timeout.  The stated p95 SLO
is *end-to-end* — submission to result — and calibrated as a fraction of the
measured fixed-batch e2e p95, so on any hardware:

* the fixed-batch router **misses** it by construction, and
* the SLO-steered router **meets** it at steady state.

A shuffled-arrival pass through :class:`repro.serve.AsyncFleetClient` and an
unbatched :func:`repro.serve.run_fleet_sequential` baseline additionally
assert that none of this — adaptive boundaries, timeout flushes, streaming —
moves a single estimate.

Run with ``REPRO_BENCH_SMOKE=1`` the configuration shrinks to finish in
seconds and the steady-state SLO gate softens to an improvement check (tiny
workloads leave the controllers too few dispatches to converge); the JSON
report is written to ``results/serve_stream.json`` either way.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from conftest import save_report

from repro.bench import serve_stream

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


@pytest.mark.slow
def test_serve_stream(bench_scale, results_dir):
    if _SMOKE:
        scale = dataclasses.replace(bench_scale, serve_stream_rows=700,
                                    serve_stream_users=120,
                                    serve_stream_queries=48,
                                    serve_stream_samples=200,
                                    serve_stream_epochs=2,
                                    serve_stream_max_batch=12,
                                    serve_stream_burst=6)
    else:
        scale = bench_scale
    result = serve_stream(scale=scale)
    save_report(results_dir, "serve_stream", result["text"])
    with open(os.path.join(results_dir, "serve_stream.json"), "w") as handle:
        json.dump({key: result[key] for key in
                   ("slo_ms", "slo_fraction", "flush_after_ms",
                    "flush_fraction", "fixed_e2e_p95_ms", "e2e_scoped",
                    "e2e_scoped_meets_e2e_slo", "fixed_meets_e2e_slo",
                    "max_estimate_drift", "max_batch", "burst_size",
                    "hot_queries", "num_queries", "arrival_gap_ms",
                    "e2e_batch_trace", "e2e_controller", "modes", "fixed",
                    "e2e_steady", "streamed")},
                  handle, indent=1)

    # Adaptive boundaries, timeout flushes and shuffled-arrival streaming
    # must be invisible in the numbers: every mode reproduces the unbatched
    # sequential baseline (the tolerance covers one-ulp BLAS round-off from
    # the different micro-batch shapes).
    assert result["max_estimate_drift"] <= 1e-12

    # The SLO is stated below the measured fixed e2e p95, so the fixed
    # router misses it by construction — the benchmark's premise.
    assert not result["fixed_meets_e2e_slo"]
    assert result["slo_ms"] > 0

    # The controller really observed the run: its trace opens at the
    # maximum batch size and holds one entry per hot-route dispatch.  (It
    # may or may not shrink its size clamp — when the flush timeout already
    # bounds every batch's linger, there is nothing left for multiplicative
    # decrease to do.)
    assert result["e2e_batch_trace"][0] == result["max_batch"]
    assert result["e2e_controller"]["observations"] > 0

    # The flush timeout really fired: partially filled batches were
    # force-dispatched instead of lingering.
    assert any(row["timeout_flushes"] > 0 for row in result["modes"]
               if row["mode"].startswith("e2e"))

    # The workload really is bursty and hot.
    assert result["hot_queries"] >= result["num_queries"] // 2

    if _SMOKE:
        # Too few dispatches to demand convergence — but SLO steering must
        # still beat the fixed batch on the latency callers see.
        assert result["e2e_scoped"]["e2e_p95_ms"] < result["fixed_e2e_p95_ms"]
    else:
        # The headline claim: the steered router meets the end-to-end SLO
        # the fixed batch misses.
        assert result["e2e_scoped_meets_e2e_slo"], (
            f"e2e-scoped e2e p95 {result['e2e_scoped']['e2e_p95_ms']:.1f} ms "
            f"exceeds the stated SLO {result['slo_ms']:.1f} ms")
