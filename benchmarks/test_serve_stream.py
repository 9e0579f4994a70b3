"""End-to-end latency SLOs — fixed vs SLO-adaptive micro-batching.

Not a reproduction of a paper table: guards the latency control of
:class:`repro.serve.FleetRouter` as :func:`repro.bench.serve_stream` measures
it.  The stated p95 SLO is *end-to-end* — submission to result — and
calibrated as a fraction of the measured fixed-batch e2e p95, so on any
hardware the fixed-batch router **misses** it by construction and the
SLO-steered router must **meet** it at steady state — while none of it
(adaptive boundaries, timeout flushes, shuffled streaming) moves an estimate.
"""

from __future__ import annotations

from repro.bench import serve_stream


def check_invariants(result, scale):
    report, timing = result["report"], result["timing"]
    # Adaptive boundaries, timeout flushes and shuffled-arrival streaming
    # must be invisible in the numbers: every mode reproduces the unbatched
    # sequential baseline (the tolerance covers one-ulp BLAS round-off from
    # the different micro-batch shapes).
    assert report["max_estimate_drift"] <= 1e-12

    # The SLO is stated below the measured fixed e2e p95, so the fixed
    # router misses it by construction — the benchmark's premise.
    assert not timing["fixed_meets_e2e_slo"]
    assert timing["slo_ms"] > 0

    # The controller really observed the run: its trace opens at the
    # maximum batch size and holds one entry per hot-route dispatch.  (It
    # may or may not shrink its size clamp — when the flush timeout already
    # bounds every batch's linger, there is nothing left for multiplicative
    # decrease to do.)
    assert timing["e2e_batch_trace"][0] == scale.serve_stream_max_batch
    assert timing["e2e_controller"]["observations"] > 0

    # The flush timeout really fired: partially filled batches were
    # force-dispatched instead of lingering.
    assert any(row["timeout_flushes"] > 0 for row in timing["modes"]
               if row["mode"].startswith("e2e"))

    # The workload really is bursty and hot.
    assert report["hot_queries"] >= report["num_queries"] // 2


def test_serve_stream(bench_scale, save_report):
    result = serve_stream(scale=bench_scale)
    save_report("serve_stream", result)
    check_invariants(result, bench_scale)

    # The headline claim, self-calibrated: the steered router meets the
    # end-to-end SLO the fixed batch misses.
    timing = result["timing"]
    assert timing["steady_meets_e2e_slo"], (
        f"e2e-steady e2e p95 {timing['steady_e2e_p95_ms']:.1f} ms exceeds "
        f"the stated SLO {timing['slo_ms']:.1f} ms")
