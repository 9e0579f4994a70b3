"""End-to-end latency SLOs — fixed vs SLO-steered micro-batching.

Not a reproduction of a paper table: guards the latency control of
:class:`repro.serve.FleetRouter` as :func:`repro.bench.serve_stream` measures
it.  The stated p95 SLO is *end-to-end* — submission to result — and
calibrated as a fraction of the measured fixed-batch e2e p95, so on any
hardware the fixed-batch router **misses** it by construction and the
SLO-steered router must **meet** it at steady state.  A wall-clock gate: that
adaptive boundaries, timeout flushes and streaming move no estimate is the
invariance grid's claim (``tests/test_serve_invariance.py``).
"""

from __future__ import annotations

from repro.bench import serve_stream


def check_invariants(result, scale):
    timing = result["timing"]
    # The SLO is stated below the measured fixed e2e p95, so the fixed
    # router misses it by construction — the benchmark's premise.
    assert not timing["fixed_meets_e2e_slo"]
    assert timing["slo_ms"] > 0


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
