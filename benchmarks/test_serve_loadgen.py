"""Open-loop load generation — the latency-vs-offered-load curve and chaos.

Not a reproduction of a paper table: guards the serve fleet's behaviour
*under offered load it did not agree to*, as
:func:`repro.bench.serve_loadgen` measures it: the latency-vs-offered-load
curve with its SLO knee, and the chaos drills (slow replica, cache wipe,
worker kill) with the degradation contract asserted — bounded queue growth,
typed counted refusals, zero estimate drift on everything that completed.

The latency column the knee is read from measures completion against each
query's *scheduled* arrival (no coordinated omission), so past saturation it
grows without bound while the from-submission number stays flat — the gap
is the point of open-loop testing.
"""

from __future__ import annotations

import pytest

from repro.bench import serve_loadgen


def check_invariants(result, scale):
    report, timing = result["report"], result["timing"]
    # Record/replay really is byte-stable: the trace written, loaded and
    # re-serialised inside the experiment came back bit-identical.
    assert report["trace_byte_stable"]

    # The curve has one row per swept rate, each fully accounted: every
    # arrival of the window was either admitted or counted shed, everything
    # admitted completed, and the queue high-water mark stayed within the
    # admission bound at every rung.
    curve = timing["curve"]
    assert len(curve) == len(scale.serve_loadgen_rate_fractions)
    for row in curve:
        assert row["submitted"] + row["shed"] == round(
            row["offered_qps"] * scale.serve_loadgen_duration_s)
        assert row["completed"] == row["submitted"]
        assert row["peak_pending"] <= scale.serve_loadgen_max_pending

    # Every chaos drill upheld the degradation contract.
    scenarios = report["scenarios"]
    assert set(scenarios) == {"slow_replica", "cache_wipe", "kill_worker"}
    for name in ("slow_replica", "cache_wipe"):
        assert scenarios[name]["degraded_not_collapsed"], name
        assert scenarios[name]["max_estimate_drift"] <= 1e-9, name
        assert timing["chaos"][name]["events"], name
    assert scenarios["kill_worker"]["typed_error"]
    assert scenarios["kill_worker"]["error_type"] == "WorkerError"
    assert scenarios["kill_worker"]["error_worker_id"] == 0

    # The SLO knee is read off the curve.
    assert timing["slo_ms"] == pytest.approx(
        scale.serve_loadgen_slo_multiplier * timing["probe_e2e_p95_ms"])


def test_serve_loadgen(bench_scale, save_report):
    result = serve_loadgen(scale=bench_scale)
    save_report("serve_loadgen", result)
    check_invariants(result, bench_scale)

    # Self-calibrated: the ladder spans 0.25x to 4x the probed capacity, so
    # the lowest rung meets the SLO and the highest misses it — the knee is
    # strictly inside the swept range.
    knee = result["timing"]
    assert knee["knee_qps"] is not None, "even 0.25x capacity missed SLO"
    assert not knee["meets_all"], "4x capacity met the SLO: no knee"
    assert knee["knee_qps"] < knee["first_over_qps"]
    # Past saturation the open-loop (from-scheduled-arrival) latency
    # dwarfs the from-submission number — the coordinated-omission gap
    # this harness exists to expose.
    top = knee["curve"][-1]
    assert top["e2e_p95_ms"] > 2.0 * top["service_p95_ms"]
