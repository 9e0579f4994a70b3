"""Open-loop load generation — the latency-vs-offered-load curve and its knee.

Not a reproduction of a paper table: guards the serve fleet's behaviour
*under offered load it did not agree to*, as
:func:`repro.bench.serve_loadgen` measures it: the latency-vs-offered-load
curve with its SLO knee.  The latency column the knee is read from measures
completion against each query's *scheduled* arrival (no coordinated
omission), so past saturation it grows without bound while the
from-submission number stays flat — the gap is the point of open-loop
testing.  A wall-clock gate: trace replay and the chaos drills are tested in
``tests/test_serve_openloop.py`` and ``tests/test_serve_chaos.py``.
"""

from __future__ import annotations

import pytest

from repro.bench import serve_loadgen
from repro.bench.experiments import SERVE_LOADGEN_SLO_MULTIPLIER


def check_invariants(result, scale):
    timing = result["timing"]
    # The curve has one row per swept rate, each fully accounted: every
    # arrival of the window was either admitted or counted shed, everything
    # admitted completed, and the queue high-water mark stayed within the
    # admission bound at every rung.
    curve, sizes = timing["curve"], scale.serve_loadgen
    assert len(curve) == len(sizes.rate_fractions)
    for row in curve:
        assert row["submitted"] + row["shed"] == round(
            row["offered_qps"] * sizes.duration_s)
        assert row["completed"] == row["submitted"]
        assert row["peak_pending"] <= sizes.max_pending

    # The SLO knee is read off the curve.
    assert timing["slo_ms"] == pytest.approx(
        SERVE_LOADGEN_SLO_MULTIPLIER * timing["probe_e2e_p95_ms"])


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
