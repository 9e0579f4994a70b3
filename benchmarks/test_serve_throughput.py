"""Serving throughput — batched ``repro.serve`` engine vs sequential sampling.

Not a reproduction of a paper table: guards the claim of
:func:`repro.bench.serve_throughput` that the fused hot path — column-sliced
conditionals, prefix-deduplicated sampling, packed conditional caching —
changes no estimate.  How much *faster* it is (an order of magnitude cold,
more warm) is reported in ``results/timing/`` and guarded by
``perfbench/compare.py`` on ``serve_distinct``/``serve_repeat``, whose bound
is tighter than any fixed floor that survives a shared runner's noise.
"""

from __future__ import annotations

from repro.bench import serve_throughput


def check_invariants(result, scale):
    report = result["report"]
    # The fused serving path is bit-exact against the unfused sequential
    # baseline — row-exact kernel, bit-identical prefix dedup, exact cache
    # hits — so the drift is not merely small, it is zero.
    assert report["max_estimate_drift"] == 0.0
    assert report["num_queries"] == scale.serve_queries
    # Dedup and the cache did real work: the batched passes evaluated fewer
    # rows than they were asked for, and the warm pass none at all.
    counts = report["counts"]
    assert counts["cold"]["rows_evaluated"] < counts["sequential"]["rows_evaluated"]
    assert counts["warm"]["rows_evaluated"] == 0


def test_serve_throughput(bench_scale, save_report):
    result = serve_throughput(scale=bench_scale)
    save_report("serve_throughput", result)
    check_invariants(result, bench_scale)
