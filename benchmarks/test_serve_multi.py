"""Multi-model fleet serving — routed registry vs N independent sequential engines.

Not a reproduction of a paper table: guards the claim of
:func:`repro.bench.serve_multi` that one :class:`repro.serve.FleetRouter`
over a :class:`repro.serve.ModelRegistry` (two base tables plus a join
relation) answers an interleaved mixed workload without changing the
estimates or the routing.  The routed-vs-sequential speedup is reported in
``results/timing/``; ``perfbench/compare.py`` is the regression guard.
"""

from __future__ import annotations

from repro.bench import serve_multi


def check_invariants(result, scale):
    report = result["report"]
    # Routing must be exact and loud: every query lands on the relation its
    # qualifier names, and nothing is dropped on the floor.
    assert report["misrouted"] == 0
    assert report["num_models"] == 3
    assert sum(report["routes"].values()) == report["num_queries"]
    assert 0.0 <= report["estimates"]["min"] <= report["estimates"]["max"] <= 1.0

    # Routing and micro-batching must not change the answers: the same
    # (seed, global index) streams drive both sides, so any difference is
    # float round-off of skipped wildcard columns.
    assert report["max_estimate_drift"] <= 1e-9


def test_serve_multi(bench_scale, save_report):
    result = serve_multi(scale=bench_scale)
    save_report("serve_multi", result)
    check_invariants(result, bench_scale)
