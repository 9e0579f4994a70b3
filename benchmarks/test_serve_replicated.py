"""Replicated hot-relation serving — admission-controlled router vs one engine.

Not a reproduction of a paper table: guards the replication claim of
:func:`repro.bench.serve_replicated` — a hot relation at ``replicas=N``
behind an admission-controlled :class:`repro.serve.FleetRouter` (bounded
pending queues, fleet-wide exact-match result cache) serves a skewed
workload without changing a single estimate, and the warm pass replays the
cold pass's answers from the result cache exactly.  The speedup over one
sequential engine per relation is reported in ``results/timing/``;
``perfbench/compare.py`` is the regression guard.
"""

from __future__ import annotations

from repro.bench import serve_replicated


def check_invariants(result, scale):
    report = result["report"]
    # Replication must be invisible in the numbers: replicas=1 and
    # replicas=N serve the same estimates (the tolerance covers one-ulp
    # BLAS round-off from the different micro-batch shapes), and both match
    # the unbatched sequential baseline.
    assert report["replica_drift"] <= 1e-12
    assert report["max_estimate_drift"] <= 1e-9

    # The warm pass is answered by the exact-match result cache: every
    # repeat hits, bit-for-bit, and the admission bound sheds nothing under
    # the block policy.
    assert report["warm_drift"] == 0.0
    assert report["result_cache_hits"] == report["num_queries"]
    assert report["shed"] == 0

    # The shed demo refuses most of the burst (its bound admits two queries
    # per group at a time) and accounts for every refusal.
    assert report["shed_demo"] > 0
    assert report["shed_demo"] + report["shed_demo_served"] == report["num_queries"]

    # The workload really is hot: the sessions relation sees the configured
    # majority share and its replica group fans it out.
    assert report["hot_queries"] >= report["num_queries"] // 2
    hot_route = report["counts"]["warm"]["routes"]["sessions"]
    assert hot_route["num_replicas"] == scale.serve_replicated.replicas


def test_serve_replicated(bench_scale, save_report):
    result = serve_replicated(scale=bench_scale)
    save_report("serve_replicated", result)
    check_invariants(result, bench_scale)
