"""Cross-process sharded fleet — ProcessFleet vs the single-process router.

Not a reproduction of a paper table: guards the scale-out claim of
:class:`repro.serve.ProcessFleet` as :func:`repro.bench.serve_procfleet`
measures it — sharding a fleet of relation replicas across N OS worker
processes multiplies serving capacity without changing a single estimate:
the process fleet matches the in-process :class:`repro.serve.FleetRouter`
bit-for-bit (``fleet_drift == 0.0``) and a ``batch_size=1`` pass matches the
sequential baseline exactly (``max_estimate_drift == 0.0``).
"""

from __future__ import annotations

from repro.bench import serve_procfleet


def check_invariants(result, scale):
    report = result["report"]
    # The process boundary must be invisible in the numbers: the process
    # fleet matches the in-process router bit-for-bit (same micro-batch
    # composition, caches off on both sides), and the batch_size=1 pass
    # walks the sequential baseline's exact code path on the far side of a
    # pipe.
    assert report["fleet_drift"] == 0.0
    assert report["max_estimate_drift"] == 0.0

    # Every query was served exactly once, and every worker pulled its
    # weight: the round-robin shard layout leaves no worker idle.
    assert report["counts"]["procfleet"]["num_queries"] == report["num_queries"]
    tallies = report["worker_queries"]
    assert len(tallies) == scale.serve_procfleet.workers
    assert all(served > 0 for served in tallies.values())
    assert sum(tallies.values()) == report["num_queries"]


def test_serve_procfleet(bench_scale, save_report):
    result = serve_procfleet(scale=bench_scale)
    save_report("serve_procfleet", result)
    check_invariants(result, bench_scale)

    # The one wall-clock constant left in the serving benchmarks, kept
    # because nothing else guards worker scale-out: perfbench has no
    # end-to-end workload over worker processes (its ``procfleet.qps`` is a
    # per-layer reading, never compared against a bound).  It is asserted
    # on *capacity* — the critical path is the largest per-worker busy-CPU
    # time, i.e. what wall-clock becomes once each worker owns a core —
    # because CI hosts may expose a single core, where OS processes cannot
    # overlap in wall time no matter how well the fleet shards.  With the
    # workload sharded across 4 workers the critical path must be at most
    # 1/2.5 of the single-process fleet's wall time.
    assert result["timing"]["speedup"] >= 2.5
