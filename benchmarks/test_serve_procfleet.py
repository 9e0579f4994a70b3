"""Cross-process sharded fleet — ProcessFleet capacity vs the in-process router.

Not a reproduction of a paper table: guards the scale-out claim of
:class:`repro.serve.ProcessFleet` as :func:`repro.bench.serve_procfleet`
measures it — sharding a fleet of relation replicas across N OS worker
processes multiplies serving capacity.  A wall-clock gate: that the process
boundary changes no estimate and that every worker of the round-robin layout
serves is proved in ``tests/test_serve_invariance.py``.
"""

from __future__ import annotations

from repro.bench import serve_procfleet


def check_invariants(result, scale):
    # The capacity reading covers the whole layout: one busy-CPU reading
    # per worker, and every worker did work.
    workers = result["timing"]["worker_stats"]
    assert len(workers) == scale.serve_procfleet.workers
    assert all(stats["busy_cpu_ms"] > 0 for stats in workers.values())


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
