"""Live refresh under partitioned ingest — the serving twin of Table 8.

Not a reproduction of a paper table: guards the live-refresh claim of
:class:`repro.serve.RefreshController` and the epoch-keyed cache stack as
:func:`repro.bench.serve_refresh` measures it: the stale model's q-error
degrades as the relation drifts, a single fine-tune refresh recovers it, and
no cache entry of any layer survives an epoch bump.  Everything here is
asserted exactly, not statistically — the experiment has no timing gate.
"""

from __future__ import annotations

from repro.bench import serve_refresh


def check_invariants(result, scale):
    report = result["report"]
    # The tentpole guarantee, asserted bit-exactly: zero invalid cache hits
    # across every layer, proven against a cache-cold router.
    assert report["invalid_cache_hits"] == 0
    # ... and the zero is earned, not vacuous: the replays really collided
    # with pre-bump result-cache state, which the lookups refused to serve.
    assert report["result_cache_stale_rejects"] > 0

    # The fleet served stale (bounded behind the data), then caught up.
    assert report["max_staleness_served"] >= 1
    assert report["epochs"]["dmv"]["staleness"] == 0

    # The accuracy story of the ingest protocol: drift degrades the stale
    # model's error, one fine-tune refresh recovers it.
    fresh, *_, last_stale, refreshed = report["results"]
    for quantile in ("p90", "max"):
        assert last_stale[quantile] > fresh[quantile]
        assert refreshed[quantile] < last_stale[quantile]


def test_serve_refresh(bench_scale, save_report):
    result = serve_refresh(scale=bench_scale)
    save_report("serve_refresh", result)
    check_invariants(result, bench_scale)
