"""Estimator ensemble over a widened query language — beyond the paper.

Not a reproduction of a paper table: guards the query-language extension
(DNF disjunctions, ``LIKE 'x%'`` prefixes) and the capability-based ensemble
that serves it, as :func:`repro.bench.serve_ensemble` measures it.  Three
claims are asserted exactly: routing matches the capability matrix, the
routed fleet and the sequential per-query pass agree bit-for-bit, and
inclusion–exclusion over exact per-term selectivities reproduces the exact
union selectivity to float round-off.
"""

from __future__ import annotations

from repro.bench import serve_ensemble


def check_invariants(result, scale):
    report = result["report"]
    # The workload genuinely exercises every shape and both ensemble roles;
    # the fallback serves exactly the disjunctions over the branch bound
    # (the experiment itself raises if the two index sets differ).
    assert set(report["shape_mix"]) == {"conjunctive", "disjunctive", "prefix"}
    assert report["overflow_dnf"] > 0
    assert report["fallback_served"] == report["overflow_dnf"]

    # Determinism: routing through the ensemble is bit-identical to the
    # sequential per-query pass — fallbacks perturb nothing.
    assert report["max_estimate_drift"] == 0.0

    # The inclusion–exclusion expansion is exact when its terms are.
    assert report["ie_oracle_queries"] > 0
    assert report["ie_oracle_gap"] <= 1e-9

    # Both ensemble roles report accuracy and latency columns.
    names = set(report["accuracy_by_estimator"])
    assert any(name.startswith("Naru-") for name in names)
    assert any(name.startswith("Sample(") for name in names)
    assert names == set(result["timing"]["estimators"])


def test_serve_ensemble(bench_scale, save_report):
    result = serve_ensemble(scale=bench_scale)
    save_report("serve_ensemble", result)
    check_invariants(result, bench_scale)
