"""The fleet report is a fold: every level sums the level below it.

:func:`repro.serve.report.merge_reports` builds route, estimator and fleet
entries from the same engine reports.  The property test here drives an
in-process :class:`FleetRouter` over random batch sizes, replica counts,
result cache and fallback settings and workload seeds, and checks that the
levels add up — fleet = Σ routes (+ result-cache hits) = Σ replicas — and
that every level keeps its documented key set.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import NaruConfig
from repro.data import make_sessions, make_users
from repro.estimators import SamplingEstimator
from repro.query.predicates import DNFQuery
from repro.serve import (
    FleetRouter,
    ModelRegistry,
    VirtualClock,
    generate_mixed_workload,
    stream_workload,
)

_CONFIG = NaruConfig(epochs=1, hidden_sizes=(16, 16), batch_size=128,
                     progressive_samples=20, seed=0, max_dnf_branches=2)

#: The counters every level sums, fleet = Σ routes = Σ replicas.
_SUMMED = ("rows_submitted", "unique_rows", "rows_evaluated", "forward_calls",
           "timeout_flushes")

#: Report key sets, written out so a renamed or dropped key fails here.
_FLEET_KEYS = {
    "num_queries", "num_models", "elapsed_s", "queries_per_second",
    "cache_entries_total", "cache_entries_per_model", "shed", "result_cache",
    "latency_ms", "queue_wait_ms", "e2e_ms", "timeout_flushes",
    "rows_submitted", "unique_rows", "rows_evaluated", "forward_calls",
    "dedup_ratio", "workers", "epochs", "max_staleness", "estimators",
    "routes"}
_ROUTE_KEYS = {
    "relation", "estimator", "num_queries", "num_batches", "elapsed_s",
    "queries_per_second", "num_samples", "batch_size", "rows_submitted",
    "unique_rows", "rows_evaluated", "forward_calls", "dedup_ratio", "cache",
    "num_replicas", "replicas", "shed", "result_cache_hits", "latency_ms",
    "queue_wait_ms", "e2e_ms", "timeout_flushes", "batch_trace"}
_ESTIMATOR_KEYS = {"units", "num_queries", "elapsed_s", "queries_per_second",
                   "latency_ms", "e2e_ms"}
_ENGINE_KEYS = {
    "num_queries", "num_batches", "elapsed_s", "queries_per_second",
    "num_samples", "batch_size", "timeout_flushes", "rows_submitted",
    "unique_rows", "rows_evaluated", "forward_calls", "dedup_ratio", "cache"}


@pytest.fixture(scope="module")
def registry():
    """Two fitted relations; each example sets replicas and the fallback."""
    registry = ModelRegistry(default_config=_CONFIG)
    registry.register_table(make_users(num_users=60, seed=4))
    registry.register_table(make_sessions(num_rows=200, num_users=60, seed=5))
    registry.fit_all()
    return registry


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(batch_size=st.integers(1, 6), replicas=st.integers(1, 3),
       result_cache=st.booleans(), fallback=st.booleans(),
       seed=st.integers(0, 2**16))
def test_report_levels_are_one_fold(registry, batch_size, replicas,
                                    result_cache, fallback, seed):
    users = registry.relation("users")
    registry.set_replicas("users", replicas)
    registry.set_fallback("users", SamplingEstimator(users, fraction=1.0,
                                                     seed=0)
                          if fallback else None)
    queries = generate_mixed_workload(
        {name: registry.relation(name) for name in registry.names}, 10,
        min_filters=1, max_filters=2, seed=seed)
    queries += queries[:4]  # repeats: result-cache hits when it is on
    if fallback:  # three branches: past Naru's bound, served by the fallback
        queries.append(DNFQuery.from_tuples(
            [[("plan", "=", plan)] for plan in ("free", "basic", "pro")],
            table="users"))
    router = FleetRouter(registry, batch_size=batch_size, num_samples=20,
                         seed=seed, result_cache=result_cache,
                         flush_after_ms=3.0, clock=VirtualClock())
    report = stream_workload(router, queries, advance_ms=2.0)
    stats = report.stats.as_dict()
    routes = stats["routes"]

    assert len(report.results) == len(queries)
    assert stats["num_queries"] == (sum(route["num_queries"]
                                        for route in routes.values())
                                    + report.result_cache_hits)
    for key in _SUMMED:
        assert stats[key] == sum(route[key] for route in routes.values())
        for route in routes.values():
            assert route[key] == sum(replica[key]
                                     for replica in route["replicas"])
    served_by: dict[str, int] = {}
    for result in report.results:
        served_by[result.estimator] = served_by.get(result.estimator, 0) + 1
    assert {name: entry["num_queries"]
            for name, entry in stats["estimators"].items()} == served_by
    units = [unit for entry in stats["estimators"].values()
             for unit in entry["units"]]
    assert sorted(units) == sorted(routes)

    assert set(stats) == _FLEET_KEYS
    for route in routes.values():
        assert set(route) == _ROUTE_KEYS
        for replica in route["replicas"]:
            assert set(replica) == _ENGINE_KEYS
    for entry in stats["estimators"].values():
        assert set(entry) == _ESTIMATOR_KEYS
    for engine_reports in report.routes.values():
        for engine_report in engine_reports:
            assert set(engine_report.stats.as_dict()) == _ENGINE_KEYS
