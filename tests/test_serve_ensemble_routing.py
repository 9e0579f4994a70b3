"""Tests for the per-query estimator ensemble in the serving layer.

Capability-based routing (:meth:`FleetRouter.resolve_serving`), the
per-relation fallback estimators held by the :class:`ModelRegistry`, the
Naru inclusion–exclusion branch budget, and the per-estimator report columns.
The invariance contract extends to the ensemble: registering a fallback (or
wrapping a conjunction as a single-branch disjunction) must not move a single
bit of any estimate the pre-ensemble stack produced.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import NaruConfig, NaruEstimator
from repro.data import make_sessions, make_users
from repro.estimators import IndependenceEstimator, SamplingEstimator
from repro.query import Operator, Predicate, Query
from repro.query.predicates import DNFQuery
from repro.query.shapes import QueryShape
from repro.serve import (
    FleetRouter,
    ModelRegistry,
    ProcessFleet,
    RoutingError,
    generate_shape_workload,
    run_fleet_sequential,
)

_CONFIG = NaruConfig(epochs=2, hidden_sizes=(16, 16), batch_size=128,
                     progressive_samples=60, seed=0, max_dnf_branches=3)
_SAMPLES = 60


@pytest.fixture(scope="module")
def fleet():
    """Two fitted base tables, each with a sampling fallback estimator."""
    registry = ModelRegistry(default_config=_CONFIG)
    users = make_users(num_users=100, seed=4)
    sessions = make_sessions(num_rows=400, num_users=100, seed=5)
    registry.register_table(users, fallback=SamplingEstimator(
        users, fraction=1.0, seed=0))
    registry.register_table(sessions)
    registry.fit_all()
    return registry


_DNF_COLUMNS = {
    "users": ("plan", ["free", "basic", "pro", "enterprise"]),
    "sessions": ("device", [f"device_{index}" for index in range(8)]),
}


def _dnf(table: str, branches: int) -> DNFQuery:
    column, values = _DNF_COLUMNS[table]
    return DNFQuery.from_tuples(
        [[(column, "=", values[index % len(values)])]
         for index in range(branches)],
        table=table)


class TestCapabilities:
    def test_naru_serves_all_three_shapes(self, fleet):
        assert fleet.capabilities("users") == frozenset({
            QueryShape.CONJUNCTIVE, QueryShape.PREFIX,
            QueryShape.DISJUNCTIVE})

    def test_sampling_serves_all_three_shapes(self, fleet):
        assert fleet.fallback("users").capabilities() == frozenset({
            QueryShape.CONJUNCTIVE, QueryShape.PREFIX,
            QueryShape.DISJUNCTIVE})

    def test_mask_baseline_serves_prefix_but_not_disjunctive(self, fleet):
        baseline = IndependenceEstimator(fleet.relation("users"))
        assert baseline.capabilities() == frozenset({
            QueryShape.CONJUNCTIVE, QueryShape.PREFIX})

    def test_naru_bounds_dnf_at_config_branches(self, fleet):
        sessions = fleet.estimator("sessions")
        assert isinstance(sessions, NaruEstimator)
        assert sessions.can_serve(_dnf("sessions", _CONFIG.max_dnf_branches))
        assert not sessions.can_serve(
            _dnf("sessions", _CONFIG.max_dnf_branches + 1))


class TestRegistryFallbacks:
    def test_fallback_schema_mismatch_rejected(self, fleet):
        other = make_sessions(num_rows=50, num_users=20, seed=1)
        with pytest.raises(ValueError, match="schema does not match"):
            fleet.set_fallback("users", SamplingEstimator(other, fraction=1.0))

    def test_fallback_clearable(self):
        registry = ModelRegistry(default_config=_CONFIG)
        users = make_users(num_users=40, seed=4)
        registry.register_table(users, fallback=SamplingEstimator(
            users, fraction=1.0, seed=0))
        assert registry.fallback("users") is not None
        registry.set_fallback("users", None)
        assert registry.fallback("users") is None


class TestResolveServing:
    def test_conjunctive_always_primary(self, fleet):
        router = FleetRouter(fleet, num_samples=_SAMPLES, seed=2)
        query = Query([Predicate("plan", Operator.EQ, "pro")],
                      table="users")
        assert router.resolve_serving(query) == ("users", "primary")

    def test_small_dnf_primary_by_inclusion_exclusion(self, fleet):
        router = FleetRouter(fleet, num_samples=_SAMPLES, seed=2)
        assert router.resolve_serving(_dnf("users", 2)) == ("users", "primary")

    def test_overflow_dnf_routes_to_fallback(self, fleet):
        router = FleetRouter(fleet, num_samples=_SAMPLES, seed=2)
        overflow = _dnf("users", _CONFIG.max_dnf_branches + 1)
        assert router.resolve_serving(overflow) == ("users", "fallback")

    def test_overflow_without_fallback_raises_descriptive_error(self, fleet):
        router = FleetRouter(fleet, num_samples=_SAMPLES, seed=2)
        overflow = _dnf("sessions", _CONFIG.max_dnf_branches + 1)
        with pytest.raises(RoutingError) as excinfo:
            router.resolve_serving(overflow)
        message = str(excinfo.value)
        # The error names the shape, the failed capability bound, the
        # missing fallback, and every available route.
        assert "'disjunctive'" in message
        assert f"max_dnf_branches={_CONFIG.max_dnf_branches}" in message
        assert "no fallback estimator is registered" in message
        assert "users" in message and "sessions" in message

    def test_submit_surfaces_routing_error(self, fleet):
        router = FleetRouter(fleet, num_samples=_SAMPLES, seed=2)
        overflow = _dnf("sessions", _CONFIG.max_dnf_branches + 1)
        with pytest.raises(RoutingError):
            router.run([overflow])


class TestEnsembleInvariance:
    def test_fallback_registration_moves_no_conjunctive_bit(self):
        """The pre-ensemble contract survives: same estimates with and
        without a fallback registered, bit for bit."""
        users = make_users(num_users=100, seed=4)
        workload = generate_shape_workload(
            {"users": users}, 10, dnf_fraction=0.0, like_fraction=0.0,
            min_filters=1, max_filters=3, seed=7)

        def serve(with_fallback: bool) -> np.ndarray:
            registry = ModelRegistry(default_config=_CONFIG)
            fallback = (SamplingEstimator(users, fraction=1.0, seed=0)
                        if with_fallback else None)
            registry.register_table(users, fallback=fallback)
            registry.fit_all()
            router = FleetRouter(registry, num_samples=_SAMPLES, seed=2)
            report = router.run(workload)
            assert all(result.estimator.startswith("Naru-")
                       for result in report.results)
            return report.selectivities

        assert np.array_equal(serve(False), serve(True))

    def test_single_branch_dnf_is_bit_identical_to_its_branch(self, fleet):
        branch = Query([Predicate("plan", Operator.EQ, "pro"),
                        Predicate("country", Operator.LIKE, "country_1%")],
                       table="users")
        wrapped = DNFQuery([branch], table="users")
        plain = FleetRouter(fleet, num_samples=_SAMPLES, seed=2).run([branch])
        dnf = FleetRouter(fleet, num_samples=_SAMPLES, seed=2).run([wrapped])
        assert plain.results[0].selectivity == dnf.results[0].selectivity
        assert dnf.results[0].estimator.startswith("Naru-")

    def test_mixed_workload_matches_sequential_baseline(self, fleet):
        workload = generate_shape_workload(
            {name: fleet.relation(name) for name in fleet.names}, 16,
            dnf_fraction=0.25, like_fraction=0.25, dnf_branches=2,
            min_filters=1, max_filters=3, seed=7)
        router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2)
        routed = router.run(workload)
        baseline = run_fleet_sequential(fleet, workload,
                                        num_samples=_SAMPLES, seed=2)
        assert np.array_equal(routed.selectivities, baseline.selectivities)


class TestEnsembleReport:
    @pytest.fixture(scope="class")
    def report(self, fleet):
        queries = [
            Query([Predicate("plan", Operator.EQ, "pro")],
                  table="users"),
            _dnf("users", 2),
            _dnf("users", _CONFIG.max_dnf_branches + 1),
        ]
        router = FleetRouter(fleet, num_samples=_SAMPLES, seed=2)
        return queries, router.run(queries)

    def test_results_name_their_estimator(self, report):
        _, fleet_report = report
        estimators = [fleet_report.estimator_of(index) for index in range(3)]
        assert estimators[0].startswith("Naru-")
        assert estimators[1].startswith("Naru-")
        assert estimators[2].startswith("Sample(")

    def test_fallback_unit_reported_separately(self, report):
        _, fleet_report = report
        routes = fleet_report.stats.routes
        assert "users" in routes and "users@fallback" in routes
        assert routes["users@fallback"]["num_queries"] == 1
        assert routes["users@fallback"]["estimator"].startswith("Sample(")
        assert routes["users@fallback"]["relation"] == "users"

    def test_per_estimator_stats_cover_both_roles(self, report):
        _, fleet_report = report
        stats = fleet_report.stats.estimators
        assert stats is not None
        naru = next(entry for name, entry in stats.items()
                    if name.startswith("Naru-"))
        sample = next(entry for name, entry in stats.items()
                      if name.startswith("Sample("))
        assert naru["num_queries"] == 2
        assert sample["num_queries"] == 1
        assert sample["units"] == ["users@fallback"]

    def test_accuracy_by_estimator_buckets_by_server(self, report):
        queries, fleet_report = report
        truths = {index: max(1.0, index + 1.0)
                  for index in range(len(queries))}
        accuracy = fleet_report.accuracy_by_estimator(truths)
        assert sum(entry["num_queries"] for entry in accuracy.values()) == 3
        assert any(name.startswith("Sample(") for name in accuracy)
        for entry in accuracy.values():
            assert entry["median_qerror"] >= 1.0
            assert entry["max_qerror"] >= entry["median_qerror"]


_TIERS = ("router", "router-slo", "procfleet-w2")


@contextlib.contextmanager
def _tier(registry, tier: str, **options):
    """One of the three router configurations over ``registry``, closed on exit."""
    options.update(num_samples=_SAMPLES, seed=2)
    if tier == "procfleet-w2":
        with ProcessFleet(registry, workers=2, **options) as router:
            yield router
    elif tier == "router-slo":
        yield FleetRouter(registry, slo_ms=50.0, **options)
    else:
        yield FleetRouter(registry, **options)


class TestFallbackIsAnOrdinaryGroup:
    """What the dedicated fallback unit did, pinned on the plain per-query
    engine that replaced it — on every serving tier and the baseline."""

    @pytest.mark.parametrize("tier", (*_TIERS, "sequential"))
    def test_cardinality_scales_by_the_primarys_row_count(self, tier):
        users = make_users(num_users=100, seed=4)
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users, fallback=SamplingEstimator(
            users, fraction=1.0, seed=0))
        registry.fit_all()
        # The data-shift protocol refreshes the *primary's* count only; a
        # fallback answer must scale by it too, not by its own stale one.
        registry.estimator("users").set_row_count(2 * users.num_rows)
        wide = _dnf("users", _CONFIG.max_dnf_branches + 1)
        if tier == "sequential":
            report = run_fleet_sequential(registry, [wide],
                                          num_samples=_SAMPLES, seed=2)
        else:
            with _tier(registry, tier) as router:
                report = router.run([wide])
        [result] = report.results
        assert result.estimator.startswith("Sample(")
        assert result.selectivity > 0.0
        assert result.cardinality == result.selectivity * 2 * users.num_rows

    @pytest.mark.parametrize("tier", (*_TIERS, "sequential"))
    def test_report_row_has_no_samples_and_unit_batches(self, fleet, tier):
        queries = [Query([Predicate("plan", Operator.EQ, "pro")],
                         table="users"),
                   _dnf("users", _CONFIG.max_dnf_branches + 1)]
        if tier == "sequential":
            report = run_fleet_sequential(fleet, queries,
                                          num_samples=_SAMPLES, seed=2)
        else:
            with _tier(fleet, tier, batch_size=8) as router:
                report = router.run(queries)
                if tier == "router-slo":
                    # No AIMD controller on a fallback: nothing to batch.
                    assert set(router.controllers_report()) == {"users"}
                    assert report.stats.routes["users"]["batch_trace"]
        row = report.stats.routes["users@fallback"]
        assert row["num_samples"] == 0 and row["batch_size"] == 1
        assert row["num_batches"] == row["num_queries"] == 1
        assert row["batch_trace"] is None
        assert report.stats.routes["users"]["num_samples"] == _SAMPLES

    @pytest.mark.parametrize("tier", _TIERS)
    def test_answered_before_submit_returns_with_zero_wait(self, fleet, tier):
        seen = []
        with _tier(fleet, tier, batch_size=8, on_result=seen.append) as router:
            router.submit(Query([Predicate("plan", Operator.EQ, "pro")],
                                table="users"))
            router.submit(_dnf("users", _CONFIG.max_dnf_branches + 1))
            # The primary's micro-batch is still filling; the fallback
            # answer is already out.
            assert [result.index for result in seen] == [1]
            assert router.fallback_unit("users").pending == 0
            assert seen[0].queue_wait_ms == 0.0 and seen[0].e2e_ms > 0.0
            router.flush()
            report = router.report()
        assert report.results[1].queue_wait_ms == 0.0
        assert report.stats.routes["users@fallback"]["queue_wait_ms"] == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestEnsembleCLI:
    @pytest.mark.parametrize("workers", (0, 2), ids=["inprocess", "workers2"])
    def test_shaped_workload_with_fallback_end_to_end(self, tmp_path, capsys,
                                                      workers):
        """The ensemble flags serve end to end — in process and, because the
        process fleet *is* the router, across ``--workers`` too (these flags
        used to be refused there)."""
        import json
        import os

        from repro.serve.__main__ import main as serve_main

        report_path = os.path.join(tmp_path, "ensemble.json")
        exit_code = serve_main([
            "--tables", "users", "sessions",
            "--rows", "400", "--num-queries", "16", "--epochs", "1",
            "--samples", "40", "--batch-size", "4", "--seed", "5",
            "--fallback", "sampling", "--fallback-sample", "128",
            "--dnf-fraction", "0.25", "--like-fraction", "0.25",
            "--dnf-branches", "2", "6",
            "--compare-sequential", "--q-errors", "--json", report_path,
            *(["--workers", str(workers)] if workers else []),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert ("worker 0" in output) == bool(workers)
        assert "Registered fallback estimator" in output
        assert "disjunctive" in output and "prefix" in output
        assert "per-estimator breakdown" in output
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["fleet"]["num_queries"] == 16
        assert report["max_estimate_drift"] == 0.0
        assert any(unit.endswith("@fallback")
                   for unit in report["fleet"]["routes"])
        assert any(name.startswith("Sample(")
                   for name in report["q_errors_by_estimator"])

    def test_shape_flag_validation(self):
        from repro.serve.__main__ import main as serve_main

        base = ["--tables", "users", "--rows", "200"]
        with pytest.raises(SystemExit, match=r"must lie in \[0, 1\]"):
            serve_main([*base, "--dnf-fraction", "1.5"])
        with pytest.raises(SystemExit, match="sum to at most 1"):
            serve_main([*base, "--dnf-fraction", "0.7",
                        "--like-fraction", "0.7"])
        with pytest.raises(SystemExit, match="at least 2"):
            serve_main([*base, "--dnf-fraction", "0.5",
                        "--dnf-branches", "1"])
        with pytest.raises(SystemExit, match="does nothing without --dnf-fraction"):
            serve_main([*base, "--dnf-branches", "3"])
        with pytest.raises(SystemExit, match="does nothing without --fallback"):
            serve_main([*base, "--fallback-sample", "64"])
        with pytest.raises(SystemExit, match="incompatible with --workload"):
            serve_main([*base, "--dnf-fraction", "0.5",
                        "--workload", "w.json"])
