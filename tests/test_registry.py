"""Tests for multi-model serving: ModelRegistry, JoinSpec and FleetRouter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NaruConfig
from repro.data import JoinSpec, hash_join, make_sessions, make_users
from repro.estimators import SamplingEstimator
from repro.query import Operator, Predicate, Query, WorkloadGenerator
from repro.query.predicates import DNFQuery
from repro.serve import (
    FleetRouter,
    ModelRegistry,
    RefreshController,
    RoutingError,
    run_fleet_sequential,
)

_CONFIG = NaruConfig(epochs=2, hidden_sizes=(16, 16), batch_size=128,
                     progressive_samples=80, seed=0)


@pytest.fixture(scope="module")
def users():
    return make_users(num_users=120, seed=4)


@pytest.fixture(scope="module")
def sessions():
    return make_sessions(num_rows=600, num_users=120, seed=5)


@pytest.fixture(scope="module")
def fleet(users, sessions):
    """A fitted three-model registry: two base tables plus their join."""
    registry = ModelRegistry(default_config=_CONFIG)
    registry.register_table(users)
    registry.register_table(sessions)
    registry.register_join(JoinSpec("sessions", "users", "user_id", "user_id"))
    registry.fit_all()
    return registry


@pytest.fixture(scope="module")
def mixed_workload(fleet):
    """An interleaved table-qualified workload across all three relations."""
    per_relation = [
        [query.qualified(name)
         for query in WorkloadGenerator(fleet.relation(name), min_filters=1,
                                        max_filters=3, seed=20 + offset).generate(5)]
        for offset, name in enumerate(fleet.names)
    ]
    return [query for bundle in zip(*per_relation) for query in bundle]


class TestJoinSpec:
    def test_relation_name_defaults_to_inputs(self):
        spec = JoinSpec("sessions", "users", "user_id", "user_id")
        assert spec.relation_name == "sessions_join_users"
        assert JoinSpec("a", "b", "k", "k", name="ab").relation_name == "ab"

    def test_materialise_matches_hash_join(self, users, sessions):
        spec = JoinSpec("sessions", "users", "user_id", "user_id")
        built = spec.build({"users": users, "sessions": sessions})
        direct = hash_join(sessions, users, "user_id", "user_id")
        assert built.num_rows == direct.num_rows
        assert built.column_names == direct.column_names

    def test_sample_route_uses_join_sampler(self, users, sessions):
        spec = JoinSpec("sessions", "users", "user_id", "user_id",
                        how="sample", sample_rows=200, seed=7)
        built = spec.build({"users": users, "sessions": sessions})
        assert built.num_rows == 200
        # Sampled tuples are real join tuples: every user_id exists in users.
        assert set(built.column("user_id").values) <= set(users.column("user_id").values)

    def test_unknown_inputs_and_methods_rejected(self):
        with pytest.raises(ValueError, match="unknown join method"):
            JoinSpec("a", "b", "k", "k", how="cross")
        with pytest.raises(ValueError):
            JoinSpec("a", "b", "k", "k", sample_rows=0)
        spec = JoinSpec("a", "b", "k", "k")
        with pytest.raises(KeyError, match="not registered"):
            spec.build({})


class TestModelRegistry:
    def test_registration_and_introspection(self, fleet, users, sessions):
        assert len(fleet) == 3
        assert fleet.names == ["users", "sessions", "sessions_join_users"]
        assert "users" in fleet and "nope" not in fleet
        assert fleet.relation("users") is users
        assert fleet.relation("sessions") is sessions
        assert fleet.join_spec("users") is None
        assert fleet.join_spec("sessions_join_users").left == "sessions"
        with pytest.raises(KeyError, match="registered"):
            fleet.relation("nope")

    def test_duplicate_names_rejected(self, users):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        with pytest.raises(ValueError, match="already registered"):
            registry.register_table(users)

    def test_lazy_fit_on_first_estimator_access(self, users):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        assert not registry.is_fitted("users")
        estimator = registry.estimator("users")
        assert registry.is_fitted("users")
        assert estimator._fitted
        assert registry.estimator("users") is estimator  # cached, not rebuilt

    def test_every_built_model_uses_the_default_config(self, users,
                                                       sessions):
        """The registry's default config is the one config of every model
        it builds, base table or join; with none given it is NaruConfig()."""
        config = _CONFIG.with_overrides(progressive_samples=123)
        registry = ModelRegistry(default_config=config)
        registry.register_table(users)
        registry.register_table(sessions)
        registry.register_join(JoinSpec("sessions", "users", "user_id",
                                        "user_id"))
        for name in registry.names:
            assert registry.estimator(name, fit=False).config is config
        assert ModelRegistry().default_config == NaruConfig()

    def test_prebuilt_estimator_served_as_is(self, users):
        registry = ModelRegistry(default_config=_CONFIG)
        sampler = SamplingEstimator(users, sample_size=100, seed=1)
        registry.register_table(users, estimator=sampler)
        assert registry.estimator("users") is sampler

    def test_prebuilt_estimator_must_match_relation(self, users, sessions):
        registry = ModelRegistry(default_config=_CONFIG)
        other = SamplingEstimator(sessions, sample_size=100, seed=1)
        with pytest.raises(ValueError, match="built against table"):
            registry.register_table(users, estimator=other)

    def test_prebuilt_estimator_must_be_fitted(self, users):
        from repro.core import NaruEstimator
        registry = ModelRegistry(default_config=_CONFIG)
        untrained = NaruEstimator(users, _CONFIG)
        with pytest.raises(ValueError, match="not fitted"):
            registry.register_table(users, estimator=untrained)
        assert "users" not in registry  # the failed registration left no trace

    def test_size_rollup_covers_every_model(self, fleet):
        report = fleet.size_report()
        assert set(report) == set(fleet.names)
        assert all(entry["model_bytes"] > 0 for entry in report.values())
        assert all(entry["fitted"] for entry in report.values())
        assert report["sessions_join_users"]["is_join"]
        assert not report["users"]["is_join"]
        assert fleet.size_bytes() == sum(entry["model_bytes"]
                                         for entry in report.values())

    def test_unbuilt_models_contribute_zero_bytes(self, users):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        assert registry.size_bytes() == 0
        registry.estimator("users")
        assert registry.size_bytes() > 0


def _sample(table):
    return SamplingEstimator(table, sample_size=50, seed=1)


def _ingest(registry, table):
    registry.ingest("users", make_users(num_users=20, seed=95))


def _refresh(registry, table):
    RefreshController(registry).refresh("users")


#: ``(event, setup, action, version move)``: every event that can change an
#: answer moves the version by one, every other event leaves it.
_VERSION_EVENTS = [
    ("ingest", None, _ingest, 1),
    ("replace-with-estimator", None, lambda r, t: r.register_table(
        t, name="users", estimator=_sample(t), replace=True), 1),
    ("replace-without-estimator", None,
     lambda r, t: r.register_table(t, name="users", replace=True), 1),
    ("set-new-fallback", None, lambda r, t: r.set_fallback("users", _sample(t)), 1),
    ("clear-a-fallback", lambda r, t: r.set_fallback("users", _sample(t)),
     lambda r, t: r.set_fallback("users", None), 1),
    ("clear-no-fallback", None, lambda r, t: r.set_fallback("users", None), 0),
    ("set-replicas", None, lambda r, t: r.set_replicas("users", 3), 0),
    ("lazy-first-fit", None, lambda r, t: r.estimator("users"), 0),
    ("repeated-estimator-call", lambda r, t: r.estimator("users"),
     lambda r, t: r.estimator("users"), 0),
    ("register-another-relation", None, lambda r, t: r.register_table(
        make_sessions(num_rows=100, num_users=120, seed=5)), 0),
    ("refresh", lambda r, t: r.fit_all(), _refresh, 1),
    ("ingest-then-refresh", lambda r, t: r.fit_all(),
     lambda r, t: (_ingest(r, t), _refresh(r, t)), 2),
]


#: ``(path, workload, served by)``: each way a router answers a query,
#: served after an ingest with no refresh.  The last result of
#: ``workload(conjunction, disjunction)`` is the one checked; at
#: ``batch_size=1`` a repeat within one run is a result-cache hit.
_SERVING_PATHS = [
    ("model", lambda conj, dnf: [conj], "Naru-40"),
    ("result-cache", lambda conj, dnf: [conj, conj], "cache"),
    ("fallback", lambda conj, dnf: [dnf], "Sample(100.0%)"),
]


class TestRegistryEpochs:
    """Data/model epoch stamping: ingest, staleness, and replace semantics."""

    @pytest.mark.parametrize("workload, served_by",
                             [row[1:] for row in _SERVING_PATHS],
                             ids=[row[0] for row in _SERVING_PATHS])
    def test_stale_answers_scale_by_the_grown_row_count(self, users, workload,
                                                        served_by):
        """The stale model knows today's row count (§6.7.3): after an ingest
        with no refresh, every serving path reads selectivity x the grown
        relation's rows."""
        registry = ModelRegistry(default_config=NaruConfig(
            epochs=1, hidden_sizes=(8, 8), progressive_samples=40, seed=0,
            max_dnf_branches=2))
        registry.register_table(users, fallback=SamplingEstimator(
            users, fraction=1.0, seed=0))
        registry.fit_all()
        registry.ingest("users", make_users(num_users=20, seed=95))
        assert registry.staleness("users") == 1
        conj = Query([Predicate("plan", Operator.EQ, "pro")], table="users")
        dnf = DNFQuery.from_tuples([[("plan", "=", plan)] for plan in
                                    ("free", "basic", "pro")], table="users")
        router = FleetRouter(registry, batch_size=1, num_samples=40, seed=0,
                             result_cache=True)
        result = router.run(workload(conj, dnf)).results[-1]
        assert result.estimator == served_by
        assert result.selectivity > 0
        assert result.cardinality == (result.selectivity
                                      * registry.relation("users").num_rows)

    @pytest.mark.parametrize("setup, action, move",
                             [row[1:] for row in _VERSION_EVENTS],
                             ids=[row[0] for row in _VERSION_EVENTS])
    def test_version_moves_on_exactly_the_events_that_change_an_answer(
            self, users, setup, action, move):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        if setup is not None:
            setup(registry, users)
        before = registry.version("users")
        action(registry, users)
        assert registry.version("users") == before + move

    def test_fresh_relation_starts_at_epoch_zero(self, users):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        assert registry.data_epoch("users") == 0
        assert registry.model_epoch("users") == 0
        assert registry.staleness("users") == 0
        assert registry.version("users") == 0
        with pytest.raises(KeyError, match="registered"):
            registry.data_epoch("nope")

    def test_ingest_bumps_data_epoch_and_grows_relation(self, users):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        more = make_users(num_users=30, seed=99)
        assert registry.ingest("users", more) == 1
        assert registry.ingest("users", more) == 2
        grown = registry.relation("users")
        assert grown.num_rows == users.num_rows + 2 * more.num_rows
        assert grown.name == users.name
        assert registry.version("users") == 2
        assert registry.staleness("users") == 2

    def test_lazy_fit_stamps_model_epoch_to_data_epoch(self, users):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        registry.ingest("users", make_users(num_users=20, seed=98))
        registry.estimator("users")          # lazy fit sees epoch-1 data
        assert registry.model_epoch("users") == 1
        assert registry.staleness("users") == 0

    def test_replace_accepts_structurally_equal_table(self, users):
        # Regression: the old identity check (`estimator.table is not table`)
        # rejected a refreshed table even when its schema matched exactly.
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users, replicas=2)
        registry.ingest("users", make_users(num_users=20, seed=97))
        grown = registry.relation("users")
        estimator = SamplingEstimator(grown, sample_size=50, seed=1)
        registry.register_table(grown, name="users", estimator=estimator,
                                replace=True)
        assert registry.estimator("users") is estimator
        assert registry.model_epoch("users") == 1
        assert registry.staleness("users") == 0
        # Replace keeps the serving knobs that were tuned on the old version.
        assert registry.replicas("users") == 2

    def test_replace_requires_opt_in(self, users):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        with pytest.raises(ValueError, match="already registered"):
            registry.register_table(users, name="users")

    def test_replace_rejects_schema_mismatch(self, users, sessions):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        wrong = SamplingEstimator(sessions, sample_size=50, seed=1)
        with pytest.raises(ValueError, match="built against table"):
            registry.register_table(users, name="users", estimator=wrong,
                                    replace=True)

    def test_replace_without_estimator_forces_cold_rebuild(self, users):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        first = registry.estimator("users")
        registry.ingest("users", make_users(num_users=20, seed=96))
        grown = registry.relation("users")
        registry.register_table(grown, name="users", replace=True)
        assert not registry.is_fitted("users")
        rebuilt = registry.estimator("users")
        assert rebuilt is not first
        assert registry.version("users") == 2


class TestFleetRouter:
    def test_mixed_workload_routes_every_query(self, fleet, mixed_workload):
        router = FleetRouter(fleet, batch_size=4, num_samples=80, seed=1)
        report = router.run(mixed_workload)
        assert [result.index for result in report.results] == \
            list(range(len(mixed_workload)))
        assert all(result.route == query.table
                   for result, query in zip(report.results, mixed_workload))
        assert np.all((report.selectivities >= 0.0) & (report.selectivities <= 1.0))
        # Cardinalities scale by the routed relation's row count.
        for result in report.results:
            expected = result.selectivity * fleet.relation(result.route).num_rows
            assert result.cardinality == pytest.approx(expected)

    def test_per_route_stats_and_shared_cache_budget(self, fleet, mixed_workload):
        router = FleetRouter(fleet, batch_size=4, num_samples=80, seed=1,
                             cache_entries=300)
        report = router.run(mixed_workload)
        stats = report.stats
        assert stats.num_queries == len(mixed_workload)
        assert stats.num_models == 3
        assert stats.cache_entries_total == 300
        assert stats.cache_entries_per_model == 100
        assert set(stats.routes) == set(fleet.names)
        for route_stats in stats.routes.values():
            assert route_stats["num_queries"] == 5
            assert route_stats["queries_per_second"] > 0
            assert route_stats["cache"]["hits"] + route_stats["cache"]["misses"] > 0
        assert stats.queries_per_second > 0

    def test_estimates_independent_of_batch_size_and_routing(self, fleet,
                                                             mixed_workload):
        """The acceptance gate: batch_size=1 vs 64 is stable per model."""
        small = FleetRouter(fleet, batch_size=1, num_samples=80,
                            seed=3).run(mixed_workload)
        large = FleetRouter(fleet, batch_size=64, num_samples=80,
                            seed=3).run(mixed_workload)
        np.testing.assert_allclose(small.selectivities, large.selectivities,
                                   rtol=1e-9, atol=1e-12)

    def test_matches_independent_sequential_engines(self, fleet, mixed_workload):
        routed = FleetRouter(fleet, batch_size=4, num_samples=80,
                             seed=2).run(mixed_workload)
        baseline = run_fleet_sequential(fleet, mixed_workload, num_samples=80,
                                        seed=2)
        assert [result.route for result in baseline.results] == \
            [result.route for result in routed.results]
        np.testing.assert_allclose(routed.selectivities, baseline.selectivities,
                                   rtol=1e-9, atol=1e-12)

    def test_unroutable_queries_raise(self, fleet):
        router = FleetRouter(fleet, batch_size=2, num_samples=40)
        unknown = Query([Predicate("plan", Operator.EQ, "pro")], table="nope")
        with pytest.raises(RoutingError, match="unregistered"):
            router.submit(unknown)
        unqualified = Query([Predicate("plan", Operator.EQ, "pro")])
        with pytest.raises(RoutingError, match="no table qualifier"):
            router.submit(unqualified)
        # Failed submissions consume no indices: the next run starts at zero.
        report = router.run([unqualified.qualified("users")])
        assert report.results[0].index == 0

    def test_default_route_serves_unqualified_queries(self, fleet):
        router = FleetRouter(fleet, batch_size=2, num_samples=40,
                             default_route="users")
        report = router.run([Query([Predicate("plan", Operator.EQ, "pro")])])
        assert report.results[0].route == "users"
        with pytest.raises(ValueError, match="not a registered relation"):
            FleetRouter(fleet, default_route="nope")

    def test_single_model_registry_routes_implicitly(self, users):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        router = FleetRouter(registry, batch_size=2, num_samples=40)
        report = router.run([Query([Predicate("plan", Operator.EQ, "pro")])])
        assert report.results[0].route == "users"

    def test_relations_registered_after_router_construction_serve(self, users,
                                                                  sessions):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        router = FleetRouter(registry, batch_size=2, num_samples=40, seed=0,
                             default_route="users")
        registry.register_table(sessions, replicas=2)
        query = Query([Predicate("user_id", Operator.GE, 0)], table="sessions")
        report = router.run([query])
        assert report.results[0].route == "sessions"
        assert report.stats.routes["sessions"]["num_replicas"] == 2

    def test_streaming_submit_flush_report(self, fleet, mixed_workload):
        router = FleetRouter(fleet, batch_size=4, num_samples=80, seed=1)
        expected = router.run(mixed_workload).selectivities

        streaming = FleetRouter(fleet, batch_size=4, num_samples=80, seed=1)
        for query in mixed_workload:
            assert streaming.submit(query) == query.table
        streaming.flush()
        report = streaming.report()
        np.testing.assert_allclose(report.selectivities, expected,
                                   rtol=1e-9, atol=1e-12)

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError, match="no relations"):
            FleetRouter(ModelRegistry(default_config=_CONFIG))

    def test_empty_workload_returns_well_formed_report(self, fleet,
                                                       mixed_workload):
        router = FleetRouter(fleet, batch_size=4, num_samples=40, seed=1)
        report = router.run([])
        assert report.results == []
        assert report.stats.num_queries == 0
        assert report.stats.num_models == 3
        assert report.stats.queries_per_second == 0.0
        assert report.stats.elapsed_s == 0.0
        assert report.stats.shed == 0
        assert report.selectivities.shape == (0,)
        # Also after the router has served traffic (groups materialised):
        # the per-route stats stay well formed at zero queries.
        router.run(mixed_workload[:3])
        empty = router.run([])
        assert empty.stats.num_queries == 0
        assert empty.stats.queries_per_second == 0.0
        for route_stats in empty.stats.routes.values():
            assert route_stats["num_queries"] == 0
            assert route_stats["queries_per_second"] == 0.0
        # And an empty run leaves the router serviceable.
        assert router.run(mixed_workload[:3]).stats.num_queries == 3

    def test_join_relation_served_like_base_table(self, fleet):
        """Queries spanning both join sides route to the join's model."""
        query = Query.from_tuples([("plan", "=", "pro"), ("errors", "=", "errors_0")],
                                  table="sessions_join_users")
        router = FleetRouter(fleet, batch_size=2, num_samples=80, seed=0)
        report = router.run([query])
        assert report.results[0].route == "sessions_join_users"
        assert 0.0 <= report.results[0].selectivity <= 1.0

    def test_sampled_join_relation_served(self, users, sessions):
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(users)
        registry.register_table(sessions)
        name = registry.register_join(JoinSpec(
            "sessions", "users", "user_id", "user_id", name="sampled",
            how="sample", sample_rows=250, seed=9))
        assert name == "sampled"
        query = Query.from_tuples([("plan", "=", "free")], table="sampled")
        report = FleetRouter(registry, batch_size=2, num_samples=80).run([query])
        assert report.results[0].route == "sampled"
        assert 0.0 <= report.results[0].selectivity <= 1.0


class TestQueryQualifier:
    def test_query_table_defaults_to_none(self):
        query = Query.from_tuples([("a", "=", 1)])
        assert query.table is None

    def test_qualified_copies_without_mutating(self):
        query = Query.from_tuples([("a", "=", 1)])
        qualified = query.qualified("users")
        assert qualified.table == "users"
        assert query.table is None
        assert qualified.predicates == query.predicates

    def test_str_shows_qualifier(self):
        query = Query.from_tuples([("a", "=", 1)], table="users")
        assert str(query).startswith("[users] ")
        assert "users" not in str(Query.from_tuples([("a", "=", 1)]))
