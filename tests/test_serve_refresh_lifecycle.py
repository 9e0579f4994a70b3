"""Live refresh: RefreshController and the version-invalidation grid.

Two halves.  ``TestRefreshController`` drives the ingest -> stale-serve ->
refresh loop directly: drift scoring against the serving model, the
staleness/drift triggers, fine-tune swaps and the cold-rebuild fallback.
``TestEpochInvalidationGrid`` is the invariance grid: after a version
move every cache layer (result cache, per-engine conditional caches,
the packed group cache) must report **zero** stale hits, and a long-lived
router that lived through ingest + refresh must answer bit-identically to a
cold router built over the refreshed registry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NaruConfig, NaruEstimator
from repro.data import make_users, partition_by_column
from repro.estimators import SamplingEstimator
from repro.query import WorkloadGenerator
from repro.serve import (
    FleetRouter,
    ModelRegistry,
    RefreshController,
)

_CONFIG = NaruConfig(epochs=1, hidden_sizes=(8, 8), batch_size=64,
                     progressive_samples=40, seed=0)
_SAMPLES = 40
_SEED = 3


def _registry(*, replicas: int = 1) -> ModelRegistry:
    registry = ModelRegistry(default_config=_CONFIG)
    registry.register_table(make_users(num_users=120, seed=4),
                            replicas=replicas)
    return registry


def _workload(registry, count: int = 8):
    base = registry.relation("users")
    return [query.qualified("users")
            for query in WorkloadGenerator(base, min_filters=1, max_filters=2,
                                           seed=21).generate(count)]


class TestRefreshController:
    def test_constructor_validation(self):
        registry = _registry()
        with pytest.raises(ValueError, match="max_staleness"):
            RefreshController(registry, max_staleness=-1)
        with pytest.raises(ValueError, match="refresh_epochs"):
            RefreshController(registry, refresh_epochs=0)
        assert "max_staleness=1" in repr(RefreshController(registry))

    def test_drift_is_none_without_a_likelihood_model(self):
        registry = _registry()          # registered, never fitted
        controller = RefreshController(registry)
        rows = make_users(num_users=20, seed=7)
        assert controller.drift_bits("users", rows) is None
        record = controller.ingest("users", rows)
        assert record["drift_bits"] is None
        assert record["data_epoch"] == 1
        assert record["staleness"] == 1

    def test_drift_is_none_for_non_naru_estimators(self):
        base = make_users(num_users=120, seed=4)
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(base, estimator=SamplingEstimator(
            base, sample_size=50, seed=1))
        controller = RefreshController(registry)
        assert controller.drift_bits("users",
                                     make_users(num_users=20, seed=7)) is None

    def test_drift_ranks_shifted_rows_above_in_distribution_rows(self):
        registry = _registry()
        registry.fit_all()
        controller = RefreshController(registry)
        base = registry.relation("users")
        head, *_, tail = partition_by_column(base, "country", 4)
        low = controller.drift_bits("users", head)     # most common values
        high = controller.drift_bits("users", tail)    # rarest values
        assert np.isfinite(low) and np.isfinite(high)
        assert high > low

    def test_drift_is_infinite_for_out_of_vocabulary_rows(self):
        registry = _registry()
        registry.fit_all()
        controller = RefreshController(registry)
        # user_ids 120..199 never appeared in the 120-user training table.
        oov = make_users(num_users=200, seed=4)
        assert controller.drift_bits("users", oov) == float("inf")

    def test_staleness_bound_flags_and_refresh_clears(self):
        registry = _registry()
        registry.fit_all()
        estimator = registry.estimator("users")
        controller = RefreshController(registry, max_staleness=1)
        rows = make_users(num_users=30, seed=7)
        first = controller.ingest("users", rows)
        assert not first["refresh_due"]                # one stale epoch is OK
        second = controller.ingest("users", rows)
        assert second["refresh_due"] and second["staleness"] == 2
        assert controller.due() == ["users"]
        refreshed = controller.refresh("users")
        assert refreshed is not estimator              # a fine-tuned copy
        assert refreshed is registry.estimator("users")
        assert refreshed.num_rows == registry.relation("users").num_rows
        assert registry.version("users") == 3
        assert controller.refreshes["users"] == 1
        assert controller.due() == []

    def test_drift_is_reported_but_only_staleness_makes_a_refresh_due(self):
        """A genuinely shifted batch is scored and reported, yet a refresh
        falls due on the staleness bound alone."""
        registry = _registry()
        registry.fit_all()
        *_, tail = partition_by_column(registry.relation("users"),
                                       "country", 4)
        controller = RefreshController(registry, max_staleness=1)
        first = controller.ingest("users", tail)
        assert set(first) == {"relation", "data_epoch", "staleness",
                              "drift_bits", "refresh_due"}
        assert first["drift_bits"] > 0                 # shifted rows
        assert controller.last_drift_bits["users"] == first["drift_bits"]
        assert not first["refresh_due"] and controller.due() == []
        second = controller.ingest("users", tail)
        assert second["staleness"] == 2 and second["refresh_due"]

    def test_ingest_never_swaps_the_model(self):
        """Ingest only appends and flags; the serving model stays until the
        caller refreshes, even when the bound is zero."""
        registry = _registry()
        registry.fit_all()
        served = registry.estimator("users")
        controller = RefreshController(registry, max_staleness=0)
        record = controller.ingest("users", make_users(num_users=30, seed=7))
        assert record["refresh_due"]
        assert registry.estimator("users") is served
        assert registry.version("users") == 1
        assert controller.refreshes == {}
        controller.refresh("users")
        assert registry.staleness("users") == 0
        assert controller.refreshes["users"] == 1

    def test_refresh_without_ingest_rescores_drift_on_the_new_model(self):
        """Regression: the drift baseline was cached per model epoch, which a
        refresh with no ingest since the last fit leaves where it was, so
        the refreshed model's cross-entropy was set against the old model's
        baseline (-0.0041 bits where a fresh controller reads +0.0688)."""
        registry = _registry()
        registry.fit_all()
        controller = RefreshController(registry)
        rows = make_users(num_users=20, seed=7)
        before = controller.drift_bits("users", rows)
        controller.refresh("users")
        after = controller.drift_bits("users", rows)
        assert after != before
        assert after == RefreshController(registry).drift_bits("users", rows)

    def test_out_of_vocabulary_ingest_forces_cold_rebuild(self):
        registry = _registry()
        registry.fit_all()
        old = registry.estimator("users")
        controller = RefreshController(registry, max_staleness=0)
        record = controller.ingest("users", make_users(num_users=200, seed=4))
        assert record["drift_bits"] == float("inf")
        rebuilt = controller.refresh("users")
        assert rebuilt is not old                      # new model, new dicts
        assert isinstance(rebuilt, NaruEstimator) and rebuilt._fitted
        assert rebuilt.num_rows == registry.relation("users").num_rows
        assert registry.version("users") == 2


class TestEpochInvalidationGrid:
    """A version move kills every cache layer, atomically."""

    @pytest.fixture()
    def served(self):
        """A replicated fleet that has served (and cached) one workload
        twice, so the result cache and every conditional cache are warm."""
        registry = _registry(replicas=2)
        registry.fit_all()
        queries = _workload(registry)
        router = FleetRouter(registry, batch_size=4, num_samples=_SAMPLES,
                             seed=_SEED, result_cache=True, cache_entries=400)
        first = router.run(queries)
        warm = router.run(queries)
        assert warm.result_cache_hits == len(queries)  # caches really warm
        return registry, router, queries, first

    def test_stale_serving_is_cacheless_but_bit_identical(self, served):
        registry, router, queries, first = served
        registry.ingest("users", make_users(num_users=30, seed=7))
        stale = router.run(queries)
        # Nothing cached before the ingest is served: the warm result-cache
        # entries are rejected (counted), and the group was rebuilt with
        # fresh conditional caches — so the stale run re-derives everything
        # and lands bit-identical to the pre-ingest run (same model).
        assert stale.result_cache_hits == 0
        assert router.result_cache.stats.as_dict()["lifetime"]["stale_rejects"] > 0
        np.testing.assert_array_equal(stale.selectivities, first.selectivities)
        assert stale.stats.epochs["users"] == {"data_epoch": 1,
                                               "model_epoch": 0,
                                               "staleness": 1}
        assert stale.stats.max_staleness == 1
        assert stale.stats.as_dict()["max_staleness"] == 1

    def test_refreshed_router_matches_cold_router_bit_for_bit(self, served):
        registry, router, queries, _ = served
        controller = RefreshController(registry, max_staleness=0)
        controller.ingest("users", make_users(num_users=30, seed=7))
        controller.refresh("users")
        group_before = router.group("users")
        post = router.run(queries)
        # Zero stale hits across every layer: no old result-cache entry and
        # no old conditional-cache entry reached a single estimate.
        assert post.result_cache_hits == 0
        cold = FleetRouter(registry, batch_size=4, num_samples=_SAMPLES,
                           seed=_SEED, result_cache=True,
                           cache_entries=400).run(queries)
        np.testing.assert_array_equal(post.selectivities, cold.selectivities)
        # The replica group was swapped around a fresh pooled conditional
        # cache.
        group_after = router.group("users")
        assert group_after is not group_before
        assert group_after.cache is not group_before.cache
        assert post.stats.epochs["users"] == {"data_epoch": 1,
                                              "model_epoch": 1,
                                              "staleness": 0}
        assert post.stats.max_staleness == 0
        # Once refreshed, the cache warms again at the new version.
        rewarmed = router.run(queries)
        assert rewarmed.result_cache_hits == len(queries)

    def test_refresh_without_ingest_invalidates_every_cache_layer(self,
                                                                 served):
        """A refresh fine-tunes the model even when nothing was ingested
        since the last fit, so both epochs stand still; the swap
        still moves the relation's version, and a long-lived router serves the
        refreshed model exactly like a fresh one — no pre-refresh result or
        conditional-cache entry answers a query."""
        registry, router, queries, first = served
        RefreshController(registry).refresh("users")
        assert registry.staleness("users") == 0
        post = router.run(queries)
        assert post.result_cache_hits == 0
        assert router.result_cache.stats.as_dict()["lifetime"]["stale_rejects"] > 0
        fresh = FleetRouter(registry, batch_size=4, num_samples=_SAMPLES,
                            seed=_SEED, result_cache=True,
                            cache_entries=400).run(queries)
        np.testing.assert_array_equal(post.selectivities, fresh.selectivities)
        assert not np.array_equal(post.selectivities, first.selectivities)
        assert post.stats.epochs["users"] == {"data_epoch": 0,
                                              "model_epoch": 0,
                                              "staleness": 0}

    @staticmethod
    def _refresh_mid_scope(*, result_cache):
        """Twelve queries through one router, six of them before a refresh
        and six after, in one scope.  Returns the registry, the queries,
        the router and a factory of fresh routers like it."""
        registry = ModelRegistry(default_config=_CONFIG)
        registry.register_table(make_users(num_users=80, seed=4))
        registry.fit_all()
        queries = _workload(registry, count=12)

        def router():
            return FleetRouter(registry, batch_size=4, num_samples=30,
                               seed=_SEED, result_cache=result_cache)

        old = router().run(queries)
        served = router()
        for query in queries[:6]:
            served.submit(query)
        served.flush()
        RefreshController(registry).refresh("users")
        for query in queries[6:]:
            served.submit(query)
        served.flush()
        return old, served.report(), served.run(queries), router().run(queries)

    def test_mid_scope_refresh_leaves_the_scope_on_the_old_version(self):
        """Regression: a refresh between two submissions fine-tuned the very
        estimator the live replica group serves, under the group's old
        conditional cache, and the rest of the scope drifted from a fresh
        router's answers (by up to 1.9e-2).  The refresh registers a
        fine-tuned copy: the scope answers as the old version does, bit for
        bit, and the next scope answers as the new one does."""
        old, scope, new, fresh = self._refresh_mid_scope(result_cache=False)
        np.testing.assert_array_equal(scope.selectivities, old.selectivities)
        np.testing.assert_array_equal(new.selectivities, fresh.selectivities)
        assert not np.array_equal(new.selectivities, old.selectivities)

    def test_mid_scope_refresh_caches_no_old_answer_as_new(self):
        """Regression: a unit built before a mid-scope refresh stamped the
        answers it went on serving with the route's *new* version, so
        the next scope served 7 of 12 old-version answers from the result
        cache (up to 8.4e-2 off a fresh router's).  A unit's answers carry
        the version it was built at."""
        _, _, new, fresh = self._refresh_mid_scope(result_cache=True)
        np.testing.assert_array_equal(new.selectivities, fresh.selectivities)
        assert new.result_cache_hits == fresh.result_cache_hits

    def test_slo_controller_survives_group_rebuild(self):
        registry = _registry()
        registry.fit_all()
        queries = _workload(registry, count=6)
        router = FleetRouter(registry, batch_size=8, slo_ms=50.0,
                             num_samples=_SAMPLES, seed=_SEED)
        router.run(queries)
        controller = router.controller("users")
        for _ in range(2):             # two slow dispatches: 8 -> 4 -> 2
            controller.observe(1e6)
        converged = controller.batch_size
        assert converged < 8
        group_before = router.group("users")
        registry.ingest("users", make_users(num_users=30, seed=7))
        report = router.run(queries)   # scope boundary rebuilds the group
        assert router.group("users") is not group_before
        assert router.controller("users") is controller
        # The rebuilt engines start from the converged size, not from max:
        # the scope's trace opens there and its first micro-batch filled it.
        assert report.stats.routes["users"]["batch_trace"][0] == converged
        assert report.routes["users"][0].batches[0].num_queries == converged
