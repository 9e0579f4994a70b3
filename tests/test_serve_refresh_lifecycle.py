"""Live refresh: RefreshController and the epoch-invalidation grid.

Two halves.  ``TestRefreshController`` drives the ingest -> stale-serve ->
refresh loop directly: drift scoring against the serving model, the
staleness/drift triggers, fine-tune swaps and the cold-rebuild fallback.
``TestEpochInvalidationGrid`` is the satellite invariance grid: after an
epoch bump every cache layer (result cache, per-engine conditional caches,
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
        with pytest.raises(ValueError, match="drift_threshold_bits"):
            RefreshController(registry, drift_threshold_bits=0.0)
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
        assert refreshed is estimator                  # fine-tuned in place
        assert refreshed.num_rows == registry.relation("users").num_rows
        assert registry.serving_epoch("users") == (2, 2)
        assert controller.refreshes["users"] == 1
        assert controller.due() == []

    def test_drift_threshold_triggers_before_staleness_bound(self):
        registry = _registry()
        registry.fit_all()
        *_, tail = partition_by_column(registry.relation("users"),
                                       "country", 4)
        drift = RefreshController(registry).drift_bits("users", tail)
        assert drift > 0                               # a genuinely shifted batch
        controller = RefreshController(registry, max_staleness=5,
                                       drift_threshold_bits=drift / 2)
        record = controller.ingest("users", tail)
        assert record["staleness"] == 1                # far under the bound
        assert record["refresh_due"]                   # but drift tripped

    def test_auto_refresh_swaps_within_the_ingest_call(self):
        registry = _registry()
        registry.fit_all()
        controller = RefreshController(registry, max_staleness=0)
        record = controller.ingest("users", make_users(num_users=30, seed=7),
                                   auto_refresh=True)
        assert record["refresh_due"] and record["refreshed"]
        assert registry.staleness("users") == 0
        assert controller.refreshes["users"] == 1

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
        assert registry.serving_epoch("users") == (1, 1)


class TestEpochInvalidationGrid:
    """Satellite grid: an epoch bump kills every cache layer, atomically."""

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
        controller.ingest("users", make_users(num_users=30, seed=7),
                          auto_refresh=True)
        group_before = router.group("users")
        post = router.run(queries)
        # Zero stale hits across every layer: no old result-cache entry and
        # no old conditional-cache entry reached a single estimate.
        assert post.result_cache_hits == 0
        cold = FleetRouter(registry, batch_size=4, num_samples=_SAMPLES,
                           seed=_SEED, result_cache=True,
                           cache_entries=400).run(queries)
        np.testing.assert_array_equal(post.selectivities, cold.selectivities)
        # The replica group was swapped, and its pooled conditional cache is
        # stamped with the new data epoch.
        group_after = router.group("users")
        assert group_after is not group_before
        assert group_after.cache.epoch == registry.data_epoch("users")
        assert post.stats.epochs["users"] == {"data_epoch": 1,
                                              "model_epoch": 1,
                                              "staleness": 0}
        assert post.stats.max_staleness == 0
        # Once refreshed, the cache warms again at the new epoch.
        rewarmed = router.run(queries)
        assert rewarmed.result_cache_hits == len(queries)

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
