"""Direct unit tests for the serving caches: eviction order, canonical keys
and the shared ``cache_entries`` budget split across models, replicas and the
fleet result cache — plus the stateful machines that drive a store or a
client through random operation sequences."""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import functools
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro.core import NaruConfig
from repro.core.made import StoredRows
from repro.data import make_sessions, make_users
from repro.estimators import SamplingEstimator
from repro.query import Operator, Predicate, Query
from repro.query.predicates import DNFQuery
from repro.serve import (
    AdmissionError,
    AsyncFleetClient,
    CachedConditionalModel,
    FleetRouter,
    ModelRegistry,
    PackedConditionalCache,
    RefreshController,
    ResultCache,
    VirtualClock,
    canonical_query_key,
    generate_mixed_workload,
    run_fleet_sequential,
)
from repro.serve import cache as cache_module
from repro.serve.cache import _MAX_RUNS

_CONFIG = NaruConfig(epochs=1, hidden_sizes=(8, 8), batch_size=128,
                     progressive_samples=30, seed=0)


class TestCanonicalQueryKey:
    def test_predicate_order_is_irrelevant(self):
        forward = Query.from_tuples([("a", "=", 1), ("b", "<=", 4)])
        backward = Query.from_tuples([("b", "<=", 4), ("a", "=", 1)])
        assert canonical_query_key(forward) == canonical_query_key(backward)

    def test_in_lists_deduplicate_and_sort(self):
        left = Query([Predicate("a", Operator.IN, ["x", "y", "x"])])
        right = Query([Predicate("a", Operator.IN, ["y", "x"])])
        assert canonical_query_key(left) == canonical_query_key(right)

    def test_numpy_scalars_unwrap(self):
        plain = Query.from_tuples([("a", "=", 3)])
        numpyish = Query.from_tuples([("a", "=", np.int64(3))])
        assert canonical_query_key(plain) == canonical_query_key(numpyish)
        between = Query([Predicate("a", Operator.BETWEEN,
                                   (np.int64(1), np.int64(5)))])
        assert canonical_query_key(between) == canonical_query_key(
            Query([Predicate("a", Operator.BETWEEN, (1, 5))]))

    def test_distinct_queries_stay_distinct(self):
        base = Query.from_tuples([("a", "=", 1)])
        assert canonical_query_key(base) != canonical_query_key(
            Query.from_tuples([("a", "=", 2)]))          # literal
        assert canonical_query_key(base) != canonical_query_key(
            Query.from_tuples([("a", "<=", 1)]))         # operator
        assert canonical_query_key(base) != canonical_query_key(
            Query.from_tuples([("b", "=", 1)]))          # column
        assert canonical_query_key(base) != canonical_query_key(
            Query.from_tuples([("a", "=", 1), ("b", "=", 1)]))  # extra filter

    def test_incomparable_literal_types_do_not_crash(self):
        # Two predicates on one column+operator with incomparable literals
        # (a contradictory but syntactically valid conjunction, e.g. from a
        # hand-written workload file) must canonicalise, not raise TypeError.
        mixed = Query.from_tuples([("a", "=", 1), ("a", "=", "x")])
        flipped = Query.from_tuples([("a", "=", "x"), ("a", "=", 1)])
        assert canonical_query_key(mixed) == canonical_query_key(flipped)
        ins = Query([Predicate("a", Operator.IN, [1, 2]),
                     Predicate("a", Operator.IN, ["x", "y"])])
        assert canonical_query_key(ins)  # just must not crash

    def test_route_wins_over_query_qualifier(self):
        query = Query.from_tuples([("a", "=", 1)], table="users")
        explicit = canonical_query_key(query, route="users")
        default_routed = canonical_query_key(
            Query.from_tuples([("a", "=", 1)]), route="users")
        assert explicit == default_routed
        assert canonical_query_key(query) == explicit  # falls back to .table
        assert canonical_query_key(query, route="other") != explicit


class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put(("a",), 0.1)
        cache.put(("b",), 0.2)
        assert cache.get(("a",)) == 0.1        # refresh "a"
        cache.put(("c",), 0.3)                 # evicts "b", the LRU entry
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 0.1
        assert cache.get(("c",)) == 0.3
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_zero_selectivity_is_a_hit_not_a_miss(self):
        cache = ResultCache()
        cache.put(("empty",), 0.0)
        assert cache.get(("empty",)) == 0.0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_zero_capacity_disables_storage(self):
        cache = ResultCache(max_entries=0)
        cache.put(("a",), 0.5)
        assert cache.get(("a",)) is None
        assert len(cache) == 0

    def test_counters_and_contains(self):
        cache = ResultCache()
        assert cache.get(("a",)) is None
        cache.put(("a",), 0.4)
        assert ("a",) in cache
        assert ("b",) not in cache
        assert cache.get(("a",)) == 0.4
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "evictions": 0, "hit_rate": 0.5,
            "stale_rejects": 0,
            "lifetime": {"hits": 1, "misses": 1, "evictions": 0,
                         "stale_rejects": 0},
        }
        cache.clear()
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=-1)

    def test_epoch_mismatch_is_a_counted_miss(self):
        # The docstring contract: an entry stored at one epoch can never be
        # served at another — the lookup rejects it, drops it and counts it.
        cache = ResultCache()
        cache.put(("q",), 0.25, epoch=(0, 0))
        assert cache.get(("q",), epoch=(1, 0)) is None   # data epoch moved
        assert cache.stats.stale_rejects == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0
        assert ("q",) not in cache                       # dropped, not kept
        cache.put(("q",), 0.5, epoch=(1, 0))
        assert cache.get(("q",), epoch=(1, 1)) is None   # model epoch moved
        assert cache.stats.stale_rejects == 2

    def test_matching_epoch_serves_and_epoch_of_peeks(self):
        cache = ResultCache()
        assert cache.epoch_of(("q",)) is None
        cache.put(("q",), 0.25, epoch=(2, 1))
        assert cache.epoch_of(("q",)) == (2, 1)
        assert cache.get(("q",), epoch=(2, 1)) == 0.25
        # epoch_of is a peek: it neither counts nor touches LRU order.
        assert cache.stats.lookups == 1

    def test_default_epoch_keeps_legacy_call_sites_valid(self):
        # Two-argument put / one-argument get (the pre-epoch API) agree on
        # the default epoch, so single-epoch users see plain LRU behaviour.
        cache = ResultCache()
        cache.put(("q",), 0.75)
        assert cache.get(("q",)) == 0.75
        assert cache.stats.stale_rejects == 0

    def test_clear_folds_scope_counters_into_lifetime(self):
        # Regression: clear() used to leave the scope counters untouched, so
        # a fleet's per-run stats bled across scope boundaries.  Now clear()
        # zeroes the scope counters while the lifetime rollup keeps the total.
        cache = ResultCache()
        cache.put(("a",), 0.1, epoch=0)
        assert cache.get(("a",), epoch=0) == 0.1     # 1 hit
        assert cache.get(("b",), epoch=0) is None    # 1 miss
        assert cache.get(("a",), epoch=1) is None    # 1 stale reject (+miss)
        cache.clear()
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0
        assert cache.stats.stale_rejects == 0
        rollup = cache.stats.as_dict()["lifetime"]
        assert rollup == {"hits": 1, "misses": 2, "evictions": 0,
                          "stale_rejects": 1}
        # Post-clear activity lands in the fresh scope *and* the rollup.
        cache.put(("c",), 0.3, epoch=1)
        assert cache.get(("c",), epoch=1) == 0.3
        assert cache.stats.hits == 1
        assert cache.stats.as_dict()["lifetime"]["hits"] == 2


class TestSharedBudgetSplit:
    """One ``cache_entries`` budget, split across every cache in the fleet."""

    @pytest.fixture(scope="class")
    def registry(self):
        fleet = ModelRegistry(default_config=_CONFIG)
        fleet.register_table(make_users(num_users=60, seed=4))
        fleet.register_table(make_users(num_users=60, seed=5), name="users_b",
                             replicas=3)
        return fleet

    def test_split_counts_replicas(self, registry):
        # 1 + 3 replicas, no result cache: four equal slices.
        router = FleetRouter(registry, cache_entries=400)
        assert router.cache_entries_per_model == 100
        # Enabling the result cache adds a fifth slice.
        cached = FleetRouter(registry, cache_entries=400, result_cache=True)
        assert cached.cache_entries_per_model == 80
        assert cached.result_cache.max_entries == 80

    def test_replicas_pool_their_slices_into_one_group_cache(self, registry):
        router = FleetRouter(registry, cache_entries=400, result_cache=True)
        for route in registry.names:
            group = router.group(route)
            replicas = registry.replicas(route)
            assert len(group) == replicas
            # The group's conditional cache pools its replicas' slices (the
            # replicas front the same model, so entries are shareable) and
            # every engine uses that one cache.
            assert group.cache.max_entries == 80 * replicas
            for engine in group.engines:
                assert engine._cache is group.cache

    def test_budget_never_rounds_to_zero(self, registry):
        router = FleetRouter(registry, cache_entries=2, result_cache=True)
        assert router.cache_entries_per_model == 1

    def test_disabled_conditional_caches_free_their_slices(self, registry):
        # With use_cache=False the conditional caches do not exist, so the
        # result cache — the only cache storing anything — gets the whole
        # budget instead of a 1/(replicas+1) sliver.
        router = FleetRouter(registry, cache_entries=400, use_cache=False,
                             result_cache=True)
        assert router.result_cache.max_entries == 400

    def test_split_is_stable_after_retuning(self, registry):
        router = FleetRouter(registry, cache_entries=400)
        registry.set_replicas("users_b", 1)
        try:
            # The router sized its slices at construction; a later registry
            # re-tune does not shrink or grow the running caches.
            assert router.cache_entries_per_model == 100
            assert len(router.group("users_b")) == 3
        finally:
            registry.set_replicas("users_b", 3)


class TestPackedConditionalCache:
    """The vectorized store behind the deduplicating serve path."""

    def _distributions(self, keys):
        # A distinct, recognisable row per key so lookups are checkable.
        return np.stack([np.full(4, float(key)) for key in keys])

    def test_bulk_roundtrip_and_counters(self):
        cache = PackedConditionalCache()
        keys = np.array([40, 10, 30], dtype=np.int64)
        cache.bulk_put(0, keys, self._distributions(keys))
        probe = np.array([10, 20, 30, 40, 99], dtype=np.int64)
        found, values = cache.bulk_get(0, probe)
        np.testing.assert_array_equal(found, [True, False, True, True, False])
        np.testing.assert_allclose(values[:, 0], [10.0, 30.0, 40.0])
        assert len(cache) == 3
        assert cache.stats.hits == 3 and cache.stats.misses == 2

    def test_merge_insert_keeps_store_sorted(self):
        cache = PackedConditionalCache()
        first = np.array([50, 10], dtype=np.int64)
        second = np.array([30, 70, 5], dtype=np.int64)
        cache.bulk_put(2, first, self._distributions(first))
        cache.bulk_put(2, second, self._distributions(second))
        probe = np.array([5, 10, 30, 50, 70], dtype=np.int64)
        found, values = cache.bulk_get(2, probe)
        assert found.all()
        np.testing.assert_allclose(values[:, 0], probe.astype(float))

    def test_columns_are_independent(self):
        cache = PackedConditionalCache()
        keys = np.array([7], dtype=np.int64)
        cache.bulk_put(0, keys, self._distributions(keys))
        found, values = cache.bulk_get(1, keys)
        assert not found.any() and values is None

    def test_generational_eviction_bounds_size(self):
        cache = PackedConditionalCache(max_entries=8)
        for batch in range(6):
            keys = np.arange(batch * 4, batch * 4 + 4, dtype=np.int64)
            cache.bulk_put(0, keys, self._distributions(keys))
        assert len(cache) <= 8
        assert cache.stats.evictions > 0
        # The newest batch always survives an eviction sweep.
        newest = np.arange(20, 24, dtype=np.int64)
        found, _ = cache.bulk_get(0, newest)
        assert found.all()

    def test_eviction_keeps_the_batch_that_triggered_it(self):
        # Once the newest batch holds half the entries the median stamp is
        # its own stamp; the sweep must still stop short of it.
        cache = PackedConditionalCache(max_entries=8)
        older = np.array([100, 101], dtype=np.int64)
        newest = np.arange(7, dtype=np.int64)
        cache.bulk_put(0, older, self._distributions(older))
        cache.bulk_put(0, newest, self._distributions(newest))
        assert len(cache) == 7 and cache.stats.evictions == 2
        found, values = cache.bulk_get(0, newest)
        assert found.all()
        np.testing.assert_allclose(values[:, 0], newest.astype(float))

    def test_newest_batch_survives_every_sweep_it_fits(self):
        cache = PackedConditionalCache(max_entries=8)
        next_key = 0
        for column, size in [(0, 3), (1, 1), (0, 6), (1, 2), (1, 8), (0, 5),
                             (0, 4), (1, 7), (0, 9)]:
            keys = np.arange(next_key, next_key + size, dtype=np.int64)
            next_key += size
            cache.bulk_put(column, keys, self._distributions(keys))
            assert len(cache) <= 8
            found, _ = cache.bulk_get(column, keys)
            # A batch that alone exceeds the capacity is still not stored.
            assert found.all() if size <= 8 else not found.any()
        assert len(cache) == 0

    def test_runs_merge_past_the_limit_and_sweeps_keep_whole_runs(self):
        cache = PackedConditionalCache(max_entries=100)
        for batch in range(_MAX_RUNS + 1):
            keys = np.array([batch + 10, batch], dtype=np.int64)
            cache.bulk_put(0, keys, self._distributions(keys))
        (merged,) = cache._runs[0]
        assert merged.keys.tolist() == [0, 1, 2, 3, 4, 10, 11, 12, 13, 14]
        assert merged.values[:, 0].tolist() == merged.keys.tolist()
        assert merged.stamps.tolist() == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]
        # A sweep filters the merged run (median stamp 3 over 14 entries:
        # stamps below 3 go) and keeps a run written by one batch as it is,
        # uncopied.
        cache.max_entries = 13
        single = np.array([50, 45], dtype=np.int64)
        cache.bulk_put(0, single, self._distributions(single))
        single_run = cache._runs[0][1]
        newest = np.array([54, 59], dtype=np.int64)
        cache.bulk_put(0, newest, self._distributions(newest))
        assert cache.stats.evictions == 6
        assert [run.keys.tolist() for run in cache._runs[0]] == [
            [3, 4, 13, 14], [45, 50], [54, 59]]
        assert cache._runs[0][1] is single_run
        probe = np.array([0, 4, 14, 45, 50, 54, 59], dtype=np.int64)
        found, values = cache.bulk_get(0, probe)
        np.testing.assert_array_equal(found, [False] + [True] * 6)
        np.testing.assert_allclose(values[:, 0], probe[1:].astype(float))

    def test_a_sweep_keeps_the_entries_stamped_at_the_cutoff_when_older_ones_exist(self):
        # Stamps 0 0 0 0 1 1 1 1 2: the median is 1.  Dropping the entries
        # stamped at it as well would empty the store down to one entry.
        cache = PackedConditionalCache(max_entries=8)
        for batch, size in enumerate((4, 4, 1)):
            keys = np.arange(batch * 10, batch * 10 + size, dtype=np.int64)
            cache.bulk_put(0, keys, self._distributions(keys))
        assert len(cache) == 5 and cache.stats.evictions == 4
        found, _ = cache.bulk_get(0, np.array([0, 3, 10, 13, 20], dtype=np.int64))
        np.testing.assert_array_equal(found, [False, False, True, True, True])

    def test_zero_capacity_disables_storage(self):
        cache = PackedConditionalCache(max_entries=0)
        keys = np.array([1, 2], dtype=np.int64)
        cache.bulk_put(0, keys, self._distributions(keys))
        found, values = cache.bulk_get(0, keys)
        assert not found.any() and values is None and len(cache) == 0

    def test_clear_and_negative_capacity(self):
        cache = PackedConditionalCache()
        keys = np.array([1], dtype=np.int64)
        cache.bulk_put(0, keys, self._distributions(keys))
        cache.clear()
        assert len(cache) == 0
        with pytest.raises(ValueError):
            PackedConditionalCache(max_entries=-1)

    def _swept(self):
        """A 4-entry store that has just run its first eviction sweep and
        holds keys 3, 4 and 5 (stamp 1) of column 0."""
        cache = PackedConditionalCache(max_entries=4)
        for batch in range(2):
            keys = np.arange(batch * 3, batch * 3 + 3, dtype=np.int64)
            assert cache.admit(0, keys).all()
            cache.bulk_put(0, keys, self._distributions(keys))
        assert cache.stats.evictions == 3
        return cache

    def test_a_hit_entry_survives_the_next_sweep(self):
        cache = self._swept()
        cache.bulk_put(0, np.array([10], dtype=np.int64), self._distributions([10]))
        found, _ = cache.bulk_get(0, np.array([4], dtype=np.int64))   # restamped: 3
        assert found.all()
        cache.bulk_put(0, np.array([11], dtype=np.int64), self._distributions([11]))
        # Stamps 1, 1, 2, 3, 4 over keys 3, 5, 10, 4, 11: the sweep drops
        # what is older than the median stamp 2 — the hit key's batch-mates
        # — and keeps the hit key.
        assert cache.stats.evictions == 3 + 2
        probe = np.array([3, 4, 5, 10, 11], dtype=np.int64)
        found, values = cache.bulk_get(0, probe)
        assert probe[found].tolist() == [4, 10, 11]
        np.testing.assert_allclose(values[:, 0], [4.0, 10.0, 11.0])

    def test_a_store_that_never_swept_admits_everything(self):
        cache = PackedConditionalCache(max_entries=100)
        for batch in range(5):
            keys = np.arange(batch * 10, batch * 10 + 10, dtype=np.int64)
            assert cache.admit(batch % 2, keys).all()
            assert cache.admit(batch % 2, keys).all()       # no sighting recorded
            cache.bulk_put(batch % 2, keys, self._distributions(keys))
            cache.bulk_get(batch % 2, keys[:1])
        found, _ = cache.bulk_get(0, np.arange(50, dtype=np.int64))
        assert found.sum() == 30 and len(cache) == 50
        assert cache.stats.as_dict() == {
            "hits": 35, "misses": 20, "evictions": 0, "rows_served_from_cache": 0,
            "rows_evaluated": 0, "hit_rate": 35 / 55}

    def test_after_a_sweep_a_prefix_is_admitted_on_its_second_miss(self):
        cache = self._swept()
        keys = np.array([100, 7, 2 ** 40], dtype=np.int64)
        assert not cache.admit(0, keys).any()       # first sighting
        assert cache.admit(0, keys).all()           # second
        # Slots are salted per column: a first sighting in another column.
        assert not cache.admit(1, keys).any()
        mixed = np.array([100, 555], dtype=np.int64)
        np.testing.assert_array_equal(cache.admit(0, mixed), [True, False])

    def test_clear_resets_the_doorkeeper(self):
        cache = self._swept()
        keys = np.array([100], dtype=np.int64)
        assert not cache.admit(0, keys).any()
        cache.clear()
        assert cache.admit(0, keys).all()           # no pressure: admits all
        assert cache.admit(0, np.array([101], dtype=np.int64)).all()
        for batch in range(2):                      # pressure again
            fill = np.arange(batch * 3, batch * 3 + 3, dtype=np.int64)
            cache.bulk_put(0, fill, np.zeros((3, 2)))
        assert not cache.admit(0, keys).any()       # the old sighting is gone

    def test_the_doorkeeper_forgets_after_its_sighting_budget(self):
        cache = self._swept()
        keys = np.arange(100, 140, dtype=np.int64)
        with mock.patch.object(cache_module, "_DOORKEEPER_RESET", 50):
            assert not cache.admit(0, keys[:30]).any()      # 30 sightings
            assert cache.admit(0, keys[:10]).all()          # 40
            assert not cache.admit(0, keys[30:]).any()      # 50: forgets
            assert not cache.admit(0, keys[:10]).any()

    def test_wrapper_stores_a_prefix_on_its_second_miss_after_a_sweep(
            self, users_model, users_table):
        column = users_model.order[-1]
        codes = self._distinct_prefix_codes(users_model, users_table, column)
        wrapped = CachedConditionalModel(users_model, max_entries=8)
        for start in (0, 6):                        # 12 entries into 8: a sweep
            wrapped.conditional_probs(column, codes[start:start + 6])
        assert wrapped.stats.evictions > 0
        stored, late = len(wrapped.cache), codes[12:16]
        expected = np.cumsum(users_model.conditional_probs(column, late), axis=1)
        assert np.array_equal(wrapped.conditional_probs(column, late), expected)
        assert len(wrapped.cache) == stored         # first miss: not stored
        assert np.array_equal(wrapped.conditional_probs(column, late), expected)
        assert wrapped.stats.hits == 0              # second miss: stored now
        assert np.array_equal(wrapped.conditional_probs(column, late), expected)
        assert wrapped.stats.hits == 4
        assert wrapped.rows_evaluated == 12 + 4 + 4

    @staticmethod
    def _distinct_prefix_codes(model, table, column):
        """Encoded rows whose prefixes of ``column`` are pairwise distinct."""
        codes = table.encoded()
        prefix = model.order[:model.order.index(column)]
        _, first = np.unique(codes[:, prefix], axis=0, return_index=True)
        return codes[np.sort(first)]

    def test_wrapped_model_is_bit_exact(self, users_model, users_table):
        wrapped = CachedConditionalModel(users_model)
        assert isinstance(wrapped.cache, PackedConditionalCache)
        codes = users_table.encoded()[:64]
        for column in range(users_table.num_columns):
            unique_codes = np.unique(codes[:, :], axis=0)
            expected = np.cumsum(
                users_model.conditional_probs(column, unique_codes), axis=1)
            # Cold pass evaluates, warm pass must serve the same CDF bits.
            cold = wrapped.conditional_probs(column, unique_codes)
            warm = wrapped.conditional_probs(column, unique_codes)
            assert np.array_equal(cold, expected)
            assert np.array_equal(warm, expected)
        assert wrapped.stats.hits > 0

    def test_full_hit_owns_its_table(self, users_model, users_table):
        """A batch that hits on every probe is answered by the gather out of
        the store itself: a copy the caller owns, never a view of the store
        — scribbling on it must not reach the next lookup."""
        wrapped = CachedConditionalModel(users_model)
        codes = np.unique(users_table.encoded()[:64], axis=0)
        column = wrapped.order[-1]
        expected = wrapped.conditional_probs(column, codes).copy()   # cold
        warm = wrapped.conditional_probs(column, codes)
        assert wrapped.rows_evaluated == codes.shape[0]   # the cold pass only
        assert warm.flags.owndata and warm.flags.writeable
        stored = wrapped.cache._runs[column]
        assert stored and not any(np.shares_memory(warm, run.values) for run in stored)
        warm[:] = -1.0
        assert np.array_equal(wrapped.conditional_probs(column, codes), expected)
        assert wrapped.stats.rows_served_from_cache == 2 * codes.shape[0]

    def test_a_one_run_full_hit_is_read_in_place_through_a_holder(
            self, users_model, users_table):
        """Given a :class:`StoredRows` holder, a batch that hits one run on
        every probe is answered with a read-only view of that run's CDF
        matrix, and the holder names each row's row of it: a write raises,
        and the next lookup is unchanged."""
        wrapped = CachedConditionalModel(users_model)
        column = wrapped.order[-1]
        codes = self._distinct_prefix_codes(users_model, users_table, column)
        expected = wrapped.conditional_probs(column, codes).copy()   # cold
        stored = StoredRows()
        view = wrapped.conditional_probs(column, codes, stored=stored)
        (run,) = wrapped.cache._runs[column]
        assert not view.flags.writeable and not view.flags.owndata
        assert np.shares_memory(view, run.values) and view.shape == run.values.shape
        assert np.array_equal(view[stored.rows], expected)
        with pytest.raises(ValueError):
            view[0, 0] = -1.0
        assert np.array_equal(wrapped.conditional_probs(column, codes), expected)
        assert wrapped.rows_evaluated == codes.shape[0]   # the cold pass only
        assert wrapped.stats.rows_served_from_cache == 2 * codes.shape[0]

    @pytest.mark.parametrize("warm", ["two runs", "partial hit"])
    def test_other_lookups_answer_an_owned_table_through_a_holder(
            self, users_model, users_table, warm):
        """A full hit spread over two runs, and a partial hit, answer a
        table of the caller's and leave the holder unset."""
        wrapped = CachedConditionalModel(users_model)
        column = wrapped.order[-1]
        codes = self._distinct_prefix_codes(users_model, users_table, column)
        wrapped.conditional_probs(column, codes[::2])
        if warm == "two runs":
            wrapped.conditional_probs(column, codes[1::2])
            assert len(wrapped.cache._runs[column]) == 2
        stored = StoredRows()
        answer = wrapped.conditional_probs(column, codes, stored=stored)
        assert stored.rows is None
        assert answer.flags.owndata and answer.flags.writeable
        assert not any(np.shares_memory(answer, run.values)
                       for run in wrapped.cache._runs[column])
        assert np.array_equal(
            answer, np.cumsum(users_model.conditional_probs(column, codes), axis=1))

    @pytest.mark.parametrize("prefix_sizes, packs", [
        # 2^62 - 1 possible prefixes: exactly representable as an integer,
        # but it rounds to 2.0^62 as a float product.
        ([2147483647, 2147483649], True),
        ([2 ** 31, 2 ** 31], False),                  # 2^62 exactly
    ])
    def test_the_store_key_radix_is_an_exact_integer_test(self, prefix_sizes, packs):
        """A prefix packs into a store key when its possible prefixes number
        fewer than 2^62, decided in exact integers."""

        class Declared:
            order = [0, 1, 2]

            def domain_sizes(self):
                return prefix_sizes + [3]

        radix = CachedConditionalModel(Declared())._prefix_radix[2]
        assert (radix is not None) == packs
        if packs:
            assert radix.tolist() == [prefix_sizes[1], 1]


class _WidePrefixModel:
    """Two 2^31-code columns ahead of a 5-code one: the last column's
    prefixes (2^62 of them) do not pack into an int64 key, so the wrapper
    serves that column uncached.  Only that column is ever asked for."""

    order = [0, 1, 2]

    def domain_sizes(self):
        return [2 ** 31, 2 ** 31, 5]

    def conditional_probs(self, column, codes):
        assert column == 2
        probs = np.abs(np.sin(codes[:, :1] * 0.37 + codes[:, 1:2] * 1.3
                              + np.arange(5))) + 0.01
        return probs / probs.sum(axis=1, keepdims=True)


class TestCachedCDFs:
    """The wrapper answers the model's CDFs — ``np.cumsum`` of its
    probabilities along each row — bit for bit on every path: cold, partly
    warm and warm, in one evaluation or in tiles of any size (a miss is
    evaluated in tiles of ``_CHUNK_ROWS`` rows summed straight into one
    answer matrix), and for prefixes too wide to pack (served uncached).
    A miss's answer owns its memory."""

    @staticmethod
    def _check(wrapped, model, codes, columns):
        for column in columns:
            expected = np.cumsum(model.conditional_probs(column, codes), axis=1)
            half = wrapped.conditional_probs(column, codes[::2])       # cold
            mixed = wrapped.conditional_probs(column, codes)   # half warm
            warm = wrapped.conditional_probs(column, codes)
            assert np.array_equal(half, expected[::2])
            assert np.array_equal(mixed, expected)
            assert np.array_equal(warm, expected)

    @pytest.mark.parametrize("chunk_rows", [None, 7])
    def test_packed_prefixes(self, users_model, users_table, chunk_rows):
        wrapped = CachedConditionalModel(users_model)
        assert wrapped.cumulative
        codes = np.unique(users_table.encoded(), axis=0)
        with mock.patch.object(cache_module, "_CHUNK_ROWS",
                               chunk_rows or cache_module._CHUNK_ROWS):
            self._check(wrapped, users_model, codes, wrapped.order)
        assert wrapped.stats.hits > 0

    @pytest.mark.parametrize("chunk_rows", [None, 7])
    def test_wide_prefixes_served_uncached(self, chunk_rows):
        model = _WidePrefixModel()
        wrapped = CachedConditionalModel(model)
        assert wrapped._prefix_radix[2] is None
        codes = np.random.default_rng(0).integers(0, 2 ** 31, (40, 3))
        with mock.patch.object(cache_module, "_CHUNK_ROWS",
                               chunk_rows or cache_module._CHUNK_ROWS):
            self._check(wrapped, model, codes, [2])
        assert wrapped.stats.hits == 0
        assert wrapped.rows_evaluated == 20 + 40 + 40      # every call evaluates

    TILES = ["1", "16", "rows-1", "rows", "rows+1"]

    @staticmethod
    def _tile(label, rows):
        return {"1": 1, "16": 16, "rows-1": max(rows - 1, 1), "rows": rows,
                "rows+1": rows + 1}[label]

    @pytest.fixture
    def last_column(self, users_model, users_table):
        column = users_model.order[-1]
        return column, TestPackedConditionalCache._distinct_prefix_codes(
            users_model, users_table, column)

    @pytest.mark.parametrize("tile", TILES)
    def test_all_miss(self, users_model, last_column, tile):
        column, codes = last_column
        wrapped = CachedConditionalModel(users_model)
        with mock.patch.object(cache_module, "_CHUNK_ROWS", self._tile(tile, len(codes))):
            answer = wrapped.conditional_probs(column, codes)
        assert wrapped.rows_evaluated == len(codes)
        assert np.array_equal(
            answer, np.cumsum(users_model.conditional_probs(column, codes), axis=1))

    @pytest.mark.parametrize("tile", TILES)
    def test_partial_hit(self, users_model, last_column, tile):
        column, codes = last_column
        wrapped = CachedConditionalModel(users_model)
        wrapped.conditional_probs(column, codes[::2])
        missed = len(codes) // 2
        with mock.patch.object(cache_module, "_CHUNK_ROWS", self._tile(tile, missed)):
            answer = wrapped.conditional_probs(column, codes)
        assert wrapped.rows_evaluated == len(codes) - len(codes) // 2 + missed
        assert np.array_equal(
            answer, np.cumsum(users_model.conditional_probs(column, codes), axis=1))

    @pytest.mark.parametrize("tile", TILES)
    def test_wide_prefix(self, tile):
        model = _WidePrefixModel()
        wrapped = CachedConditionalModel(model)
        codes = np.random.default_rng(1).integers(0, 2 ** 31, (33, 3))
        with mock.patch.object(cache_module, "_CHUNK_ROWS", self._tile(tile, len(codes))):
            answer = wrapped.conditional_probs(2, codes)
        assert np.array_equal(
            answer, np.cumsum(model.conditional_probs(2, codes), axis=1))

    @pytest.mark.parametrize("warm", ["all miss", "partial hit"])
    def test_a_miss_answer_owns_its_memory(self, users_model, last_column, warm):
        column, codes = last_column
        wrapped = CachedConditionalModel(users_model)
        if warm == "partial hit":
            wrapped.conditional_probs(column, codes[::2])
        answer = wrapped.conditional_probs(column, codes)
        expected = answer.copy()
        assert answer.flags.owndata and answer.flags.writeable
        assert not any(np.shares_memory(answer, run.values)
                       for run in wrapped.cache._runs[column])
        answer[:] = -1.0
        assert np.array_equal(wrapped.conditional_probs(column, codes), expected)
        assert wrapped.stats.hits == len(codes) + (len(codes) + 1) // 2 * (warm == "partial hit")


class SplicedConditionalCache(PackedConditionalCache):
    """The single-sorted-store layout the run store replaced, kept as its reference.

    One sorted key array per column with aligned value rows and stamps; a put
    splices its batch in with :func:`numpy.insert`, a lookup restamps its
    hits, a sweep filters every column.  Same contract and eviction rule
    (hits restamped with the clock, cutoff capped below the newest batch), so
    every hit, miss, eviction, stamp and returned byte must match.
    """

    def __init__(self, max_entries: int) -> None:
        super().__init__(max_entries)
        self._keys: dict[int, np.ndarray] = {}
        self._values: dict[int, np.ndarray] = {}
        self._stamps: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return sum(keys.size for keys in self._keys.values())

    def bulk_get(self, column, packed):
        keys = self._keys.get(column)
        if keys is None or keys.size == 0:
            self.stats.misses += packed.size
            return np.zeros(packed.size, dtype=bool), None
        positions = np.searchsorted(keys, packed)
        positions[positions == keys.size] = 0
        found = keys[positions] == packed
        hits = int(np.count_nonzero(found))
        self.stats.hits += hits
        self.stats.misses += packed.size - hits
        if hits == 0:
            return found, None
        self._stamps[column][positions[found]] = self._clock   # a hit keeps its entry
        self._clock += 1
        return found, self._values[column][positions[found]]

    def bulk_put(self, column, packed, distributions):
        if self.max_entries == 0 or packed.size == 0:
            return
        order = np.argsort(packed, kind="stable")
        sorted_new = packed[order]
        rows = np.asarray(distributions)[order]
        stamps = np.full(packed.size, self._clock, dtype=np.int64)
        self._clock += 1
        keys = self._keys.get(column)
        if keys is None:
            self._keys[column], self._values[column] = sorted_new, rows
            self._stamps[column] = stamps
        else:
            positions = np.searchsorted(keys, sorted_new)
            self._keys[column] = np.insert(keys, positions, sorted_new)
            self._values[column] = np.insert(self._values[column], positions, rows, axis=0)
            self._stamps[column] = np.insert(self._stamps[column], positions, stamps)
        while len(self) > self.max_entries:
            self._evict_old()

    def _evict_old(self):
        stamps = np.concatenate(list(self._stamps.values()))
        newest = self._clock - 1
        cutoff = newest if stamps.min() == newest else min(np.median(stamps), newest - 1)
        # Entries stamped at the cutoff go only when nothing is older.
        older = stamps.min() < cutoff
        for column in list(self._keys):
            keep = self._stamps[column] >= cutoff if older else self._stamps[column] > cutoff
            self.stats.evictions += int(keep.size - np.count_nonzero(keep))
            self._keys[column] = self._keys[column][keep]
            self._values[column] = self._values[column][keep]
            self._stamps[column] = self._stamps[column][keep]

    def clear(self):
        self._keys.clear()
        self._values.clear()
        self._stamps.clear()


#: Column -> (key space, distribution width) of the state machine's store.
_MACHINE_COLUMNS = {0: (24, 2), 3: (90, 5), 7: (2 ** 40, 11)}


class RunStoreMachine(RuleBasedStateMachine):
    """Puts, gets and clears on the run store and the spliced reference in
    lockstep; a small capacity makes merges, whole-run drops
    and merged-run filtering all fire."""

    @initialize(max_entries=st.sampled_from([12, 40, 120]))
    def build(self, max_entries):
        self.store = PackedConditionalCache(max_entries)
        self.reference = SplicedConditionalCache(max_entries)
        self.puts = 0

    def _stored(self, column):
        return self.reference._keys.get(column, np.empty(0, dtype=np.int64))

    def _keys_of(self, data, column, max_size):
        space, _ = _MACHINE_COLUMNS[column]
        picks = st.integers(0, space - 1) if space < 2 ** 20 else st.one_of(
            st.integers(0, 40), st.integers(space - 40, space - 1))
        return np.array(data.draw(st.lists(picks, unique=True, max_size=max_size)),
                        dtype=np.int64)

    @rule(data=st.data(), column=st.sampled_from(sorted(_MACHINE_COLUMNS)))
    def put_fresh_keys(self, data, column):
        keys = self._keys_of(data, column, 14)
        keys = keys[~np.isin(keys, self._stored(column))]
        width = _MACHINE_COLUMNS[column][1]
        # A recognisable row per key and put, so a stale or misplaced row shows.
        rows = keys[:, None] + self.puts / 64.0 + np.arange(width) / 8.0
        self.puts += 1
        self.store.bulk_put(column, keys, rows)
        self.reference.bulk_put(column, keys.copy(), rows.copy())
        keys[:] = -1                      # the store kept copies, not the caller's arrays
        rows[:] = np.nan

    @rule(data=st.data(), column=st.sampled_from(sorted(_MACHINE_COLUMNS)))
    def get_mixed_keys(self, data, column):
        stored = self._stored(column)
        present = (data.draw(st.lists(st.sampled_from(stored.tolist()), unique=True))
                   if stored.size else [])
        probe = np.array(data.draw(st.permutations(sorted(
            set(present) | set(self._keys_of(data, column, 10).tolist())))), dtype=np.int64)
        found, values = self.store.bulk_get(column, probe)
        expected_found, expected = self.reference.bulk_get(column, probe)
        assert np.array_equal(found, expected_found)
        assert (values is None) == (expected is None)
        if values is not None:
            assert values.tobytes() == expected.tobytes()
        for run in (run for runs in self.store._runs.values() for run in runs):
            for stored_array in run:
                assert not np.shares_memory(found, stored_array)
                assert values is None or not np.shares_memory(values, stored_array)

    # Wiping only a half-full store lets runs pile up and merge in between.
    @precondition(lambda self: 2 * len(self.reference) >= self.reference.max_entries)
    @rule()
    def clear(self):
        for cache in (self.store, self.reference):
            cache.clear()

    @invariant()
    def same_entries_and_counters(self):
        assert len(self.store) == len(self.reference) <= self.store.max_entries
        assert self.store.stats.as_dict() == self.reference.stats.as_dict()
        for column, keys in self.reference._keys.items():
            runs = self.store._runs.get(column, [])
            stored = np.concatenate([run.keys for run in runs]) if runs else keys[:0]
            order = np.argsort(stored)
            assert np.array_equal(stored[order], keys)
            if runs:
                for field in ("stamps", "values"):
                    merged = np.concatenate([getattr(run, field) for run in runs])[order]
                    assert merged.tobytes() == getattr(self.reference, f"_{field}")[column].tobytes()

    @invariant()
    def runs_are_few_and_sorted(self):
        for runs in self.store._runs.values():
            assert len(runs) <= _MAX_RUNS
            for run in runs:
                assert run.keys.size and np.all(np.diff(run.keys) > 0)
                assert run.values.shape[0] == run.stamps.size == run.keys.size


TestRunStoreMatchesSplicedStore = RunStoreMachine.TestCase
TestRunStoreMatchesSplicedStore.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None)


@functools.lru_cache(maxsize=1)
def _client_machine_fleet():
    """A small fitted two-relation fleet and a query pool over both."""
    registry = ModelRegistry(default_config=_CONFIG)
    registry.register_table(make_users(num_users=60, seed=4))
    registry.register_table(make_sessions(num_rows=200, num_users=60, seed=5))
    registry.fit_all()
    pool = generate_mixed_workload(
        {name: registry.relation(name) for name in registry.names}, 12,
        min_filters=1, max_filters=2, seed=9)
    return registry, pool


class AsyncClientMachine(RuleBasedStateMachine):
    """Submits, awaitable submits, yields, idle passes and drains on one
    :class:`AsyncFleetClient` over an in-process router with a 10 s flush
    deadline, on the machine's own event loop.  The deadline never fires in
    a run this short, so everything that dispatches a partial batch is the
    flush driver at loop idle, a drain, or admission-forced progress."""

    SAMPLES = 30
    SEED = 3

    def __init__(self):
        super().__init__()
        self.registry, self.pool = _client_machine_fleet()
        self.router = FleetRouter(self.registry, batch_size=4,
                                  num_samples=self.SAMPLES, seed=self.SEED,
                                  max_pending=3, overflow="shed",
                                  flush_after_ms=10_000.0)
        self.loop = asyncio.new_event_loop()
        self.client = AsyncFleetClient(self.router)
        self.submitted = 0
        self.shed = 0
        self.futures: list[asyncio.Future] = []
        self.producers: list[asyncio.Task] = []

    def _run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    async def _submit(self, query):
        try:
            self.futures.append(self.client.submit(query))
        except AdmissionError:
            self.shed += 1

    async def _submit_async(self, query):
        self.futures.append(await self.client.submit_async(query))

    def _pending(self) -> int:
        return sum(self.router.group(name).pending
                   for name in self.registry.names)

    def _settled(self) -> bool:
        return (self._pending() == 0
                and all(producer.done() for producer in self.producers)
                and all(future.done() for future in self.futures))

    async def _idle(self):
        # A short real sleep, then more of them until the loop has quietened
        # (each parked producer admitted costs one more dispatch) — bounded
        # far below the 10 s deadline, so only idle flushes can settle it.
        give_up = time.perf_counter() + 2.0
        await asyncio.sleep(0.002)
        while not self._settled() and time.perf_counter() < give_up:
            await asyncio.sleep(0.002)

    @rule(pick=st.integers(0, 11))
    def submit(self, pick):
        self.submitted += 1
        self._run(self._submit(self.pool[pick]))

    @rule(pick=st.integers(0, 11))
    def submit_async(self, pick):
        self.submitted += 1
        self.producers.append(
            self.loop.create_task(self._submit_async(self.pool[pick])))

    @rule()
    def yield_once(self):
        self._run(asyncio.sleep(0))

    @rule()
    def idle(self):
        self._run(self._idle())
        # Every route carries the deadline, so at idle nothing may wait.
        assert self._pending() == 0
        assert all(producer.done() for producer in self.producers)
        assert all(future.done() for future in self.futures)

    @rule()
    def drain(self):
        self._run(self.client.drain())

    def teardown(self):
        try:
            async def settle():
                await asyncio.wait_for(
                    asyncio.gather(*self.producers), timeout=5.0)
                return await self.client.drain()

            report = self._run(settle())
            results = [future.result() for future in self.futures]
            assert len(results) + self.shed == self.submitted
            indices = [result.index for result in results]
            assert len(set(indices)) == len(indices)
            assert report.stats.num_queries == len(results)
            if results:
                # Admitted queries are numbered 0..n-1 in submission order,
                # so the sequential baseline runs the same list by position.
                by_index = sorted(results, key=lambda result: result.index)
                assert sorted(indices) == list(range(len(indices)))
                baseline = run_fleet_sequential(
                    self.registry, [result.query for result in by_index],
                    num_samples=self.SAMPLES, seed=self.SEED)
                assert np.array_equal(
                    [result.selectivity for result in by_index],
                    baseline.selectivities)
        finally:
            self.client.close()
            self._run(asyncio.sleep(0))  # let the cancelled driver finish
            self.loop.close()


TestAsyncClientMachine = AsyncClientMachine.TestCase
TestAsyncClientMachine.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None)


@functools.lru_cache(maxsize=1)
def _fleet_machine_registry():
    """A fitted two-relation registry, each relation with a sampling
    fallback, and a query pool over both that includes one disjunction per
    relation past the primary's 2-branch bound (so the fallback serves it).
    The machine ingests into, refreshes and re-scales the registry, so each
    example works on its own deep copy."""
    users = make_users(num_users=60, seed=4)
    sessions = make_sessions(num_rows=200, num_users=60, seed=5)
    registry = ModelRegistry(default_config=dataclasses.replace(
        _CONFIG, max_dnf_branches=2))
    for table in (users, sessions):
        registry.register_table(table, fallback=SamplingEstimator(
            table, fraction=1.0, seed=0))
    registry.fit_all()
    pool = generate_mixed_workload({"users": users, "sessions": sessions}, 6,
                                   min_filters=1, max_filters=2, seed=9)
    for table, column in ((users, "plan"), (sessions, "device")):
        values = table.column(column).domain[:3]
        pool.append(DNFQuery.from_tuples(
            [[(column, "=", value)] for value in values], table=table.name))
    return registry, pool


class FleetMachine(RuleBasedStateMachine):
    """Submits, clock advances with ticks, flushes, cache wipes, ingests,
    refreshes (with or without an ingest first) and fallback swaps on one
    in-process :class:`FleetRouter` (frozen virtual clock, 5 ms flush
    deadline, ``max_pending=3`` with shedding, result cache on), ending
    workload scopes at random.  At a scope boundary the machine checks the
    scope and may change a replica count — on the registry, the one place
    it lives, which is why the router is then rebuilt from the registry.
    Every other version move may land between two submissions, where a unit
    built before it serves the old version to the scope's end: so before
    each move the machine snapshots the registry under the relation's
    version, and the scope check holds every model-served answer to the
    sequential baseline under the version its unit was built at."""

    SAMPLES = 30
    SEED = 3

    def __init__(self):
        super().__init__()
        registry, self.pool = _fleet_machine_registry()
        self.registry = copy.deepcopy(registry)
        self.clock = VirtualClock()
        self.ingests = 0
        self.versions = {name: self.registry.version(name)
                         for name in self.registry.names}
        self._build_router()

    def _build_router(self):
        self.router = FleetRouter(self.registry, batch_size=2,
                                  num_samples=self.SAMPLES, seed=self.SEED,
                                  max_pending=3, overflow="shed",
                                  flush_after_ms=5.0, result_cache=True,
                                  cache_entries=4096, clock=self.clock)
        self.router.on_result = self._observe
        self.answers: dict[tuple, float] = {}
        self._begin_scope()

    def _begin_scope(self):
        self.router._begin_scope()
        # A scope starts on the current versions: every stale unit is gone.
        assert all(built == self.registry.version(route)
                   for (route, _), built in self.router._built_at.items())
        self.submitted = 0
        self.shed = 0
        #: Global index -> version of the unit that dispatched its answer.
        self.built_at: dict[int, int] = {}
        #: ``(relation, version)`` -> the registry as it served that version;
        #: the new scope rebuilds every unit a move left behind.
        self.snapshots: dict[tuple[str, int], ModelRegistry] = {}

    def _observe(self, result):
        """Every answer as it is produced, in dispatch order.  A result-cache
        hit must repeat the first answer dispatched for the same query by a
        unit built at the version it is looked up under, since the last
        wipe: a unit built before a mid-scope move serves on to the scope's
        end, and its answers are filed under the version it was built at,
        not the route's new one."""
        if result.estimator == "cache":
            version = self.registry.version(result.route)
        else:
            role = self.router.resolve_serving(result.query)[1]
            version = self.router._built_at[(result.route, role)]
            self.built_at[result.index] = version
        key = (result.route, canonical_query_key(result.query,
                                                 route=result.route), version)
        if result.estimator == "cache":
            assert self.answers.get(key) == result.selectivity
        else:
            self.answers.setdefault(key, result.selectivity)

    def _check_versions(self):
        for name in self.registry.names:
            assert self.registry.version(name) >= self.versions[name]
            self.versions[name] = self.registry.version(name)

    def _snapshot(self, name):
        """Keep the registry as it serves ``name`` before a version move, if
        a live unit was built at that version (no later unit can be)."""
        version = self.registry.version(name)
        live = {built for (route, _), built in self.router._built_at.items()
                if route == name}
        if version in live:
            self.snapshots[(name, version)] = copy.deepcopy(self.registry)

    def _ingest(self, name):
        self.ingests += 1
        rows = (make_users(num_users=8, seed=100 + self.ingests)
                if name == "users" else
                make_sessions(num_rows=20, num_users=60,
                              seed=100 + self.ingests))
        self._snapshot(name)
        self.registry.ingest(name, rows)
        self._check_versions()

    @rule(picks=st.lists(st.integers(0, 7), min_size=1, max_size=4))
    def submit(self, picks):
        for pick in picks:
            self.submitted += 1
            try:
                self.router.submit(self.pool[pick])
            except AdmissionError:
                self.shed += 1

    @rule(ms=st.floats(0.0, 10.0))
    def advance(self, ms):
        self.clock.advance(ms / 1000.0)
        self.router.tick()

    @rule()
    def flush(self):
        self.router.flush()

    @rule()
    def wipe(self):
        self.router.wipe_caches()
        self.answers.clear()

    @rule(name=st.sampled_from(["users", "sessions"]))
    def ingest(self, name):
        self._ingest(name)

    @precondition(lambda self: self.submitted > 0)
    @rule(name=st.sampled_from(["users", "sessions"]), ingest_first=st.booleans())
    def refresh(self, name, ingest_first):
        if ingest_first:
            self._ingest(name)
        self._snapshot(name)
        RefreshController(self.registry).refresh(name)
        self._check_versions()

    @precondition(lambda self: self.submitted > 0)
    @rule(name=st.sampled_from(["users", "sessions"]), seed=st.integers(1, 2 ** 16))
    def set_fallback(self, name, seed):
        """Serve one relation's refused shapes from a fresh half-table
        sample: a swap, so the relation's version moves and its old answers
        are never served again."""
        self._snapshot(name)
        self.registry.set_fallback(name, SamplingEstimator(
            self.registry.relation(name), fraction=0.5, seed=seed))
        self._check_versions()

    def _check_scope(self):
        self.router.flush()
        report = self.router.report()
        results = report.results
        assert len(results) + self.shed == self.submitted
        assert report.stats.shed == self.shed
        indices = [result.index for result in results]
        assert sorted(indices) == list(range(len(indices)))  # unique, dense
        self._check_versions()
        queries = [result.query for result in results]
        baselines = {}      # snapshot key (None: the live registry) -> results
        for position, served in enumerate(results):
            if served.estimator == "cache":
                continue
            version = self.built_at[served.index]
            snapshot = (None if version == self.registry.version(served.route)
                        else (served.route, version))
            if snapshot not in baselines:
                baselines[snapshot] = run_fleet_sequential(
                    self.snapshots.get(snapshot, self.registry), queries,
                    num_samples=self.SAMPLES, seed=self.SEED).results
            assert served.selectivity == baselines[snapshot][position].selectivity

    @precondition(lambda self: self.submitted > 0)
    @rule(replicas=st.none() | st.tuples(st.sampled_from(["users", "sessions"]),
                                         st.integers(1, 3)))
    def end_scope(self, replicas):
        self._check_scope()
        if replicas is not None:
            self.registry.set_replicas(*replicas)
            self._build_router()
        else:
            self._begin_scope()

    def teardown(self):
        self._check_scope()


TestFleetMachine = FleetMachine.TestCase
TestFleetMachine.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None)


@pytest.fixture(scope="module")
def users_table():
    return make_users(num_users=80, seed=6)


@pytest.fixture(scope="module")
def users_model(users_table):
    from repro.core import MADEModel
    return MADEModel(users_table, hidden_sizes=(8, 8), seed=0)
