"""Direct unit tests for the serving caches: eviction order, canonical keys
and the shared ``cache_entries`` budget split across models, replicas and the
fleet result cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NaruConfig
from repro.data import make_users
from repro.query import Operator, Predicate, Query
from repro.serve import (
    CachedConditionalModel,
    FleetRouter,
    ModelRegistry,
    PackedConditionalCache,
    ResultCache,
    canonical_query_key,
)

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

    def test_invalidate_drops_entries_and_stamps_epoch(self):
        cache = PackedConditionalCache()
        keys = np.array([1, 2], dtype=np.int64)
        cache.bulk_put(0, keys, self._distributions(keys))
        assert cache.epoch == 0
        cache.invalidate(3)
        assert cache.epoch == 3
        assert len(cache) == 0
        found, values = cache.bulk_get(0, keys)
        assert not found.any() and values is None

    def test_wrapped_model_is_bit_exact(self, users_model, users_table):
        wrapped = CachedConditionalModel(users_model)
        assert isinstance(wrapped.cache, PackedConditionalCache)
        codes = users_table.encoded()[:64]
        for column in range(users_table.num_columns):
            unique_codes = np.unique(codes[:, :], axis=0)
            expected = users_model.conditional_probs(column, unique_codes)
            # Cold pass evaluates, warm pass must serve the same bits.
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
        assert not np.shares_memory(warm, wrapped.cache._values[column])
        warm[:] = -1.0
        assert np.array_equal(wrapped.conditional_probs(column, codes), expected)
        assert wrapped.stats.rows_served_from_cache == 2 * codes.shape[0]

    @pytest.mark.parametrize("prefix_sizes, packs", [
        # 2^62 - 1 possible prefixes: exactly representable as an integer,
        # but it rounds to 2.0^62 as a float product.
        ([2147483647, 2147483649], True),
        ([2 ** 31, 2 ** 31], False),                  # 2^62 exactly
    ])
    def test_cache_and_sampler_pack_the_same_prefixes(self, prefix_sizes, packs):
        """One overflow test decides the radix for both layers: a prefix the
        sampler packs is a prefix the cache stores under the same key."""
        from repro.core import ProgressiveSampler

        class Declared:
            order = [0, 1, 2]

            def domain_sizes(self):
                return prefix_sizes + [3]

        model = Declared()
        _, sampler_radix, _ = ProgressiveSampler(model)._prefix_packing(2)
        cache_radix = CachedConditionalModel(model)._prefix_radix[2]
        assert (sampler_radix is not None) == (cache_radix is not None) == packs
        if packs:
            assert np.array_equal(sampler_radix, cache_radix)
            assert sampler_radix.tolist() == [prefix_sizes[1], 1]


@pytest.fixture(scope="module")
def users_table():
    return make_users(num_users=80, seed=6)


@pytest.fixture(scope="module")
def users_model(users_table):
    from repro.core import MADEModel
    return MADEModel(users_table, hidden_sizes=(8, 8), seed=0)
