"""Direct unit tests for the serving caches: eviction order, canonical keys
and the shared ``cache_entries`` budget split across models, replicas and the
fleet result cache."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

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
        # A sweep filters the merged run (median stamp 3 over 14 entries)
        # and keeps a run written by one batch as it is, uncopied.
        cache.max_entries = 13
        single = np.array([50, 45], dtype=np.int64)
        cache.bulk_put(0, single, self._distributions(single))
        single_run = cache._runs[0][1]
        newest = np.array([54, 59], dtype=np.int64)
        cache.bulk_put(0, newest, self._distributions(newest))
        assert cache.stats.evictions == 8
        assert [run.keys.tolist() for run in cache._runs[0]] == [[4, 14], [45, 50], [54, 59]]
        assert cache._runs[0][1] is single_run
        probe = np.array([0, 4, 14, 45, 50, 54, 59], dtype=np.int64)
        found, values = cache.bulk_get(0, probe)
        np.testing.assert_array_equal(found, [False] + [True] * 6)
        np.testing.assert_allclose(values[:, 0], probe[1:].astype(float))

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
        stored = wrapped.cache._runs[column]
        assert stored and not any(np.shares_memory(warm, run.values) for run in stored)
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


class SplicedConditionalCache(PackedConditionalCache):
    """The single-sorted-store layout the run store replaced, kept as its reference.

    One sorted key array per column with aligned value rows and stamps; a put
    splices its batch in with :func:`numpy.insert`, a sweep filters every
    column.  Same contract and eviction rule (cutoff capped below the newest
    batch), so every hit, miss, eviction and returned byte must match.
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
        for column in list(self._keys):
            keep = self._stamps[column] > cutoff
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
    """Puts, gets, clears and invalidations on the run store and the spliced
    reference in lockstep; a small capacity makes merges, whole-run drops
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
    @rule(epoch=st.none() | st.integers(0, 5))
    def clear_or_invalidate(self, epoch):
        for cache in (self.store, self.reference):
            if epoch is None:
                cache.clear()
            else:
                cache.invalidate(epoch)

    @invariant()
    def same_entries_and_counters(self):
        assert len(self.store) == len(self.reference) <= self.store.max_entries
        assert self.store.stats.as_dict() == self.reference.stats.as_dict()
        assert self.store.epoch == self.reference.epoch
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


@pytest.fixture(scope="module")
def users_table():
    return make_users(num_users=80, seed=6)


@pytest.fixture(scope="module")
def users_model(users_table):
    from repro.core import MADEModel
    return MADEModel(users_table, hidden_sizes=(8, 8), seed=0)
