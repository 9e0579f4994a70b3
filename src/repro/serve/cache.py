"""Caching for the serving layer: conditionals and whole results.

Two cache families live here, layered at different depths of the serve stack:

* **Conditional-probability caching** — progressive sampling asks the model
  the same question over and over: the conditional ``P(X_i | x_<i)`` depends
  only on the *prefix* of the sample path, and prefixes repeat heavily —
  every path shares the empty prefix at the first column, early columns have
  tiny domains, and concurrent queries over the same table walk overlapping
  regions.  The deduplicating sampler collapses the repeats inside a
  micro-batch; :class:`CachedConditionalModel` memoises the distinct
  prefixes it hands over in a :class:`PackedConditionalCache` — a
  vectorized, generationally evicted store keyed on ``(column, packed prefix
  codes)`` — so prefixes recurring across micro-batches hit memory instead
  of re-running the network.

  The wrapper implements the same protocol as
  :class:`repro.core.made.AutoregressiveModel` (``conditional_probs``,
  ``log_prob``, ``domain_sizes``, ``order``), so it can be dropped in front
  of any model — neural or oracle — without the sampler noticing.

* **Result caching** — above all the models, the fleet router can memoise
  finished *selectivities* in a :class:`ResultCache` (a bounded LRU map)
  keyed on the canonicalised query (:func:`canonical_query_key`): an exact
  repeat of an already answered query — a replayed workload, a dashboard
  refreshing the same filter — costs a dictionary lookup instead of a
  sampler run.  The key is canonical, not textual: predicate order,
  ``IN``-list order and duplicate ``IN`` values do not produce distinct
  entries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core.progressive import prefix_radix
from ..query.predicates import DNFQuery, Operator, Query
from .report import plain_dict

__all__ = ["CacheStats", "PackedConditionalCache", "CachedConditionalModel",
           "ResultCacheStats", "ResultCache", "canonical_query_key"]


@dataclass
class CacheStats:
    """Hit/miss accounting of one conditional-probability cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Rows whose distribution was served from memory instead of the model.
    rows_served_from_cache: int = 0
    #: Rows actually pushed through the model (after prefix deduplication).
    rows_evaluated: int = 0

    @property
    def lookups(self) -> int:
        """Total prefix lookups: hits plus misses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of prefix lookups answered from memory (0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """Plain-dict form of the counters, ready for JSON serialisation."""
        return plain_dict(self, "hit_rate")


class _Run(NamedTuple):
    """One sorted run of a column: keys ascending, rows and stamps aligned."""

    keys: np.ndarray
    values: np.ndarray
    stamps: np.ndarray


#: A put that leaves a column with more runs than this merges them into one.
_MAX_RUNS = 4


def _merge_runs(runs: list[_Run]) -> _Run:
    """One sorted run holding every entry of ``runs``.

    Only the keys are concatenated and sorted; each run's value rows are
    scattered straight to their merged slots in one preallocated matrix, so
    the merge never holds a third copy of the values (a concatenate-then-
    gather would).
    """
    keys = np.concatenate([run.keys for run in runs])
    order = np.argsort(keys, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    first = runs[0].values
    values = np.empty((order.size,) + first.shape[1:], dtype=first.dtype)
    start = 0
    for run in runs:
        values[slot[start:start + run.keys.size]] = run.values
        start += run.keys.size
    stamps = np.concatenate([run.stamps for run in runs])[order]
    return _Run(keys[order], values, stamps)


class PackedConditionalCache:
    """Vectorized conditional store keyed on packed prefix codes.

    The deduplicating progressive sampler hands the serving layer batches
    that are already one row per *distinct* prefix, with every prefix
    packable into a single int64 (mixed-radix over the visible columns).
    This store exploits that shape: per column it keeps a short list of
    sorted *runs*, each a sorted int64 key array with an aligned ``(entries,
    domain)`` value matrix.  A bulk insert sorts only its own batch and
    appends it as one run; a lookup is one :func:`numpy.searchsorted` per
    run; once a column holds more than four runs they are merged into one.
    Each is a handful of C calls with no Python per row, and an insert
    copies only its own batch instead of splicing it into the whole column.

    Capacity is generational, not LRU: once the total number of stored
    distributions exceeds ``max_entries``, every entry stamped at or below
    the median insertion batch is dropped in one vectorized sweep — but never
    the newest batch, unless it alone exceeds ``max_entries``.  A run written
    by one batch is dropped whole, without a copy; only merged runs are
    filtered.  True LRU would reintroduce per-row bookkeeping on every hit,
    which is exactly the cost this store exists to avoid; dropping the older
    half approximates it well for workloads whose hot prefixes recur (they
    are re-inserted on the next miss).

    Parameters
    ----------
    max_entries:
        Maximum total number of cached distributions across all columns.
        ``0`` disables storage (every lookup misses and nothing is kept).
    """

    def __init__(self, max_entries: int = 262144) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = max_entries
        self.stats = CacheStats()
        #: Data epoch the cached distributions were computed at (see
        #: :meth:`invalidate`).
        self.epoch: int = 0
        self._runs: dict[int, list[_Run]] = {}
        self._clock = 0

    def __len__(self) -> int:
        return sum(run.keys.size for runs in self._runs.values() for run in runs)

    def bulk_get(self, column: int, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Look up an array of packed prefixes of one column at once.

        Returns ``(found, values)`` where ``found`` is a boolean mask over
        ``packed`` and ``values`` holds the cached distributions of the found
        keys in order (``None`` when nothing was found).
        """
        found = np.zeros(packed.size, dtype=bool)
        matches = []
        for run in self._runs.get(column, ()):
            positions = np.searchsorted(run.keys, packed)
            # Clipping sends a probe past the last key to the last key: no match.
            match = run.keys.take(positions, mode="clip") == packed
            if match.any():
                found |= match
                matches.append((run, match, positions))
        hits = int(np.count_nonzero(found))
        self.stats.hits += hits
        self.stats.misses += packed.size - hits
        if hits == 0:
            return found, None
        if len(matches) == 1:
            run, match, positions = matches[0]
            return found, run.values[positions[match]]
        first = matches[0][0].values
        values = np.empty((hits,) + first.shape[1:], dtype=first.dtype)
        hit_slot = np.cumsum(found) - 1
        for run, match, positions in matches:
            values[hit_slot[match]] = run.values[positions[match]]
        return found, values

    def bulk_put(self, column: int, packed: np.ndarray,
                 distributions: np.ndarray) -> None:
        """Insert distinct packed prefixes with their distribution rows.

        Callers must not re-insert keys already stored for ``column`` (the
        wrapper only inserts rows that just missed); violating this wastes
        memory but stays correct — lookups resolve to one of the duplicates.
        """
        if self.max_entries == 0 or packed.size == 0:
            return
        order = np.argsort(packed, kind="stable")
        # Fancy indexing copies — the cache never aliases caller memory.
        run = _Run(packed[order], np.asarray(distributions)[order],
                   np.full(packed.size, self._clock, dtype=np.int64))
        self._clock += 1
        runs = self._runs.setdefault(column, [])
        runs.append(run)
        while len(self) > self.max_entries:
            self._evict_old()
        if len(runs) > _MAX_RUNS:
            runs[:] = [_merge_runs(runs)]

    def _evict_old(self) -> None:
        """Drop entries stamped at or below the median insertion batch, every column.

        The cutoff stops short of the newest batch, so a sweep never drops
        the batch that triggered it — unless nothing older is left, i.e. that
        batch alone exceeds ``max_entries``.
        """
        stamps = np.concatenate([run.stamps for runs in self._runs.values()
                                 for run in runs])
        newest = self._clock - 1
        cutoff = newest if stamps.min() == newest else min(np.median(stamps), newest - 1)
        for runs in self._runs.values():
            kept = []
            for run in runs:
                keep = run.stamps > cutoff
                survivors = int(np.count_nonzero(keep))
                self.stats.evictions += keep.size - survivors
                if survivors == keep.size:
                    kept.append(run)
                elif survivors:
                    kept.append(_Run(run.keys[keep], run.values[keep], run.stamps[keep]))
            runs[:] = kept

    def clear(self) -> None:
        """Drop every cached distribution (counters are left untouched)."""
        self._runs.clear()

    def invalidate(self, epoch: int) -> None:
        """Atomically drop every entry and stamp the cache with a new epoch.

        The packed store holds distributions of exactly one data/model
        version; when the served relation's epoch moves the whole store is
        dropped in one sweep (``len(cache) == 0`` afterwards), so a bumped
        epoch can never serve a stale distribution.  Counters are left
        untouched — the scope report still covers the pre-bump traffic.
        """
        self.clear()
        self.epoch = int(epoch)


#: Rows per forward pass of the wrapped model.  Micro-batched serving can stack
#: tens of thousands of sample paths into one request; chunking keeps each pass
#: inside the CPU caches, which is several times faster per row than one huge
#: pass.
_CHUNK_ROWS = 4096


class CachedConditionalModel:
    """Drop-in model wrapper that memoises ``conditional_probs`` per prefix.

    For each requested batch the wrapper (1) projects every row onto the
    columns that precede ``column_index`` in the autoregressive order — the
    only inputs ``conditional_probs`` may depend on, see the batch contract on
    :meth:`repro.core.made.AutoregressiveModel.conditional_probs` — and packs
    the projection into one int64 per row, (2) looks all rows up in the store
    at once, (3) evaluates the model on the rows that missed and (4) stores
    their distributions for later batches.

    Rows are expected one per *distinct* prefix — the contract of the
    prefix-deduplicating :class:`repro.core.progressive.ProgressiveSampler`,
    the wrapper's one caller.  Nothing enforces it: a batch that repeats a
    prefix stays correct, each repeat is just looked up — and on a miss
    evaluated and stored — once per row.

    Parameters
    ----------
    model:
        Any model implementing the autoregressive protocol.
    cache:
        Shared :class:`PackedConditionalCache`; a private one is created from
        ``max_entries`` when omitted.
    max_entries:
        Capacity of the private cache when ``cache`` is not supplied.
    """

    def __init__(self, model, cache: PackedConditionalCache | None = None,
                 max_entries: int = 262144) -> None:
        self.model = model
        if cache is None:
            cache = PackedConditionalCache(max_entries)
        self.cache = cache
        #: Rows this wrapper pushed through the model.  Unlike
        #: ``stats.rows_evaluated`` (which lives on the cache and is shared by
        #: every replica of a group) this counter is wrapper-local, so each
        #: engine can report its own model work without double counting.
        self.rows_evaluated = 0
        self.order = list(model.order)
        self._prefix_columns = {
            column: self.order[:position]
            for position, column in enumerate(self.order)
        }
        # Mixed-radix packing of each column's prefix into one int64 store
        # key (the empty prefix packs to 0) — the sampler's own packing;
        # ``None`` marks a prefix whose radix product overflows, which is
        # served uncached.
        domain_sizes = model.domain_sizes()
        self._prefix_radix: dict[int, np.ndarray | None] = {
            column: prefix_radix([domain_sizes[c] for c in prefix])
            for column, prefix in self._prefix_columns.items()}

    # -- protocol delegation ------------------------------------------- #
    @property
    def stats(self) -> CacheStats:
        """Hit/miss counters of the underlying conditional cache."""
        return self.cache.stats

    def domain_sizes(self) -> list[int]:
        """Per-column domain sizes of the wrapped model (protocol delegate)."""
        return self.model.domain_sizes()

    def log_prob(self, codes: np.ndarray) -> np.ndarray:
        """Joint log-likelihood of encoded rows (protocol delegate, uncached)."""
        return self.model.log_prob(codes)

    def _evaluate(self, column_index: int, codes: np.ndarray) -> np.ndarray:
        """Run the wrapped model in CPU-cache-sized chunks of :data:`_CHUNK_ROWS`."""
        num_rows = codes.shape[0]
        if num_rows <= _CHUNK_ROWS:
            return self.model.conditional_probs(column_index, codes)
        chunks = [self.model.conditional_probs(column_index, codes[start:start + _CHUNK_ROWS])
                  for start in range(0, num_rows, _CHUNK_ROWS)]
        return np.concatenate(chunks, axis=0)

    # ------------------------------------------------------------------ #
    def conditional_probs(self, column_index: int, codes: np.ndarray) -> np.ndarray:
        """Per-row distributions of one column, served through the prefix cache.

        Args:
            column_index: The column (in storage order) being distributed.
            codes: ``(rows, columns)`` dictionary-encoded inputs; only the
                columns preceding ``column_index`` in the autoregressive
                order may influence the result.

        Returns:
            ``(rows, domain_size)`` array of conditional probabilities, equal
            to the wrapped model's output (cache hits are exact, never
            approximations).
        """
        codes = np.asarray(codes, dtype=np.int64)
        num_rows = codes.shape[0]
        domain = self.model.domain_sizes()[column_index]
        if num_rows == 0:
            return np.empty((0, domain))
        radix = self._prefix_radix[column_index]
        if radix is None:
            # Prefix too wide to pack into one int64: evaluate uncached.
            fresh = self._evaluate(column_index, codes)
            self.stats.misses += num_rows
            self.stats.rows_evaluated += num_rows
            self.rows_evaluated += num_rows
            return fresh
        prefixes = np.ascontiguousarray(
            codes[:, self._prefix_columns[column_index]])
        packed = prefixes @ radix
        found, values = self.cache.bulk_get(column_index, packed)
        if values is not None and values.shape[0] == num_rows:
            # Every probe hit: the gather out of the store (a copy the
            # caller owns) is the table.
            self.stats.rows_served_from_cache += num_rows
            return values
        table = np.empty((num_rows, domain))
        if values is not None:
            table[found] = values
        missing_rows = np.flatnonzero(~found)
        if missing_rows.size:
            fresh = self._evaluate(column_index, codes[missing_rows])
            table[missing_rows] = fresh
            self.cache.bulk_put(column_index, packed[missing_rows], fresh)
            self.stats.rows_evaluated += missing_rows.size
            self.rows_evaluated += missing_rows.size
        self.stats.rows_served_from_cache += num_rows - missing_rows.size
        return table


# --------------------------------------------------------------------------- #
# Fleet-wide result caching (exact-match on canonicalised queries)
# --------------------------------------------------------------------------- #
def _canonical_scalar(value: object) -> object:
    """One JSON-ish scalar: numpy scalars unwrap so ``3 == np.int64(3)``."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _canonical_value(operator: Operator, value: object) -> object:
    """Hashable canonical form of one predicate literal.

    ``IN`` lists deduplicate and sort (membership is a set test, so order and
    repeats must not produce distinct cache entries); ``BETWEEN`` pairs become
    plain tuples; everything else unwraps numpy scalars.
    """
    if operator is Operator.IN:
        items = {_canonical_scalar(item) for item in value}
        return tuple(sorted(items, key=lambda item: (str(type(item)), repr(item))))
    if operator is Operator.BETWEEN:
        low, high = value
        return (_canonical_scalar(low), _canonical_scalar(high))
    return _canonical_scalar(value)


def _canonical_predicates(query: Query) -> tuple:
    return tuple(sorted(
        ((predicate.column, predicate.operator.value,
          _canonical_value(predicate.operator, predicate.value))
         for predicate in query.predicates),
        # Type-aware ordering: two predicates on the same column and
        # operator may carry incomparable literal types (1 vs "x"), which
        # raw tuple comparison would crash on.
        key=lambda spec: (spec[0], spec[1], str(type(spec[2])), repr(spec[2]))))


def canonical_query_key(query: "Query | DNFQuery",
                        route: str | None = None) -> tuple:
    """Stable exact-match cache key of one query.

    Two queries map to the same key iff they filter the same relation
    (``route`` wins over the query's own qualifier — the router passes the
    *resolved* route so default-routed and explicitly qualified forms of the
    same query share an entry) with the same predicate structure, regardless
    of predicate order or ``IN``-list order.  DNF keys are canonical over the
    *set* of branches (order-free, duplicates collapse), and a single-branch
    DNF query keys identically to the equivalent plain conjunction — the two
    forms produce bit-identical estimates, so they share a cache entry.
    """
    relation = route if route is not None else query.table
    if isinstance(query, DNFQuery):
        branch_keys = sorted({_canonical_predicates(branch)
                              for branch in query.branches}, key=repr)
        if len(branch_keys) == 1:
            return (relation, branch_keys[0])
        return (relation, ("dnf",) + tuple(branch_keys))
    return (relation, _canonical_predicates(query))


@dataclass
class ResultCacheStats:
    """Hit/miss accounting of the fleet-wide result cache.

    The plain counters (``hits``/``misses``/``evictions``/``stale_rejects``)
    cover the current *epoch scope* — traffic since the last
    :meth:`reset_scope` — so ``hit_rate`` never mixes pre- and
    post-invalidation traffic.  The ``lifetime_*`` counters roll completed
    scopes up; lifetime totals are the sum of both.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Lookups that found an entry stored under a *different* data epoch; the
    #: entry is dropped and the lookup counts as a miss, so a stale result is
    #: never served.
    stale_rejects: int = 0
    #: Rollup of the counters of completed epoch scopes (see
    #: :meth:`reset_scope`); excludes the current scope.
    lifetime_hits: int = 0
    lifetime_misses: int = 0
    lifetime_evictions: int = 0
    lifetime_stale_rejects: int = 0

    @property
    def lookups(self) -> int:
        """Total result lookups of the current scope: hits plus misses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of this scope's lookups answered from memory (0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def reset_scope(self) -> None:
        """Fold the current scope's counters into the lifetime rollup and zero them.

        Called by :meth:`ResultCache.clear` so the hit rate reported after an
        epoch invalidation describes post-invalidation traffic only, while
        the lifetime rollup keeps the full history.
        """
        self.lifetime_hits += self.hits
        self.lifetime_misses += self.misses
        self.lifetime_evictions += self.evictions
        self.lifetime_stale_rejects += self.stale_rejects
        self.hits = self.misses = self.evictions = self.stale_rejects = 0

    def as_dict(self) -> dict:
        """Plain-dict form of the counters, ready for JSON serialisation."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "stale_rejects": self.stale_rejects,
            "lifetime": {
                "hits": self.lifetime_hits + self.hits,
                "misses": self.lifetime_misses + self.misses,
                "evictions": self.lifetime_evictions + self.evictions,
                "stale_rejects": self.lifetime_stale_rejects + self.stale_rejects,
            },
        }


class ResultCache:
    """Bounded LRU map from a canonical query key to a finished selectivity.

    Layered *above* the per-model conditional-probability caches: a hit skips
    routing a query into any micro-batch at all.  Entries are selectivities
    (not cardinalities), so a cached answer stays valid under a pure
    ``set_row_count``-style rescaling of the serving relation — but **not**
    under data changes: the moment rows are appended (or the serving model is
    swapped) the cached selectivity itself is wrong.  Every entry is therefore
    stamped with the epoch it was computed at, and :meth:`get` refuses —
    drops, counts as :attr:`ResultCacheStats.stale_rejects` and reports a
    miss — any entry whose stored epoch differs from the requested one, so a
    bumped epoch invalidates the cache with zero stale hits by construction.

    Parameters
    ----------
    max_entries:
        Maximum number of cached results; the least recently used entry is
        evicted once the bound is exceeded.  ``0`` disables storage (every
        lookup misses and nothing is kept).
    """

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = max_entries
        self.stats = ResultCacheStats()
        self._entries: OrderedDict[tuple, tuple[float, object]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def epoch_of(self, key: tuple) -> object | None:
        """The epoch one entry was stored at (``None`` when absent, no counters)."""
        entry = self._entries.get(key)
        return None if entry is None else entry[1]

    def get(self, key: tuple, epoch: object = 0) -> float | None:
        """Look up one selectivity, updating LRU order and counters.

        An entry stored under any epoch other than ``epoch`` is stale: it is
        dropped, counted in :attr:`ResultCacheStats.stale_rejects` and the
        lookup reports a miss — the caller recomputes against the current
        model/data version.
        """
        try:
            selectivity, stored_epoch = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            return None
        if stored_epoch != epoch:
            del self._entries[key]
            self.stats.stale_rejects += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return selectivity

    def put(self, key: tuple, selectivity: float, epoch: object = 0) -> None:
        """Insert one result stamped with its epoch, evicting LRU when full."""
        if self.max_entries == 0:
            return
        self._entries[key] = (float(selectivity), epoch)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every cached result and start a fresh stats scope.

        The scope counters fold into the lifetime rollup (see
        :meth:`ResultCacheStats.reset_scope`), so the hit rate reported after
        an invalidation never mixes pre- and post-epoch traffic.
        """
        self._entries.clear()
        self.stats.reset_scope()
