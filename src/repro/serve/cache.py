"""Caching for the serving layer: conditionals and whole results.

Two cache families live here, layered at different depths of the serve stack:

* **Conditional-CDF caching** — progressive sampling asks the model the
  same question over and over: the conditional ``P(X_i | x_<i)`` depends
  only on the *prefix* of the sample path, and prefixes repeat heavily —
  every path shares the empty prefix at the first column, early columns have
  tiny domains, and concurrent queries over the same table walk overlapping
  regions.  The deduplicating sampler collapses the repeats inside a
  micro-batch; :class:`CachedConditionalModel` memoises the distinct
  prefixes it hands over in a :class:`PackedConditionalCache` — a
  vectorized, generationally evicted store keyed on ``(column, packed prefix
  codes)`` — so prefixes recurring across micro-batches hit memory instead
  of re-running the network.  The sampler only ever reads a conditional as
  its CDF, so the store keeps CDFs: a miss is summed once, on its way in,
  and a hit is a lookup — read in place when every prefix of a batch hits
  one stored run and the caller can take a view (see
  :meth:`CachedConditionalModel.conditional_probs`), gathered otherwise.

  The wrapper implements the same protocol as
  :class:`repro.core.made.AutoregressiveModel` (``conditional_probs``,
  ``log_prob``, ``domain_sizes``, ``order``) and declares itself
  ``cumulative``, so it can be dropped in front of any model — neural or
  oracle — and the sampler draws from its rows as they come.

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

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core.made import StoredRows
from ..query.predicates import DNFQuery, Operator, Query
from .report import plain_dict

__all__ = ["CacheStats", "PackedConditionalCache", "CachedConditionalModel",
           "ResultCacheStats", "ResultCache", "canonical_query_key"]


#: Packed prefix keys stay below this, with headroom to the int64 limit.
_KEY_LIMIT = 2 ** 62


def prefix_radix(sizes) -> np.ndarray | None:
    """Mixed radix that packs a prefix over domains ``sizes`` into one int64
    (``prefix @ radix``; first column most significant), or ``None`` when
    the number of possible prefixes reaches ``2**62`` — an exact-integer
    test, so a product that rounds to ``2.0**62`` as a float still packs."""
    sizes = [int(size) for size in sizes]
    if math.prod(sizes) >= _KEY_LIMIT:
        return None
    radix = np.ones(len(sizes), dtype=np.int64)
    for index in range(len(sizes) - 2, -1, -1):
        radix[index] = radix[index + 1] * sizes[index + 1]
    return radix


@dataclass
class CacheStats:
    """Hit/miss accounting of one conditional-CDF cache."""

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


#: Slots of the admission doorkeeper's bit array (1 MB of ``bool`` per store).
_DOORKEEPER_BITS = 20
#: Recorded sightings after which the doorkeeper forgets everything it saw.
_DOORKEEPER_RESET = 2 ** 18
#: Fibonacci-hashing multiplier (2**64 / golden ratio) of a key's slot.
_SLOT_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _column_salt(column: int) -> np.uint64:
    """Per-column offset of a key's slot hash, so columns do not share slots."""
    return np.uint64((column + 1) * 0xBF58476D1CE4E5B9 % 2 ** 64)


class PackedConditionalCache:
    """Vectorized store of conditional CDFs keyed on packed prefix codes.

    The deduplicating progressive sampler hands the serving layer batches
    that are already one row per *distinct* prefix, with every prefix
    packable into a single int64 (mixed-radix over the visible columns).
    This store exploits that shape: per column it keeps a short list of
    sorted *runs*, each a sorted int64 key array with an aligned ``(entries,
    domain)`` value matrix (one CDF row per entry).  A bulk insert sorts only
    its own batch and appends it as one run; a lookup is one
    :func:`numpy.searchsorted` per run; once a column holds more than four
    runs they are merged into one.
    Each is a handful of C calls with no Python per row, and an insert
    copies only its own batch instead of splicing it into the whole column.

    Capacity is generational: every entry carries a stamp of the store's
    clock, which ticks once per insert and once per lookup that hits.  An
    insert stamps its batch, and a lookup restamps every entry it hits — one
    scatter per matching run, no Python per row — so a prefix that keeps
    being read stays as young as the traffic reading it.  Once the total
    number of stored distributions exceeds ``max_entries``, every entry
    stamped below the median stamp is dropped in one vectorized sweep — or,
    when no entry is below it, every entry stamped at it — but never the
    newest batch, unless it alone exceeds ``max_entries``.  A run
    whose stamps all fall on one side of the cutoff is kept or dropped whole,
    without a copy; only a run that straddles it is filtered.

    Admission (a TinyLFU-style doorkeeper).  Never-repeating traffic misses
    many deep prefixes that are never read again; stored on first sight,
    they push reused prefixes out.  So once the store has swept at least
    once, :meth:`admit` lets a missed prefix in only on its *second* miss: a
    fixed ``2**20``-slot bit array records every prefix it is shown, and a
    prefix is admitted when its slot was already set.  The array forgets
    everything after ``2**18`` recorded sightings.  A slot collision can only
    admit a prefix early — the store memoises exact CDFs, so what is stored
    changes which lookups hit, never what a lookup returns.  On perfbench's
    traced seed-11 ``serve_distinct`` run, admission and restamping together
    lift the hit rate from 0.26 to 0.35, cut the model's rows by 12.5 % and
    evictions by 84 %.  A store that never fills never sweeps, admits
    everything and behaves exactly as it would without the doorkeeper.

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
        self._runs: dict[int, list[_Run]] = {}
        self._clock = 0
        #: The doorkeeper's slots (see :meth:`admit`); ``None`` until the
        #: first eviction sweep, while every miss is admitted.
        self._seen: np.ndarray | None = None
        self._sightings = 0

    def __len__(self) -> int:
        return sum(run.keys.size for runs in self._runs.values() for run in runs)

    def bulk_get(self, column: int, packed: np.ndarray,
                 stored: StoredRows | None = None) -> tuple[np.ndarray, np.ndarray | None]:
        """Look up an array of packed prefixes of one column at once.

        Returns ``(found, values)`` where ``found`` is a boolean mask over
        ``packed`` and ``values`` holds the cached distributions of the found
        keys in order (``None`` when nothing was found), gathered into an
        array of the caller's.  With a ``stored`` holder, a lookup whose every
        probe hits one run is answered in place instead: ``values`` is a
        read-only view of that run's whole value matrix and ``stored.rows``
        the row of it each probe found.  Any other lookup leaves the holder
        unset.
        """
        found = np.zeros(packed.size, dtype=bool)
        matches = []
        for run in self._runs.get(column, ()):
            positions = np.searchsorted(run.keys, packed)
            # Clipping sends a probe past the last key to the last key: no match.
            match = run.keys.take(positions, mode="clip") == packed
            if match.any():
                found |= match
                hit_positions = positions[match]
                matches.append((run, match, hit_positions))
                # A hit keeps its entry: restamped, it survives the next sweep.
                run.stamps[hit_positions] = self._clock
        hits = int(np.count_nonzero(found))
        self.stats.hits += hits
        self.stats.misses += packed.size - hits
        if hits == 0:
            return found, None
        self._clock += 1
        if len(matches) == 1:
            run, _, hit_positions = matches[0]
            if stored is not None and hits == packed.size:
                values = run.values.view()
                values.flags.writeable = False
                stored.rows = hit_positions
                return found, values
            return found, run.values[hit_positions]
        first = matches[0][0].values
        values = np.empty((hits,) + first.shape[1:], dtype=first.dtype)
        hit_slot = np.cumsum(found) - 1
        for run, match, hit_positions in matches:
            values[hit_slot[match]] = run.values[hit_positions]
        return found, values

    def admit(self, column: int, packed: np.ndarray) -> np.ndarray:
        """Which of a column's missed prefixes to store: a boolean mask over ``packed``.

        Until the store's first eviction sweep every prefix is admitted.
        From then on a prefix is admitted only if the doorkeeper has seen its
        slot before; every prefix shown here gets its slot set, so a
        prefix's second miss stores it.  A slot is the top
        ``_DOORKEEPER_BITS`` bits of ``key * 0x9E3779B97F4A7C15 + salt(column)``
        in 64-bit arithmetic.  The slots are cleared once ``2**18``
        sightings have been recorded.
        """
        if self._seen is None:
            return np.ones(packed.size, dtype=bool)
        slots = packed.view(np.uint64) * _SLOT_MULTIPLIER
        slots += _column_salt(column)
        slots >>= np.uint64(64 - _DOORKEEPER_BITS)
        admitted = self._seen[slots]
        self._seen[slots] = True
        self._sightings += packed.size
        if self._sightings >= _DOORKEEPER_RESET:
            self._seen.fill(False)
            self._sightings = 0
        return admitted

    def bulk_put(self, column: int, packed: np.ndarray,
                 distributions: np.ndarray) -> None:
        """Insert distinct packed prefixes with their distribution rows.

        Callers must not re-insert keys already stored for ``column`` (the
        wrapper only inserts rows that just missed); violating this wastes
        memory but stays correct — lookups resolve to one of the duplicates.
        The insert is unconditional: the wrapper asks :meth:`admit` first.
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
        """Drop entries stamped below the median stamp, every column — or,
        when no entry is below it, the entries stamped at it.

        The cutoff stops short of the newest batch, so a sweep never drops
        the batch that triggered it — unless nothing older is left, i.e. that
        batch alone exceeds ``max_entries``.  A sweep that frees too little
        is repeated by :meth:`bulk_put`.  The first sweep turns the
        doorkeeper on (see :meth:`admit`).
        """
        if self._seen is None:
            self._seen = np.zeros(2 ** _DOORKEEPER_BITS, dtype=bool)
            self._sightings = 0
        stamps = np.concatenate([run.stamps for runs in self._runs.values()
                                 for run in runs])
        newest = self._clock - 1
        oldest = stamps.min()
        cutoff = newest if oldest == newest else min(np.median(stamps), newest - 1)
        # Entries stamped at the cutoff go only when nothing is older: many
        # entries share a stamp, and dropping them with the older ones can
        # empty most of the store in one sweep.
        strictly_older = oldest < cutoff
        for runs in self._runs.values():
            kept = []
            for run in runs:
                keep = run.stamps >= cutoff if strictly_older else run.stamps > cutoff
                survivors = int(np.count_nonzero(keep))
                self.stats.evictions += keep.size - survivors
                if survivors == keep.size:
                    kept.append(run)
                elif survivors:
                    kept.append(_Run(run.keys[keep], run.values[keep], run.stamps[keep]))
            runs[:] = kept

    def clear(self) -> None:
        """Drop every cached distribution and turn the doorkeeper off: every
        miss is admitted until the next sweep (counters are left untouched)."""
        self._runs.clear()
        self._seen = None


#: Rows per forward pass of the wrapped model.  Micro-batched serving can stack
#: tens of thousands of sample paths into one request; tiling keeps each pass's
#: activations inside the CPU's L2 cache.  On ``serve_distinct`` (64x64 MADE,
#: 2-core Xeon) tiles of 256, 512 and 1024 rows served alike, 2048 about 5 %
#: and 4096 about 10 % slower.
_CHUNK_ROWS = 512


class CachedConditionalModel:
    """Model wrapper that memoises each prefix's conditional *CDF*.

    For each requested batch the wrapper (1) projects every row onto the
    columns that precede ``column_index`` in the autoregressive order — the
    only inputs ``conditional_probs`` may depend on, see the batch contract on
    :meth:`repro.core.made.AutoregressiveModel.conditional_probs` — and packs
    the projection into one int64 per row, (2) looks all rows up in the store
    at once, (3) evaluates the model on the rows that missed, in tiles of
    :data:`_CHUNK_ROWS` rows, summing each tile straight into its rows of the
    answer, and (4) stores the CDFs the store admits
    (:meth:`PackedConditionalCache.admit`: all of them until the store first
    evicts, then only prefixes missed before) for later batches.  When every
    row missed, the evaluated matrix is the answer; the store keeps its own
    sorted copy.

    It answers CDFs, not probabilities (``cumulative = True``): the
    progressive sampler, its one caller, reads a conditional only as a CDF,
    so a hit is a lookup in the store with no arithmetic left to redo.  The
    sampler passes a :class:`~repro.core.made.StoredRows` holder, and a
    batch whose every row hits one run is answered with a read-only view of
    that run's CDF matrix, read in place; any other batch gets a table of
    its own.
    ``np.cumsum`` along a row is a sequential per-row sum, so the answer is
    ``np.cumsum(model.conditional_probs(...), axis=1)`` bit for bit, hit or
    miss, however the rows were grouped.

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

    #: Answers CDFs, see the class docstring.
    cumulative = True

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
        """The wrapped model's CDFs of ``codes``: one answer matrix, filled
        tile by tile of :data:`_CHUNK_ROWS` rows, each tile's probabilities
        summed straight into their rows of it."""
        answer = np.empty((codes.shape[0], self.model.domain_sizes()[column_index]))
        for start in range(0, codes.shape[0], _CHUNK_ROWS):
            tile = slice(start, start + _CHUNK_ROWS)
            np.cumsum(self.model.conditional_probs(column_index, codes[tile]),
                      axis=1, out=answer[tile])
        return answer

    # ------------------------------------------------------------------ #
    def conditional_probs(self, column_index: int, codes: np.ndarray, *,
                          stored: StoredRows | None = None) -> np.ndarray:
        """Per-row conditional CDFs of one column, served through the prefix cache.

        Args:
            column_index: The column (in storage order) being distributed.
            codes: ``(rows, columns)`` dictionary-encoded inputs; only the
                columns preceding ``column_index`` in the autoregressive
                order may influence the result.
            stored: A caller that reads CDFs in place passes an empty
                :class:`~repro.core.made.StoredRows`.  When every row hits
                one run of the store, the answer is a read-only view of that
                run's CDF matrix and ``stored.rows`` names each row's row of
                it; otherwise the holder is left unset.

        Returns:
            ``(rows, domain_size)`` array of conditional **CDFs**, equal to
            ``np.cumsum`` of the wrapped model's output along each row, bit
            for bit (cache hits are exact, never approximations) — or, read
            through ``stored.rows``, the store's view described above.  The
            name is the protocol's; the rows are cumulative (``cumulative``).
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
        found, values = self.cache.bulk_get(column_index, packed, stored)
        if values is None:
            # Every probe missed: the evaluated matrix is the table.
            table = fresh = self._evaluate(column_index, codes)
            keys = packed
        elif values.shape[0] == num_rows or (stored is not None
                                             and stored.rows is not None):
            # Every probe hit: the store's own rows, read in place, or the
            # gather out of it (a copy the caller owns) is the table.
            self.stats.rows_served_from_cache += num_rows
            return values
        else:
            table = np.empty((num_rows, domain))
            table[found] = values
            missing_rows = np.flatnonzero(~found)
            fresh = self._evaluate(column_index, codes[missing_rows])
            table[missing_rows] = fresh
            keys = packed[missing_rows]
        admitted = self.cache.admit(column_index, keys)
        if admitted.all():
            self.cache.bulk_put(column_index, keys, fresh)
        elif admitted.any():
            self.cache.bulk_put(column_index, keys[admitted], fresh[admitted])
        missed = keys.size
        self.stats.rows_evaluated += missed
        self.rows_evaluated += missed
        self.stats.rows_served_from_cache += num_rows - missed
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
    cover the current *scope* — traffic since the last
    :meth:`reset_scope`, i.e. since the cache was last cleared — so
    ``hit_rate`` never mixes traffic before and after a wipe.  The
    ``lifetime_*`` counters roll completed scopes up; lifetime totals are
    the sum of both.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Lookups that found an entry stored under a *different* stamp (for the
    #: router, an older relation version); the entry is dropped and the
    #: lookup counts as a miss, so a stale result is never served.
    stale_rejects: int = 0
    #: Rollup of the counters of completed scopes (see
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

        Called by :meth:`ResultCache.clear` so the hit rate reported after a
        wipe describes post-wipe traffic only, while the lifetime rollup
        keeps the full history.
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

    Layered *above* the per-model conditional-CDF caches: a hit skips
    routing a query into any micro-batch at all.  Entries are selectivities
    (not cardinalities), so a cached answer stays valid under a pure
    ``set_row_count``-style rescaling of the serving relation — but **not**
    under data changes: the moment rows are appended (or the serving model is
    swapped) the cached selectivity itself is wrong.  Every entry is therefore
    stamped with the epoch it was computed at (the router passes the
    relation's :meth:`~repro.serve.registry.ModelRegistry.version`), and
    :meth:`get` refuses —
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
        a wipe never mixes traffic from before it.  A moved stamp needs no
        clear: :meth:`get` rejects stale entries one by one.
        """
        self._entries.clear()
        self.stats.reset_scope()
