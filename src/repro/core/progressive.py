"""Querying the density model: enumeration, uniform sampling and progressive
sampling (§5 of the paper, Algorithm 1).

All three integration schemes operate on the *valid-code masks* produced by
:meth:`repro.query.predicates.Query.column_masks`: one boolean mask per column
(or ``None`` for a wildcard / unfiltered column).  They only require a model
exposing the :class:`repro.core.made.AutoregressiveModel` protocol —
``conditional_probs``, ``log_prob``, ``domain_sizes`` and ``order`` — so the
same code runs against neural models and the exact oracle model.

Batched estimation
------------------
:meth:`ProgressiveSampler.estimate_selectivity_batch` packs many queries into
the *same* model forward passes: the sample paths of every in-flight query are
stacked into one code matrix, so a micro-batch of ``Q`` queries still costs at
most ``num_columns`` ``conditional_probs`` calls per round instead of
``Q × num_columns``.  Two §5.2-style optimisations ride along:

* **wildcard skipping** — columns that appear after the last constrained
  column (in the model's autoregressive order) of *every* in-flight query are
  never sampled: their truncated conditional is the full conditional, whose
  mass marginalises to one, and no later sampled column conditions on them;
* **dead-row skipping** — sample paths whose weight has hit zero (the query
  region has zero mass under their prefix) are dropped from subsequent model
  evaluations instead of being carried along on a uniform-fallback
  distribution.

Both optimisations leave the returned estimates unchanged (up to float
round-off of the wildcard-column mass): the single-query
:meth:`ProgressiveSampler.estimate_selectivity` is simply a batch of one.

A column is drawn from one plain CDF ``F`` per distinct prefix, whatever
the query: the truncated draw is ``F⁻¹(F(lo−1) + u·(F(hi) − F(lo−1)))``
inside the query's admitted run ``[lo, hi]`` (:func:`_truncated_draws`), so
no masked or renormalised copy of a distribution is built.  The in-range
mass, a difference of two CDF entries, is off by at most about
``|A_i|·2⁻⁵²·F(hi)``: a mass below about ``1e-16·F(hi)`` can read as zero,
for a cardinality at most about ``1e-16·N`` rows.  The CDF is the model's
row summed in place — or the model's answer itself, for a ``cumulative``
model.  Such a model (the serving layer's conditional cache, which stores
CDFs) is handed a :class:`~repro.core.made.StoredRows` holder and may answer
with a read-only view of what it stores, naming the row of it each prefix
reads: a draw reads ``2 + log₂|run|`` entries of a row, so the row is read
where it lies instead of copied out.  A run of one code — an equality
literal — admits one draw, so its rows take that code without a search.

Prefix deduplication (``dedup=True``, the default) changes no bit at all.
Each call lists the alive rows prefix by prefix and the model answers once
per distinct prefix, in sorted-prefix order.  A prefix is its parent — a
prefix of the previous call — plus the one code sampled since, so every row
carries one int64, the index (rank, in sorted order) of its prefix at the
previous call, and the key ``rank × |A_prev| + code`` sorts the prefixes of
this call in the same order as the prefixes themselves.  The row's id rides
in the key's low bits, so one :func:`numpy.sort` of plain int64 values yields
both the distinct prefixes and the rows in prefix order
(:func:`_sort_by_key`).  The dedup-off reference walk gives every row its
own answer, and both run the same per-row draw.

A model whose first layer is a running sum in autoregressive order
(:class:`repro.core.made.MADEModel`, ``carries_prefix_sums``) gets each
distinct prefix's first-layer sum carried to the next column: a prefix's
sum is its parent's plus one table row, so each call adds one column
instead of the whole prefix — the same addends in the same order, so the
same bits.  The rank each row carries names its parent's row of those
sums.  Other models are called without a carry, as they always were.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .made import PrefixSums, StoredRows

__all__ = ["SamplerStats", "ProgressiveSampler", "UniformRegionSampler",
           "enumerate_region"]


def validate_num_samples(num_samples: int) -> None:
    """Reject a sample budget that cannot produce an estimate: zero paths
    average to NaN, a negative count dies inside numpy."""
    if not isinstance(num_samples, (int, np.integer)) or num_samples < 1:
        raise ValueError("num_samples must be a positive integer")


def _admitted_runs(masks: list[np.ndarray | None],
                   domains) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each mask's admitted codes as maximal runs ``[lo, hi]``.

    ``domains`` is the domain size of every mask (one for all, or one per
    mask).  Returns ``(lo, hi, count)``: mask ``q``'s runs are ``(lo[q, r],
    hi[q, r])`` for ``r < count[q]``, in code order.  A wildcard is one run
    over its whole domain.  Unused slots — all of an empty mask's — hold
    the empty run ``(1, 0)``, whose mass ``F(0) − F(0)`` is exactly zero.
    """
    num_masks = len(masks)
    domains = np.broadcast_to(domains, num_masks)
    padded = np.zeros((num_masks, int(domains.max()) + 2), dtype=bool)
    for row, (mask, domain) in enumerate(zip(masks, domains)):
        padded[row, 1:domain + 1] = True if mask is None else mask
    # Each run's first code and the code just past its last, alternating
    # along every row.
    owner, edges = np.nonzero(padded[:, 1:] != padded[:, :-1])
    owner = owner[::2]
    count = np.bincount(owner, minlength=num_masks)
    slot = np.arange(owner.size) - (np.cumsum(count) - count)[owner]
    bounds = np.zeros((2, num_masks, max(1, int(count.max()))), dtype=np.int64)
    bounds[0] = 1
    bounds[0, owner, slot] = edges[::2]
    bounds[1, owner, slot] = edges[1::2] - 1
    return bounds[0], bounds[1], count


def _run_mass(flat: np.ndarray, base: np.ndarray, lo: np.ndarray,
              hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, ``F(hi)``, ``lower = F(lo − 1)`` (0 when ``lo`` is 0) and
    ``mass = F(hi) − lower`` of the CDF starting at ``flat[base]``."""
    lower = flat[base + lo - 1]
    lower[lo == 0] = 0.0
    upper = flat[base + hi]
    return upper, lower, upper - lower


#: Entries of one ``(runs, rows)`` block of :func:`_pick_runs`: big enough
#: that a mask of thousands of runs costs a few numpy calls, small enough
#: that a block is a few row vectors on a batch of thousands of rows.
_PICK_BLOCK = 1 << 14


def _running_sums(flat: np.ndarray, base: np.ndarray, queries: np.ndarray,
                  run_lo: np.ndarray, run_hi: np.ndarray):
    """Yield ``(start, sums, positive)`` per block of runs, in run order.

    ``sums[j]`` is each row's mass through run ``start + j − 1`` summed left
    to right — row 0 is the sum carried in, the first addend of the block's
    cumulative sum, so every sum is ``((m₀ + m₁) + m₂) + …`` — and
    ``positive[j]`` whether run ``start + j`` has positive mass.  One buffer
    serves every block: a yielded block is valid until the next.
    """
    rows, runs = base.size, run_lo.shape[1]
    width = min(runs, max(1, _PICK_BLOCK // max(1, rows)))
    buffer = np.empty((width + 1, rows))
    buffer[width] = 0.0
    for start in range(0, runs, width):
        stop = min(start + width, runs)
        sums = buffer[:stop - start + 1]
        sums[0] = buffer[width]   # the sum through the last block's runs
        masses = sums[1:]
        codes = run_hi.T[start:stop, queries]
        codes += base
        np.take(flat, codes, out=masses)
        codes = run_lo.T[start:stop, queries]
        below = codes == 0
        codes += base - 1
        lower = flat[codes]
        del codes
        lower[below] = 0.0
        positive = masses > lower
        np.subtract(masses, lower, out=masses)
        del lower
        np.cumsum(sums, axis=0, out=sums)
        yield start, sums, positive
        buffer[width] = sums[-1]


def _pick_runs(flat: np.ndarray, base: np.ndarray, queries: np.ndarray,
               run_lo: np.ndarray, run_hi: np.ndarray, draws: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows whose query admits several runs: the run ``(lo, hi)`` each
    searches, the mass summed in run order, and the offset of the target
    above ``F(lo − 1)`` (``inf``: search to the run's last positive code)."""
    for _, sums, _ in _running_sums(flat, base, queries, run_lo, run_hi):
        total = sums[-1].copy()
    del sums    # the pass's buffer
    threshold = draws * total
    chosen = np.zeros(base.size, dtype=np.int64)
    offset = np.full(base.size, np.inf)
    unpicked = np.ones(base.size, dtype=bool)
    # The same sums again: a row searches the first run whose sum passes
    # its threshold — and until one does, holds the last run of positive mass.
    for start, sums, positive in _running_sums(flat, base, queries, run_lo,
                                               run_hi):
        crossed = sums[1:] > threshold
        held = np.flatnonzero(unpicked & positive.any(axis=0))
        chosen[held] = start + len(positive) - 1 - positive[::-1, held].argmax(axis=0)
        pick = np.flatnonzero(unpicked & crossed.any(axis=0))
        first = crossed[:, pick].argmax(axis=0)
        chosen[pick] = start + first
        offset[pick] = threshold[pick] - sums[first, pick]
        unpicked[pick] = False
    return run_lo[queries, chosen], run_hi[queries, chosen], total, offset


def _truncated_draws(cdf: np.ndarray, row_cdf: np.ndarray,
                     row_query: np.ndarray,
                     runs: tuple[np.ndarray, np.ndarray, np.ndarray],
                     draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, one draw from ``cdf[row_cdf]`` truncated to the runs
    (:func:`_admitted_runs`) of query ``row_query``, and the in-range mass.

    With ``lower = F(lo − 1)`` and ``mass = F(hi) − lower``, the sample is
    the first ``j`` in ``[lo, hi]`` with ``F(j) > target``, where ``target =
    min(lower + u·mass, nextafter(F(hi), 0))``.  ``F`` never decreases, so
    when ``mass > 0`` that ``j`` exists, is admitted and has positive
    probability, and no earlier ``j`` of the row qualifies — so any window
    that starts at or before ``lo`` and covers ``hi`` finds the same ``j``.
    A row whose run holds one code (``lo == hi``) therefore draws it with no
    search; the other rows binary-search one window as wide as the widest
    of their runs, in lockstep.  A zero-mass row samples a code nobody
    reads, but a valid one: an empty run ``(1, 0)`` gives its ``hi``, 0.
    A query with several runs
    sums their masses in run order and searches the first run whose running
    sum exceeds ``u·mass`` — if round-off leaves none, the last run with
    positive mass (:func:`_pick_runs`).

    ``mass`` is off by at most about ``(|A|+2)·2⁻⁵²·F(hi)``
    (``tests/test_core_sampling.py`` pins the bound).  Every operation is
    per row, so no other row of the call can move a row's result.
    """
    run_lo, run_hi, count = runs
    width = cdf.shape[1]
    flat = cdf.ravel()
    base = row_cdf * width
    multi = (count > 1)[row_query]
    if multi.all():
        several = slice(None)   # every row: views, not copies
    elif multi.any():
        several = np.flatnonzero(multi)
    else:
        several = None
    lo, hi = run_lo[:, 0][row_query], run_hi[:, 0][row_query]
    if several is not None:
        lo[several], hi[several], several_mass, several_offset = _pick_runs(
            flat, base[several], row_query[several], run_lo, run_hi,
            draws[several])
    upper, lower, mass = _run_mass(flat, base, lo, hi)
    offset = draws * mass
    if several is not None:
        mass[several] = several_mass
        offset[several] = several_offset
    # A run of at most one code leaves nothing to search: the row takes hi.
    wide = hi > lo
    if not wide.any():
        return hi, mass
    search = slice(None) if wide.all() else np.flatnonzero(wide)
    base, lo = base[search], lo[search]
    target = np.minimum(lower[search] + offset[search],
                        np.nextafter(upper[search], 0.0))
    window = int((hi[search] - lo).max()) + 1
    # The window starts at the row's run, or as far right as fits the row.
    position = base + np.minimum(lo, width - window)
    while window > 1:
        half = window >> 1
        position += half * (flat[position + (half - 1)] <= target)
        window -= half
    hi[search] = position - base
    return hi, mass


def _sort_by_key(key: np.ndarray, rows: np.ndarray,
                 span: int) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` and their keys, sorted by key (ties by row): ``(rows, key)``.

    ``key`` (overwritten) holds one value in ``[0, span)`` per row of
    ``rows``, ascending row ids.  Each row's id rides in the low bits of its
    key, so one sort of plain int64 values orders the keys and carries the
    rows along.  When ``span`` leaves no room for the ids below ``2⁶³`` a
    stable :func:`numpy.argsort` of the keys gives the same order.  The
    walk's ``span`` is the previous call's prefixes times the sampled
    column's domain, so at serving batch sizes only a declared domain of
    about ``2³⁵`` codes or more takes that branch; tests reach it by calling
    this function directly.
    """
    shift = int(rows[-1]).bit_length()
    # The largest packed value, (span << shift) - 1, must fit in an int64.
    if span << shift > 2 ** 63:
        order = np.argsort(key, kind="stable")
        return rows[order], key[order]
    key <<= shift
    key |= rows
    key.sort()
    rows = key & ((1 << shift) - 1)
    key >>= shift
    return rows, key


def _region_candidates(
        domain_sizes: list[int],
        masks: list[np.ndarray | None]) -> tuple[list[np.ndarray] | None, float]:
    """Candidate code arrays and size of the query region ``R_1 × … × R_n``.

    A wildcard column contributes its whole domain.  If any column's mask
    admits no code the region is empty: returns ``(None, 0.0)`` so callers
    can early-return a zero selectivity without special-casing.
    """
    candidate_codes: list[np.ndarray] = []
    region_size = 1.0
    for column, mask in enumerate(masks):
        codes = np.arange(domain_sizes[column]) if mask is None else np.flatnonzero(mask)
        if codes.size == 0:
            return None, 0.0
        candidate_codes.append(codes)
        region_size *= float(codes.size)
    return candidate_codes, region_size


@dataclass
class SamplerStats:
    """Lifetime row accounting of one progressive sampler.

    ``rows_submitted`` counts the alive sample-path rows that needed a
    conditional at some position; ``unique_rows`` counts the rows actually
    sent to the model after prefix deduplication (equal to ``rows_submitted``
    on the dedup-off reference walk, which only the sequential baseline
    and tests take); ``forward_calls`` counts ``conditional_probs`` calls.
    The serving engine snapshots these at scope boundaries to report
    per-workload deltas and the dedup ratio.
    """

    rows_submitted: int = 0
    unique_rows: int = 0
    forward_calls: int = 0

    def snapshot(self) -> tuple[int, int, int]:
        """Current counter values, for delta accounting across scopes."""
        return (self.rows_submitted, self.unique_rows, self.forward_calls)


class ProgressiveSampler:
    """Unbiased Monte-Carlo estimator of range-query density (Algorithm 1).

    For each sample path the sampler walks the columns in the model's
    autoregressive order; at column ``i`` it asks the model for
    ``P(X_i | sampled prefix)``, records its mass inside the query range
    ``R_i`` and samples the next prefix value from the conditional
    *truncated* to ``R_i`` (by inverse CDF, see :func:`_truncated_draws`).
    The product of the recorded masses is an unbiased estimate of the query
    density; paths are batched so a query costs at most ``num_columns`` model
    forward passes regardless of the number of samples — and a micro-batch of
    queries shares those passes, see :meth:`estimate_selectivity_batch`.

    Parameters
    ----------
    model:
        Any model implementing the autoregressive protocol.
    seed:
        Seed of the sampler's own random stream (used when callers do not
        supply per-query generators).
    dedup:
        Deduplicate the visible prefixes of the alive sample paths before
        each model call (default on): at position ``p`` the conditional
        depends only on the columns sampled so far, and sample paths collapse
        to a handful of distinct prefixes at early positions — every path
        shares the empty prefix at position 0 — so the model evaluates each
        unique prefix once and every row draws from its prefix's answer.
        The random draws are consumed before liveness checks, so sampling
        streams are untouched; for models whose ``conditional_probs`` is
        row-exact (:class:`repro.core.made.MADEModel`, the oracle) the
        estimates are bit-identical with dedup on or off.
    """

    def __init__(self, model, seed: int = 0, dedup: bool = True) -> None:
        self.model = model
        self.dedup = dedup
        # A cumulative model (the serving layer's conditional cache) answers
        # CDFs already: its rows are drawn from as they come.
        self._cumulative = getattr(model, "cumulative", False)
        #: Lifetime row accounting, see :class:`SamplerStats`.
        self.stats = SamplerStats()
        self._rng = np.random.default_rng(seed)

    def _conditional_cdfs(
            self, column: int, codes: np.ndarray, alive_rows: np.ndarray,
            parent: np.ndarray, previous: tuple[np.ndarray, int, int] | None,
            carry: PrefixSums | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The model's conditionals of the alive rows as CDFs, one per
        distinct visible prefix (one per row on the dedup-off walk).

        Alive rows agree on every column *not* yet sampled (still zero), so
        rows sharing a visible prefix are equal as whole rows and the model
        sees any one of them per distinct prefix, in sorted-prefix order.
        ``parent`` holds, per row, the rank of its prefix at the previous
        call, and ``previous`` is ``(codes, size, prefixes)`` of that call:
        the column it sampled, that column's domain size and the number of
        distinct prefixes it had (``None`` at the first call, where every
        row's prefix is the empty one).  A prefix's key is its parent's rank
        times ``size`` plus its newest code; one sort of the keys
        (:func:`_sort_by_key`) lists the rows prefix by prefix, and this call
        leaves each row's new rank in ``parent``.  The model's answer is the
        caller's to overwrite: it becomes the CDFs in place — unless the
        model is ``cumulative`` and answered CDFs itself, possibly a
        read-only view of its own memory (see
        :class:`~repro.core.made.StoredRows`).

        ``carry`` (a carrying model only) is the model's
        :class:`~repro.core.made.PrefixSums`: each shown row's parent rank
        names the sum the model extends by one column instead of summing the
        whole prefix.

        Returns ``(cdf, row_cdf, rows, prefixes)``: ``rows`` lists the alive
        rows (sorted by prefix when deduplicating), ``rows[i]`` draws from
        ``cdf[row_cdf[i]]``, and ``prefixes`` rows were shown to the model.
        """
        stats = self.stats
        stats.rows_submitted += alive_rows.size
        stats.forward_calls += 1
        if not self.dedup:
            rows = shown = alive_rows
            rank = np.arange(rows.size)
        elif previous is None:
            rows, shown = alive_rows, alive_rows[:1]
            rank = np.zeros(rows.size, dtype=np.int64)
        else:
            sampled, size, prefixes = previous
            key = parent[alive_rows]
            key *= size
            key += sampled[alive_rows]
            rows, key = _sort_by_key(key, alive_rows, prefixes * size)
            is_first = np.ones(key.size, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=is_first[1:])
            rank = np.cumsum(is_first) - 1
            # Any row of a prefix represents it (its rows are equal): take
            # the one the sort put first.
            shown = rows[is_first]
        stats.unique_rows += shown.size
        row_cdf = rank
        if carry is not None:
            carry.parent = parent[shown]
            cdf = self.model.conditional_probs(column, codes[shown], carry=carry)
        elif self._cumulative:
            stored = StoredRows()
            cdf = self.model.conditional_probs(column, codes[shown], stored=stored)
            if stored.rows is not None:
                row_cdf = stored.rows[rank]
        else:
            cdf = self.model.conditional_probs(column, codes[shown])
        if not self._cumulative:
            np.cumsum(cdf, axis=1, out=cdf)
        parent[rows] = rank
        return cdf, row_cdf, rows, shown.size

    # ------------------------------------------------------------------ #
    def estimate_selectivity(self, masks: list[np.ndarray | None],
                             num_samples: int = 1000) -> float:
        """Estimate the probability mass inside the query region.

        Parameters
        ----------
        masks:
            One boolean valid-code mask per column (``None`` = wildcard).
        num_samples:
            Number of progressive sample paths (batched into one pass).
        """
        return float(self.estimate_selectivity_batch([masks],
                                                     num_samples=num_samples)[0])

    def estimate_selectivity_batch(
            self,
            masks_batch: list[list[np.ndarray | None]],
            num_samples: int = 1000,
            rngs: list[np.random.Generator] | None = None) -> np.ndarray:
        """Estimate many query regions with shared model forward passes.

        The sample paths of all queries are stacked into a single
        ``(num_queries * num_samples, num_columns)`` code matrix so every
        column costs one ``conditional_probs`` call for the whole micro-batch.

        Parameters
        ----------
        masks_batch:
            One mask list (as accepted by :meth:`estimate_selectivity`) per
            query.
        num_samples:
            Progressive sample paths *per query*; a positive integer
            (``ValueError`` otherwise).
        rngs:
            Optional one random generator per query.  Supplying per-query
            generators makes each query's estimate independent of how the
            workload was chopped into micro-batches — the
            :class:`repro.serve.EstimationEngine` relies on this to return
            identical estimates for any batch size.  When omitted, the first
            query consumes the sampler's own stream (so a batch of one is the
            sequential path) and the remaining queries use child generators
            derived from it.

        Returns
        -------
        numpy.ndarray
            One selectivity estimate per query, in input order.
        """
        validate_num_samples(num_samples)
        domain_sizes = self.model.domain_sizes()
        num_columns = len(domain_sizes)
        num_queries = len(masks_batch)
        if num_queries == 0:
            return np.zeros(0)
        for masks in masks_batch:
            if len(masks) != num_columns:
                raise ValueError("one mask (or None) is required per column")
        if rngs is None:
            rngs = [self._rng]
            if num_queries > 1:
                rngs.extend(self._rng.spawn(num_queries - 1))
        elif len(rngs) != num_queries:
            raise ValueError("one random generator is required per query")

        # Wildcard skipping: once a query is past its *own* last constrained
        # column (in autoregressive order) its weight is final — trailing
        # wildcard columns contribute mass one and nothing the query still
        # samples conditions on them — so its rows drop out of the forward
        # passes.  Columns past every query's last constrained position are
        # not visited at all.
        order = self.model.order
        ordered = [masks[column] for column in order for masks in masks_batch]
        constrained = np.fromiter((mask is not None for mask in ordered), dtype=bool,
                                  count=len(ordered)).reshape(num_columns, num_queries)
        last_constrained = np.where(constrained.any(axis=0),
                                    num_columns - 1 - constrained[::-1].argmax(axis=0), -1)
        sampled_columns = order[:int(last_constrained.max()) + 1]
        if not sampled_columns:
            return np.ones(num_queries)
        # Every sampled column's admitted runs, per query, in one pass:
        # ``run_lo[position, query]`` and so on.
        run_lo, run_hi, run_count = (part.reshape(
            len(sampled_columns), num_queries, -1) for part in _admitted_runs(
                ordered[:len(sampled_columns) * num_queries],
                np.repeat([domain_sizes[column] for column in sampled_columns],
                          num_queries)))

        total_rows = num_queries * num_samples
        # Column-major: a sampled column is one contiguous scatter.
        codes = np.zeros((total_rows, num_columns), dtype=np.int64, order="F")
        weights = np.ones(total_rows)
        alive = np.ones(total_rows, dtype=bool)
        row_query = np.repeat(np.arange(num_queries), num_samples)
        # Each row's prefix rank at the previous call, and what that call
        # sampled (see _conditional_cdfs).
        parent = np.zeros(total_rows, dtype=np.int64)
        previous = None
        # A carrying model's first-layer sums, one per prefix of the last call.
        carry = PrefixSums() if getattr(self.model, "carries_prefix_sums", False) else None

        for position, column in enumerate(sampled_columns):
            # Draw the full-width uniforms for every query before checking
            # liveness so each query's stream is consumed identically
            # regardless of batch composition and dead-row skipping.
            draws = np.concatenate([rng.random(num_samples) for rng in rngs])
            # A finished query's rows leave the walk, their weights final.
            alive.reshape(num_queries, num_samples)[
                last_constrained == position - 1] = False
            if not alive.any():
                continue
            cdf, row_cdf, rows, prefixes = self._conditional_cdfs(
                column, codes, np.flatnonzero(alive), parent, previous, carry)
            draws = draws[rows]
            count = run_count[position, :, 0]
            width = max(1, int(count.max()))
            sampled, mass = _truncated_draws(
                cdf, row_cdf, row_query[rows],
                (run_lo[position, :, :width], run_hi[position, :, :width], count),
                draws)
            weights[rows] *= mass
            survived = mass > 0.0
            alive[rows] = survived
            # A dead row's code is never read again.
            codes[:, column][rows] = sampled
            previous = (codes[:, column], domain_sizes[column], prefixes)

        return weights.reshape(num_queries, num_samples).mean(axis=1)


class UniformRegionSampler:
    """The paper's "first attempt": uniform Monte-Carlo over the query region.

    Points are drawn uniformly from ``R_1 × … × R_n`` and the model's point
    densities are averaged, then multiplied by the region size.  Kept as a
    baseline/ablation because it collapses catastrophically on skewed
    high-dimensional data (§5.1, Figure 3 left).
    """

    def __init__(self, model, seed: int = 0) -> None:
        self.model = model
        self._rng = np.random.default_rng(seed)

    def estimate_selectivity(self, masks: list[np.ndarray | None],
                             num_samples: int = 1000) -> float:
        candidate_codes, region_size = _region_candidates(
            self.model.domain_sizes(), masks)
        if candidate_codes is None:
            return 0.0

        samples = np.stack([
            codes[self._rng.integers(0, codes.size, size=num_samples)]
            for codes in candidate_codes
        ], axis=1)
        densities = np.exp(self.model.log_prob(samples))
        return float(region_size * densities.mean())


def enumerate_region(model, masks: list[np.ndarray | None],
                     max_points: int = 200_000, batch_size: int = 4096) -> float:
    """Exactly sum the model's density over every point of the query region.

    Raises
    ------
    ValueError
        If the region contains more than ``max_points`` points — the situation
        in which the paper switches to progressive sampling.
    """
    per_column_codes, region_size = _region_candidates(model.domain_sizes(), masks)
    if per_column_codes is None:
        return 0.0
    if region_size > max_points:
        raise ValueError(
            f"query region has {region_size:.3g} points, enumeration capped at "
            f"{max_points}; use progressive sampling instead")

    total = 0.0
    batch: list[tuple[int, ...]] = []
    for point in itertools.product(*per_column_codes):
        batch.append(point)
        if len(batch) == batch_size:
            total += float(np.exp(model.log_prob(np.asarray(batch))).sum())
            batch = []
    if batch:
        total += float(np.exp(model.log_prob(np.asarray(batch))).sum())
    return total
