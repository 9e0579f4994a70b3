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

Prefix deduplication (``dedup=True``, the default) changes no bit at all.
Every row carries its sampled prefix as one mixed-radix int64
(:func:`prefix_radix` — the key the serving layer's conditional cache
stores under), extended by one Horner step per sampled column.  Per
column, one scalar sort of ``key * num_queries + query`` lists the rows
group by group; the model answers once per distinct prefix, and the
truncate / weigh / renormalise / accumulate arithmetic runs once per
``(prefix, query)`` group, a cache-sized tile of groups at a time, each
row reading its group's mass and binary-searching its group's CDF.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SamplerStats", "ProgressiveSampler", "UniformRegionSampler",
           "enumerate_region", "prefix_radix"]

#: Row-chunk size of the per-row truncate/renormalise/sample arithmetic of
#: the unfused (dedup-off) walk, whose ``(rows × domain)`` temporaries
#: would otherwise fall out of the CPU caches on large micro-batches.
_ROW_CHUNK = 8192

#: Entries of one tile of the deduplicated walk's group-space arithmetic: a
#: 512 KB float64 array that stays in the L2 cache across its five passes
#: and under the allocator's trim threshold, so a column reuses the pages
#: it has already faulted in (measured on ``serve_repeat``: 2**14 947 qps,
#: 2**16 1008, 2**18 996).
_TILE_ELEMENTS = 2 ** 16

#: Sort keys (packed prefixes, fused with the query) stay below this so
#: ``key * num_queries + query`` can never wrap int64.
_KEY_LIMIT = 2 ** 62


def validate_num_samples(num_samples: int) -> None:
    """Reject a sample budget that cannot produce an estimate: zero paths
    average to NaN, a negative count dies inside numpy."""
    if not isinstance(num_samples, (int, np.integer)) or num_samples < 1:
        raise ValueError("num_samples must be a positive integer")


def prefix_radix(sizes) -> np.ndarray | None:
    """Mixed radix that packs a prefix over domains ``sizes`` into one int64
    (``prefix @ radix``; first column most significant), or ``None`` when
    the number of possible prefixes reaches ``2**62`` — an exact-integer
    test.  The sampler's carried keys and the conditional cache's store keys
    are this one packing, so both layers pack, or decline, together."""
    sizes = [int(size) for size in sizes]
    if math.prod(sizes) >= _KEY_LIMIT:
        return None
    radix = np.ones(len(sizes), dtype=np.int64)
    for index in range(len(sizes) - 2, -1, -1):
        radix[index] = radix[index + 1] * sizes[index + 1]
    return radix


def _sample_rows_from_probs(probs: np.ndarray, rng_draws: np.ndarray) -> np.ndarray:
    """Draw one categorical sample per row given uniform draws in ``[0, 1)``."""
    cumulative = np.cumsum(probs, axis=1)
    # Guard against rounding: force the last cumulative value to 1.
    cumulative[:, -1] = 1.0
    return np.argmax(cumulative >= rng_draws, axis=1)


def _search_cumulative(cumulative: np.ndarray, groups: np.ndarray,
                       draws: np.ndarray) -> np.ndarray:
    """Per row, the first index whose ``cumulative[groups[row]]`` entry
    reaches ``draws[row]`` — all rows' binary searches run in lockstep.

    Equals ``np.argmax(cumulative[groups] >= draws[:, None], axis=1)`` without
    fanning the CDFs out to one full-width copy per row: each of the
    ``ceil(log2(width))`` rounds reads one entry per row from the flat view
    and keeps the half of the row's index range that holds the answer.  Exact,
    not approximate, because the predicate ``entry >= draw`` is monotone along
    every row: entries before the last are sequential sums of non-negatives
    (never decreasing, also after rounding), and the last is ``1.0``, above
    every draw in ``[0, 1)`` — so an answer exists and the range always
    contains it (zero-mass rows answer ``width - 1``, or 0 for a zero draw).
    """
    width = cumulative.shape[1]
    flat = cumulative.ravel()
    base = groups * width
    position = base.copy()
    size = width
    while size > 1:
        half = size >> 1
        position += half * (flat[position + (half - 1)] < draws)
        size -= half
    return position - base


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
    ``P(X_i | sampled prefix)``, zeroes the probabilities outside the query
    range ``R_i``, records the in-range mass, renormalises and samples the next
    prefix value from the *truncated* conditional.  The product of the recorded
    masses is an unbiased estimate of the query density; paths are batched so a
    query costs at most ``num_columns`` model forward passes regardless of the
    number of samples — and a micro-batch of queries shares those passes, see
    :meth:`estimate_selectivity_batch`.

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
        unique prefix once and the results scatter back to the full row set.
        The random draws are consumed before liveness checks, so sampling
        streams are untouched; for models whose ``conditional_probs`` is
        row-exact (:class:`repro.core.made.MADEModel`, the oracle) the
        estimates are bit-identical with dedup on or off.
    """

    def __init__(self, model, seed: int = 0, dedup: bool = True) -> None:
        self.model = model
        self.dedup = dedup
        #: Lifetime row accounting, see :class:`SamplerStats`.
        self.stats = SamplerStats()
        self._rng = np.random.default_rng(seed)
        # Per-position mixed-radix packing of the visible prefix into one
        # int64 (for scalar-sort deduplication); a ``None`` radix marks
        # positions whose radix product overflows, which fall back to
        # row-wise unique.
        self._prefix_pack: dict[int, tuple[np.ndarray, np.ndarray | None, int]] = {}

    def _prefix_packing(self, position: int) -> tuple[np.ndarray, np.ndarray | None, int]:
        """The (prefix column indices, mixed radix or None, number of
        possible prefixes) of one position."""
        packing = self._prefix_pack.get(position)
        if packing is None:
            prefix_columns = np.asarray(self.model.order[:position], dtype=np.int64)
            domain_sizes = self.model.domain_sizes()
            sizes = [int(domain_sizes[column]) for column in prefix_columns]
            packing = (prefix_columns, prefix_radix(sizes), math.prod(sizes))
            self._prefix_pack[position] = packing
        return packing

    def _conditional_groups(
            self, position: int, column: int, codes: np.ndarray,
            packed: np.ndarray, alive_rows: np.ndarray,
            row_queries: np.ndarray | None, num_queries: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
        """Model conditionals of the alive rows, deduplicated by visible
        prefix, and the rows sorted into their ``(prefix, query)`` groups.

        Alive rows agree on every column *not* yet sampled (still zero), so
        rows sharing a visible prefix are equal as whole rows and the model
        sees any one of them per distinct prefix, in sorted-prefix order.
        ``packed`` carries every row's visible prefix as one int64 (see
        :func:`prefix_radix`; the caller keeps it current), so no prefix is
        re-derived from ``codes`` here — only the distinct prefixes' rows
        are gathered, for the model.  ``row_queries`` is the query of every
        alive row, or ``None`` when no query filters this column — rows then
        group by prefix alone.  One scalar sort does both jobs: rows are
        keyed by ``packed_prefix * num_queries + query``, runs of equal keys
        in sorted order are the groups, and because the keys are ordered by
        prefix first, the distinct prefixes are boundaries among the (few)
        group keys.

        Returns ``(representatives, group_prefix, group_query, rows,
        starts)``: ``rows`` lists the alive rows group by group, group ``g``
        owning ``rows[starts[g]:starts[g + 1]]`` (``starts`` ends with the
        row count), and its distribution is
        ``representatives[group_prefix[g]]`` truncated by the mask of query
        ``group_query[g]`` (``None`` when ``row_queries`` is: nothing to
        truncate).  Callers keep working in group space, a contiguous run of
        groups at a time, instead of scattering distributions back to every
        row.  Whole-array numpy throughout — no scalar Python per row.
        """
        stats = self.stats
        stats.rows_submitted += alive_rows.size
        stats.forward_calls += 1
        prefix_columns, radix, span = self._prefix_packing(position)
        if radix is not None:
            keys = packed[alive_rows]
        else:
            # The packed prefix would overflow int64: rank whole prefixes.
            _, keys = np.unique(codes[alive_rows][:, prefix_columns], axis=0,
                                return_inverse=True)
            keys = keys.reshape(-1)
            span = alive_rows.size
        if row_queries is not None:
            if span * num_queries >= _KEY_LIMIT:
                # The fused key would overflow: rank the packed prefixes
                # first (a second sort, on this path only).
                _, keys = np.unique(keys, return_inverse=True)
            keys = keys * num_queries + row_queries
        order = np.argsort(keys)
        keys = keys[order]
        rows = alive_rows[order]
        is_start = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=is_start[1:])
        starts = np.flatnonzero(is_start)
        # Any row of a group represents it (its rows are equal): take the
        # one the sort happened to put first.
        if row_queries is None:
            group_query = None
            group_prefix = np.arange(starts.size)
            first_rows = rows[starts]
        else:
            prefix_keys, group_query = np.divmod(keys[starts], num_queries)
            is_first = np.ones(starts.size, dtype=bool)
            np.not_equal(prefix_keys[1:], prefix_keys[:-1], out=is_first[1:])
            group_prefix = np.cumsum(is_first) - 1
            first_rows = rows[starts[is_first]]
        stats.unique_rows += first_rows.size
        representatives = self.model.conditional_probs(column,
                                                       codes[first_rows])
        return (representatives, group_prefix, group_query, rows,
                np.append(starts, rows.size))

    def _conditional_batch(self, position: int, column: int,
                           codes: np.ndarray,
                           alive_rows: np.ndarray) -> np.ndarray:
        """Per-row conditionals of the alive rows on the dedup-off reference
        walk: every row goes to the model directly."""
        stats = self.stats
        stats.rows_submitted += alive_rows.size
        stats.forward_calls += 1
        stats.unique_rows += alive_rows.size
        return self.model.conditional_probs(column, codes[alive_rows])

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
        last_constrained = np.full(num_queries, -1)
        for position, column in enumerate(self.model.order):
            for query, masks in enumerate(masks_batch):
                if masks[column] is not None:
                    last_constrained[query] = position
        sampled_columns = self.model.order[:int(last_constrained.max()) + 1]

        total_rows = num_queries * num_samples
        codes = np.zeros((total_rows, num_columns), dtype=np.int64)
        weights = np.ones(total_rows)
        alive = np.ones(total_rows, dtype=bool)
        # Each row's visible prefix as one mixed-radix int64 (the empty
        # prefix packs to 0), carried along the deduplicated walk.
        packed = np.zeros(total_rows, dtype=np.int64)
        row_query = np.repeat(np.arange(num_queries), num_samples)
        row_last_constrained = np.repeat(last_constrained, num_samples)

        for position, column in enumerate(sampled_columns):
            # Draw the full-width uniforms for every query before checking
            # liveness so each query's stream is consumed identically
            # regardless of batch composition and dead-row skipping.
            draws = np.concatenate([rng.random((num_samples, 1)) for rng in rngs])
            alive_rows = np.flatnonzero(alive & (row_last_constrained >= position))
            if alive_rows.size == 0:
                continue
            column_masks = [masks[column] for masks in masks_batch]
            mask_matrix = None
            if any(mask is not None for mask in column_masks):
                mask_matrix = np.ones((num_queries, domain_sizes[column]))
                for query, mask in enumerate(column_masks):
                    if mask is not None:
                        mask_matrix[query] = mask

            if self.dedup:
                # Group-space arithmetic: rows sharing a (prefix, query-mask)
                # pair share their truncated distribution, so the mask
                # product, mass, renormalisation and cumulative sum run once
                # per distinct pair; a row only reads its pair's mass and
                # binary-searches its pair's CDF for its own draw.  Rows
                # sorted by pair are contiguous by group, so a tile of groups
                # serves a slice of rows and the five passes share one
                # cache-sized array instead of five full-height ones.  Every
                # one of these operations is row-pure, so the per-row values
                # — and hence the estimates — are bit-identical to the
                # unfused per-row loop below, wherever the tiles are cut.
                representatives, group_prefix, group_query, rows, starts = (
                    self._conditional_groups(
                        position, column, codes, packed, alive_rows,
                        None if mask_matrix is None else row_query[alive_rows],
                        num_queries))
                row_draws = draws[rows, 0]
                mass = np.empty(rows.size)
                sampled = np.empty(rows.size, dtype=np.int64)
                num_groups = group_prefix.size
                tile_groups = max(1, _TILE_ELEMENTS // domain_sizes[column])
                for low in range(0, num_groups, tile_groups):
                    high = min(low + tile_groups, num_groups)
                    tile = representatives[group_prefix[low:high]]
                    if group_query is not None:
                        tile *= mask_matrix[group_query[low:high]]
                    tile_mass = tile.sum(axis=1)
                    tile /= np.where(tile_mass > 0.0, tile_mass, 1.0)[:, None]
                    np.cumsum(tile, axis=1, out=tile)
                    # Guard against rounding: force the last value to 1.
                    tile[:, -1] = 1.0
                    tile_rows = slice(starts[low], starts[high])
                    groups = np.repeat(np.arange(high - low),
                                       np.diff(starts[low:high + 1]))
                    mass[tile_rows] = tile_mass[groups]
                    sampled[tile_rows] = _search_cumulative(
                        tile, groups, row_draws[tile_rows])
                weights[rows] *= mass
                survived = mass > 0.0
                alive[rows] = survived
                codes[rows[survived], column] = sampled[survived]
                if self._prefix_packing(position + 1)[1] is not None:
                    # Horner step of the mixed radix: the key every row
                    # carries into the next position.
                    packed[rows] = (packed[rows] * domain_sizes[column]
                                    + sampled)
                continue

            probs = self._conditional_batch(position, column, codes, alive_rows)
            # Truncate, weigh and sample in row chunks: every operation is
            # row-independent, and chunking keeps the temporaries of large
            # micro-batches inside the CPU caches.
            for start in range(0, alive_rows.size, _ROW_CHUNK):
                rows = alive_rows[start:start + _ROW_CHUNK]
                chunk = probs[start:start + _ROW_CHUNK]
                if mask_matrix is not None:
                    chunk = chunk * mask_matrix[row_query[rows]]
                mass = chunk.sum(axis=1)
                weights[rows] *= mass
                survived = mass > 0.0
                alive[rows] = survived
                # Renormalise only the surviving rows and sample the next value.
                safe_mass = np.where(survived, mass, 1.0)
                normalised = chunk / safe_mass[:, None]
                sampled = _sample_rows_from_probs(normalised, draws[rows])
                codes[rows[survived], column] = sampled[survived]

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
