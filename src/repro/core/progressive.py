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
for a cardinality at most about ``1e-16·N`` rows.

Prefix deduplication (``dedup=True``, the default) changes no bit at all.
Every row carries its sampled prefix as one mixed-radix int64
(:func:`prefix_radix` — the key the serving layer's conditional cache
stores under), extended by one Horner step per sampled column.  Per
column, one scalar sort of those keys lists the rows prefix by prefix and
the model answers once per distinct prefix; the dedup-off reference walk
gives every row its own answer, and both run the same per-row draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SamplerStats", "ProgressiveSampler", "UniformRegionSampler",
           "enumerate_region", "prefix_radix"]

#: Packed prefix keys stay below this, with headroom to the int64 limit.
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


def _admitted_runs(masks: list[np.ndarray | None],
                   domain: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query's admitted codes as maximal runs ``[lo, hi]`` of its mask.

    Returns ``(lo, hi, count)``: query ``q``'s runs are
    ``(lo[q, r], hi[q, r])`` for ``r < count[q]``, in code order.  A
    wildcard is one run over the whole domain.  Unused slots — all of an
    empty mask's — hold the empty run ``(1, 0)``, whose mass
    ``F(0) − F(0)`` is exactly zero.
    """
    num_queries = len(masks)
    padded = np.zeros((num_queries, domain + 2), dtype=bool)
    for query, mask in enumerate(masks):
        padded[query, 1:-1] = True if mask is None else mask
    # Each run's first code and the code just past its last, alternating
    # along every row.
    owner, edges = np.nonzero(padded[:, 1:] != padded[:, :-1])
    owner = owner[::2]
    count = np.bincount(owner, minlength=num_queries)
    slot = np.arange(owner.size) - (np.cumsum(count) - count)[owner]
    bounds = np.zeros((2, num_queries, max(1, int(count.max()))), dtype=np.int64)
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


def _pick_runs(flat: np.ndarray, base: np.ndarray, queries: np.ndarray,
               run_lo: np.ndarray, run_hi: np.ndarray, draws: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows whose query admits several runs: the run ``(lo, hi)`` each
    searches, the mass summed in run order, and the offset of the target
    above ``F(lo − 1)`` (``inf``: search to the run's last positive code)."""
    running = np.zeros(base.size)
    for run in range(run_lo.shape[1]):
        running += _run_mass(flat, base, run_lo[queries, run],
                             run_hi[queries, run])[2]
    threshold = draws * running
    chosen = np.zeros(base.size, dtype=np.int64)
    offset = np.full(base.size, np.inf)
    # The same sums again, run by run: through the last run, the total.
    running[:] = 0.0
    for run in range(run_lo.shape[1]):
        through = _run_mass(flat, base, run_lo[queries, run],
                            run_hi[queries, run])[2]
        unpicked = np.isinf(offset)
        # Until it picks, a row holds the last run with positive mass.
        chosen[unpicked & (through > 0.0)] = run
        through += running
        pick = unpicked & (through > threshold)
        offset[pick] = threshold[pick] - running[pick]
        running = through
    return run_lo[queries, chosen], run_hi[queries, chosen], running, offset


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
    probability, and no earlier ``j`` of the row qualifies: all rows
    binary-search one window as wide as the widest run, in lockstep.  A
    zero-mass row samples a code nobody reads.  A query with several runs
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
    target = np.minimum(lower + offset, np.nextafter(upper, 0.0))
    window = max(1, int((run_hi - run_lo).max()) + 1)
    # The window starts at the row's run, or as far right as fits the row.
    position = base + np.minimum(lo, width - window)
    while window > 1:
        half = window >> 1
        position += half * (flat[position + (half - 1)] <= target)
        window -= half
    return position - base, mass


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

    def _conditional_cdfs(
            self, position: int, column: int, codes: np.ndarray,
            packed: np.ndarray, alive_rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The model's conditionals of the alive rows as CDFs, one per
        distinct visible prefix (one per row on the dedup-off walk).

        Alive rows agree on every column *not* yet sampled (still zero), so
        rows sharing a visible prefix are equal as whole rows and the model
        sees any one of them per distinct prefix, in sorted-prefix order.
        One scalar sort of the carried keys ``packed`` (see
        :func:`prefix_radix`) finds the distinct prefixes; prefixes too wide
        to pack are ranked row-wise by ``np.unique(axis=0)``.  The model's
        answer is the caller's to overwrite: it becomes the CDFs in place.

        Returns ``(cdf, row_cdf, rows)``: ``rows`` lists the alive rows
        (sorted by prefix when deduplicating), and ``rows[i]`` draws from
        ``cdf[row_cdf[i]]``.
        """
        stats = self.stats
        stats.rows_submitted += alive_rows.size
        stats.forward_calls += 1
        if self.dedup:
            prefix_columns, radix, _ = self._prefix_packing(position)
            if radix is not None:
                keys = packed[alive_rows]
            else:
                _, keys = np.unique(codes[alive_rows][:, prefix_columns], axis=0,
                                    return_inverse=True)
                keys = keys.reshape(-1)
            order = np.argsort(keys)
            keys = keys[order]
            rows = alive_rows[order]
            is_first = np.ones(keys.size, dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=is_first[1:])
            row_cdf = np.cumsum(is_first) - 1
            # Any row of a prefix represents it (its rows are equal): take
            # the one the sort happened to put first.
            shown = rows[is_first]
        else:
            rows = shown = alive_rows
            row_cdf = np.arange(rows.size)
        stats.unique_rows += shown.size
        cdf = self.model.conditional_probs(column, codes[shown])
        return np.cumsum(cdf, axis=1, out=cdf), row_cdf, rows

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
        # Column-major: a sampled column is one contiguous scatter.
        codes = np.zeros((total_rows, num_columns), dtype=np.int64, order="F")
        weights = np.ones(total_rows)
        alive = np.ones(total_rows, dtype=bool)
        # Each row's visible prefix as one mixed-radix int64 (the empty
        # prefix packs to 0), carried along the deduplicated walk.
        packed = np.zeros(total_rows, dtype=np.int64)
        row_query = np.repeat(np.arange(num_queries), num_samples)

        for position, column in enumerate(sampled_columns):
            # Draw the full-width uniforms for every query before checking
            # liveness so each query's stream is consumed identically
            # regardless of batch composition and dead-row skipping.
            draws = np.concatenate([rng.random(num_samples) for rng in rngs])
            # A finished query's rows leave the walk, their weights final.
            for query in np.flatnonzero(last_constrained == position - 1):
                alive[query * num_samples:(query + 1) * num_samples] = False
            if not alive.any():
                continue
            cdf, row_cdf, rows = self._conditional_cdfs(
                position, column, codes, packed, np.flatnonzero(alive))
            draws = draws[rows]
            sampled, mass = _truncated_draws(
                cdf, row_cdf, row_query[rows],
                _admitted_runs([masks[column] for masks in masks_batch],
                               domain_sizes[column]),
                draws)
            weights[rows] *= mass
            survived = mass > 0.0
            alive[rows] = survived
            # A dead row's code is never read again.
            codes[:, column][rows] = sampled
            if self._prefix_packing(position + 1)[1] is not None:
                # Horner step of the mixed radix: the key every row carries
                # into the next position.
                packed[rows] = packed[rows] * domain_sizes[column] + sampled

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
