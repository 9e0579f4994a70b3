"""Micro-batched estimation engine for serving many queries at once.

:class:`EstimationEngine` accepts queries, groups them into micro-batches and
dispatches each batch through a single batched progressive-sampling run (one
model forward pass per column per round, shared by every query in the batch —
see :meth:`repro.core.progressive.ProgressiveSampler.estimate_selectivity_batch`),
optionally in front of a conditional-CDF cache
(:class:`repro.serve.cache.CachedConditionalModel`).  Estimators that do not
expose an autoregressive model (the histogram/sampling/KDE baselines) are
still accepted: their queries are answered one at a time through the plain
:meth:`repro.estimators.base.CardinalityEstimator.estimate_selectivity` path,
so the engine can front any estimator in the package.

Every query is assigned a deterministic per-query random stream derived from
``(seed, query_index)``, which makes the returned estimates independent of the
micro-batch boundaries: running a workload with ``batch_size=64`` or
``batch_size=1`` produces the same numbers (up to float round-off of skipped
wildcard columns).  :func:`run_sequential` exploits this to provide the
apples-to-apples unbatched baseline every serving path is tested against.

Multi-branch :class:`~repro.query.predicates.DNFQuery` submissions expand by
inclusion–exclusion into signed conjunctive sampler terms (each with its own
``(seed, query_index, term)`` child stream, see :func:`term_rng`) that pack
into the same batched sampler run as everything else; conjunctive queries and
single-branch disjunctions keep their original streams bit for bit.

Latency is accounted end-to-end: every submission is stamped with an arrival
time from the engine's ``clock``, so each result carries its queueing delay
(submission to dispatch start) and its end-to-end latency (submission to
dispatch completion) alongside the batch's dispatch latency.  A
``flush_after_ms`` deadline bounds the queueing delay of partially filled
batches — :meth:`EstimationEngine.tick` dispatches any batch whose oldest
query has waited past the bound.  Inject a :class:`VirtualClock` to script
the timeline deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.progressive import ProgressiveSampler, validate_num_samples
from ..query.predicates import DNFQuery, Query, dnf_expansion
from .cache import CachedConditionalModel, PackedConditionalCache
from .report import Rates, plain_dict

__all__ = ["EstimateResult", "BatchRecord", "EngineStats", "EngineReport",
           "EstimationEngine", "NotRowExactError", "VirtualClock",
           "run_sequential", "query_rng", "term_rng"]


class NotRowExactError(TypeError):
    """An engine was handed a model whose conditionals are not row-exact.

    The engine regroups rows freely — micro-batches, prefix deduplication,
    the conditional cache — and promises estimates that depend only on
    ``(seed, global index, num_samples)``.  That holds only for a model
    whose output row is a pure function of its input row in any batch
    (``row_exact = True``, see
    :class:`repro.core.made.AutoregressiveModel`).
    """


class VirtualClock:
    """Manually advanced clock for deterministic latency and timeout tests.

    Engines and routers accept any zero-argument callable returning seconds
    (``time.perf_counter`` by default).  A virtual clock only moves when
    :meth:`advance` is called, so queueing delays and flush deadlines fire at
    exactly the ticks a test scripts — the golden fixtures stay byte-stable
    no matter how slow or noisy the host is.

    With a ``base`` clock the virtual offset rides on top of real time:
    dispatch latencies stay genuine wall-clock measurements while
    inter-arrival gaps are injected by :meth:`advance` — how the
    ``serve_stream`` benchmark paces a whole workload's arrivals in
    milliseconds of wall time instead of sleeping through them.
    """

    def __init__(self, start: float = 0.0, base=None) -> None:
        self.offset = float(start)
        #: Optional underlying real clock (``None`` = fully virtual time).
        self.base = base

    def __call__(self) -> float:
        """The current time: the advanced offset, plus ``base()`` if set."""
        real = self.base() if self.base is not None else 0.0
        return self.offset + real

    def advance(self, seconds: float) -> float:
        """Move the clock forward; returns the new time (never backwards)."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock backwards ({seconds})")
        self.offset += float(seconds)
        return self()


def query_rng(seed: int, query_index: int) -> np.random.Generator:
    """The deterministic random stream of one query in a served workload.

    Derived from ``(seed, query_index)`` alone, so the stream — and therefore
    the query's estimate — does not depend on which micro-batch the query
    lands in.
    """
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(query_index,))
    return np.random.default_rng(sequence)


def term_rng(seed: int, query_index: int, term: int) -> np.random.Generator:
    """The random stream of one inclusion–exclusion term of a served DNF query.

    Multi-branch disjunctions expand into several conjunctive sampler terms
    (see :func:`repro.query.predicates.dnf_expansion`); each term draws from
    its own child stream keyed ``(seed, query_index, term)`` so the expansion
    is deterministic and — like :func:`query_rng` — independent of micro-batch
    boundaries, routing, and whatever other queries dispatch alongside.  The
    plain ``(seed, query_index)`` streams of conjunctive queries are untouched.
    """
    sequence = np.random.SeedSequence(entropy=seed,
                                      spawn_key=(query_index, term))
    return np.random.default_rng(sequence)


def _sampler_plan(query: "Query | DNFQuery", table, seed: int, index: int):
    """Masks, rngs and signs of one query's progressive-sampler dispatch.

    A conjunctive query — or a single-branch DNF query, which is semantically
    the same conjunction — produces exactly one unsigned term driven by
    :func:`query_rng`, the pre-refactor stream: conjunctive traffic and
    single-branch disjunctions are bit-identical to what the engine served
    before DNF existed.  A multi-branch DNF query expands by
    inclusion–exclusion into ``2^k − 1`` signed conjunctive terms, each with
    its own :func:`term_rng` stream; the caller sums ``sign · estimate`` over
    the terms to recover the disjunction's selectivity.
    """
    if isinstance(query, DNFQuery):
        if len(query.branches) > 1:
            terms = dnf_expansion(query)
            masks = [term.column_masks(table) for _, term in terms]
            rngs = [term_rng(seed, index, position)
                    for position in range(len(terms))]
            return masks, rngs, [sign for sign, _ in terms]
        query = query.branches[0]
    return [query.column_masks(table)], [query_rng(seed, index)], [1]


@dataclass(frozen=True)
class EstimateResult:
    """Per-query output of the engine.

    ``queue_wait_ms`` is the time the query sat submitted-but-undispatched in
    its micro-batch; ``e2e_ms`` is the end-to-end latency from submission to
    dispatch completion (``queue_wait_ms`` plus the batch's dispatch
    latency) — the latency a caller of the serving stack actually observes.
    """

    index: int
    query: Query
    selectivity: float
    cardinality: float
    batch_index: int
    queue_wait_ms: float = 0.0
    e2e_ms: float = 0.0


@dataclass(frozen=True)
class BatchRecord:
    """Latency accounting of one dispatched micro-batch.

    ``latency_ms`` covers the dispatch alone; ``queue_wait_ms`` holds each
    batched query's submission-to-dispatch-start wait (in batch order), so a
    query's end-to-end latency is ``queue_wait_ms[i] + latency_ms``.
    ``flush_reason`` names why the batch left: ``"fill"`` (it reached
    ``batch_size``), ``"deadline"`` (its oldest query waited past
    ``flush_after_ms``), ``"idle"`` (the asyncio flush driver found the
    event loop idle), ``"admission"`` (a full replica group's ``block``
    overflow forced it out) or ``"flush"`` (an explicit flush).
    """

    batch_index: int
    num_queries: int
    latency_ms: float
    queue_wait_ms: tuple[float, ...] = ()
    flush_reason: str = "flush"

    @property
    def timeout_flush(self) -> bool:
        """Whether the flush deadline (``flush_after_ms``) dispatched the batch."""
        return self.flush_reason == "deadline"

    @property
    def max_e2e_ms(self) -> float:
        """Worst end-to-end latency in the batch: oldest wait plus dispatch."""
        return max(self.queue_wait_ms, default=0.0) + self.latency_ms


@dataclass
class EngineStats(Rates):
    """Aggregate throughput and cache statistics of a served workload."""

    num_queries: int = 0
    num_batches: int = 0
    elapsed_s: float = 0.0
    num_samples: int = 0
    batch_size: int = 0
    #: Micro-batches of this scope dispatched by the flush deadline rather
    #: than by filling up or an explicit flush.
    timeout_flushes: int = 0
    #: Alive sample-path rows that needed a model conditional at some column.
    rows_submitted: int = 0
    #: Rows left after the sampler's prefix deduplication (what the cache or
    #: model actually received); equals ``rows_submitted`` only on the
    #: :func:`run_sequential` reference walk, which does not deduplicate.
    unique_rows: int = 0
    #: Rows pushed through the network itself (after dedup *and* cache hits).
    rows_evaluated: int = 0
    #: ``conditional_probs`` calls issued by the progressive sampler.
    forward_calls: int = 0
    cache: dict | None = None

    @classmethod
    def of(cls, batches: list[BatchRecord], **fields) -> EngineStats:
        """Stats of one scope's batch records; ``fields`` give the rest.

        Query, batch and timeout-flush counts and the summed dispatch time
        come from the records, so every engine counts them the same way.
        """
        return cls(num_queries=sum(batch.num_queries for batch in batches),
                   num_batches=len(batches),
                   elapsed_s=sum(batch.latency_ms for batch in batches) / 1000.0,
                   timeout_flushes=sum(batch.timeout_flush for batch in batches),
                   **fields)

    def as_dict(self) -> dict:
        """Plain-dict form of the stats, ready for JSON serialisation."""
        return plain_dict(self, "queries_per_second", "dedup_ratio")


@dataclass
class EngineReport:
    """Everything the engine knows after serving a workload."""

    results: list[EstimateResult] = field(default_factory=list)
    batches: list[BatchRecord] = field(default_factory=list)
    stats: EngineStats = field(default_factory=EngineStats)

    @property
    def selectivities(self) -> np.ndarray:
        """Per-query selectivity estimates, in submission-index order."""
        return np.asarray([result.selectivity for result in self.results])

    @property
    def cardinalities(self) -> np.ndarray:
        """Per-query cardinality estimates, in submission-index order."""
        return np.asarray([result.cardinality for result in self.results])


class EstimationEngine:
    """Batched, cached front-end over a cardinality estimator.

    Parameters
    ----------
    estimator:
        Any :class:`~repro.estimators.base.CardinalityEstimator`.  Estimators
        carrying an autoregressive ``model`` (Naru) are served through the
        batched progressive sampler — *always* progressive sampling, never
        the small-region enumeration that ``NaruEstimator``'s ``method="auto"``
        may pick for a single query (exact enumeration does not batch, so a
        served small-region query gets the sampled estimate instead of the
        enumerated one).  Everything else falls back to per-query dispatch.
        A model that declares ``row_exact = False`` (architecture A's
        :class:`~repro.core.column_nets.ColumnNetworkModel`) is refused with
        :class:`NotRowExactError`: regrouping its rows would move its bits.
    batch_size:
        Maximum number of queries packed into one model dispatch.
    num_samples:
        Progressive sample paths per query; defaults to the estimator's
        configured ``progressive_samples`` (or 1000).  Must be a positive
        integer (``ValueError`` otherwise).
    use_cache:
        Memoise per-prefix conditionals in a store shared across batches,
        the vectorized, generationally evicted
        :class:`~repro.serve.cache.PackedConditionalCache`.
    cache_entries:
        Store capacity (distributions); ignored when ``use_cache`` is false
        or ``cache`` is given.  Size it above the distinct-prefix count of a
        workload — an undersized store thrashes (every batch evicts the
        entries the next one needs).
    seed:
        Base seed of the per-query random streams, see :func:`query_rng`.
    result_sink:
        Optional callable invoked with each :class:`EstimateResult` the
        moment its micro-batch dispatches.  The fleet router uses this to
        feed its exact-match result cache as answers are computed, so a
        repeat of an already dispatched query can hit the cache inside the
        same workload scope.
    cache:
        Optional pre-built :class:`~repro.serve.cache.PackedConditionalCache`
        to use instead of a private one (``cache_entries`` is then ignored).
        Replica engines over the same model share one group-wide cache this
        way — their conditionals are identical, so pooling beats fragmenting
        the budget.
    batch_hook:
        Optional callable invoked with each :class:`BatchRecord` right after
        its micro-batch dispatches.  The adaptive batch controller
        (:class:`repro.serve.router.AdaptiveBatchController`) observes
        latencies through this hook and retunes ``batch_size`` between
        dispatches; mutating ``batch_size`` from the hook affects when the
        *next* micro-batch fills, never the numbers it computes.
        Also assignable after construction via the ``batch_hook`` attribute.
    clock:
        Zero-argument callable returning seconds (``time.perf_counter`` by
        default).  Every submission is stamped with its arrival time from
        this clock, and queue waits / dispatch latencies / flush deadlines
        are measured against it — inject a :class:`VirtualClock` to script
        time deterministically in tests.
    flush_after_ms:
        Flush deadline: a partially filled micro-batch is dispatched by
        :meth:`tick` once its *oldest* query has waited this long, bounding
        queueing delay independently of ``batch_size``.  ``None`` (default)
        means batches wait indefinitely for a fill or an explicit flush.
        Deadlines only fire when :meth:`tick` is called — the routers tick
        after every submission, and the asyncio client runs a wall-clock
        driver — so timeout flushes are observable, deterministic events,
        not background races.
    """

    def __init__(self, estimator, *, batch_size: int = 32,
                 num_samples: int | None = None, use_cache: bool = True,
                 cache_entries: int = 262144, seed: int = 0,
                 result_sink=None,
                 cache: PackedConditionalCache | None = None,
                 batch_hook=None, clock=None,
                 flush_after_ms: float | None = None) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if flush_after_ms is not None and flush_after_ms <= 0:
            raise ValueError(f"flush_after_ms must be positive, got "
                             f"{flush_after_ms}")
        self.estimator = estimator
        self.batch_size = batch_size
        self.seed = seed
        self.clock = clock if clock is not None else time.perf_counter
        self.flush_after_ms = flush_after_ms
        self._result_sink = result_sink
        #: Per-dispatch observer, see the ``batch_hook`` parameter above.
        self.batch_hook = batch_hook
        if num_samples is None:
            config = getattr(estimator, "config", None)
            num_samples = getattr(config, "progressive_samples", None) or 1000
        validate_num_samples(num_samples)
        self.num_samples = num_samples

        model = getattr(estimator, "model", None)
        self._batched = model is not None and all(
            hasattr(model, attribute)
            for attribute in ("conditional_probs", "domain_sizes", "order"))
        self._cache: PackedConditionalCache | None = None
        self._sampler: ProgressiveSampler | None = None
        self._wrapper: CachedConditionalModel | None = None
        if self._batched:
            if not getattr(model, "row_exact", True):
                raise NotRowExactError(
                    f"{type(model).__name__} is not row-exact: its "
                    f"conditionals change bits with batch composition, so an "
                    f"engine cannot serve it deterministically")
            if use_cache:
                # The deduplicating sampler hands the wrapper one row per
                # distinct prefix, which it keys the packed store on directly.
                self._cache = (cache if cache is not None
                               else PackedConditionalCache(cache_entries))
                self._wrapper = CachedConditionalModel(model, cache=self._cache)
                model = self._wrapper
            self._sampler = ProgressiveSampler(model, seed=seed)
        self._sampler_snapshot = (0, 0, 0)
        self._wrapper_rows_snapshot = 0

        self._pending: list[tuple[int, Query, float]] = []
        self._next_index = 0
        self._results: list[EstimateResult] = []
        self._batches: list[BatchRecord] = []

    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> PackedConditionalCache | None:
        """The conditional store in front of the model (``None`` when off)."""
        return self._cache

    @property
    def cache_stats(self) -> dict | None:
        """Hit/miss counters of the conditional cache (``None`` when off)."""
        return self._cache.stats.as_dict() if self._cache is not None else None

    @property
    def pending(self) -> int:
        """Number of submitted queries not yet dispatched in a micro-batch.

        The admission controller of a :class:`repro.serve.router.ReplicaGroup`
        sums this over its replicas to enforce ``max_pending``.
        """
        return len(self._pending)

    def submit(self, query: Query, index: int | None = None) -> None:
        """Enqueue one query; dispatches when a micro-batch fills up.

        ``index`` overrides the query's position in the workload, which keys
        its deterministic random stream (see :func:`query_rng`).  The fleet
        router passes the *global* submission index here, so a query's
        estimate does not depend on which model it was routed to alongside —
        only on ``(seed, workload index)``.  Left at ``None``, the engine
        numbers queries itself, exactly as before.
        """
        if index is None:
            index = self._next_index
            self._next_index += 1
        else:
            self._next_index = max(self._next_index, index + 1)
        arrival = self.clock()
        self._pending.append((index, query, arrival))
        if len(self._pending) >= self.batch_size:
            # A fill dispatches at the arrival that caused it, so that query
            # (every query, at batch_size=1) waits exactly 0.0 ms.
            self._dispatch(reason="fill", start=arrival)

    def flush(self, reason: str = "flush") -> None:
        """Dispatch any partially filled micro-batch.

        ``reason`` is recorded as the batch's
        :attr:`BatchRecord.flush_reason` (``"flush"``, ``"idle"`` or
        ``"admission"`` — the callers that force a batch out say why).
        """
        if self._pending:
            self._dispatch(reason=reason)

    @property
    def flush_deadline(self) -> float | None:
        """Clock time the pending micro-batch must dispatch by (``None`` = no bound).

        ``None`` while nothing is pending or no ``flush_after_ms`` is
        configured; otherwise the oldest pending query's arrival time plus
        the flush bound, in the engine clock's seconds.
        """
        if self.flush_after_ms is None or not self._pending:
            return None
        return self._pending[0][2] + self.flush_after_ms / 1000.0

    def tick(self, now: float | None = None) -> float | None:
        """Dispatch the pending micro-batch if its flush deadline has passed.

        Args:
            now: The current clock reading; ``None`` reads the engine clock.

        Returns:
            The engine's (new) flush deadline — ``None`` when nothing is
            pending or no deadline is configured — so callers scheduling the
            next tick know how long they may sleep.
        """
        deadline = self.flush_deadline
        if deadline is None:
            return None
        if now is None:
            now = self.clock()
        if now >= deadline:
            self._dispatch(reason="deadline")
            return None
        return deadline

    def reset(self) -> None:
        """Start a fresh workload scope: drop results and batch records.

        Per-query indices restart at zero; only the conditional cache
        carries over (that is what makes repeat workloads faster).

        Raises
        ------
        RuntimeError
            If submitted queries are still pending — flush them first,
            otherwise their results would be silently dropped.
        """
        if self._pending:
            raise RuntimeError(
                f"{len(self._pending)} submitted queries are still pending; "
                "call flush() and report() before starting a new scope")
        self._next_index = 0
        self._results = []
        self._batches = []
        # Row-accounting counters are lifetime totals on the sampler and the
        # cache wrapper; snapshot them so the next report covers this scope.
        if self._sampler is not None:
            self._sampler_snapshot = self._sampler.stats.snapshot()
        if self._wrapper is not None:
            self._wrapper_rows_snapshot = self._wrapper.rows_evaluated

    def run(self, queries: list[Query]) -> EngineReport:
        """Serve a whole workload and return per-query results plus stats.

        Each call is its own workload scope: per-query indices restart at
        zero (so replaying the same workload reproduces the same estimates)
        and the report covers only this call.  Only the conditional cache
        carries over, which is what makes repeat workloads faster.

        Raises
        ------
        RuntimeError
            If queries submitted through :meth:`submit` are still pending —
            finish the streaming scope (``flush()`` + ``report()``) first,
            otherwise their results would be silently dropped (the guard
            lives in :meth:`reset`).
        """
        self.reset()
        for query in queries:
            self.submit(query)
        self.flush()
        return self.report()

    def scope_counters(self) -> dict[str, int]:
        """Row-accounting deltas of the current workload scope.

        The fused hot path's counters (on the sampler and the cache wrapper)
        are lifetime totals; this returns the deltas since the last
        :meth:`reset` — the numbers :meth:`report` folds into
        :class:`EngineStats`, exported separately so cross-process fleet
        workers can ship them up the pipe.
        """
        rows_submitted = unique_rows = forward_calls = rows_evaluated = 0
        if self._sampler is not None:
            base = self._sampler_snapshot
            current = self._sampler.stats.snapshot()
            rows_submitted = current[0] - base[0]
            unique_rows = current[1] - base[1]
            forward_calls = current[2] - base[2]
            if self._wrapper is not None:
                rows_evaluated = (self._wrapper.rows_evaluated
                                  - self._wrapper_rows_snapshot)
            else:
                # No cache in front: every deduplicated row hits the model.
                rows_evaluated = unique_rows
        return {"rows_submitted": rows_submitted,
                "unique_rows": unique_rows,
                "rows_evaluated": rows_evaluated,
                "forward_calls": forward_calls}

    def report(self) -> EngineReport:
        """Snapshot of everything served so far (results in submission order)."""
        stats = EngineStats.of(
            self._batches,
            # Per-query estimators draw no sample paths.
            num_samples=self.num_samples if self._batched else 0,
            batch_size=self.batch_size, cache=self.cache_stats,
            **self.scope_counters())
        results = sorted(self._results, key=lambda result: result.index)
        return EngineReport(results=results, batches=list(self._batches),
                            stats=stats)

    # ------------------------------------------------------------------ #
    def _dispatch(self, *, reason: str, start: float | None = None) -> None:
        batch, self._pending = self._pending, []
        if start is None:
            start = self.clock()
        selectivities = self._execute(batch)
        self._complete(batch, selectivities, start=start,
                       latency_ms=(self.clock() - start) * 1000.0,
                       reason=reason)

    def _execute(self, batch: list[tuple[int, Query, float]]):
        """Answer one micro-batch: per-query selectivities, in batch order."""
        if self._batched:
            return self._dispatch_batched(batch)
        return [self.estimator.estimate_selectivity(query)
                for _, query, _ in batch]

    def _complete(self, batch: list[tuple[int, Query, float]], selectivities,
                  *, start: float, latency_ms: float, reason: str) -> None:
        """Account for one executed micro-batch: results, record, observers.

        ``start`` is the clock reading the execution began at and
        ``latency_ms`` how long it took.  Split from :meth:`_execute` because
        *where* a batch executes is the only thing a cross-process engine
        changes (:mod:`repro.serve.procfleet` ships the batch to a worker and
        calls this when the reply arrives); the accounting is this one copy.
        """
        batch_index = len(self._batches)
        queue_waits = tuple(max(0.0, (start - arrival) * 1000.0)
                            for _, _, arrival in batch)
        num_rows = self.estimator.num_rows
        for (index, query, _), wait_ms, selectivity in zip(batch, queue_waits,
                                                           selectivities):
            selectivity = float(min(max(selectivity, 0.0), 1.0))
            result = EstimateResult(
                index=index, query=query, selectivity=selectivity,
                cardinality=selectivity * num_rows, batch_index=batch_index,
                queue_wait_ms=wait_ms, e2e_ms=wait_ms + latency_ms)
            self._results.append(result)
            if self._result_sink is not None:
                self._result_sink(result)
        record = BatchRecord(batch_index=batch_index, num_queries=len(batch),
                             latency_ms=latency_ms, queue_wait_ms=queue_waits,
                             flush_reason=reason)
        self._batches.append(record)
        if self.batch_hook is not None:
            self.batch_hook(record)

    def _dispatch_batched(self, batch: list[tuple[int, Query, float]]) -> np.ndarray:
        fitted = getattr(self.estimator, "_fitted", True)
        if not fitted:
            raise RuntimeError("call fit() on the estimator before serving")
        table = self.estimator.table
        # Each query contributes one sampler term (conjunctive) or its signed
        # inclusion–exclusion expansion (multi-branch DNF); all terms of the
        # whole micro-batch pack into ONE batched sampler run, so DNF
        # expansions ride the same fused prefix-dedup/packed-cache pass as
        # plain conjunctions.
        masks_batch: list = []
        rngs: list = []
        slots: list[tuple[int, list[int]]] = []
        for index, query, _ in batch:
            masks, query_rngs, signs = _sampler_plan(query, table,
                                                     self.seed, index)
            slots.append((len(masks_batch), signs))
            masks_batch.extend(masks)
            rngs.extend(query_rngs)
        raw = self._sampler.estimate_selectivity_batch(
            masks_batch, num_samples=self.num_samples, rngs=rngs)
        return np.array([
            float(np.clip(sum(sign * raw[start + offset]
                              for offset, sign in enumerate(signs)), 0.0, 1.0))
            for start, signs in slots])


class _UnfusedConditionals:
    """Adapter pinning a model to its pre-fusion reference path.

    Models exposing ``conditional_probs_unfused`` (see
    :class:`repro.core.made.AutoregressiveModel`) answer each conditional by
    running the *full* forward pass and slicing out one column — the serving
    path as it existed before the fused column-sliced kernel.  The sequential
    baseline routes through it so the tests compare the fused stack against
    what it replaced; the two paths are bit-identical in value
    (the fast path's defining property), so drift between the baselines stays
    exactly zero.  Models without the reference method are used as-is.
    """

    def __init__(self, model) -> None:
        self.model = model
        self.order = list(model.order)
        self._conditional = getattr(model, "conditional_probs_unfused",
                                    model.conditional_probs)

    def domain_sizes(self) -> list[int]:
        return self.model.domain_sizes()

    def conditional_probs(self, column_index: int, codes: np.ndarray) -> np.ndarray:
        return self._conditional(column_index, codes)


def run_sequential(estimator, queries: list[Query], *,
                   num_samples: int | None = None, seed: int = 0,
                   indices: list[int] | None = None) -> EngineReport:
    """Unbatched, uncached, unfused baseline: one full-forward sampler pass
    per query.

    Uses the same deterministic per-query streams as
    :class:`EstimationEngine`, so the estimates match the batched engine's
    bit for bit (the fused stack is value-identical to this reference) while
    paying the full pre-optimisation cost: no micro-batching, no conditional
    cache, no prefix deduplication, and every conditional runs the whole
    network (:class:`_UnfusedConditionals`).  ``indices`` overrides the
    per-query workload indices (the fleet baseline passes each query's global
    submission index so the streams match the routed engines').
    """
    model = getattr(estimator, "model", None)
    if model is None:
        raise TypeError("run_sequential requires an estimator with an "
                        "autoregressive model (e.g. NaruEstimator)")
    if num_samples is None:
        config = getattr(estimator, "config", None)
        num_samples = getattr(config, "progressive_samples", None) or 1000
    validate_num_samples(num_samples)
    if indices is None:
        indices = list(range(len(queries)))
    elif len(indices) != len(queries):
        raise ValueError("indices and queries must have the same length")
    # The baseline is deliberately unfused: no prefix deduplication, every
    # alive sample-path row pays a full-forward model evaluation.
    sampler = ProgressiveSampler(_UnfusedConditionals(model), seed=seed,
                                 dedup=False)
    table = estimator.table
    results: list[EstimateResult] = []
    batches: list[BatchRecord] = []
    for position, (index, query) in enumerate(zip(indices, queries)):
        start = time.perf_counter()
        # One query at a time, but a multi-branch DNF query still needs all
        # its signed inclusion–exclusion terms (per-term streams identical to
        # the batched engine's, so DNF drift stays exactly zero too).
        masks, rngs, signs = _sampler_plan(query, table, seed, index)
        raw = sampler.estimate_selectivity_batch(
            masks, num_samples=num_samples, rngs=rngs)
        selectivity = float(sum(sign * value
                                for sign, value in zip(signs, raw)))
        latency_ms = (time.perf_counter() - start) * 1000.0
        selectivity = float(min(max(selectivity, 0.0), 1.0))
        # Sequential serving dispatches on arrival: queue wait is zero and the
        # end-to-end latency is the dispatch latency itself.
        results.append(EstimateResult(index=index, query=query,
                                      selectivity=selectivity,
                                      cardinality=selectivity * estimator.num_rows,
                                      batch_index=position,
                                      queue_wait_ms=0.0, e2e_ms=latency_ms))
        batches.append(BatchRecord(batch_index=position, num_queries=1,
                                   latency_ms=latency_ms,
                                   queue_wait_ms=(0.0,), flush_reason="fill"))
    stats = EngineStats.of(batches, num_samples=num_samples, batch_size=1,
                           rows_submitted=sampler.stats.rows_submitted,
                           unique_rows=sampler.stats.unique_rows,
                           rows_evaluated=sampler.stats.unique_rows,
                           forward_calls=sampler.stats.forward_calls)
    return EngineReport(results=results, batches=batches, stats=stats)
