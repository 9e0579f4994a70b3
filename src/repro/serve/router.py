"""Routing table-qualified queries across a replicated fleet of engines.

:class:`FleetRouter` is the serving half of multi-model estimation.  It fronts
a :class:`repro.serve.registry.ModelRegistry` with one
:class:`ReplicaGroup` per registered relation — N independently serving
:class:`~repro.serve.engine.EstimationEngine` replicas over the relation's one
trained model — and

* **routes** every submitted query to the group named by its ``table``
  qualifier (falling back to a configurable default route; unroutable
  queries raise :class:`RoutingError` immediately — nothing is dropped),
  then to a replica by a deterministic hash of ``(relation, global workload
  index)``,
* picks the serving **ensemble member by query shape**: the relation's
  primary estimator when its capability set covers the query's shape
  (:func:`repro.query.shapes.query_shape`), the relation's registered
  fallback estimator (``register_table(..., fallback=...)``) otherwise —
  e.g. a many-branch disjunction past Naru's inclusion–exclusion bound.
  Conjunctive traffic always lands on the primary, untouched; a query
  neither member can serve raises :class:`RoutingError` naming the shape,
  the capabilities and every available route,
* keeps **per-replica micro-batches**: each engine fills and dispatches its
  own batches, so a burst against one relation cannot delay another
  relation's queries past its own batch boundary, and a hot relation's burst
  spreads across its replicas,
* enforces **admission control**: each replica group bounds its undispatched
  queries at ``max_pending``; an overflowing submission either forces the
  fullest replica to dispatch early (``overflow="block"`` — backpressure,
  estimates unchanged because batching never changes the numbers) or is
  refused with a typed :class:`AdmissionError` (``overflow="shed"`` — load
  shedding, counted per group and surfaced in the report),
* optionally fronts the whole fleet with an exact-match **result cache**
  (:class:`repro.serve.cache.ResultCache`, keyed on the canonicalised query):
  a repeat of an already answered query skips routing entirely, and
* splits one shared ``cache_entries`` budget evenly into per-replica
  conditional-cache slices, pooled per group into one generationally evicted
  store (plus one slice for the result cache when enabled), so the memory
  budget is fleet-wide no matter how many replicas serve,
* optionally **steers each relation's micro-batch size against a latency
  SLO** (the router-wide ``slo_ms``): one
  :class:`AdaptiveBatchController` per replica group observes every
  dispatch's worst end-to-end latency and shrinks/grows the group's batch
  size within ``[1, batch_size]``; with no SLO there is no controller
  and no ``batch_hook`` — the fixed-batch hot path, untouched, and
* **merges** the per-replica reports into a single
  :class:`~repro.serve.report.FleetReport` with per-route and per-replica
  throughput, shed counts and cache statistics
  (:func:`repro.serve.report.merge_reports`).

Determinism: every query's random stream is keyed by ``(seed, workload
index)`` where the index is the *global* submission order, not the position
inside the routed engine.  Estimates are therefore independent of micro-batch
boundaries, routing order *and* the replica count — running the same mixed
workload with ``batch_size=1`` or ``batch_size=64``, with ``replicas=1`` or
``replicas=4``, returns the same numbers per model (up to float round-off),
and so does :func:`run_fleet_sequential`, the N-independent-sequential-engines
baseline the invariance grid (``tests/test_serve_invariance.py``) holds every
serving configuration to.  The
result cache preserves this contract on workloads of distinct queries (an
exact-match cache can only hit on a repeat); a repeated query is served the
stored estimate of its earliest dispatched occurrence instead of re-sampling
under its own stream — results enter the cache the moment their micro-batch
dispatches, so repeats hit both across workload scopes and inside one.
"""

from __future__ import annotations

import time
import zlib
from collections import deque

from ..query.predicates import DNFQuery, Query
from ..query.shapes import query_shape
from .cache import PackedConditionalCache, ResultCache, canonical_query_key
from .engine import EngineReport, EstimationEngine, run_sequential
from .registry import ModelRegistry
from .report import FleetReport, RoutedResult, merge_reports

__all__ = ["RoutingError", "AdmissionError", "AdaptiveBatchController",
           "ReplicaGroup", "FleetRouter", "run_fleet_sequential",
           "replica_for", "resolve_route"]

#: Overflow policies of the per-group admission controller.
_OVERFLOW_POLICIES = ("block", "shed")


def replica_for(route: str, index: int, replicas: int) -> int:
    """Deterministic replica of one ``(relation, global index)`` pair.

    A CRC of ``"route:index"`` (not Python's randomised ``hash``) so the
    assignment is stable across processes and replays — this single function
    is the placement contract of every :class:`ReplicaGroup`, whether its
    engines run in this process or are sharded across OS worker processes
    (:class:`repro.serve.procfleet.ProcessFleet`), which is what makes
    ``workers=1 ≡ workers=N`` provable rather than coincidental.
    """
    return zlib.crc32(f"{route}:{index}".encode()) % replicas


def resolve_route(registry: ModelRegistry, query: Query,
                  default_route: str | None = None) -> str:
    """The relation a query routes to; raises :class:`RoutingError` if none.

    The routing half of the fleet contract: the query's ``table``
    qualifier wins, an unqualified query falls back to ``default_route``,
    and anything unroutable fails loudly at submission time.
    """
    route = query.table or default_route
    if route is None:
        raise RoutingError(
            f"query {query!r} has no table qualifier and the fleet "
            f"serves {len(registry)} relations "
            f"({', '.join(registry.names)}); qualify the query or "
            "set default_route")
    if route not in registry:
        raise RoutingError(
            f"query {query!r} targets unregistered relation {route!r}; "
            f"registered: {', '.join(registry.names)}")
    return route


def _validate_admission(max_pending: int | None, overflow: str) -> None:
    """One source of truth for the admission-control knob invariants."""
    if max_pending is not None and max_pending < 1:
        raise ValueError("max_pending must be at least 1 (or None)")
    if overflow not in _OVERFLOW_POLICIES:
        raise ValueError(f"overflow must be one of {_OVERFLOW_POLICIES}, "
                         f"got {overflow!r}")
    if overflow == "shed" and max_pending is None:
        raise ValueError("overflow='shed' requires max_pending: with an "
                         "unbounded queue nothing can ever be shed")


class RoutingError(LookupError):
    """A query could not be mapped to a registered relation.

    Raised at submission time — a misrouted query fails loudly instead of
    silently vanishing from the report.
    """


class AdmissionError(RuntimeError):
    """A replica group refused a query because its pending queue is full.

    Raised at submission time under the ``shed`` overflow policy, *before*
    the query consumes a global workload index — a shed query leaves no trace
    in the random streams of the queries around it.  Carries the route, the
    configured bound and the refused query so callers can retry, divert or
    downgrade.
    """

    def __init__(self, route: str, max_pending: int, query: Query) -> None:
        super().__init__(
            f"replica group {route!r} is at its admission limit "
            f"({max_pending} pending queries); query {query!r} was shed")
        self.route = route
        self.max_pending = max_pending
        self.query = query


#: Lower clamp of the controller's batch size: a batch of one always
#: remains admissible.
_MIN_BATCH = 1
#: EWMA smoothing coefficient in ``(0, 1]``; higher reacts faster.
_ALPHA = 0.3
#: Fraction of the SLO the EWMA is steered to stay under.
_HEADROOM = 0.8
#: Grow only while the EWMA is below this fraction of the operating target,
#: so the controller does not oscillate around it.
_GROW_BELOW = 0.5
#: Upper bound on the retained batch-size trace (a controller outlives
#: workload scopes, so an unbounded trace would grow — and bloat every JSON
#: report — for as long as the router serves).  The cumulative
#: ``shrinks``/``grows`` counters are never truncated.
_TRACE_LIMIT = 4096


class AdaptiveBatchController:
    """AIMD controller keeping a replica group's batch latency under an SLO.

    The controller watches every micro-batch dispatch of one relation's
    replica group and maintains an exponentially weighted moving average
    (EWMA) of the observed latency — :class:`FleetRouter` feeds it the
    batch's worst end-to-end latency (queue wait + dispatch); the controller
    itself is metric-agnostic.  Batch latency grows roughly linearly in
    the batch's query count (the batched sampler stacks one code-matrix row
    per sample path per query), so batch size is the control knob:

    * **shrink** — when the EWMA exceeds the operating target
      (``slo_ms * _HEADROOM``), the batch size is halved (multiplicative
      decrease).  Sustained violation shrinks monotonically down to
      ``_MIN_BATCH``; it never grows while the target is exceeded.
    * **grow** — when the EWMA sits below ``_GROW_BELOW`` of the target, the
      batch size is incremented (additive increase) up to ``max_batch``,
      clawing back throughput once the burst has passed.

    The ``_HEADROOM`` factor (0.8) is what turns a *mean* tracker into
    a *p95* target: holding the average at 80% of the SLO leaves the tail
    room to stay under it.  A route with no SLO gets no controller at all
    (see :meth:`FleetRouter._steer`), so every controller adapts.

    Parameters
    ----------
    slo_ms:
        Target p95 latency in milliseconds.
    max_batch:
        Upper clamp of the batch size (typically the router's configured
        ``batch_size``); also the initial size.
    """

    def __init__(self, *, slo_ms: float, max_batch: int = 32) -> None:
        if slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {slo_ms}")
        if max_batch < _MIN_BATCH:
            raise ValueError(f"max_batch must be at least {_MIN_BATCH}, "
                             f"got {max_batch}")
        self.slo_ms = slo_ms
        self.max_batch = max_batch
        self.batch_size = max_batch
        self.ewma_ms: float | None = None
        #: Batch-size decision after every observed dispatch (element 0 is
        #: the initial size until ``_TRACE_LIMIT`` truncates the oldest
        #: entries).  Lifetime of the controller, like cache counters — it
        #: is not reset per workload scope, only bounded; per-scope reports
        #: slice it (see :meth:`FleetRouter.report`).
        self.trace: deque[int] = deque([self.batch_size], maxlen=_TRACE_LIMIT)
        #: Total dispatches ever observed (never truncated, unlike ``trace``).
        self.observations = 0
        self.shrinks = 0
        self.grows = 0

    @property
    def target_ms(self) -> float:
        """The EWMA operating ceiling: ``slo_ms * _HEADROOM``."""
        return self.slo_ms * _HEADROOM

    def observe(self, latency_ms: float) -> int:
        """Fold one observed latency into the EWMA; returns the new batch size.

        Args:
            latency_ms: Observed latency of the dispatched micro-batch (the
                router passes the batch's worst end-to-end latency).

        Returns:
            The batch size every engine of the group should use for its next
            micro-batch.
        """
        self.observations += 1
        if self.ewma_ms is None:
            self.ewma_ms = float(latency_ms)
        else:
            self.ewma_ms = (_ALPHA * float(latency_ms)
                            + (1.0 - _ALPHA) * self.ewma_ms)
        target = self.target_ms
        if self.ewma_ms > target:
            shrunk = max(_MIN_BATCH, self.batch_size // 2)
            if shrunk < self.batch_size:
                self.batch_size = shrunk
                self.shrinks += 1
        elif (self.ewma_ms < _GROW_BELOW * target
              and self.batch_size < self.max_batch):
            self.batch_size += 1
            self.grows += 1
        self.trace.append(self.batch_size)
        return self.batch_size

    def as_dict(self) -> dict:
        """Plain-dict snapshot of the controller, ready for JSON reports."""
        return {
            "slo_ms": self.slo_ms,
            "ewma_ms": self.ewma_ms,
            "batch_size": self.batch_size,
            "min_batch": _MIN_BATCH,
            "max_batch": self.max_batch,
            "observations": self.observations,
            "shrinks": self.shrinks,
            "grows": self.grows,
            "trace": list(self.trace),
        }

    def __repr__(self) -> str:
        return (f"AdaptiveBatchController(slo={self.slo_ms:.1f}ms, "
                f"batch={self.batch_size} "
                f"in [{_MIN_BATCH}, {self.max_batch}])")


class ReplicaGroup:
    """N engine replicas serving one relation, behind one admission gate.

    Every replica fronts the *same* trained estimator — replication buys
    independent micro-batch queues and bounded per-replica cache slices, not
    retrained models — and a query lands on the replica named by a
    deterministic hash of ``(relation, global workload index)``.  Because the
    per-query random streams are keyed by ``(seed, global index)`` alone, the
    replica assignment can never change an estimate: ``replicas=1`` and
    ``replicas=N`` serve bit-compatible numbers (up to float round-off of the
    batched sampler).

    Parameters
    ----------
    route:
        Relation name, also the salt of the replica hash.
    engines:
        The replica engines (at least one), typically built by
        :class:`FleetRouter` with equal seeds and equal cache slices.
    max_pending:
        Maximum undispatched queries across the whole group (``None`` =
        unbounded).  Bounds the group's queue memory independently of
        ``batch_size``.
    overflow:
        What an overflowing submission does: ``"block"`` forces the fullest
        replica to dispatch its micro-batch early (backpressure — nothing is
        refused and estimates are unchanged), ``"shed"`` refuses the query
        with :class:`AdmissionError` and counts it in :attr:`shed`.
    """

    def __init__(self, route: str, engines: list[EstimationEngine], *,
                 max_pending: int | None = None,
                 overflow: str = "block",
                 cache: PackedConditionalCache | None = None) -> None:
        if not engines:
            raise ValueError("a replica group needs at least one engine")
        _validate_admission(max_pending, overflow)
        self.route = route
        self.engines = engines
        self.max_pending = max_pending
        self.overflow = overflow
        #: The group's shared conditional-CDF cache (``None`` when
        #: caching is off or the engines built private ones).  Replicas front
        #: the same trained model, so cached conditionals are perfectly
        #: shareable: one group-wide cache gives strictly higher hit rates
        #: under the same budget than per-replica slivers.
        self.cache = cache
        self.shed = 0
        #: High-water mark of :attr:`pending` over the current scope — the
        #: load generator's bounded-queue-growth evidence: under overload
        #: this must plateau at ``max_pending``, never climb past it.
        self.peak_pending = 0

    def __len__(self) -> int:
        return len(self.engines)

    def replica_of(self, index: int) -> int:
        """Deterministic replica assignment of one global workload index.

        Delegates to :func:`replica_for` — the one placement function,
        stable across processes and replays.
        """
        return replica_for(self.route, index, len(self.engines))

    @property
    def pending(self) -> int:
        """Undispatched queries across all replicas of the group."""
        return sum(engine.pending for engine in self.engines)

    def submit(self, query: Query, index: int) -> int:
        """Admit one query onto its hashed replica; returns the replica index.

        Raises :class:`AdmissionError` (after counting the shed) when the
        group is full under the ``shed`` policy.  Under ``block`` the fullest
        replica dispatches early instead, so the bound holds without refusing
        anything.
        """
        if self.max_pending is not None and self.pending >= self.max_pending:
            if self.overflow == "shed":
                self.shed += 1
                raise AdmissionError(self.route, self.max_pending, query)
            fullest = max(self.engines, key=lambda engine: engine.pending)
            fullest.flush(reason="admission")
        replica = self.replica_of(index)
        self.engines[replica].submit(query, index=index)
        self.peak_pending = max(self.peak_pending, self.pending)
        return replica

    def flush(self) -> None:
        """Dispatch every replica's partially filled micro-batch."""
        for engine in self.engines:
            engine.flush()

    def reset(self) -> None:
        """Start a fresh workload scope on every replica; zero the shed count."""
        for engine in self.engines:
            engine.reset()
        self.shed = 0
        self.peak_pending = 0

    def reports(self) -> list[EngineReport]:
        """Per-replica reports, in replica order."""
        return [engine.report() for engine in self.engines]

    def __repr__(self) -> str:
        bound = self.max_pending if self.max_pending is not None else "unbounded"
        return (f"ReplicaGroup({self.route!r}, {len(self.engines)} replicas, "
                f"max_pending={bound}, overflow={self.overflow!r})")


class FleetRouter:
    """Route table-qualified queries to replicated per-model engines.

    Parameters
    ----------
    registry:
        The model fleet.  Estimators are built and fitted lazily on the first
        query routed to them; call ``registry.fit_all()`` up front to keep
        training cost out of the serving path.  Each relation's replica count
        comes from its registration (``register_table(..., replicas=N)``), as
        does its optional fallback estimator (``fallback=...``) — the second
        ensemble member serving query shapes the primary cannot (see
        :meth:`resolve_serving`).
    batch_size:
        Per-replica micro-batch capacity (each engine batches independently).
    num_samples:
        Progressive sample paths per query; ``None`` defers to each
        estimator's own config.
    use_cache:
        Enable the per-replica conditional-CDF caches.
    cache_entries:
        *Shared* fleet-wide cache budget (total entries across all replica
        caches plus, when enabled, the result cache); each cache receives an
        equal slice, sized at construction so the split is stable.
    seed:
        Base seed of the per-query random streams (shared by all engines and
        replicas, so a query's stream depends only on its global index).
    default_route:
        Relation serving queries without a ``table`` qualifier.  Defaults to
        the registry's only relation when it has exactly one; with several
        models and no default, unqualified queries raise
        :class:`RoutingError`.
    max_pending:
        Per-replica-group bound on undispatched queries (``None`` =
        unbounded, the pre-replication behaviour).
    overflow:
        Group overflow policy, ``"block"`` (default: backpressure via early
        dispatch) or ``"shed"`` (refuse with :class:`AdmissionError`).
    result_cache:
        Front the fleet with an exact-match result cache on canonicalised
        queries.  A hit serves the stored selectivity without consuming any
        model time; entries are stored the moment their micro-batch
        dispatches, so repeats hit inside a workload scope as well as on
        replays of it.
    flush_after_ms:
        Router-wide flush deadline: a partially filled micro-batch is
        dispatched by :meth:`tick` once its oldest query has waited this
        long, bounding queueing delay independently of ``batch_size``
        (``None`` = batches wait indefinitely for a fill or an explicit
        flush, the pre-deadline behaviour).  The deadline is a bound, not a
        delay: :meth:`run` ticks after every submission, and the asyncio
        client's flush driver dispatches a partial batch as soon as its
        event loop goes idle, leaving the deadline to bound a loop that
        never does.
    slo_ms:
        Router-wide target p95 **end-to-end** latency in milliseconds
        (queue wait + dispatch — what a submitter observes).  Each relation
        then gets one :class:`AdaptiveBatchController` shared by its
        replicas (so the whole relation converges on one batch size within
        ``[1, batch_size]``); controllers — like the conditional caches —
        live for the router's lifetime and carry their learned batch size
        across workload scopes and version rebuilds.  Batch boundaries never
        change an estimate, so the controller may retune them as
        aggressively as the SLO demands.  ``None`` (default) serves at the
        fixed ``batch_size``.
    clock:
        Zero-argument callable returning seconds, shared by every engine the
        router builds (``time.perf_counter`` by default).  Inject a
        :class:`repro.serve.engine.VirtualClock` to make queue waits and
        flush deadlines fully deterministic in tests.
    """

    def __init__(self, registry: ModelRegistry, *, batch_size: int = 32,
                 num_samples: int | None = None, use_cache: bool = True,
                 cache_entries: int = 262144, seed: int = 0,
                 default_route: str | None = None,
                 max_pending: int | None = None, overflow: str = "block",
                 result_cache: bool = False,
                 flush_after_ms: float | None = None,
                 slo_ms: float | None = None, clock=None) -> None:
        if len(registry) == 0:
            raise ValueError("the registry has no relations to serve")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if flush_after_ms is not None and flush_after_ms <= 0:
            raise ValueError(f"flush_after_ms must be positive, got "
                             f"{flush_after_ms}")
        if slo_ms is not None and slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {slo_ms}")
        if default_route is not None and default_route not in registry:
            raise ValueError(f"default route {default_route!r} is not a "
                             f"registered relation ({', '.join(registry.names)})")
        _validate_admission(max_pending, overflow)
        if default_route is None and len(registry) == 1:
            default_route = registry.names[0]
        self.registry = registry
        self.batch_size = batch_size
        self.num_samples = num_samples
        self.use_cache = use_cache
        self.cache_entries = cache_entries
        # One shared budget, one slice per cache that actually exists: each
        # replica's conditional cache (only when use_cache is on) plus one
        # slice for the result cache when it is enabled.  Replica counts are
        # read at construction so the split is stable for this router's
        # lifetime even if the registry is re-tuned afterwards.
        self._replica_counts = {name: registry.replicas(name)
                                for name in registry.names}
        slices = (sum(self._replica_counts.values()) if use_cache else 0) \
            + (1 if result_cache else 0)
        self.cache_entries_per_model = max(1, cache_entries // max(slices, 1))
        self.seed = seed
        self.default_route = default_route
        self.max_pending = max_pending
        self.overflow = overflow
        self.flush_after_ms = flush_after_ms
        self.slo_ms = slo_ms
        #: Route -> the adaptive batch controller of its primary group; only
        #: a router with an SLO ever builds one.
        self._controllers: dict[str, AdaptiveBatchController] = {}
        #: Route -> ``controller.observations`` at the current scope's start;
        #: lets reports slice the lifetime trace down to this scope.
        self._scope_marks: dict[str, int] = {}
        #: The shared clock of every engine, see the ``clock`` parameter.
        self.clock = clock if clock is not None else time.perf_counter
        #: ``(route, role)`` -> serving unit, role ``"primary"`` (the
        #: replicas over the relation's registered estimator) or
        #: ``"fallback"`` (one per-query engine over its registered fallback
        #: estimator).  Both roles are materialised lazily on the first query
        #: :meth:`resolve_serving` sends their way.
        self._groups: dict[tuple[str, str], ReplicaGroup] = {}
        #: ``(route, role)`` -> ``registry.version`` its unit was
        #: materialised at.  A moved version (an ingest, a model or fallback
        #: swap) makes the unit stale: it is dropped at the next scope
        #: boundary and lazily rebuilt — with the registry's current
        #: estimator and *fresh* conditional caches — so a version move
        #: invalidates every cache layer atomically.
        self._built_at: dict[tuple[str, str], int] = {}
        #: Optional callable invoked with each :class:`RoutedResult` the
        #: moment it is produced — at micro-batch dispatch for model-served
        #: queries, at submission for result-cache hits.  The streaming
        #: frontend (:class:`repro.serve.stream.AsyncFleetClient`) resolves
        #: its futures through it.
        self.on_result = None
        self._result_cache = (ResultCache(self.cache_entries_per_model)
                              if result_cache else None)
        self._cached_results: list[RoutedResult] = []
        #: Cache-served results submitted since the last report() snapshot —
        #: the guard in run() refuses to wipe them silently, exactly like
        #: pending model-served queries.
        self._unreported_cached = 0
        self._next_index = 0
        #: Calls of :meth:`submit` over the router's lifetime, routed or not:
        #: the asyncio flush driver reads it to tell an idle event loop from
        #: one that is still handing queries in.
        self.submissions = 0

    # ------------------------------------------------------------------ #
    @property
    def result_cache(self) -> ResultCache | None:
        """The fleet-wide result cache (``None`` when disabled)."""
        return self._result_cache

    @property
    def next_index(self) -> int:
        """The global index :meth:`submit` will assign to its next query.

        The streaming frontend registers a future under this index *before*
        submitting, because submission may dispatch (and therefore resolve)
        synchronously.
        """
        return self._next_index

    def _feed_result(self, route: str, result, version: int) -> None:
        """Store one dispatched estimate in the result cache (first in wins).

        Entries are stamped with ``version``, the relation version of the
        unit that computed them — not the route's current one: a unit built
        before a mid-scope swap serves the old version to the scope's end,
        and its answers must not pass for the new version's.  An entry left
        over from another version is overwritten rather than kept — it could
        never be served again (``get`` rejects stale stamps), so keeping it
        would only waste an LRU slot.
        """
        key = canonical_query_key(result.query, route=route)
        if self._result_cache.epoch_of(key) != version:
            self._result_cache.put(key, result.selectivity, epoch=version)

    def _emit(self, result: RoutedResult) -> None:
        """Hand one finished result to the ``on_result`` observer, if any."""
        if self.on_result is not None:
            self.on_result(result)

    def resolve_route(self, query: "Query | DNFQuery") -> str:
        """The relation a query routes to; raises :class:`RoutingError` if none.

        Delegates to the module-level :func:`resolve_route`.
        """
        return resolve_route(self.registry, query, self.default_route)

    def resolve_serving(self, query: "Query | DNFQuery") -> tuple[str, str]:
        """The ``(relation, role)`` pair that will answer one query.

        Routing is two-staged: :meth:`resolve_route` names the relation,
        then the query's shape (:func:`repro.query.shapes.query_shape`)
        picks the ensemble member — the primary estimator when its
        capability set covers the shape (and, for Naru, the disjunction
        fits its expansion bound), otherwise the relation's registered
        fallback estimator.  Conjunctive traffic therefore always lands on
        the primary, exactly where it landed before the ensemble existed.

        Raises:
            RoutingError: When neither member can serve, naming the failing
                shape, the primary's capabilities and every available route.
        """
        route = self.resolve_route(query)
        if self.registry.can_serve(route, query):
            return route, "primary"
        fallback = self.registry.fallback(route)
        if fallback is not None and fallback.can_serve(query):
            return route, "fallback"
        shape = query_shape(query)
        capabilities = "|".join(sorted(
            s.value for s in self.registry.capabilities(route)))
        if fallback is None:
            fallback_note = "no fallback estimator is registered"
        else:
            fallback_note = (f"its fallback {fallback.name!r} cannot serve "
                             "it either")
        available = ", ".join(
            f"{name} [{'|'.join(sorted(s.value for s in self.registry.capabilities(name)))}"
            f"{', fallback: ' + self.registry.fallback(name).name if self.registry.fallback(name) is not None else ''}]"
            for name in self.registry.names)
        raise RoutingError(
            f"query {query!r} has shape {shape.value!r}, which relation "
            f"{route!r} cannot serve: the primary estimator's capabilities "
            f"are [{capabilities}] (disjunctions bounded at "
            f"max_dnf_branches={self.registry.default_config.max_dnf_branches} "
            f"branches) and {fallback_note}; available routes: {available}")

    def _sink(self, route: str, replica: int, estimator_name: str,
              version: int):
        """The ``result_sink`` of one serving engine, built at ``version``.

        Dispatched results feed the fleet result cache (when enabled) and the
        ``on_result`` observer, tagged with the route, replica and estimator
        that computed them — a fallback answer is as cacheable and as
        observable as a primary one.
        """
        def sink(result):
            if self._result_cache is not None:
                self._feed_result(route, result, version)
            if self.on_result is not None:
                self._emit(RoutedResult.of(result, route=route,
                                           replica=replica,
                                           estimator=estimator_name))
        return sink

    def group(self, route: str) -> ReplicaGroup:
        """The primary replica group of one route, materialised on first use.

        Relations registered *after* the router was built are served too
        (their replica count is read from the registry on first use); only
        the cache-budget split stays fixed at its construction-time value.
        """
        group = self._groups.get((route, "primary"))
        if group is None:
            replicas = self._replica_counts.get(route)
            if replicas is None:
                replicas = self.registry.replicas(route)
                self._replica_counts[route] = replicas
            estimator = self.registry.estimator(route)
            version = self.registry.version(route)
            # One conditional cache for the whole group: the replicas share
            # the relation's one model, so the group pools its replicas'
            # budget slices instead of fragmenting hot prefixes N ways.
            shared_cache = (PackedConditionalCache(
                self.cache_entries_per_model * replicas)
                if self.use_cache else None)
            engines = [
                self._make_engine(
                    route, replica, estimator, batch_size=self.batch_size,
                    num_samples=self.num_samples, use_cache=self.use_cache,
                    cache_entries=self.cache_entries_per_model, seed=self.seed,
                    result_sink=self._sink(route, replica, estimator.name,
                                           version),
                    cache=shared_cache, clock=self.clock,
                    flush_after_ms=self.flush_after_ms)
                for replica in range(replicas)
            ]
            # The group's cache is whatever its engines actually front: the
            # shared store here, nothing when the engines keep their
            # conditionals elsewhere (worker processes).
            group = ReplicaGroup(route, engines, max_pending=self.max_pending,
                                 overflow=self.overflow,
                                 cache=engines[0].cache)
            self._groups[(route, "primary")] = group
            self._built_at[(route, "primary")] = version
            self._steer(route, group)
        return group

    def fallback_unit(self, route: str) -> ReplicaGroup:
        """The fallback serving unit of one route, materialised on first use.

        Serves queries the route's primary estimator cannot (shapes outside
        its capability set, disjunctions past Naru's expansion bound).  A
        fallback is a deterministic summary (sampling, histograms, ...) with
        nothing to micro-batch, cache or replicate, so the unit is one plain
        per-query engine in this process on every serving tier: at
        ``batch_size=1`` each query is answered before :meth:`submit`
        returns and its ``queue_wait_ms`` is zero.

        Raises ``LookupError`` when the relation has no registered fallback
        estimator — :meth:`resolve_serving` never sends a query here unless
        one exists.
        """
        unit = self._groups.get((route, "fallback"))
        if unit is None:
            estimator = self.registry.fallback(route)
            if estimator is None:
                raise LookupError(f"relation {route!r} has no registered "
                                  "fallback estimator")
            # Both ensemble members scale by the primary's (possibly
            # refreshed) row count; units are rebuilt on every version move.
            estimator.set_row_count(self.registry.serving_rows(route))
            version = self.registry.version(route)
            unit = ReplicaGroup(route, [EstimationEngine(
                estimator, batch_size=1, use_cache=False, seed=self.seed,
                clock=self.clock,
                result_sink=self._sink(route, 0, estimator.name, version))])
            self._groups[(route, "fallback")] = unit
            self._built_at[(route, "fallback")] = version
        return unit

    def _make_engine(self, route: str, replica: int, estimator,
                     **options) -> EstimationEngine:
        """Subclass hook: build one replica engine of a route's group.

        ``options`` are the :class:`EstimationEngine` keyword arguments
        :meth:`group` settled on.  Where a filled micro-batch executes is the
        one thing a serving tier may change —
        :class:`repro.serve.procfleet.ProcessFleet` returns a proxy whose
        batches run in a worker process; everything above the engine
        (routing, placement, admission, caching, reporting) is this class.
        """
        return EstimationEngine(estimator, **options)

    def _steer(self, route: str, group: ReplicaGroup) -> None:
        """Put a freshly materialised group under its route's SLO controller.

        Without a router SLO the group is left alone — no controller, no
        ``batch_hook``.  A route rebuilt after a version move (see
        :meth:`_begin_scope`) keeps the controller it already converged — a
        data refresh invalidates cached *answers*, not the learned batch
        size — so the new engines start at the converged size.
        """
        if self.slo_ms is None:
            return
        controller = self._controllers.get(route)
        if controller is None:
            controller = AdaptiveBatchController(slo_ms=self.slo_ms,
                                                 max_batch=self.batch_size)
            self._controllers[route] = controller
            self._scope_marks[route] = 0

        def hook(record):
            # Steering on the batch's worst submission-to-result latency
            # makes queueing delay in partially filled batches shrink the
            # batch size exactly like slow dispatches do.
            size = controller.observe(record.max_e2e_ms)
            for engine in group.engines:
                engine.batch_size = size

        for engine in group.engines:
            engine.batch_size = controller.batch_size
            engine.batch_hook = hook

    def controller(self, route: str) -> AdaptiveBatchController | None:
        """One route's batch controller (``None`` when it has no SLO)."""
        self.group(route)
        return self._controllers.get(route)

    def controllers_report(self) -> dict[str, dict]:
        """Per-route controller snapshots (EWMA, bounds, shrink/grow counts)."""
        return {route: controller.as_dict()
                for route, controller in self._controllers.items()}

    def engine(self, route: str, replica: int = 0) -> EstimationEngine:
        """One replica engine of a route (replica 0 by default)."""
        return self.group(route).engines[replica]

    @property
    def peak_pending(self) -> int:
        """The highest pending high-water mark across all replica groups.

        The open-loop load generator's bounded-queue-growth evidence: under
        overload this plateaus at ``max_pending`` (per group) instead of
        growing with the backlog.  Zero until a group materialises; reset at
        scope boundaries with the rest of the per-scope counters.
        """
        return max((group.peak_pending for group in self._groups.values()),
                   default=0)

    def wipe_caches(self) -> dict[str, int]:
        """Drop every cache layer at once — the ``cache_wipe`` chaos drill.

        Clears the fleet-wide result cache and every materialised replica
        group's shared conditional cache, exactly what a cache-tier restart
        does to a live fleet.  No version moves (the data did not move — the
        memory of it did), counters keep accumulating, and no estimate may
        change: caches are a latency layer, so the only observable cost is
        cold-cache latency on the traffic that follows.

        Returns:
            ``{"result_caches": 0 or 1, "conditional_caches": N}`` — how
            many stores of each layer were cleared.
        """
        wiped = {"result_caches": 0, "conditional_caches": 0}
        if self._result_cache is not None:
            self._result_cache.clear()
            wiped["result_caches"] = 1
        for group in self._groups.values():
            if group.cache is not None:
                group.cache.clear()
                wiped["conditional_caches"] += 1
        return wiped

    def tick(self, now: float | None = None) -> float | None:
        """Fire every overdue flush deadline; returns the earliest remaining one.

        Walks all materialised engines and dispatches any partially filled
        micro-batch whose oldest query has waited past its
        ``flush_after_ms``.  A no-op (returning ``None``) when no deadlines
        are configured or nothing is pending, so callers may tick
        unconditionally.

        Args:
            now: The current clock reading shared by every engine's check;
                ``None`` reads the router clock once.

        Returns:
            The earliest flush deadline still outstanding after this tick
            (in the router clock's seconds), or ``None`` when no pending
            batch carries one — what a wall-clock driver sleeps until.
        """
        next_deadline: float | None = None
        for group in self._groups.values():
            for engine in group.engines:
                if now is None and engine.flush_deadline is not None:
                    now = self.clock()
                deadline = engine.tick(now)
                if deadline is not None and (next_deadline is None
                                             or deadline < next_deadline):
                    next_deadline = deadline
        return next_deadline

    def flush_deadlined(self) -> int:
        """Dispatch every partial micro-batch that carries a flush deadline.

        An idle flush, not a timeout one (``flush_reason="idle"``): the
        asyncio flush driver calls this once the event loop has gone idle, so
        a batch nothing else will join leaves before its deadline.  Engines
        without a deadline keep waiting for a fill or an explicit
        :meth:`flush`.

        Returns:
            How many micro-batches were dispatched.
        """
        flushed = 0
        for group in self._groups.values():
            for engine in group.engines:
                if engine.flush_deadline is not None:
                    engine.flush(reason="idle")
                    flushed += 1
        return flushed

    # ------------------------------------------------------------------ #
    def submit(self, query: Query, index: int | None = None) -> str:
        """Route and enqueue one query; returns the route it was assigned.

        The query's random stream is keyed by its global submission index, so
        its estimate is independent of what else is in flight and of which
        replica serves it.  ``index`` overrides the assigned position: a
        streaming producer that numbered its queries up front can submit them
        in *any* arrival order and still get the estimates of the in-order
        run (indices must be unique within a workload scope — the caller owns
        that contract; :class:`repro.serve.stream.AsyncFleetClient` enforces
        it).  Left at ``None``, queries are numbered in submission order,
        exactly as before.

        With the result cache enabled, an exact repeat of an already answered
        query is served from memory (it still consumes an index and appears
        in the report, flagged ``replica=-1``).  A query whose shape the
        route's primary estimator cannot serve goes to the relation's
        fallback estimator instead (see :meth:`resolve_serving`) and is
        answered synchronously — fallback summaries have no micro-batch to
        wait for.  Raises :class:`RoutingError` or :class:`AdmissionError`
        (both without consuming an index) when the query cannot be routed or
        admitted.
        """
        self.submissions += 1
        route, role = self.resolve_serving(query)
        if self._result_cache is not None:
            # Consult the cache before materialising the route's group: a
            # hit must cost a dictionary lookup, not a lazy model build.
            # The lookup carries the route's current version, so an entry
            # computed before an ingest or model swap is rejected (never
            # served) even mid-scope.
            key = canonical_query_key(query, route=route)
            selectivity = self._result_cache.get(
                key, epoch=self.registry.version(route))
            if selectivity is not None:
                if index is None:
                    index = self._next_index
                self._next_index = max(self._next_index, index + 1)
                num_rows = self.registry.serving_rows(route)
                result = RoutedResult(
                    index=index, route=route, query=query,
                    selectivity=selectivity,
                    cardinality=selectivity * num_rows,
                    batch_index=-1, replica=-1, estimator="cache")
                self._cached_results.append(result)
                self._unreported_cached += 1
                self._emit(result)
                return route
        group = (self.group(route) if role == "primary"
                 else self.fallback_unit(route))
        if index is None:
            index = self._next_index
        group.submit(query, index=index)  # may raise AdmissionError
        self._next_index = max(self._next_index, index + 1)
        return route

    def flush(self) -> None:
        """Dispatch every replica's partially filled micro-batch."""
        for group in self._groups.values():
            group.flush()

    def run(self, queries: list[Query]) -> FleetReport:
        """Serve a whole mixed workload and return the merged fleet report.

        Like :meth:`EstimationEngine.run`, each call is its own workload
        scope: global indices restart at zero and the report covers only this
        call; only the per-replica conditional caches and the fleet result
        cache carry over.  An empty workload returns a well-formed empty
        report (zero queries, ``queries_per_second == 0.0``).  Under the
        ``shed`` overflow policy, refused queries are counted per route in
        the report instead of aborting the run.
        """
        self._begin_scope()
        ticking = self.flush_after_ms is not None
        for query in queries:
            try:
                self.submit(query)
            except AdmissionError:
                pass  # counted in the group's shed tally
            # Tick even after a shed: a full group is exactly the state a
            # flush deadline exists to clear — skipping the tick would shed
            # the whole remaining workload while an overdue batch lingers.
            if ticking:
                self.tick()
        self.flush()
        return self.report()

    def _begin_scope(self) -> None:
        """Start a fresh workload scope: reset indices, keep the caches.

        Refuses to run while submitted queries are pending or cache-served
        results are unreported — their results would be silently dropped.
        Shared by :meth:`run` and :func:`repro.serve.stream.stream_workload`.
        """
        if any(group.pending for group in self._groups.values()) \
                or self._unreported_cached:
            raise RuntimeError("submitted queries are still pending or "
                               "cache-served results are unreported; call "
                               "flush() and report() before run()")
        # Version sync: a unit whose relation's version moved (an ingest, a
        # model or fallback swap) is stale — drop it so the next query routed
        # there lazily rebuilds it around the registry's current estimators
        # with *fresh* conditional caches.  Doing this only at scope
        # boundaries makes the swap atomic per workload.
        for unit, version in list(self._built_at.items()):
            if self.registry.version(unit[0]) != version:
                del self._groups[unit]
                del self._built_at[unit]
        for group in self._groups.values():
            group.reset()
        for route, controller in self._controllers.items():
            self._scope_marks[route] = controller.observations
        self._cached_results = []
        self._next_index = 0

    def report(self) -> FleetReport:
        """Merged snapshot of everything served so far, in submission order.

        Results and throughput cover the current workload scope only; cache
        hit/miss counters (conditional and result caches alike) are lifetime
        numbers, because the caches themselves outlive scopes.
        """
        units = {}
        for (route, role), group in self._groups.items():
            units[route if role == "primary" else f"{route}@fallback"] = {
                "relation": route,
                "estimator": group.engines[0].estimator.name,
                "reports": group.reports(), "shed": group.shed,
                "batch_trace": (self._scope_trace(route)
                                if role == "primary" else None)}
        self._unreported_cached = 0
        return merge_reports(
            units, cached=self._cached_results,
            num_models=len(self.registry),
            cache_entries_total=self.cache_entries,
            cache_entries_per_model=self.cache_entries_per_model,
            result_cache=(self._result_cache.stats.as_dict()
                          if self._result_cache is not None else None),
            epochs=self._epoch_report())

    def _scope_trace(self, route: str) -> list[int] | None:
        """One route's controller trace, sliced to this scope (``None``: no SLO).

        Element 0 is the batch size in force when the scope began, then one
        entry per dispatch observed since (up to ``_TRACE_LIMIT``
        truncation).
        """
        controller = self._controllers.get(route)
        if controller is None:
            return None
        lifetime = list(controller.trace)
        observed = controller.observations - self._scope_marks[route]
        return lifetime[max(0, len(lifetime) - observed - 1):]

    def _epoch_report(self) -> dict[str, dict]:
        """Per-relation epoch/staleness counters for :attr:`FleetStats.epochs`."""
        return {
            name: {
                "data_epoch": self.registry.data_epoch(name),
                "model_epoch": self.registry.model_epoch(name),
                "staleness": self.registry.staleness(name),
            }
            for name in self.registry.names
        }


def run_fleet_sequential(registry: ModelRegistry, queries: list[Query], *,
                         num_samples: int | None = None, seed: int = 0,
                         default_route: str | None = None) -> FleetReport:
    """N-independent-sequential-engines baseline for a mixed workload.

    Routes the workload exactly like :class:`FleetRouter` — including the
    shape-based primary/fallback split of :meth:`FleetRouter.resolve_serving`
    — then answers each primary unit's queries one at a time through
    :func:`run_sequential` (no micro-batching, no caching, no replication,
    models visited one after another) and each fallback unit's through the
    router's own per-query fallback engine (:meth:`FleetRouter.fallback_unit`).
    Queries keep their global submission indices, so the estimates match the
    fleet's for any replica count (up to float round-off).
    """
    router = FleetRouter(registry, batch_size=1, num_samples=num_samples,
                         use_cache=False, seed=seed, default_route=default_route)
    per_unit: dict[tuple[str, str], tuple[list[int], list[Query]]] = {}
    for index, query in enumerate(queries):
        serving = router.resolve_serving(query)
        indices, routed = per_unit.setdefault(serving, ([], []))
        indices.append(index)
        routed.append(query)
    units: dict[str, dict] = {}
    for (route, role), (indices, routed) in per_unit.items():
        if role == "primary":
            estimator = registry.estimator(route)
            reports = [run_sequential(estimator, routed,
                                      num_samples=num_samples, seed=seed,
                                      indices=indices)]
        else:
            group = router.fallback_unit(route)
            for index, query in zip(indices, routed):
                group.submit(query, index)
            estimator, reports = group.engines[0].estimator, group.reports()
        units[route if role == "primary" else f"{route}@fallback"] = {
            "relation": route, "estimator": estimator.name,
            "reports": reports}
    return merge_reports(units, num_models=len(registry),
                         cache_entries_total=0, cache_entries_per_model=0)
