"""Serving layer: batched, cached multi-query estimation (``repro.serve``).

The core package answers one query per call; this subpackage is the
deployment-facing front-end that answers *workloads*.  It exists because the
dominant cost of progressive sampling (§5, Algorithm 1) is the per-column
model forward pass, and that cost is almost perfectly shareable across
concurrent queries: the engine stacks the sample paths of a whole micro-batch
into one code matrix per column, skips columns every in-flight query leaves
unconstrained, drops zero-weight paths, and memoises per-prefix conditionals
in a generationally evicted store that persists across batches.

Serving workloads
-----------------
The typical loop — build an estimator once, then stream queries through an
:class:`EstimationEngine`::

    from repro.core import NaruConfig, NaruEstimator
    from repro.data import make_census
    from repro.query import WorkloadGenerator
    from repro.serve import EstimationEngine

    table = make_census(num_rows=5_000)
    naru = NaruEstimator(table, NaruConfig(epochs=5))
    naru.fit()

    engine = EstimationEngine(naru, batch_size=16, num_samples=200)
    queries = WorkloadGenerator(table, seed=7).generate(64)
    report = engine.run(queries)

    for result in report.results[:3]:
        print(result.query, "->", result.cardinality)
    print(f"{report.stats.queries_per_second:.0f} queries/s, "
          f"cache hit rate {report.stats.cache['hit_rate']:.0%}")

Three properties matter for operating it:

* **Determinism** — every query owns a random stream derived from
  ``(seed, query index)``, so estimates do not depend on how the workload was
  chopped into micro-batches; ``batch_size=1`` reproduces the sequential
  sampler's numbers.
* **Observability** — the report carries per-batch latencies and the cache's
  hit/miss/eviction counters, the numbers to watch when sizing
  ``batch_size`` and ``cache_entries``.
* **Replayability** — workloads can be written to and replayed from JSON
  files (:func:`save_workload` / :func:`load_workload`), which is what the
  ``python -m repro.serve`` command line does; see ``--save-workload`` and
  ``--workload``.

For a quick capacity check, ``python -m repro.serve --num-queries 64
--compare-sequential`` trains a small model, serves a generated workload both
batched and sequentially, and prints the throughput ratio; the CI bench-smoke
job runs the same comparison via ``benchmarks/test_serve_throughput.py``.

Serving many relations
----------------------
One engine fronts one model over one relation.  To serve a *fleet* — several
base tables plus join relations, the way the paper's §4.1 treats a join result
exactly like a base table — register everything in a
:class:`ModelRegistry` and front it with a :class:`FleetRouter`, which routes
each query by its ``Query.table`` qualifier, keeps per-model micro-batches and
per-model conditional caches under one shared ``cache_entries`` budget, and
merges the per-model reports into one :class:`FleetReport`::

    from repro.data import JoinSpec, make_sessions, make_users
    from repro.serve import FleetRouter, ModelRegistry

    registry = ModelRegistry(default_config=NaruConfig(epochs=5))
    registry.register_table(make_users(500))
    registry.register_table(make_sessions(8_000))
    registry.register_join(JoinSpec("sessions", "users", "user_id", "user_id"))
    registry.fit_all()

    router = FleetRouter(registry, batch_size=16, cache_entries=98_304)
    report = router.run(mixed_workload)          # queries carry .table
    for route, stats in report.stats.routes.items():
        print(route, stats["queries_per_second"])

Unroutable queries (unknown relation, or unqualified with several models and
no default route) raise :class:`RoutingError` at submission — they never
silently vanish from the report.  ``python -m repro.serve --tables users
sessions --join sessions:users:user_id:user_id`` is the command-line form.

Query language and estimator ensembles
--------------------------------------
Queries are not limited to conjunctions: ``LIKE 'x%'`` string prefixes and
disjunctions of conjunctive branches
(:class:`~repro.query.predicates.DNFQuery`) are part of the language, and
each estimator declares which shapes it can answer
(:meth:`~repro.estimators.base.CardinalityEstimator.capabilities`).  Naru
serves small disjunctions natively by inclusion–exclusion over batched
conjunctive expansion terms; a relation can register a *fallback* estimator
(``register_table(..., fallback=...)``) for everything past the primary's
capabilities — e.g. many-branch disjunctions past
``NaruConfig.max_dnf_branches``.  The router picks the ensemble member per
query by shape (:meth:`FleetRouter.resolve_serving`); conjunctive traffic
always lands on the primary, bit for bit unchanged.  Reports carry
per-estimator columns (``stats.estimators``,
:meth:`FleetReport.accuracy_by_estimator`);
:func:`generate_shape_workload` builds mixed-shape workloads and the
``serve_ensemble`` benchmark measures the ensemble against extended-executor
ground truth.  ``python -m repro.serve --tables users sessions --fallback
sampling --dnf-fraction 0.2 --like-fraction 0.2`` is the command-line form;
``docs/serving.md`` ("Query language & estimator ensemble") walks it.

Replication and admission control
---------------------------------
A hot relation can be *replicated*: ``register_table(..., replicas=N)`` makes
the router materialise N engine replicas over the relation's one trained
model, each with its own micro-batch queue and its own slice of the shared
cache budget.  Queries land on a replica by a deterministic hash of
``(relation, global workload index)``, and because every query's random
stream is keyed by ``(seed, global index)`` alone, ``replicas=1`` and
``replicas=N`` return the same estimates.  Each replica group bounds its
undispatched queries at ``max_pending``; overflow either forces an early
dispatch (``overflow="block"``, backpressure) or refuses the query with a
typed :class:`AdmissionError` (``overflow="shed"``, counted per route in the
report).  The whole fleet can additionally be fronted by an exact-match
result cache on canonicalised queries (``result_cache=True``)::

    registry.register_table(make_sessions(8_000), replicas=4)
    router = FleetRouter(registry, batch_size=16, max_pending=32,
                         overflow="shed", result_cache=True)
    report = router.run(hot_workload)
    print(report.stats.shed, report.stats.result_cache["hit_rate"])

``python -m repro.serve --tables users sessions --replicas 4 --max-pending 32
--result-cache`` is the command-line form, and the ``serve_replicated``
benchmark measures the hot-relation throughput claim.

Streaming submission and latency SLOs
-------------------------------------
Workloads do not have to arrive as lists.  :class:`AsyncFleetClient` streams
queries in one at a time from asyncio producers and resolves each through a
future.  Latency control is an option of the one router: give
:class:`FleetRouter` an ``slo_ms`` (router-wide, or per relation via
``register_table(..., slo_ms=...)``) and one
:class:`AdaptiveBatchController` per relation watches an **end-to-end**
latency EWMA (queue wait + dispatch) and grows/shrinks the relation's
micro-batch size within ``[1, batch_size]`` to keep the p95 under the
target; a relation with no SLO is served at the fixed batch size with no
controller attached.  Every submission is stamped on arrival, so reports
carry queueing-delay and end-to-end percentiles; a flush timeout
(``flush_after_ms``) bounds how long a partially filled batch may linger,
and ``await client.submit_async(...)`` suspends producers at
``max_pending`` instead of shedding.  Because estimates are keyed by
``(seed, global submission index)`` alone, streaming ≡ batch for any
arrival order, and neither adaptive batch boundaries nor timeout flushes
ever change a number::

    import asyncio
    from repro.serve import AsyncFleetClient, FleetRouter

    router = FleetRouter(registry, batch_size=32, slo_ms=50.0)

    async def producer(client, queries):
        futures = [client.submit(query) for query in queries]
        report = await client.drain()
        return futures, report

    futures, report = asyncio.run(producer(AsyncFleetClient(router), queries))
    print(report.stats.latency_ms["p95"],
          report.stats.routes["sessions"]["batch_trace"])

``python -m repro.serve --tables users sessions --stream --slo-ms 50`` is
the command-line form; the ``serve_stream`` benchmark compares fixed vs
adaptive batching under bursty arrivals (:func:`generate_bursty_workload`).

Cross-process serving
---------------------
Everything above shares one Python process and therefore one GIL.
:class:`ProcessFleet` is the scale-out tier: it spawns N OS worker
processes, ships each trained model to its workers via
:mod:`repro.nn.serialization`, and **is the router** — a
:class:`FleetRouter` subclass whose engines live in the workers; only batch
execution crosses the pipe, so admission control, the result cache,
fallback routing and SLO-adaptive batching (``slo_ms``) work unchanged.  Queries route to a relation, then to a
replica by the same deterministic crc32 hash, then to whichever worker
hosts that replica (:meth:`ModelRegistry.worker_assignments`).  Because
estimates depend only on ``(seed, global index, num_samples)``, the worker
count is invisible in the numbers: ``workers=1 ≡ workers=N``, bit for bit.
Micro-batches and results travel over ``multiprocessing`` pipes, results
keep the arrival-stamped ``queue_wait_ms``/``e2e_ms`` accounting, the merged
:class:`FleetReport` gains a per-worker ``stats.workers`` breakdown, a
crashed worker surfaces as a typed :class:`WorkerError` (never a hang), and
:meth:`ProcessFleet.close` is an idempotent graceful drain::

    from repro.serve import ProcessFleet

    with ProcessFleet(registry, workers=4, log_dir="procfleet-logs") as fleet:
        report = fleet.run(mixed_workload)
    print(report.stats.workers["0"]["busy_cpu_ms"])

``python -m repro.serve --tables users sessions --workers 4 --log-dir logs``
is the command-line form (SIGTERM triggers the same graceful drain); the
``serve_procfleet`` benchmark measures the scale-out claim and
``docs/operations.md`` is the operator's handbook.

Live refresh and epochs
-----------------------
Data does not stand still.  :meth:`ModelRegistry.ingest` appends rows to a
relation and bumps its monotonic **data epoch**; every cache layer is keyed
on the epoch, so a bump invalidates cached answers atomically with zero
stale hits — while the fleet keeps *serving* from the stale model (at its
old row count) until a refresh swaps the next version in.
:class:`RefreshController` runs that loop: it scores each ingest's **drift**
(excess bits per tuple under the current model), flags a relation once it
exceeds the staleness bound or drift threshold, fine-tunes the existing
model on the grown relation and re-registers it with ``replace=True`` —
stamping ``model_epoch = data_epoch``, so routers rebuild the relation's
replica group (fresh conditional caches included) at their next scope
boundary.  Reports expose ``stats.epochs`` and ``stats.max_staleness``; a
:class:`ProcessFleet`, whose workers hold npz-copied models no parent-side
bump can reach, refuses a moved epoch with a typed
:class:`StaleEpochError` instead of serving frozen models::

    from repro.serve import RefreshController

    controller = RefreshController(registry, max_staleness=1)
    record = controller.ingest("sessions", new_rows)   # epoch bump + drift
    if record["refresh_due"]:
        controller.refresh("sessions")                 # atomic model swap
    report = router.run(workload)                      # rebuilt, zero stale
    print(report.stats.epochs["sessions"], report.stats.max_staleness)

The ``serve_refresh`` benchmark replays a partitioned ingest against the
fleet and shows stale-model Q-error degrading under drift and recovering
after refresh; ``docs/serving.md`` ("Live refresh & epochs") walks the loop.

Load testing and chaos drills
-----------------------------
Every harness above is closed-loop: the next query waits for the previous
batch.  :mod:`repro.serve.loadgen` is the open-loop complement — arrivals at
a configured *offered* rate regardless of completion rate, which is the only
way overload is observable.  Poisson, diurnal and flash-crowd arrival
processes (all averaging exactly the requested rate) feed
:func:`run_open_loop`, which paces an :class:`AsyncFleetClient` against a
real clock — or replays a recorded :class:`ArrivalTrace` deterministically
under a frozen :class:`VirtualClock` (trace files are byte-stable for a
given seed).  :func:`sweep_offered_load` produces the
latency-vs-offered-load curve and :func:`locate_knee` the offered rate where
e2e p95 leaves the SLO; chaos scenarios (:class:`SlowReplica`,
:class:`CacheWipe`, :func:`run_kill_worker_drill`) inject faults mid-run,
and :func:`assert_degraded_not_collapsed` pins the degradation contract —
bounded queue growth, typed errors, zero estimate drift on everything that
completed::

    from repro.serve import (
        ArrivalTrace, assert_degraded_not_collapsed, run_open_loop,
        run_fleet_sequential)

    trace = ArrivalTrace.record("poisson", rate_qps=200.0, duration_s=2.0,
                                seed=7)
    trace.save("arrivals.json")                    # byte-stable, replayable
    outcome = run_open_loop(router, workload, ArrivalTrace.load("arrivals.json"))
    baseline = run_fleet_sequential(registry, workload_expanded, seed=0)
    assert_degraded_not_collapsed(outcome, baseline=baseline, max_pending=32)

``python -m repro.serve --tables users sessions --arrivals poisson
--offered-qps 200 --duration-s 2`` is the command-line form (``--arrivals
trace --trace-file arrivals.json`` replays, ``--scenario slow_replica``
injects); the ``serve_loadgen`` benchmark sweeps the offered-load ladder
into ``results/serve_loadgen.{json,txt}`` and ``docs/operations.md`` ("Load
testing & chaos drills") is the operator's drill book.
"""

from .cache import (
    CachedConditionalModel,
    CacheStats,
    PackedConditionalCache,
    ResultCache,
    ResultCacheStats,
    canonical_query_key,
)
from .engine import (
    BatchRecord,
    EngineReport,
    EngineStats,
    EstimateResult,
    EstimationEngine,
    VirtualClock,
    query_rng,
    run_sequential,
    term_rng,
)
from .loadgen import (
    ARRIVAL_PROCESSES,
    SCENARIOS,
    ArrivalTrace,
    CacheWipe,
    ChaosScenario,
    OpenLoopResult,
    SlowReplica,
    assert_degraded_not_collapsed,
    diurnal_arrivals,
    flash_arrivals,
    generate_arrivals,
    locate_knee,
    poisson_arrivals,
    run_kill_worker_drill,
    run_open_loop,
    sweep_offered_load,
)
from .procfleet import (
    ProcessFleet,
    StaleEpochError,
    WorkerError,
    WorkerInfo,
    export_relation,
    restore_estimator,
)
from .refresh import RefreshController
from .registry import ModelRegistry
from .router import (
    AdaptiveBatchController,
    AdmissionError,
    FleetReport,
    FleetRouter,
    FleetStats,
    ReplicaGroup,
    RoutedResult,
    RoutingError,
    latency_percentiles,
    replica_for,
    resolve_route,
    run_fleet_sequential,
)
from .stream import AsyncFleetClient, stream_workload
from .workload import (
    generate_bursty_workload,
    generate_mixed_workload,
    generate_shape_workload,
    load_workload,
    save_workload,
)

__all__ = [
    "EstimationEngine",
    "EstimateResult",
    "EngineReport",
    "EngineStats",
    "BatchRecord",
    "run_sequential",
    "query_rng",
    "term_rng",
    "VirtualClock",
    "PackedConditionalCache",
    "CachedConditionalModel",
    "CacheStats",
    "ResultCache",
    "ResultCacheStats",
    "canonical_query_key",
    "ModelRegistry",
    "FleetRouter",
    "FleetReport",
    "FleetStats",
    "ReplicaGroup",
    "RoutedResult",
    "RoutingError",
    "AdmissionError",
    "run_fleet_sequential",
    "latency_percentiles",
    "replica_for",
    "resolve_route",
    "ProcessFleet",
    "WorkerError",
    "WorkerInfo",
    "StaleEpochError",
    "RefreshController",
    "export_relation",
    "restore_estimator",
    "AdaptiveBatchController",
    "AsyncFleetClient",
    "stream_workload",
    "ARRIVAL_PROCESSES",
    "ArrivalTrace",
    "ChaosScenario",
    "SlowReplica",
    "CacheWipe",
    "SCENARIOS",
    "OpenLoopResult",
    "poisson_arrivals",
    "diurnal_arrivals",
    "flash_arrivals",
    "generate_arrivals",
    "run_open_loop",
    "sweep_offered_load",
    "locate_knee",
    "assert_degraded_not_collapsed",
    "run_kill_worker_drill",
    "generate_mixed_workload",
    "generate_bursty_workload",
    "generate_shape_workload",
    "load_workload",
    "save_workload",
]
