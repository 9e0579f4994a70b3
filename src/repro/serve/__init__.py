"""Serving layer: batched, cached multi-query estimation (``repro.serve``).

The core package answers one query per call; this subpackage is the
deployment-facing front-end that answers *workloads*.  It exists because the
dominant cost of progressive sampling (§5, Algorithm 1) is the per-column
model forward pass, and that cost is almost perfectly shareable across
concurrent queries: the engine stacks the sample paths of a whole micro-batch
into one code matrix per column, skips columns every in-flight query leaves
unconstrained, drops zero-weight paths, and memoises per-prefix conditionals
in a generationally evicted store that persists across batches.

The pieces: :class:`EstimationEngine` (one model, micro-batches, the
conditional cache), :class:`ModelRegistry` + :class:`FleetRouter` (a fleet
of relations, replication, admission control, result caching, live refresh
and epochs, ``slo_ms`` adaptive batching), :class:`AsyncFleetClient`
(streaming submission), :class:`ProcessFleet` (the same router over worker
processes), the load generator and chaos drills of ``loadgen``, and
``report``, which folds every engine report into the route, estimator and
fleet summaries of one :class:`FleetReport`.

Worked, CI-executed examples of every one of them live in
``docs/serving.md``; ``docs/operations.md`` is the operator's drill book,
``docs/architecture.md`` explains why batching, routing and processes never
change an estimate, and ``python -m repro.serve --help`` is the
command-line form.
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
    NotRowExactError,
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
from .report import FleetReport, FleetStats, RoutedResult, latency_percentiles
from .router import (
    AdaptiveBatchController,
    AdmissionError,
    FleetRouter,
    ReplicaGroup,
    RoutingError,
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
    "NotRowExactError",
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
