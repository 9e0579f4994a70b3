"""Unit tests for the streaming layer: controller, async client, SLO wiring.

The invariance suite (``test_serve_invariance.py``) owns the streaming ≡
batch grid; this module pins down the component behaviours — the adaptive
controller's AIMD policy and clamps, how the router attaches it to the routes
that carry an SLO (and only those), the async client's future lifecycle, and
the latency-percentile helper the reports are built from.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.core import NaruConfig
from repro.data import make_sessions, make_users
from repro.estimators import SamplingEstimator
from repro.query import WorkloadGenerator
from repro.query.predicates import DNFQuery
from repro.serve import (
    AdaptiveBatchController,
    AdmissionError,
    AsyncFleetClient,
    FleetRouter,
    ModelRegistry,
    ProcessFleet,
    RoutingError,
    VirtualClock,
    generate_bursty_workload,
    generate_mixed_workload,
    latency_percentiles,
    replica_for,
    stream_workload,
)
from repro.serve.router import (
    _ALPHA,
    _GROW_BELOW,
    _HEADROOM,
    _MIN_BATCH,
    _TRACE_LIMIT,
)

_CONFIG = NaruConfig(epochs=2, hidden_sizes=(16, 16), batch_size=128,
                     progressive_samples=50, seed=0)
_SAMPLES = 50


@pytest.fixture(scope="module")
def fleet():
    """A small fitted two-relation registry shared by the streaming tests."""
    registry = ModelRegistry(default_config=_CONFIG)
    registry.register_table(make_users(num_users=80, seed=4))
    registry.register_table(make_sessions(num_rows=300, num_users=80, seed=5))
    registry.fit_all()
    return registry


@pytest.fixture(scope="module")
def workload(fleet):
    return generate_mixed_workload(
        {name: fleet.relation(name) for name in fleet.names}, 14,
        min_filters=1, max_filters=3, seed=7)


# --------------------------------------------------------------------------- #
# AdaptiveBatchController
# --------------------------------------------------------------------------- #
def test_controller_shrinks_monotonically_under_violation():
    controller = AdaptiveBatchController(slo_ms=10.0, max_batch=32)
    sizes = [controller.observe(100.0) for _ in range(10)]
    assert sizes[0] < 32  # the very first violation already shrinks
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))  # never grows
    assert sizes[-1] == 1  # ...all the way down to min_batch
    assert controller.shrinks >= 5
    assert controller.trace[0] == 32


def test_controller_clamps_at_both_bounds():
    controller = AdaptiveBatchController(slo_ms=10.0, max_batch=8)
    for _ in range(20):
        assert controller.observe(1000.0) >= _MIN_BATCH
    assert controller.batch_size == _MIN_BATCH
    for _ in range(50):
        assert controller.observe(0.01) <= 8
    assert controller.batch_size == 8  # grown back, additively, to the cap


def test_controller_does_not_grow_above_target_band():
    controller = AdaptiveBatchController(slo_ms=10.0, max_batch=32)
    controller.observe(100.0)  # shrink once
    size = controller.batch_size
    # EWMA inside [_GROW_BELOW * target, target]: hold, neither grow nor
    # shrink.
    assert controller.target_ms == pytest.approx(10.0 * _HEADROOM)
    assert _GROW_BELOW * controller.target_ms < 6.0 < controller.target_ms
    controller.ewma_ms = 6.0
    assert controller.observe(6.0) == size


def test_controller_validates_arguments():
    with pytest.raises(ValueError, match="slo_ms"):
        AdaptiveBatchController(slo_ms=0.0)
    with pytest.raises(ValueError, match="max_batch"):
        AdaptiveBatchController(slo_ms=10.0, max_batch=_MIN_BATCH - 1)



def test_controller_requires_an_slo_and_reports_every_key():
    """A controller exists only for an SLO: there is no disabled mode, and
    its snapshot keeps the report's full key set."""
    with pytest.raises(TypeError, match="slo_ms"):
        AdaptiveBatchController()
    controller = AdaptiveBatchController(slo_ms=10.0, max_batch=8)
    assert controller.target_ms == pytest.approx(10.0 * _HEADROOM)
    assert set(controller.as_dict()) == {
        "slo_ms", "ewma_ms", "batch_size", "min_batch", "max_batch",
        "observations", "shrinks", "grows", "trace"}
    assert controller.as_dict()["ewma_ms"] is None  # nothing observed yet
    assert repr(controller) == (
        f"AdaptiveBatchController(slo=10.0ms, batch=8 in [{_MIN_BATCH}, 8])")

def test_controller_trace_is_bounded():
    controller = AdaptiveBatchController(slo_ms=10.0, max_batch=4)
    for _ in range(_TRACE_LIMIT + 50):
        controller.observe(100.0)
    assert len(controller.trace) == _TRACE_LIMIT  # ring buffer, not unbounded
    assert controller.observations == _TRACE_LIMIT + 50
    assert controller.shrinks >= 2         # cumulative counters survive


def test_ewma_tracks_latency():
    controller = AdaptiveBatchController(slo_ms=100.0, max_batch=4)
    controller.observe(10.0)
    assert controller.ewma_ms == pytest.approx(10.0)
    controller.observe(20.0)
    assert controller.ewma_ms == pytest.approx(
        _ALPHA * 20.0 + (1.0 - _ALPHA) * 10.0)


# --------------------------------------------------------------------------- #
# The router's SLO wiring
# --------------------------------------------------------------------------- #
def test_router_with_slo_adapts_batch_size(fleet, workload):
    router = FleetRouter(fleet, batch_size=8, num_samples=_SAMPLES,
                         seed=2, slo_ms=0.01)
    report = router.run(workload)
    for route in report.stats.routes:
        trace = report.stats.routes[route]["batch_trace"]
        assert trace[0] == 8
        assert min(trace) < 8  # the impossible SLO forced a shrink
        assert router.controller(route).shrinks > 0
    snapshots = router.controllers_report()
    assert set(snapshots) == set(report.stats.routes)
    assert all(entry["slo_ms"] == 0.01 for entry in snapshots.values())


def test_router_without_any_slo_attaches_nothing(fleet, workload):
    """No SLO anywhere: no controller, no batch_hook on any engine and no
    batch trace in the report — the fixed-batch hot path, untouched."""
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2)
    report = router.run(workload)
    for route, stats in report.stats.routes.items():
        assert stats["batch_trace"] is None
        assert router.controller(route) is None
        assert all(engine.batch_hook is None and engine.batch_size == 4
                   for engine in router.group(route).engines)
    assert router.controllers_report() == {}



def test_router_slo_is_the_one_slo_of_every_route(fleet, workload):
    """The router-wide SLO is the only SLO: every route, however it was
    registered, gets a controller steering to exactly that value, and every
    engine of its group carries the controller's hook."""
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES,
                         seed=2, slo_ms=50.0)
    router.run(workload)
    assert set(router.controllers_report()) == set(fleet.names)
    for route in fleet.names:
        assert router.controller(route).slo_ms == 50.0
        assert all(engine.batch_hook is not None
                   for engine in router.group(route).engines)

def test_router_validates_slo(fleet):
    with pytest.raises(ValueError, match="slo_ms"):
        FleetRouter(fleet, slo_ms=-1.0)
    with pytest.raises(ValueError, match="slo_ms"):
        FleetRouter(fleet, slo_ms=0.0)


def test_batch_trace_is_per_scope(fleet, workload):
    """Each report's batch_trace covers its own scope: element 0 is the size
    in force entering the scope, then one entry per dispatch — warmup history
    does not leak into the steady scope's report."""
    router = FleetRouter(fleet, batch_size=8, num_samples=_SAMPLES,
                         seed=2, slo_ms=0.01)
    warmup = router.run(workload)
    steady = router.run(workload)
    for route in steady.stats.routes:
        warm_stats = warmup.stats.routes[route]
        steady_stats = steady.stats.routes[route]
        assert warm_stats["batch_trace"][0] == 8  # fresh router: the maximum
        assert len(warm_stats["batch_trace"]) == warm_stats["num_batches"] + 1
        # The steady scope opens at the converged size, not the maximum, and
        # its trace counts only its own dispatches.
        assert steady_stats["batch_trace"][0] == warm_stats["batch_trace"][-1]
        assert len(steady_stats["batch_trace"]) == \
            steady_stats["num_batches"] + 1


# --------------------------------------------------------------------------- #
# AsyncFleetClient
# --------------------------------------------------------------------------- #
def test_async_client_resolves_futures_with_routed_results(fleet, workload):
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2)
    batch = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES,
                        seed=2).run(workload)

    async def main():
        client = AsyncFleetClient(router)
        futures = [client.submit(query) for query in workload]
        report = await client.drain()
        return [future.result() for future in futures], report

    results, report = asyncio.run(main())
    assert [result.index for result in results] == list(range(len(workload)))
    np.testing.assert_allclose([result.selectivity for result in results],
                               batch.selectivities, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(report.selectivities, batch.selectivities,
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("workers", (0, 2), ids=["inprocess", "procfleet-w2"])
def test_futures_carry_the_reports_latencies(workers):
    """Regression: ``on_result`` observers — hence every client future — got
    ``queue_wait_ms == e2e_ms == 0.0`` for model-served results (the primary
    sink dropped both fields) while the report carried the real values."""
    users = make_users(num_users=80, seed=4)
    registry = ModelRegistry(
        default_config=dataclasses.replace(_CONFIG, max_dnf_branches=2))
    registry.register_table(users, fallback=SamplingEstimator(
        users, fraction=1.0, seed=0))
    registry.fit_all()
    generator = WorkloadGenerator(users, min_filters=1, max_filters=2, seed=17)
    wide = DNFQuery.from_tuples(
        [[("plan", "=", plan)] for plan in ("free", "basic", "pro")],
        table="users")
    queries = [query.qualified("users") for query in generator.generate(5)]
    queries.insert(2, wide)
    options = dict(batch_size=2, num_samples=_SAMPLES, seed=2)
    router = (ProcessFleet(registry, workers=workers, **options) if workers
              else FleetRouter(registry, **options))

    async def main():
        client = AsyncFleetClient(router)
        try:
            futures = [client.submit(query) for query in queries]
            router.flush()
            if workers:
                router.collect()  # worker replies resolve the futures
            report = await client.drain()
            return [future.result() for future in futures], report
        finally:
            client.close()

    try:
        seen, report = asyncio.run(main())
    finally:
        if workers:
            router.close()
    assert {result.estimator[:4] for result in seen} == {"Naru", "Samp"}
    for observed, reported in zip(seen, report.results):
        assert observed.index == reported.index
        assert observed.queue_wait_ms == reported.queue_wait_ms
        assert observed.e2e_ms == reported.e2e_ms > 0.0


def test_async_client_duplicate_index_rejected(fleet, workload):
    router = FleetRouter(fleet, batch_size=64, num_samples=_SAMPLES, seed=2)

    async def main():
        client = AsyncFleetClient(router)
        client.submit(workload[0], index=5)
        with pytest.raises(ValueError, match="already used"):
            client.submit(workload[1], index=5)
        assert client.outstanding == 1
        await client.drain()

    asyncio.run(main())


def test_async_client_rejects_index_reuse_after_dispatch(fleet, workload):
    """A dispatched index is as used as a pending one: reusing it would make
    two queries share one random stream and corrupt report ordering."""
    router = FleetRouter(fleet, batch_size=1, num_samples=_SAMPLES, seed=2)

    async def main():
        client = AsyncFleetClient(router)
        future = client.submit(workload[0], index=3)
        assert future.done()  # batch_size=1 dispatches on submission
        with pytest.raises(ValueError, match="already used"):
            client.submit(workload[1], index=3)
        await client.drain()

    asyncio.run(main())


def test_async_client_routing_error_leaves_no_future(fleet, workload):
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2)

    async def main():
        client = AsyncFleetClient(router)
        with pytest.raises(RoutingError):
            client.submit(workload[0].qualified("not_registered"))
        assert client.outstanding == 0
        assert router.next_index == 0  # nothing was consumed
        return await client.drain()

    report = asyncio.run(main())
    assert report.stats.num_queries == 0


def test_async_client_result_cache_hit_resolves_immediately(fleet, workload):
    router = FleetRouter(fleet, batch_size=64, num_samples=_SAMPLES,
                         seed=2, result_cache=True)
    router.run(workload)  # warm the result cache
    start_index = router.next_index  # the scope continues after run()

    async def main():
        client = AsyncFleetClient(router)
        future = client.submit(workload[0])
        assert future.done()  # served from the result cache, synchronously
        result = future.result()
        assert result.from_result_cache
        await client.drain()
        return result

    result = asyncio.run(main())
    assert result.index == start_index


def test_async_client_empty_stream_drains_to_well_formed_report(fleet):
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2)

    async def main():
        async with AsyncFleetClient(router) as client:
            assert client.outstanding == 0
        return router.report()

    report = asyncio.run(main())
    assert report.results == []
    assert report.stats.num_queries == 0
    assert report.stats.queries_per_second == 0.0
    assert report.stats.latency_ms == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_async_client_detaches_and_restores_observer(fleet):
    seen = []
    prior = seen.append
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2)
    router.on_result = prior

    async def main():
        async with AsyncFleetClient(router) as client:
            client.submit(WorkloadGenerator(fleet.relation("users"),
                                            min_filters=1, max_filters=2,
                                            seed=9).generate(1)[0]
                          .qualified("users"))

    asyncio.run(main())
    assert router.on_result is prior  # prior observer restored
    assert len(seen) == 1  # ...and it kept firing while the client was live


# --------------------------------------------------------------------------- #
# stream_workload
# --------------------------------------------------------------------------- #
def test_stream_workload_rejects_bad_arrival_order(fleet, workload):
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2)
    with pytest.raises(ValueError, match="permutation"):
        stream_workload(router, workload, arrival_order=[0, 0, 1])


def test_stream_workload_sheds_like_run(fleet, workload):
    router = FleetRouter(fleet, batch_size=8, num_samples=_SAMPLES,
                         seed=2, max_pending=2, overflow="shed")
    report = stream_workload(router, workload)
    assert report.stats.shed > 0
    assert report.stats.num_queries + report.stats.shed == len(workload)
    # Shed queries leave their position-keyed index unused; route_of must
    # look results up by index field, not list position, across the gaps.
    for result in report.results:
        assert report.route_of(result.index) == result.route
    served = {result.index for result in report.results}
    missing = next(position for position in range(len(workload))
                   if position not in served)
    with pytest.raises(KeyError, match="no result"):
        report.route_of(missing)


# --------------------------------------------------------------------------- #
# Bursty workloads and latency percentiles
# --------------------------------------------------------------------------- #
def test_bursty_workload_is_mixed_workload_reordered(fleet):
    relations = {name: fleet.relation(name) for name in fleet.names}
    mixed = generate_mixed_workload(relations, 24, min_filters=1,
                                    max_filters=3, seed=3,
                                    weights={"sessions": 3.0, "users": 1.0})
    bursty = generate_bursty_workload(relations, 24, hot="sessions",
                                      burst_size=6, min_filters=1,
                                      max_filters=3, seed=3,
                                      weights={"sessions": 3.0, "users": 1.0})
    assert sorted(map(str, bursty)) == sorted(map(str, mixed))
    # The hot relation opens with a full uninterrupted burst.
    assert [query.table for query in bursty[:6]] == ["sessions"] * 6
    with pytest.raises(ValueError, match="hot relation"):
        generate_bursty_workload(relations, 8, hot="nope")
    with pytest.raises(ValueError, match="burst_size"):
        generate_bursty_workload(relations, 8, hot="users", burst_size=0)


def test_latency_percentiles_weighting_and_edges():
    assert latency_percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    flat = latency_percentiles([10.0, 10.0, 10.0])
    assert flat == {"p50": 10.0, "p95": 10.0, "p99": 10.0}
    # Query weighting: one 100 ms batch of 99 queries dominates the tail of
    # one 1 ms batch of 1 query.
    weighted = latency_percentiles([1.0, 100.0], weights=[1, 99])
    assert weighted["p50"] == 100.0
    unweighted = latency_percentiles([1.0, 100.0])
    assert unweighted["p50"] == pytest.approx(50.5)
    with pytest.raises(ValueError, match="equal length"):
        latency_percentiles([1.0], weights=[1, 2])
    assert latency_percentiles([5.0], weights=[0]) == \
        {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_latency_percentiles_rejects_negative_weights():
    """Negative weights are a caller bug: silently clipping them (the old
    ``np.maximum(counts, 0)``) would report percentiles over a different
    population than asked for, so they must raise instead."""
    with pytest.raises(ValueError, match="non-negative"):
        latency_percentiles([1.0, 2.0], weights=[3, -1])
    # The non-negative path is untouched: zeros drop, positives repeat.
    assert latency_percentiles([1.0, 2.0], weights=[0, 2])["p50"] == 2.0


# --------------------------------------------------------------------------- #
# VirtualClock, queue-wait accounting and flush deadlines
# --------------------------------------------------------------------------- #
def test_virtual_clock_advances_monotonically():
    clock = VirtualClock()
    assert clock() == 0.0
    assert clock.advance(1.5) == 1.5
    assert clock() == 1.5
    with pytest.raises(ValueError, match="backwards"):
        clock.advance(-0.1)
    # A based clock rides on its underlying time source.
    real = {"now": 10.0}
    based = VirtualClock(start=1.0, base=lambda: real["now"])
    assert based() == 11.0
    assert based.advance(2.0) == 13.0
    real["now"] = 12.0
    assert based() == 15.0  # the base moved underneath


def test_engine_flush_deadline_and_tick(fleet, workload):
    """A partially filled micro-batch dispatches once its oldest query has
    waited past flush_after_ms — and only then."""
    clock = VirtualClock()
    router = FleetRouter(fleet, batch_size=8, num_samples=_SAMPLES,
                         seed=2, flush_after_ms=5.0, clock=clock)
    route = router.resolve_route(workload[0])
    router.submit(workload[0])
    engine = max(router.group(route).engines, key=lambda e: e.pending)
    assert engine.flush_deadline == pytest.approx(5e-3)
    assert router.tick() == pytest.approx(5e-3)  # not due yet: deadline back
    assert engine.pending == 1
    clock.advance(4e-3)
    assert router.tick() == pytest.approx(5e-3)  # still 1 ms early
    clock.advance(2e-3)
    assert router.tick() is None                 # overdue: dispatched
    assert engine.pending == 0
    report = router.report()
    assert report.stats.timeout_flushes == 1
    assert report.stats.routes[route]["timeout_flushes"] == 1
    [result] = report.results
    assert result.queue_wait_ms == pytest.approx(6.0)
    assert result.e2e_ms == pytest.approx(6.0)  # virtual dispatch takes 0 ms


@pytest.mark.parametrize("workers", [0, 1], ids=["inprocess", "procfleet-w1"])
def test_batch_records_name_every_flush_reason(workers):
    """One virtual-clock script dispatches a batch for each reason — fill,
    deadline, idle, admission, explicit flush — and every batch record names
    its own; a one-worker ProcessFleet records the same reasons."""
    users = make_users(num_users=80, seed=4)
    registry = ModelRegistry(default_config=_CONFIG)
    registry.register_table(users, replicas=2)
    registry.fit_all()
    generator = WorkloadGenerator(users, min_filters=1, max_filters=2, seed=17)
    queries = [query.qualified("users") for query in generator.generate(4)]
    indices = {0: [], 1: []}  # global indices each replica's hash picks
    for index in range(64):
        indices[replica_for("users", index, 2)].append(index)
    slots = {replica: iter(found) for replica, found in indices.items()}
    clock = VirtualClock()
    options = dict(batch_size=2, num_samples=_SAMPLES, seed=2, max_pending=2,
                   flush_after_ms=5.0, clock=clock)
    router = (ProcessFleet(registry, workers=workers, **options) if workers
              else FleetRouter(registry, **options))

    def submit(replica):
        index = next(slots[replica])
        router.submit(queries[index % len(queries)], index=index)

    try:
        submit(0)
        submit(0)                                 # replica 0 fills
        submit(0)
        clock.advance(6e-3)
        router.tick()                             # its deadline passes
        submit(0)
        assert router.flush_deadlined() == 1      # the loop went idle
        submit(1)
        submit(0)
        submit(1)  # the group is at max_pending: replica 0 leaves, 1 fills
        submit(0)
        router.flush()                            # an explicit flush
        report = router.report()
    finally:
        if workers:
            router.close()
    reasons = [[record.flush_reason for record in engine_report.batches]
               for engine_report in report.routes["users"]]
    assert reasons == [["fill", "deadline", "idle", "admission", "flush"],
                       ["fill"]]
    assert [record.timeout_flush for record in report.routes["users"][0]
            .batches] == [False, True, False, False, False]
    assert report.stats.timeout_flushes == 1


def test_flush_deadline_validation(fleet):
    with pytest.raises(ValueError, match="flush_after_ms"):
        FleetRouter(fleet, flush_after_ms=0.0)
    with pytest.raises(ValueError, match="flush_after_ms"):
        FleetRouter(fleet, flush_after_ms=-1.0)



def test_router_flush_deadline_is_every_engines_deadline(fleet, workload):
    """The router is the one place a flush deadline is set: every engine of
    every route carries the router's value, or none when it has none."""
    timed = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2,
                        flush_after_ms=80.0)
    plain = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2)
    for router in (timed, plain):
        router.run(workload)
        for route in fleet.names:
            assert {engine.flush_after_ms
                    for engine in router.group(route).engines} == \
                {router.flush_after_ms}
    assert timed.flush_after_ms == 80.0 and plain.flush_after_ms is None

def test_report_exposes_queue_wait_and_e2e_percentiles(fleet, workload):
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2)
    report = router.run(workload)
    for scope in (report.stats.as_dict(), *report.stats.routes.values()):
        assert {"p50", "p95", "p99"} == set(scope["latency_ms"])
        assert {"p50", "p95", "p99"} == set(scope["queue_wait_ms"])
        assert {"p50", "p95", "p99"} == set(scope["e2e_ms"])
    # Per query, end-to-end is wait + dispatch, so the fleet e2e p95 can
    # never undercut the dispatch p95 and every result carries both fields.
    assert report.stats.e2e_ms["p95"] >= \
        report.stats.latency_ms["p95"] - 1e-9
    for result in report.results:
        assert result.e2e_ms >= result.queue_wait_ms >= 0.0


def test_stream_workload_advance_ms_requires_virtual_clock(fleet, workload):
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2)
    with pytest.raises(ValueError, match="advanceable"):
        stream_workload(router, workload, advance_ms=1.0)
    clocked = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES,
                          seed=2, clock=VirtualClock())
    with pytest.raises(ValueError, match="non-negative"):
        stream_workload(clocked, workload, advance_ms=-1.0)


# --------------------------------------------------------------------------- #
# The SLO is end-to-end: queueing delay steers the batch size
# --------------------------------------------------------------------------- #
def test_controller_steers_on_queue_wait(fleet, workload):
    """Under a virtual clock the dispatch latency is exactly zero, so *all*
    latency is queueing delay in partially filled batches — a controller
    watching dispatch time alone would never move.  The router feeds it the
    batch's worst end-to-end latency, so it sees the wait and shrinks."""
    router = FleetRouter(fleet, batch_size=8, num_samples=_SAMPLES, seed=2,
                         slo_ms=5.0, flush_after_ms=50.0, clock=VirtualClock())
    report = stream_workload(router, workload, advance_ms=2.0)
    assert report.stats.latency_ms["p99"] == 0.0
    assert any(router.controller(route).shrinks > 0
               for route in report.stats.routes)
    # Steering moves batch boundaries, never estimates.
    fixed = FleetRouter(fleet, batch_size=8, num_samples=_SAMPLES,
                        seed=2).run(workload)
    np.testing.assert_allclose(report.selectivities, fixed.selectivities,
                               rtol=0.0, atol=1e-12)


# --------------------------------------------------------------------------- #
# AsyncFleetClient: close/cancel semantics and the __aexit__ hang regression
# --------------------------------------------------------------------------- #
def test_close_cancels_outstanding_futures(fleet, workload):
    router = FleetRouter(fleet, batch_size=64, num_samples=_SAMPLES,
                         seed=2)

    async def main():
        client = AsyncFleetClient(router)
        future = client.submit(workload[0])
        assert not future.done()
        client.close()
        assert future.cancelled()
        assert client.outstanding == 0
        # close() is idempotent and leaves the router usable: flushing
        # dispatches the still-pending query without resolving anything
        # through the closed client.
        client.close()
        router.flush()
        return router.report()

    report = asyncio.run(main())
    assert report.stats.num_queries == 1


def test_aexit_on_exception_cancels_futures_instead_of_hanging(fleet,
                                                               workload):
    """Regression for the __aexit__ deadlock: leaving the context manager via
    an exception used to skip drain() *and* leave every in-flight future
    pending forever, deadlocking concurrent awaiters.  close() must cancel
    them so awaiters observe CancelledError promptly."""
    router = FleetRouter(fleet, batch_size=64, num_samples=_SAMPLES,
                         seed=2)

    async def main():
        observed = {}

        async def awaiter(future):
            try:
                await future
            except asyncio.CancelledError:
                observed["cancelled"] = True

        with pytest.raises(RuntimeError, match="boom"):
            async with AsyncFleetClient(router) as client:
                future = client.submit(workload[0])  # in-flight micro-batch
                task = asyncio.ensure_future(awaiter(future))
                await asyncio.sleep(0)
                raise RuntimeError("boom")
        # The awaiter must finish on its own — a hang here is the old bug
        # (wait_for bounds the test instead of stalling the suite forever).
        await asyncio.wait_for(task, timeout=5.0)
        return observed

    observed = asyncio.run(main())
    assert observed == {"cancelled": True}
    assert router.on_result is None  # detached despite the exception


# --------------------------------------------------------------------------- #
# Awaitable backpressure
# --------------------------------------------------------------------------- #
def test_submit_async_suspends_at_capacity_and_resumes_on_driver_flush(
        fleet):
    """With the group at max_pending, submit_async suspends instead of
    raising AdmissionError; the flush driver dispatches the partial batch
    once the parked producer leaves the loop idle, freeing capacity and
    resuming it — no shed, no forced early dispatch at submit time, and no
    wait for the 30 ms deadline."""
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES,
                         seed=2, max_pending=2, overflow="shed",
                         flush_after_ms=30.0)
    generator = WorkloadGenerator(fleet.relation("users"), min_filters=1,
                                  max_filters=2, seed=17)
    queries = [query.qualified("users") for query in generator.generate(3)]

    async def main():
        async with AsyncFleetClient(router) as client:
            await client.submit_async(queries[0])
            await client.submit_async(queries[1])
            suspended = asyncio.ensure_future(client.submit_async(queries[2]))
            await asyncio.sleep(0)
            assert not suspended.done()  # producer parked at max_pending
            await asyncio.wait_for(suspended, timeout=10.0)
            freed_by = client.idle_flushes
            report = await client.drain()
        return report, freed_by

    report, freed_by = asyncio.run(main())
    assert report.stats.num_queries == 3
    assert report.stats.shed == 0  # backpressure replaced shedding
    # Only the driver could free the slot (two queries cannot fill a batch
    # of four), and it did so at loop idle, not at the deadline.
    assert freed_by >= 1
    assert report.stats.timeout_flushes == 0


def test_submit_async_without_flush_timeout_falls_back_to_early_dispatch(
        fleet):
    """A route with no flush deadline cannot free capacity passively — a
    lone producer awaiting it would deadlock — so acquire() degrades to the
    block policy's early dispatch and the submission completes inline."""
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES,
                         seed=2, max_pending=2, overflow="block")
    generator = WorkloadGenerator(fleet.relation("users"), min_filters=1,
                                  max_filters=2, seed=18)
    queries = [query.qualified("users") for query in generator.generate(3)]

    async def main():
        async with AsyncFleetClient(router) as client:
            futures = [await client.submit_async(query) for query in queries]
            report = await client.drain()
        return futures, report

    futures, report = asyncio.run(main())
    assert report.stats.num_queries == 3
    assert [future.result().index for future in futures] == [0, 1, 2]


def test_submit_async_of_a_fallback_query_waits_on_the_fallback_unit():
    """Regression: acquire() resolved only the route and waited on the
    primary group, so a query only the fallback serves was held back by the
    primary's admission bound — with no deadline it force-flushed the
    primary's partial batch (reason "admission").  It must wait on the unit
    that answers it: the fallback unit, which has no bound."""
    users = make_users(num_users=80, seed=4)
    registry = ModelRegistry(
        default_config=dataclasses.replace(_CONFIG, max_dnf_branches=2))
    registry.register_table(users, fallback=SamplingEstimator(
        users, fraction=1.0, seed=0))
    registry.fit_all()
    router = FleetRouter(registry, batch_size=4, num_samples=_SAMPLES,
                         seed=2, max_pending=1, overflow="shed")
    [conjunctive] = _users_queries(registry, 1)
    wide = DNFQuery.from_tuples(
        [[("plan", "=", plan)] for plan in ("free", "basic", "pro")],
        table="users")

    async def main():
        async with AsyncFleetClient(router) as client:
            pending = client.submit(conjunctive)
            served = await client.submit_async(wide)
            assert served.done() and served.result().estimator[:4] == "Samp"
            assert not pending.done()
            assert router.group("users").pending == 1
            return await client.drain()

    report = asyncio.run(main())
    assert report.stats.num_queries == 2
    reasons = [record.flush_reason for record in
               report.routes["users"][0].batches]
    assert reasons == ["flush"]  # dispatched by the drain, never early


def test_flush_driver_dispatches_lone_submission(fleet, workload):
    """A single query in a partially filled batch resolves even though no
    further submissions, flushes or drains happen: the driver dispatches it
    as soon as the loop goes idle, long before its 10 s deadline."""
    router = FleetRouter(fleet, batch_size=64, num_samples=_SAMPLES,
                         seed=2, flush_after_ms=10_000.0)

    async def main():
        async with AsyncFleetClient(router) as client:
            future = client.submit(workload[0])
            assert not future.done()
            result = await asyncio.wait_for(future, timeout=1.0)
            idle_flushes = client.idle_flushes
            await client.drain()
        return result, idle_flushes

    result, idle_flushes = asyncio.run(main())
    assert result.index == 0
    assert idle_flushes == 1
    assert router.report().stats.timeout_flushes == 0


def _users_queries(fleet, count, seed=19):
    generator = WorkloadGenerator(fleet.relation("users"), min_filters=1,
                                  max_filters=2, seed=seed)
    return [query.qualified("users") for query in generator.generate(count)]


def _batches(report) -> int:
    return sum(stats["num_batches"] for stats in report.stats.routes.values())


def test_flush_driver_batches_a_burst_that_never_yields(fleet):
    """2·batch_size + 1 submits with no yield in between: two batches fill
    on submit, and the idle loop afterwards dispatches the last query — the
    driver never cuts a burst it cannot see."""
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES,
                         seed=2, flush_after_ms=10_000.0)
    queries = _users_queries(fleet, 2 * 4 + 1)

    async def main():
        async with AsyncFleetClient(router) as client:
            futures = [client.submit(query) for query in queries]
            await asyncio.wait_for(asyncio.gather(*futures), timeout=1.0)
            return client.idle_flushes, await client.drain()

    idle_flushes, report = asyncio.run(main())
    assert _batches(report) == 3
    assert idle_flushes == 1
    assert report.stats.timeout_flushes == 0


@pytest.mark.parametrize("count", (2, 5))
def test_flush_driver_batches_submits_that_yield_between(fleet, count):
    """k < batch_size submits, each followed by one ``sleep(0)`` — the
    pattern of overdue open-loop arrivals — still share one batch: a pass
    of the loop that hands a query in is not idle."""
    router = FleetRouter(fleet, batch_size=8, num_samples=_SAMPLES,
                         seed=2, flush_after_ms=10_000.0)
    queries = _users_queries(fleet, count)

    async def main():
        async with AsyncFleetClient(router) as client:
            futures = []
            for query in queries:
                futures.append(client.submit(query))
                await asyncio.sleep(0)
            await asyncio.wait_for(asyncio.gather(*futures), timeout=1.0)
            return await client.drain()

    report = asyncio.run(main())
    assert _batches(report) == 1
    assert report.stats.num_queries == count
    assert report.stats.timeout_flushes == 0


def test_flush_deadline_fires_while_another_producer_keeps_the_loop_busy(
        fleet, workload):
    """The deadline stays the bound for a loop that never idles: a users
    query left pending while a second producer submits sessions queries on
    every pass is dispatched by its deadline, as a timeout flush."""
    router = FleetRouter(fleet, batch_size=8, num_samples=_SAMPLES, seed=2,
                         flush_after_ms=20.0)
    [user_query] = _users_queries(fleet, 1)
    sessions = [query for query in workload if query.table == "sessions"]

    async def main():
        async with AsyncFleetClient(router) as client:
            lone = client.submit(user_query)

            async def busy():
                for step in range(100_000):
                    if lone.done():
                        return
                    client.submit(sessions[step % len(sessions)])
                    await asyncio.sleep(0)

            await asyncio.wait_for(busy(), timeout=10.0)
            await client.drain()
        return lone.result()

    result = asyncio.run(main())
    report = router.report()
    assert result.route == "users"
    assert report.stats.routes["users"]["timeout_flushes"] == 1
    assert result.queue_wait_ms >= 20.0


# --------------------------------------------------------------------------- #
# Flush-deadline regressions
# --------------------------------------------------------------------------- #
class _SteppingClock:
    """Clock advancing a fixed step on every reading — time passes mid-run()."""

    def __init__(self, step: float) -> None:
        self.step = step
        self.now = 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_run_ticks_flush_deadlines_even_when_submissions_shed(fleet):
    """Regression: run() used to skip tick() whenever a submission was shed,
    so once a group hit max_pending its overdue partial batch was never
    flushed and the entire remaining workload was shed — even though the
    flush deadline existed precisely to clear that state."""
    generator = WorkloadGenerator(fleet.relation("users"), min_filters=1,
                                  max_filters=2, seed=21)
    queries = [query.qualified("users") for query in generator.generate(6)]
    router = FleetRouter(fleet, batch_size=8, num_samples=_SAMPLES,
                         seed=2, max_pending=1, overflow="shed",
                         flush_after_ms=5.0, clock=_SteppingClock(3e-3))
    report = router.run(queries)
    # The deadline fired mid-run and freed capacity: more than the first
    # query was served, and the flushes really were timeout-triggered.
    assert report.stats.timeout_flushes > 0
    assert report.stats.num_queries > 1
    assert report.stats.num_queries + report.stats.shed == len(queries)


def test_flush_driver_propagates_dispatch_errors_to_awaiters(fleet,
                                                             workload):
    """Regression: a dispatch error inside the background flush driver used
    to kill the task silently, leaving every outstanding future pending
    forever — the error must surface through the futures instead."""
    router = FleetRouter(fleet, batch_size=64, num_samples=_SAMPLES,
                         seed=2, flush_after_ms=10.0)

    async def main():
        client = AsyncFleetClient(router)
        try:
            future = client.submit(workload[0])
            route = router.resolve_route(workload[0])
            engine = max(router.group(route).engines,
                         key=lambda engine: engine.pending)

            def boom(*args, **kwargs):
                raise RuntimeError("sampler exploded")

            engine._sampler.estimate_selectivity_batch = boom
            with pytest.raises(RuntimeError, match="sampler exploded"):
                await asyncio.wait_for(future, timeout=10.0)
        finally:
            client.close()

    asyncio.run(main())


def test_flush_driver_auto_mode_skips_frozen_virtual_clocks(fleet, workload):
    """A fully virtual clock can never make a deadline due by sleeping, so
    the default (auto) driver mode must not spin a wall-clock driver
    against it."""
    frozen = FleetRouter(fleet, batch_size=64, num_samples=_SAMPLES,
                         seed=2, flush_after_ms=5.0, clock=VirtualClock())

    async def main(client):
        async with client:
            client.submit(workload[0])
            started = client._driver_task is not None
            frozen.flush()  # settle the future so exit drains cleanly
        return started

    assert asyncio.run(main(AsyncFleetClient(frozen))) is False



def test_flush_driver_never_starts_without_a_deadline(fleet):
    """No flush deadline, no driver: a partial batch waits through real idle
    time for a fill or an explicit flush, and the drain dispatches it."""
    router = FleetRouter(fleet, batch_size=8, num_samples=_SAMPLES, seed=2)
    [query] = _users_queries(fleet, 1)

    async def main():
        async with AsyncFleetClient(router) as client:
            waiting = client.submit(query)
            await asyncio.sleep(0.05)  # idle, for real
            assert client._driver_task is None
            assert not waiting.done()
            assert router.group("users").pending == 1
            idle_flushes = client.idle_flushes
            report = await client.drain()
        return idle_flushes, waiting.result(), report

    idle_flushes, result, report = asyncio.run(main())
    assert idle_flushes == 0
    assert result.route == "users"
    assert [record.flush_reason
            for record in report.routes["users"][0].batches] == ["flush"]


def test_flush_driver_off_leaves_a_deadline_to_tick(fleet):
    """flush_driver=False on a wall clock with a deadline: no task runs, so
    a partial batch waits past its deadline until the caller ticks."""
    router = FleetRouter(fleet, batch_size=8, num_samples=_SAMPLES, seed=2,
                         flush_after_ms=5.0)
    [query] = _users_queries(fleet, 1)

    async def main():
        async with AsyncFleetClient(router, flush_driver=False) as client:
            waiting = client.submit(query)
            await asyncio.sleep(0.05)  # ten deadlines of real idle time
            assert client._driver_task is None
            assert not waiting.done()
            router.tick()
            assert waiting.done()
            report = await client.drain()
        return client.idle_flushes, report

    idle_flushes, report = asyncio.run(main())
    assert idle_flushes == 0
    assert [record.flush_reason
            for record in report.routes["users"][0].batches] == ["deadline"]

def test_flush_driver_restarts_after_dispatch_error(fleet, workload):
    """Regression: a dead driver used to stay registered, silently voiding
    the flush-timeout guarantee for every later submission on the same
    client — after an error the next submission must start a fresh driver."""
    router = FleetRouter(fleet, batch_size=64, num_samples=_SAMPLES,
                         seed=2, flush_after_ms=10.0)

    async def main():
        client = AsyncFleetClient(router)
        try:
            poisoned = client.submit(workload[0])
            route = router.resolve_route(workload[0])
            engine = max(router.group(route).engines,
                         key=lambda engine: engine.pending)
            real_batch = engine._sampler.estimate_selectivity_batch

            def boom(*args, **kwargs):
                raise RuntimeError("sampler exploded")

            engine._sampler.estimate_selectivity_batch = boom
            with pytest.raises(RuntimeError, match="sampler exploded"):
                await asyncio.wait_for(poisoned, timeout=10.0)
            # Heal the engine and resubmit: the lone query must still be
            # dispatched by the flush timeout, i.e. a new driver is running.
            engine._sampler.estimate_selectivity_batch = real_batch
            retried = client.submit(workload[0], index=500)
            result = await asyncio.wait_for(retried, timeout=10.0)
            return result
        finally:
            client.close()

    assert asyncio.run(main()).index == 500


def test_submit_async_does_not_deadlock_without_running_driver(fleet):
    """Regression: acquire() used to park producers whenever flush_after_ms
    was configured — even with no driver to ever fire it (frozen virtual
    clock, or flush_driver=False) — deadlocking the stream.  With nothing
    to free capacity passively it must fall back to early dispatch."""
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES,
                         seed=2, max_pending=2, overflow="block",
                         flush_after_ms=5.0, clock=VirtualClock())
    generator = WorkloadGenerator(fleet.relation("users"), min_filters=1,
                                  max_filters=2, seed=23)
    queries = [query.qualified("users") for query in generator.generate(4)]

    async def main():
        async with AsyncFleetClient(router) as client:
            assert client._driver_task is None  # frozen clock: no auto driver
            for query in queries:
                await client.submit_async(query)
            return await client.drain()

    report = asyncio.run(asyncio.wait_for(main(), timeout=10.0))
    assert report.stats.num_queries == len(queries)
