"""Property-style invariance suite for the replicated serving stack.

The serving layer's one load-bearing contract: **how** a workload is served —
micro-batch size, replica count, result cache on or off, routing order, and
whether the engines run in this process or in N OS worker processes — must
never change **what** it answers.  Every query's random stream is keyed by
``(seed, global workload index)`` alone, so the unbatched sequential baseline
(:func:`repro.serve.run_fleet_sequential`) is the ground truth and every
configuration in the grid below must reproduce it.

The serving-class dimension's ids read ``inprocess`` / ``procfleet-wN``; CI's
``procfleet`` job selects the cross-process cells with ``-k procfleet`` and
points ``REPRO_PROCFLEET_LOG_DIR`` at a directory it uploads on failure.

The tolerance is one-ulp loose (``atol=1e-12`` on selectivities in ``[0, 1]``)
because different micro-batch shapes push different row counts through the
BLAS, which may round the last bit differently; any real behavioural drift —
a re-keyed stream, a misrouted query, a cache serving the wrong entry — shows
up orders of magnitude above it.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import random

import numpy as np
import pytest

from repro.core import NaruConfig
from repro.data import JoinSpec, make_sessions, make_users
from repro.estimators import SamplingEstimator
from repro.query import Query, WorkloadGenerator
from repro.serve import (
    AdmissionError,
    FleetRouter,
    ModelRegistry,
    ProcessFleet,
    VirtualClock,
    generate_mixed_workload,
    generate_shape_workload,
    load_workload,
    run_fleet_sequential,
    save_workload,
    stream_workload,
)

_CONFIG = NaruConfig(epochs=2, hidden_sizes=(16, 16), batch_size=128,
                     progressive_samples=60, seed=0)
_SAMPLES = 60
_SEED = 2
_DEFAULT_ROUTE = "sessions"

#: The grid of serving configurations that must all agree with the baseline.
_BATCH_SIZES = (1, 3, 16)
_REPLICAS = (1, 2, 4)
_RESULT_CACHE = (False, True)
#: Where the engines run: 0 = in this process (``FleetRouter``), N = in N OS
#: worker processes (``ProcessFleet`` — the same router, engines elsewhere).
_WORKERS = (0, 1, 2, 4)
_serving_classes = pytest.mark.parametrize(
    "workers", _WORKERS,
    ids=["inprocess"] + [f"procfleet-w{count}" for count in _WORKERS[1:]])


@pytest.fixture(scope="module")
def fleet():
    """A fitted registry: two base tables plus their join relation."""
    registry = ModelRegistry(default_config=_CONFIG)
    registry.register_table(make_users(num_users=100, seed=4))
    registry.register_table(make_sessions(num_rows=400, num_users=100, seed=5))
    registry.register_join(JoinSpec("sessions", "users", "user_id", "user_id"))
    registry.fit_all()
    return registry


@pytest.fixture(scope="module")
def workload(fleet):
    """A mixed workload: qualified queries over all three relations plus
    unqualified (v1-style) queries that fall back to the default route."""
    qualified = generate_mixed_workload(
        {name: fleet.relation(name) for name in fleet.names}, 12,
        min_filters=1, max_filters=3, seed=7)
    unqualified = [
        Query(query.predicates)  # strip the qualifier: v1-file behaviour
        for query in WorkloadGenerator(fleet.relation(_DEFAULT_ROUTE),
                                       min_filters=1, max_filters=3,
                                       seed=31).generate(3)
    ]
    # Interleave so unqualified queries land inside micro-batch windows, not
    # only at the tail.
    mixed = list(qualified)
    for offset, query in enumerate(unqualified):
        mixed.insert(4 * offset + 2, query)
    return mixed


@pytest.fixture(scope="module")
def baseline(fleet, workload):
    """Ground truth: one unbatched, uncached sampler pass per query."""
    return run_fleet_sequential(fleet, workload, num_samples=_SAMPLES,
                                seed=_SEED, default_route=_DEFAULT_ROUTE)


def _router(fleet, *, batch_size, replicas, result_cache=False, workers=0,
            default_route=_DEFAULT_ROUTE, **options):
    """A router over ``fleet``: in-process, or a ProcessFleet of ``workers``
    (logging where CI can scoop the files up as artifacts —
    ``REPRO_PROCFLEET_LOG_DIR``, unset locally).  Close the latter: use
    :func:`_serving`."""
    options.update(batch_size=batch_size, num_samples=_SAMPLES, seed=_SEED,
                   default_route=default_route, result_cache=result_cache)
    if workers:
        return ProcessFleet(fleet, workers=workers, replicas=replicas,
                            log_dir=os.environ.get("REPRO_PROCFLEET_LOG_DIR"),
                            **options)
    for name in fleet.names:
        fleet.set_replicas(name, replicas)
    try:
        return FleetRouter(fleet, **options)
    finally:
        for name in fleet.names:
            fleet.set_replicas(name, 1)


@contextlib.contextmanager
def _serving(fleet, **config):
    """``_router(fleet, **config)``, closed on exit with no worker left behind."""
    router = _router(fleet, **config)
    try:
        yield router
    finally:
        if isinstance(router, ProcessFleet):
            router.close()
            assert not [process for process in mp.active_children()
                        if process.name.startswith("procfleet-worker")]


@_serving_classes
@pytest.mark.parametrize("batch_size", _BATCH_SIZES)
@pytest.mark.parametrize("replicas", _REPLICAS)
@pytest.mark.parametrize("result_cache", _RESULT_CACHE,
                         ids=["nocache", "rescache"])
def test_grid_matches_sequential_baseline(fleet, workload, baseline,
                                          batch_size, replicas, result_cache,
                                          workers):
    """Every (batch_size, replicas, result_cache, serving class) cell
    reproduces the baseline: sharding engines across OS processes must never
    change an estimate any more than batching or replication may."""
    with _serving(fleet, batch_size=batch_size, replicas=replicas,
                  result_cache=result_cache, workers=workers) as router:
        assert isinstance(router, FleetRouter)
        report = router.run(workload)
    assert [result.index for result in report.results] == \
        list(range(len(workload)))
    assert [result.route for result in report.results] == \
        [result.route for result in baseline.results]
    np.testing.assert_allclose(report.selectivities, baseline.selectivities,
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("batch_size", _BATCH_SIZES)
@pytest.mark.parametrize("replicas", _REPLICAS)
def test_dedup_grid_is_bit_identical(fleet, workload, baseline, batch_size,
                                     replicas):
    """Prefix deduplication changes performance counters, never an estimate.

    Stronger than the baseline comparison above: the fused fleet (dedup,
    packed cache, column-sliced kernel) is exactly equal (no ``atol``) to the
    dedup-off, uncached, unfused reference walk of ``run_fleet_sequential`` —
    the sampler kernel is row-exact and dedup only regroups rows, so the two
    must return the very same bits.
    """
    fused = _router(fleet, batch_size=batch_size, replicas=replicas,
                    result_cache=False).run(workload)
    assert np.array_equal(fused.selectivities, baseline.selectivities)
    # The fused run really did deduplicate; the baseline really did not.
    assert fused.stats.unique_rows < fused.stats.rows_submitted
    assert baseline.stats.unique_rows == baseline.stats.rows_submitted


@pytest.mark.parametrize("batch_size", _BATCH_SIZES)
@pytest.mark.parametrize("replicas", (1, 2))
@pytest.mark.parametrize("arrival", ["inorder", "shuffled"])
def test_streaming_grid_matches_sequential_baseline(fleet, workload, baseline,
                                                    batch_size, replicas,
                                                    arrival):
    """Streaming ≡ batch ≡ sequential: submitting the workload one query at a
    time through the asyncio client — in order or in a shuffled arrival order
    with pre-assigned indices — reproduces the unbatched baseline for every
    (batch_size, replicas) cell."""
    for name in fleet.names:
        fleet.set_replicas(name, replicas)
    try:
        router = FleetRouter(fleet, batch_size=batch_size,
                             num_samples=_SAMPLES, seed=_SEED,
                             default_route=_DEFAULT_ROUTE)
    finally:
        for name in fleet.names:
            fleet.set_replicas(name, 1)
    order = list(range(len(workload)))
    if arrival == "shuffled":
        random.Random(13).shuffle(order)
    report = stream_workload(router, workload, arrival_order=order)
    assert [result.index for result in report.results] == \
        list(range(len(workload)))
    assert [result.route for result in report.results] == \
        [result.route for result in baseline.results]
    np.testing.assert_allclose(report.selectivities, baseline.selectivities,
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("workers", _WORKERS[:3],
                         ids=["inprocess", "procfleet-w1", "procfleet-w2"])
@pytest.mark.parametrize("slo_ms", (1e-6, 1e6), ids=["tight", "loose"])
def test_adaptive_grid_is_bit_identical(fleet, workload, baseline, slo_ms,
                                        workers):
    """SLO-adaptive batch boundaries are invisible, in this process and
    across workers (whose replies run the controller's hook in the parent):
    under an impossible SLO the controller pins every route at batch size 1
    after its first dispatch, under a loose one it never leaves the maximum — and
    both return the sequential baseline's very bits."""
    with _serving(fleet, batch_size=2, replicas=1, workers=workers,
                  slo_ms=slo_ms) as router:
        report = router.run(workload)
        sizes = {route: router.controller(route).batch_size
                 for route in report.stats.routes}
    assert np.array_equal(report.selectivities, baseline.selectivities)
    assert [result.route for result in report.results] == \
        [result.route for result in baseline.results]
    traces = [stats["batch_trace"] for stats in report.stats.routes.values()]
    if slo_ms < 1.0:
        assert all(trace[0] == 2 and set(trace[1:]) == {1}
                   for trace in traces)
        assert set(sizes.values()) == {1}
    else:
        assert all(set(trace) == {2} for trace in traces)


def test_adaptive_streaming_matches_sequential_baseline(fleet, workload,
                                                        baseline):
    """The same tight SLO through the asyncio client: streaming plus a
    controller shrinking mid-workload still changes no estimate."""
    router = FleetRouter(fleet, batch_size=8, num_samples=_SAMPLES,
                         seed=_SEED, default_route=_DEFAULT_ROUTE,
                         slo_ms=1e-6)
    report = stream_workload(router, workload)
    np.testing.assert_allclose(report.selectivities, baseline.selectivities,
                               rtol=0.0, atol=1e-12)
    # The impossible SLO really did move the batch size mid-workload.
    assert any(min(stats["batch_trace"]) < 8
               for stats in report.stats.routes.values())


@pytest.mark.parametrize("batch_size", (1, 64))
def test_flush_timeout_changes_batches_not_estimates(fleet, workload,
                                                     baseline, batch_size):
    """Timeout-triggered flushes move *when* micro-batches dispatch, never
    *what* they estimate.  Under a virtual clock advanced 2 ms per arrival
    with a 5 ms flush deadline, batch boundaries are fully deterministic:
    at batch_size=64 partial batches repeatedly hit the deadline (so the
    batch pattern differs from the single-final-flush run), at batch_size=1
    every submission dispatches immediately and the deadline never fires —
    and both reproduce the sequential baseline exactly."""
    def timed_run():
        router = FleetRouter(fleet, batch_size=batch_size,
                             num_samples=_SAMPLES, seed=_SEED,
                             default_route=_DEFAULT_ROUTE,
                             flush_after_ms=5.0, clock=VirtualClock())
        report = stream_workload(router, workload, advance_ms=2.0)
        batches = {route: stats["num_batches"]
                   for route, stats in report.stats.routes.items()}
        return report, batches

    report, batches = timed_run()
    np.testing.assert_allclose(report.selectivities, baseline.selectivities,
                               rtol=0.0, atol=1e-12)
    if batch_size == 1:
        # Dispatch-on-submit never leaves a batch pending long enough.
        assert report.stats.timeout_flushes == 0
    else:
        # The deadline really rebatched the workload: partial batches were
        # force-dispatched instead of riding to the final drain flush.
        assert report.stats.timeout_flushes > 0
        untimed_router = FleetRouter(fleet, batch_size=batch_size,
                                     num_samples=_SAMPLES, seed=_SEED,
                                     default_route=_DEFAULT_ROUTE)
        untimed = stream_workload(untimed_router, workload)
        assert sum(batches.values()) > sum(
            stats["num_batches"] for stats in untimed.stats.routes.values())
        # Every query's wait is bounded by the deadline plus one 2 ms
        # arrival tick (deadlines are checked per arrival).
        assert all(result.queue_wait_ms <= 5.0 + 2.0 + 1e-9
                   for result in report.results)
    # The virtual clock makes the flush pattern byte-stable, run after run.
    _, batches_again = timed_run()
    assert batches_again == batches


@pytest.mark.parametrize("replicas", _REPLICAS[1:])
def test_replicas_match_single_replica_run(fleet, workload, replicas):
    """replicas=1 and replicas=N agree on the same router configuration."""
    single = _router(fleet, batch_size=4, replicas=1,
                     result_cache=False).run(workload)
    replicated = _router(fleet, batch_size=4, replicas=replicas,
                         result_cache=False).run(workload)
    np.testing.assert_allclose(replicated.selectivities, single.selectivities,
                               rtol=0.0, atol=1e-12)
    # The replicated run really did spread the queries: with 15 queries per
    # route grid cell, at least one route uses more than one replica.
    used = {(result.route, result.replica) for result in replicated.results}
    assert len(used) > len({route for route, _ in used})


def test_replica_assignment_is_deterministic(fleet, workload):
    """The (relation, index) hash pins each query to the same replica, always."""
    first = _router(fleet, batch_size=4, replicas=3,
                    result_cache=False).run(workload)
    second = _router(fleet, batch_size=4, replicas=3,
                     result_cache=False).run(workload)
    assert [result.replica for result in first.results] == \
        [result.replica for result in second.results]


@_serving_classes
def test_warm_result_cache_replays_exactly(fleet, workload, workers):
    """A replayed workload is answered from the result cache, bit-for-bit —
    across processes too: worker results feed the parent's cache on receipt
    (so a repeat *inside* the cold scope may miss), and the replay all hits."""
    with _serving(fleet, batch_size=4, replicas=2, result_cache=True,
                  workers=workers) as router:
        cold = router.run(workload)
        warm = router.run(workload)
    assert warm.result_cache_hits == len(workload)
    assert all(result.from_result_cache for result in warm.results)
    np.testing.assert_array_equal(warm.selectivities, cold.selectivities)
    # Cardinalities are rebuilt from the routed relation's live row count.
    for result in warm.results:
        assert result.cardinality == pytest.approx(
            result.selectivity * fleet.relation(result.route).num_rows)


def test_run_refuses_unreported_streaming_cache_hits(fleet, workload):
    """Cache-served streaming results cannot be wiped silently by run()."""
    router = _router(fleet, batch_size=4, replicas=1, result_cache=True)
    router.run(workload)                   # warm the result cache
    router.submit(workload[0])             # streaming hit: answered, unreported
    with pytest.raises(RuntimeError, match="unreported"):
        router.run(workload[:2])
    report = router.report()               # collect the streaming scope...
    assert report.results[-1].from_result_cache
    assert router.run(workload[:2]).stats.num_queries == 2  # ...then run works


def test_cache_hit_cardinality_tracks_refreshed_row_counts(fleet, workload):
    """Cached selectivities stay valid under set_row_count: the cardinality
    of a cache-served answer scales by the estimator's live row count, the
    same number the model-served path uses."""
    router = _router(fleet, batch_size=4, replicas=1, result_cache=True)
    cold = router.run(workload)
    route = cold.results[0].route
    estimator = fleet.estimator(route)
    original_rows = estimator.num_rows
    estimator.set_row_count(original_rows * 2)
    try:
        warm = router.run(workload)
        assert warm.results[0].from_result_cache
        assert warm.results[0].cardinality == pytest.approx(
            warm.results[0].selectivity * original_rows * 2)
    finally:
        estimator.set_row_count(original_rows)


def test_duplicate_query_is_served_first_occurrence(fleet, workload):
    """Exact repeats share the earliest dispatched occurrence's answer —
    inside one workload scope (results enter the cache as their micro-batch
    dispatches) as well as on a replay of it."""
    repeated = workload[:4] + [workload[1].qualified(workload[1].table
                                                     or _DEFAULT_ROUTE)]
    router = _router(fleet, batch_size=1, replicas=2, result_cache=True)
    first = router.run(repeated)
    # batch_size=1 dispatches each query on submission, so the intra-run
    # repeat already hits the cache in the cold pass.
    assert first.results[-1].from_result_cache
    assert first.results[-1].selectivity == first.results[1].selectivity
    second = router.run(repeated)          # replay: everything hits
    assert second.results[-1].from_result_cache
    assert second.results[-1].selectivity == first.results[1].selectivity


def test_weighted_workloads_build_hot_relations(fleet):
    """`weights` skews the mixed-workload split without dropping queries."""
    relations = {name: fleet.relation(name) for name in fleet.names}
    hot = generate_mixed_workload(relations, 20, min_filters=1, max_filters=3,
                                  seed=7, weights={"sessions": 3.0,
                                                   "users": 1.0})
    counts = {name: sum(query.table == name for query in hot)
              for name in fleet.names}
    assert sum(counts.values()) == 20
    assert counts["sessions"] == 15
    assert counts["users"] == 5
    assert counts["sessions_join_users"] == 0  # unnamed relations get zero
    # Weighting one relation never changes another relation's queries: the
    # users queries of the hot split are a prefix-set of the even split's.
    even = generate_mixed_workload(relations, 20, min_filters=1,
                                   max_filters=3, seed=7)
    hot_users = [str(query) for query in hot if query.table == "users"]
    even_users = [str(query) for query in even if query.table == "users"]
    assert hot_users == even_users[:len(hot_users)]
    # The hot majority is diluted through the workload, not appended as one
    # tail burst: with a 15/5 split, no more than 3 sessions queries run
    # back-to-back (one users query every ~3 sessions queries).
    longest = run = 0
    for query in hot:
        run = run + 1 if query.table == "sessions" else 0
        longest = max(longest, run)
    assert longest <= 3
    with pytest.raises(ValueError, match="negative"):
        generate_mixed_workload(relations, 8, weights={"users": -1.0})
    with pytest.raises(ValueError, match="unknown relations"):
        generate_mixed_workload(relations, 8, weights={"nope": 1.0})
    with pytest.raises(ValueError, match="positive"):
        generate_mixed_workload(relations, 8, weights={"users": 0.0})


def test_workload_file_roundtrip_preserves_estimates(fleet, workload, baseline,
                                                     tmp_path):
    """A v2 workload file replayed through the router reproduces the baseline."""
    path = str(tmp_path / "mixed.json")
    save_workload(path, workload, table_name=_DEFAULT_ROUTE)
    loaded = load_workload(path)
    report = _router(fleet, batch_size=4, replicas=2,
                     result_cache=False).run(loaded)
    np.testing.assert_allclose(report.selectivities, baseline.selectivities,
                               rtol=0.0, atol=1e-12)


# --------------------------------------------------------------------------- #
# Router features across serving classes: admission and the estimator ensemble
# --------------------------------------------------------------------------- #
@_serving_classes
def test_shed_admission_is_typed_counted_and_bounded(fleet, workload, workers):
    """``max_pending`` + ``overflow="shed"`` is the router's admission gate,
    so it holds wherever the engines run: refusals are typed, every submitted
    query is either completed or counted shed, the pending high-water mark
    never passes the bound, and what completes matches the baseline at its
    own global index."""
    bound = 2
    with _serving(fleet, batch_size=3, replicas=2, workers=workers,
                  max_pending=bound, overflow="shed") as router:
        shed = 0
        for query in workload:
            try:
                router.submit(query)
            except AdmissionError as refusal:
                shed += 1
                assert refusal.max_pending == bound
        router.flush()
        report = router.report()
        peak_pending = router.peak_pending
    assert 0 < shed < len(workload)
    assert report.stats.shed == shed
    assert len(workload) == report.stats.num_queries + shed
    assert peak_pending <= bound
    # Shed queries consume no global index, so the completed ones sit at
    # indices 0..n-1 of the *admitted* subsequence; replaying exactly that
    # subsequence sequentially must give the same numbers.
    admitted = [result.query for result in report.results]
    expected = run_fleet_sequential(fleet, admitted, num_samples=_SAMPLES,
                                    seed=_SEED, default_route=_DEFAULT_ROUTE)
    np.testing.assert_allclose(report.selectivities, expected.selectivities,
                               rtol=0.0, atol=1e-12)


@pytest.fixture(scope="module")
def ensemble():
    """One relation whose 3-branch Naru bound leaves wider disjunctions to a
    sampling fallback, plus a conjunctive/DNF/LIKE workload that uses both."""
    users = make_users(num_users=100, seed=4)
    registry = ModelRegistry(default_config=NaruConfig(
        epochs=2, hidden_sizes=(16, 16), batch_size=128,
        progressive_samples=_SAMPLES, seed=0, max_dnf_branches=3))
    registry.register_table(users, fallback=SamplingEstimator(
        users, fraction=1.0, seed=0))
    registry.fit_all()
    shaped = generate_shape_workload(
        {"users": users}, 16, dnf_fraction=0.4, like_fraction=0.2,
        dnf_branches=(2, 5), min_filters=1, max_filters=3, seed=7)
    return registry, shaped


@_serving_classes
def test_ensemble_workload_matches_sequential_exactly(ensemble, workers):
    """Conjunctions, LIKE prefixes and in-bound disjunctions go to Naru (in a
    worker, when there are workers), over-bound disjunctions to the parent-side
    sampling fallback — and every estimate equals the sequential baseline's
    bit for bit, because routing and fallback serving are the router's."""
    registry, shaped = ensemble
    expected = run_fleet_sequential(registry, shaped, num_samples=_SAMPLES,
                                    seed=_SEED)
    with _serving(registry, batch_size=4, replicas=2, workers=workers,
                  default_route=None) as router:
        report = router.run(shaped)
    assert np.array_equal(report.selectivities, expected.selectivities)
    assert [result.estimator for result in report.results] == \
        [result.estimator for result in expected.results]
    served_by = {result.estimator.split("(")[0].split("-")[0]
                 for result in report.results}
    assert served_by == {"Naru", "Sample"}
    assert "users@fallback" in report.stats.routes


# --------------------------------------------------------------------------- #
# Serving classes against each other: bit for bit, not just within round-off
# --------------------------------------------------------------------------- #
def test_procfleet_worker_count_is_invisible(fleet, workload):
    """workers=1 and workers=N agree bit for bit: engine state is keyed by
    (relation, replica), so which process hosts an engine cannot matter."""
    with _serving(fleet, workers=1, batch_size=7, replicas=2) as single:
        one = single.run(workload)
    with _serving(fleet, workers=4, batch_size=7, replicas=2) as sharded:
        many = sharded.run(workload)
    np.testing.assert_array_equal(many.selectivities, one.selectivities)
    assert [result.replica for result in many.results] == \
        [result.replica for result in one.results]
    # The sharded run really did use several processes.
    used_pids = {stats["pid"] for stats in many.stats.workers.values()
                 if stats["num_queries"]}
    assert len(used_pids) > 1


@pytest.mark.parametrize("replicas,use_cache",
                         [(1, True), (3, False)],
                         ids=["singleton-cached", "replicated-nocache"])
def test_procfleet_matches_in_process_router(fleet, workload, replicas,
                                             use_cache):
    """The process fleet matches the in-process FleetRouter bit for bit when
    the per-(route, replica) micro-batch composition and cache structure
    match: one replica per route (each side has exactly one cache per
    model), or any replica count with conditional caches off (the router
    shares one cache across a replica group; the fleet's are per-engine)."""
    with _serving(fleet, batch_size=5, replicas=replicas,
                  use_cache=use_cache) as router:
        in_process = router.run(workload)
    with _serving(fleet, workers=3, batch_size=5, replicas=replicas,
                  use_cache=use_cache) as proc:
        cross_process = proc.run(workload)
    np.testing.assert_array_equal(cross_process.selectivities,
                                  in_process.selectivities)
    assert [result.replica for result in cross_process.results] == \
        [result.replica for result in in_process.results]
