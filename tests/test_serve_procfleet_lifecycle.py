"""Lifecycle, failure and protocol tests for the cross-process fleet.

The invariance suite (``tests/test_serve_invariance.py``) proves the
ProcessFleet changes no *numbers*; this file proves it manages no-longer-
trivial *state* correctly: workers spawn and stop idempotently, a graceful
close drains pending micro-batches, a crashed worker surfaces as a typed
:class:`repro.serve.WorkerError` instead of a hang, and a constructor that
fails halfway — a broken registry, a spawn that dies — leaves no orphan
child processes behind.  The worker loop itself is additionally driven
in-process through a scripted fake pipe so its protocol branches (batch,
reset, report, wipe, stop, error, EOF) are exercised under coverage.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.core import NaruConfig
from repro.data import make_users
from repro.query import Query
from repro.serve import (
    AsyncFleetClient,
    EstimationEngine,
    FleetRouter,
    ModelRegistry,
    ProcessFleet,
    RefreshController,
    RoutingError,
    StaleEpochError,
    WorkerError,
    export_relation,
    generate_mixed_workload,
    restore_estimator,
    run_fleet_sequential,
)
from repro.serve.procfleet import worker_main

_CONFIG = NaruConfig(epochs=1, hidden_sizes=(8, 8), batch_size=64,
                     progressive_samples=40, seed=0)
_SAMPLES = 40
_SEED = 3


def _no_fleet_children() -> bool:
    """True when no procfleet worker processes are alive under this parent."""
    return not [process for process in mp.active_children()
                if process.name.startswith("procfleet-worker")]


@pytest.fixture(scope="module")
def registry():
    """One small fitted relation — lifecycle tests don't need a big fleet."""
    fitted = ModelRegistry(default_config=_CONFIG)
    fitted.register_table(make_users(num_users=80, seed=11))
    fitted.fit_all()
    return fitted


@pytest.fixture(scope="module")
def workload(registry):
    return generate_mixed_workload(
        {name: registry.relation(name) for name in registry.names}, 10,
        min_filters=1, max_filters=2, seed=9)


def _fleet(registry, *, replicas=2, **overrides):
    """A fleet over ``registry`` with ``replicas`` engines per relation.

    The registry is the one place a replica count is set; the fleet reads
    it at construction, so the shared fixture's counts are restored once
    the fleet exists.
    """
    options = dict(workers=2, batch_size=4, num_samples=_SAMPLES, seed=_SEED)
    options.update(overrides)
    counts = {name: registry.replicas(name) for name in registry.names}
    for name in registry.names:
        registry.set_replicas(name, replicas)
    try:
        return ProcessFleet(registry, **options)
    finally:
        for name, count in counts.items():
            registry.set_replicas(name, count)


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #
def test_close_is_idempotent_and_final(registry, workload):
    fleet = _fleet(registry)
    report = fleet.run(workload)
    assert report.stats.num_queries == len(workload)
    fleet.close()
    assert fleet.closed
    fleet.close()  # second close is a no-op, not an error
    with pytest.raises(RuntimeError, match="closed"):
        fleet.submit(workload[0])
    # The merged report survives close (accumulated parent-side).
    assert fleet.report().stats.num_queries == len(workload)
    assert _no_fleet_children()


def test_context_exit_drains_pending_batches(registry, workload):
    """Queries still sitting in partially filled micro-batches at __exit__
    are flushed, collected and reportable — nothing is dropped."""
    with _fleet(registry, batch_size=64) as fleet:   # never fills a batch
        for query in workload:
            fleet.submit(query)
        assert fleet.pending == len(workload)
    report = fleet.report()
    assert fleet.closed
    assert report.stats.num_queries == len(workload)
    assert [result.index for result in report.results] == \
        list(range(len(workload)))
    assert _no_fleet_children()


def test_flush_and_collect_drain_explicitly(registry, workload):
    with _fleet(registry, batch_size=64) as fleet:
        for query in workload:
            fleet.submit(query)
        fleet.flush()
        assert fleet.pending == 0
        fleet.collect()
        assert fleet.in_flight == 0
        report = fleet.report()
        assert report.stats.num_queries == len(workload)
        # Parent-side stamps: results queued before their batch shipped.
        assert all(result.e2e_ms >= result.queue_wait_ms >= 0.0
                   for result in report.results)
        workers = report.stats.workers
        assert set(workers) == {"0", "1"}
        assert sum(stats["num_queries"] for stats in workers.values()) \
            == len(workload)


def test_run_matches_sequential_and_reuses_scope(registry, workload):
    baseline = run_fleet_sequential(registry, workload, num_samples=_SAMPLES,
                                    seed=_SEED)
    with _fleet(registry) as fleet:
        first = fleet.run(workload)
        second = fleet.run(workload)  # fresh scope, same numbers
    np.testing.assert_allclose(first.selectivities, baseline.selectivities,
                               rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(second.selectivities, first.selectivities)


def test_spawn_start_method_serves_identically(registry, workload):
    """The fleet works under the 'spawn' start method too (fresh
    interpreters, everything crossing via pickle) and answers bit-identically
    to the default start method."""
    with _fleet(registry, workers=1) as forked:
        expected = forked.run(workload)
    with _fleet(registry, workers=1, start_method="spawn") as spawned:
        report = spawned.run(workload)
    np.testing.assert_array_equal(report.selectivities,
                                  expected.selectivities)
    assert _no_fleet_children()


def test_worker_logs_record_lifecycle(registry, workload, tmp_path):
    log_dir = str(tmp_path / "procfleet-logs")
    with _fleet(registry, log_dir=log_dir) as fleet:
        infos = fleet.workers
        fleet.run(workload)
    assert [info.worker_id for info in infos] == [0, 1]
    for info in infos:
        assert info.log_path == os.path.join(log_dir,
                                             f"worker-{info.worker_id}.log")
        with open(info.log_path, encoding="utf-8") as handle:
            content = handle.read()
        assert f"ready pid={info.pid}" in content
        assert "batch" in content
        assert "stopping (graceful drain complete)" in content


def test_tick_ships_overdue_partial_batches(registry, workload):
    """The parent enforces flush deadlines: an overdue partial batch ships
    flagged timeout_flush, a fresh one reports its remaining deadline."""
    fake_now = [100.0]
    with _fleet(registry, batch_size=64, flush_after_ms=50.0,
                clock=lambda: fake_now[0]) as fleet:
        fleet.submit(workload[0])
        deadline = fleet.tick()
        assert deadline == pytest.approx(100.0 + 0.05)  # not due yet
        assert fleet.pending == 1
        fake_now[0] += 0.2
        assert fleet.tick() is None                      # shipped, queue empty
        assert fleet.pending == 0
        fleet.collect()
        report = fleet.report()
        assert report.stats.timeout_flushes == 1
        assert "live" in repr(fleet)
    assert "closed" in repr(fleet)


# --------------------------------------------------------------------- #
# Failure semantics
# --------------------------------------------------------------------- #
@pytest.mark.timeout(60)
def test_killed_worker_raises_typed_error_not_hang(registry, workload):
    """SIGKILL mid-workload surfaces as WorkerError naming the worker —
    within recv_timeout_s, never as an indefinite hang — and close() still
    reaps every process."""
    fleet = _fleet(registry, recv_timeout_s=5.0)
    try:
        fleet.kill_worker(0)
        with pytest.raises(WorkerError) as caught:
            fleet.run(workload)
        assert caught.value.worker_id == 0
    finally:
        fleet.close()
    assert fleet.closed
    assert _no_fleet_children()


@pytest.mark.timeout(60)
def test_moved_epoch_refused_with_typed_error():
    """Workers hold npz-copied models no parent-side ingest can reach, so a
    fleet built at one epoch refuses to serve once the registry moves on —
    with a typed StaleEpochError naming both epochs, never by silently
    answering from the frozen models.  A freshly built fleet (which
    re-exports the current models) serves again."""
    own = ModelRegistry(default_config=_CONFIG)
    own.register_table(make_users(num_users=60, seed=12))
    own.fit_all()
    workload = generate_mixed_workload(
        {name: own.relation(name) for name in own.names}, 6,
        min_filters=1, max_filters=2, seed=9)
    with ProcessFleet(own, workers=1, batch_size=4, num_samples=_SAMPLES,
                      seed=_SEED) as fleet:
        assert fleet.run(workload).stats.num_queries == len(workload)
        own.ingest("users", make_users(num_users=10, seed=13))
        with pytest.raises(StaleEpochError) as caught:
            fleet.submit(workload[0])        # per-submission guard
        assert caught.value.route == "users"
        assert caught.value.fleet_epoch == (0, 0, 0)
        assert caught.value.registry_epoch == (1, 0, 0)
        assert "stale" in str(caught.value)
        with pytest.raises(StaleEpochError):
            fleet.run(workload)              # scope-boundary guard
    assert fleet.closed
    # The prescribed remedy works: a new fleet snapshots the current epoch
    # and current models, and serves the same workload again.
    with ProcessFleet(own, workers=1, batch_size=4, num_samples=_SAMPLES,
                      seed=_SEED) as rebuilt:
        report = rebuilt.run(workload)
        assert report.stats.num_queries == len(workload)
        # The merged report carries the epoch accounting: the rebuilt fleet
        # serves the old (still-registered) model one data epoch behind.
        assert report.stats.epochs["users"] == {"data_epoch": 1,
                                                "model_epoch": 0,
                                                "staleness": 1}
        assert report.stats.max_staleness == 1
    # A refresh with no ingest since the last fit moves neither epoch, but
    # it does swap the model: a fleet exported before it is refused too.
    controller = RefreshController(own)
    controller.refresh("users")
    with ProcessFleet(own, workers=1, batch_size=4, num_samples=_SAMPLES,
                      seed=_SEED) as refreshed:
        controller.refresh("users")
        assert own.staleness("users") == 0
        with pytest.raises(StaleEpochError):
            refreshed.submit(workload[0])
    assert _no_fleet_children()


class _FilteredConn:
    """A worker's pipe end whose outgoing results are delayed or dropped."""

    def __init__(self, conn, *, delay_s=0.0, drop_results=False):
        self._conn, self._delay_s, self._drop = conn, delay_s, drop_results

    def recv(self):
        return self._conn.recv()

    def send(self, message):
        if message[0] == "result":
            if self._drop:
                return
            time.sleep(self._delay_s)
        self._conn.send(message)


def _slow_worker_main(worker_id, conn, spec):
    """A healthy worker that takes 0.2 s to hand back every result."""
    worker_main(worker_id, _FilteredConn(conn, delay_s=0.2), spec)


def _mute_worker_main(worker_id, conn, spec):
    """A stuck-but-alive worker: serves, never answers a batch."""
    worker_main(worker_id, _FilteredConn(conn, drop_results=True), spec)


@pytest.mark.timeout(60)
def test_receive_timeout_rearms_on_every_result(registry, workload,
                                                monkeypatch):
    """``recv_timeout_s`` bounds *silence*, not the whole collect(): eight
    results 0.2 s apart take 1.6 s in total, longer than the 1.0 s bound, but
    no gap comes near it — the backlog drains without a WorkerError (the
    deadline used to be armed once on entry and fired mid-backlog)."""
    monkeypatch.setattr("repro.serve.procfleet.worker_main", _slow_worker_main)
    with _fleet(registry, workers=1, replicas=1, batch_size=1,
                recv_timeout_s=1.0, start_method="fork") as fleet:
        started = time.monotonic()
        report = fleet.run(workload[:8])
        assert time.monotonic() - started > 1.0
    assert report.stats.num_queries == 8
    assert _no_fleet_children()


@pytest.mark.timeout(60)
def test_receive_timeout_ignores_the_injected_clock(registry, workload,
                                                    monkeypatch):
    """The silence bound runs on time.monotonic, not the accounting clock: a
    frozen ``clock=`` (as deterministic accounting tests inject) facing a
    worker that is alive but never answers still gets a typed WorkerError
    after ``recv_timeout_s`` — it used to wait forever."""
    monkeypatch.setattr("repro.serve.procfleet.worker_main", _mute_worker_main)
    fleet = _fleet(registry, workers=1, replicas=1, recv_timeout_s=0.5,
                   clock=lambda: 100.0, start_method="fork")
    try:
        with pytest.raises(WorkerError, match="no answer within 0.5s") as caught:
            fleet.run(workload)
        assert caught.value.worker_id == 0
    finally:
        fleet.close()
    assert _no_fleet_children()


def test_wipe_caches_reaches_the_workers(registry, workload):
    """The conditional caches live in the workers, so wipe_caches() must be
    forwarded there and count what it cleared: after a wipe the replay runs
    cold again (rows reach the model) and answers the same bits."""
    with _fleet(registry) as fleet:
        cold = fleet.run(workload)
        warm = fleet.run(workload)
        wiped = fleet.wipe_caches()
        replay = fleet.run(workload)
    engines_used = len({result.replica for result in cold.results})
    assert wiped == {"result_caches": 0, "conditional_caches": engines_used}
    assert cold.stats.rows_evaluated > 0
    assert warm.stats.rows_evaluated == 0      # everything came from cache
    assert replay.stats.rows_evaluated == cold.stats.rows_evaluated
    np.testing.assert_array_equal(replay.selectivities, cold.selectivities)
    np.testing.assert_array_equal(warm.selectivities, cold.selectivities)


def test_failing_registry_leaves_no_children(workload):
    """Training/snapshot failures happen before any process exists."""

    class ExplodingRegistry(ModelRegistry):
        def estimator(self, name):
            raise RuntimeError("model store is on fire")

    broken = ExplodingRegistry(default_config=_CONFIG)
    broken.register_table(make_users(num_users=30, seed=1))
    with pytest.raises(RuntimeError, match="on fire"):
        ProcessFleet(broken, workers=2)
    assert _no_fleet_children()


def test_partial_spawn_failure_terminates_started_workers(registry):
    """If spawning worker k fails, workers 0..k-1 are torn down, not leaked."""

    class TrippingFleet(ProcessFleet):
        def _start_worker(self, worker_id, context, spec):
            if worker_id == 1:
                raise RuntimeError("fork bomb disarmed")
            return super()._start_worker(worker_id, context, spec)

    with pytest.raises(RuntimeError, match="disarmed"):
        TrippingFleet(registry, workers=2, num_samples=_SAMPLES, seed=_SEED)
    assert _no_fleet_children()


def test_constructor_validation(registry):
    with pytest.raises(ValueError, match="workers"):
        ProcessFleet(registry, workers=0)
    with pytest.raises(ValueError, match="batch_size"):
        ProcessFleet(registry, workers=1, batch_size=0)
    with pytest.raises(ValueError, match="default route"):
        ProcessFleet(registry, workers=1, default_route="nope")
    with pytest.raises(ValueError, match="no relations"):
        ProcessFleet(ModelRegistry(default_config=_CONFIG), workers=1)
    assert _no_fleet_children()


# --------------------------------------------------------------------- #
# Model shipping
# --------------------------------------------------------------------- #
def test_export_restore_roundtrip_is_bit_exact(registry, workload):
    name = registry.names[0]
    payload = export_relation(registry, name)
    assert isinstance(payload["weights"], bytes)
    restored = restore_estimator(payload)
    original = registry.estimator(name)
    for query in workload[:4]:
        stripped = Query(query.predicates)
        want = EstimationEngine(original, batch_size=1,
                                num_samples=_SAMPLES, use_cache=False,
                                seed=_SEED).run([stripped])
        got = EstimationEngine(restored, batch_size=1,
                               num_samples=_SAMPLES, use_cache=False,
                               seed=_SEED).run([stripped])
        np.testing.assert_array_equal(got.selectivities, want.selectivities)


def test_export_refuses_unshippable_estimators():
    class OpaqueStore:
        def estimator(self, name):
            return object()  # no config, no state-dict model

    with pytest.raises(TypeError, match="ship"):
        export_relation(OpaqueStore(), "users")


def test_worker_assignments_round_robin(registry):
    registry.set_replicas("users", 5)
    try:
        assignment = registry.worker_assignments(3)
        assert registry.worker_assignments(3) == assignment
    finally:
        registry.set_replicas("users", 1)
    assert assignment == {("users", replica): replica % 3
                          for replica in range(5)}
    with pytest.raises(ValueError, match="workers"):
        registry.worker_assignments(0)


def test_worker_assignments_read_each_relations_registered_replicas():
    """Relations in registration order, each with the replica count the
    registry holds for it, dealt round-robin across the worker slots."""
    registry = ModelRegistry(default_config=_CONFIG)
    registry.register_table(make_users(num_users=20, seed=1), name="a",
                            replicas=2)
    registry.register_table(make_users(num_users=20, seed=2), name="b")
    registry.register_table(make_users(num_users=20, seed=3), name="c",
                            replicas=3)
    assert registry.worker_assignments(4) == {
        ("a", 0): 0, ("a", 1): 1, ("b", 0): 2,
        ("c", 0): 3, ("c", 1): 0, ("c", 2): 1}
    registry.set_replicas("b", 2)
    assert registry.worker_assignments(2) == {
        ("a", 0): 0, ("a", 1): 1, ("b", 0): 0, ("b", 1): 1,
        ("c", 0): 0, ("c", 1): 1, ("c", 2): 0}


# --------------------------------------------------------------------- #
# The worker loop, driven in-process through a scripted pipe
# --------------------------------------------------------------------- #
class _ScriptedConn:
    """A fake duplex pipe end: recv() replays a script, send() records."""

    def __init__(self, script):
        self.script = list(script)
        self.sent = []

    def recv(self):
        if not self.script:
            raise EOFError
        return self.script.pop(0)

    def send(self, message):
        self.sent.append(message)


def _worker_spec(registry, **engine_overrides):
    name = registry.names[0]
    engine = dict(num_samples=_SAMPLES, use_cache=True, cache_entries=64,
                  seed=_SEED)
    engine.update(engine_overrides)
    return {"keys": [(name, 0)],
            "payloads": {name: export_relation(registry, name)},
            "engine": engine,
            "log_path": None}


def test_worker_main_protocol_roundtrip(registry, workload):
    name = registry.names[0]
    items = [(index, Query(query.predicates))
             for index, query in enumerate(workload[:3])]
    conn = _ScriptedConn([
        ("batch", 7, name, 0, items),
        ("reset",),
        ("report",),
        ("wipe",),
        ("stop",),
    ])
    worker_main(5, conn, _worker_spec(registry))
    kinds = [message[0] for message in conn.sent]
    assert kinds == ["ready", "result", "report", "wiped", "stopped"]
    ready, result, report, wiped, stopped = conn.sent
    assert wiped == ("wiped", 5, 1)
    assert ready[1:] == (5, os.getpid())
    _, worker_id, batch_id, pairs, latency_ms, busy_cpu_ms = result
    assert (worker_id, batch_id) == (5, 7)
    assert [index for index, _ in pairs] == [0, 1, 2]
    assert latency_ms >= 0.0 and busy_cpu_ms >= 0.0
    assert set(report[2]) == {(name, 0)}
    assert stopped == ("stopped", 5)
    # The in-process pass answers exactly like the parent's own engine.
    engine = EstimationEngine(registry.estimator(name), batch_size=3,
                              num_samples=_SAMPLES, use_cache=True,
                              cache_entries=64, seed=_SEED)
    expected = engine.run([query for _, query in items])
    assert [sel for _, sel in pairs] == list(expected.selectivities)


def test_worker_main_reports_errors_and_exits(registry):
    conn = _ScriptedConn([("bogus-kind",)])
    worker_main(2, conn, _worker_spec(registry))
    assert conn.sent[0][0] == "ready"
    kind, worker_id, formatted = conn.sent[1]
    assert (kind, worker_id) == ("error", 2)
    assert "bogus-kind" in formatted


def test_worker_main_exits_quietly_on_eof(registry):
    conn = _ScriptedConn([])  # parent vanished right after spawn
    worker_main(1, conn, _worker_spec(registry))
    assert [message[0] for message in conn.sent] == ["ready"]


# --------------------------------------------------------------------- #
# Async client teardown (regression: driver task leaked on failed submit)
# --------------------------------------------------------------------- #
def test_async_client_failed_submit_leaves_no_driver(registry, workload):
    """A submit that dies in the router must not leave a flush-driver task
    running with nothing to drive (it used to start before the submission
    was accepted, leaking a task when the router refused the query)."""
    router = FleetRouter(registry, batch_size=4, num_samples=_SAMPLES,
                         seed=_SEED, flush_after_ms=5.0)

    async def scenario():
        client = AsyncFleetClient(router)
        with pytest.raises(RoutingError):
            client.submit(Query(workload[0].predicates).qualified("nope"))
        assert client._driver_task is None
        stray_tasks = len(asyncio.all_tasks()) - 1  # minus this coroutine
        # A successful submission after the failure still works end-to-end.
        future = client.submit(workload[0])
        await client.drain()
        return future.result(), stray_tasks

    result, stray_tasks = asyncio.run(scenario())
    assert result.selectivity >= 0.0
    assert stray_tasks == 0
