"""Unit and property tests for the open-loop load generator (loadgen).

Three layers, mirroring the module:

* **Arrival processes** — property tests: strictly increasing timestamps
  inside the window for every process and seed, mean rate within tolerance
  of the requested one at a fixed seed, determinism in the seed, and the
  fail-fast validation the CLI relies on.
* **Traces** — record -> save -> load -> replay reproduces the arrival
  sequence exactly and the file bytes are stable; every malformed-file shape
  raises a ``ValueError`` naming the file.
* **The driver and the chaos layer** — a frozen-clock open-loop run is a
  pure function of the trace and matches the sequential baseline estimate
  for estimate; overload sheds typed and bounded; ``SlowReplica`` /
  ``CacheWipe`` cost latency but never move a number; ``locate_knee`` and
  ``assert_degraded_not_collapsed`` enforce the degradation contract.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math

import numpy as np
import pytest

from repro.core import NaruConfig
from repro.data import make_sessions, make_users
from repro.serve import (
    ARRIVAL_PROCESSES,
    ArrivalTrace,
    AsyncFleetClient,
    CacheWipe,
    ChaosScenario,
    FleetRouter,
    ModelRegistry,
    SCENARIOS,
    SlowReplica,
    VirtualClock,
    assert_degraded_not_collapsed,
    diurnal_arrivals,
    flash_arrivals,
    generate_arrivals,
    generate_mixed_workload,
    locate_knee,
    poisson_arrivals,
    run_fleet_sequential,
    run_open_loop,
    sweep_offered_load,
)

_CONFIG = NaruConfig(epochs=1, hidden_sizes=(8, 8), batch_size=64,
                     progressive_samples=40, seed=0)
_SAMPLES = 40

_GENERATORS = {"poisson": poisson_arrivals, "diurnal": diurnal_arrivals,
               "flash": flash_arrivals}


@pytest.fixture(scope="module")
def fleet():
    """A small fitted two-relation registry shared by the open-loop tests."""
    registry = ModelRegistry(default_config=_CONFIG)
    registry.register_table(make_users(num_users=80, seed=11))
    registry.register_table(make_sessions(num_rows=240, num_users=80, seed=12))
    registry.fit_all()
    return registry


@pytest.fixture(scope="module")
def workload(fleet):
    return generate_mixed_workload(
        {name: fleet.relation(name) for name in fleet.names}, 10,
        min_filters=1, max_filters=2, seed=21)


def _frozen_router(fleet, **kwargs):
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("num_samples", _SAMPLES)
    kwargs.setdefault("seed", 2)
    return FleetRouter(fleet, clock=VirtualClock(), **kwargs)


def _baseline(fleet, queries, arrivals):
    expanded = [queries[i % len(queries)] for i in range(len(arrivals))]
    return run_fleet_sequential(fleet, expanded, num_samples=_SAMPLES, seed=2)


# --------------------------------------------------------------------------- #
# Arrival-process properties
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
@pytest.mark.parametrize("seed", [0, 1, 97])
def test_arrivals_strictly_increasing_inside_window(process, seed):
    timestamps = generate_arrivals(process, rate_qps=200.0, duration_s=2.0,
                                   seed=seed)
    assert timestamps, "a 400-arrival window must not come out empty"
    assert all(b > a for a, b in zip(timestamps, timestamps[1:]))
    assert timestamps[0] >= 0.0
    assert timestamps[-1] < 2.0


@pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
def test_arrivals_mean_rate_matches_request(process):
    """Every process offers the *requested* mean rate: at 500 qps x 40 s the
    count is 20k in expectation with a ~1% relative standard deviation, so a
    5% tolerance at a fixed seed is both tight and stable."""
    rate, duration = 500.0, 40.0
    timestamps = generate_arrivals(process, rate_qps=rate, duration_s=duration,
                                   seed=3)
    realised = len(timestamps) / duration
    assert realised == pytest.approx(rate, rel=0.05)


@pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
def test_arrivals_deterministic_in_seed(process):
    first = generate_arrivals(process, rate_qps=50.0, duration_s=1.0, seed=7)
    second = generate_arrivals(process, rate_qps=50.0, duration_s=1.0, seed=7)
    other = generate_arrivals(process, rate_qps=50.0, duration_s=1.0, seed=8)
    assert first == second
    assert first != other


def test_flash_concentrates_and_diurnal_modulates():
    """The shapes are real, not cosmetic: the flash window's local rate beats
    the base windows', and a depth-0.8 diurnal first half (the sine's
    positive lobe) outweighs its second half."""
    flash = flash_arrivals(200.0, 10.0, seed=5)  # burst at 5-7 s, 5x base
    in_window = sum(1 for t in flash if 5.0 <= t < 7.0) / 2.0
    outside = sum(1 for t in flash if not 5.0 <= t < 7.0) / 8.0
    assert in_window > 3.0 * outside
    diurnal = diurnal_arrivals(200.0, 10.0, seed=5)
    first_half = sum(1 for t in diurnal if t < 5.0)
    assert first_half > 0.65 * len(diurnal)


def test_generate_arrivals_validation():
    with pytest.raises(ValueError, match="unknown arrival process"):
        generate_arrivals("uniform", rate_qps=1.0, duration_s=1.0)
    for bad_rate in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rate must be positive"):
            generate_arrivals("poisson", rate_qps=bad_rate, duration_s=1.0)
    for bad_duration in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="duration must be positive"):
            generate_arrivals("poisson", rate_qps=1.0,
                              duration_s=bad_duration)


# --------------------------------------------------------------------------- #
# Traces: record / replay / byte stability / malformed files
# --------------------------------------------------------------------------- #
def test_trace_record_replay_exact(tmp_path):
    trace = ArrivalTrace.record("flash", rate_qps=120.0, duration_s=3.0,
                                seed=9)
    path = tmp_path / "trace.json"
    trace.save(str(path))
    replayed = ArrivalTrace.load(str(path))
    assert replayed.timestamps == trace.timestamps  # element-for-element
    assert replayed == trace
    assert len(replayed) == len(trace.timestamps)
    assert replayed.offered_qps == pytest.approx(len(trace) / 3.0)
    # Files that still carry the retired "params" object (the process knobs
    # traces used to record) load unchanged: the key is ignored.
    document = json.loads(path.read_text())
    document["params"] = {"multiplier": 5.0}
    path.write_text(json.dumps(document))
    assert ArrivalTrace.load(str(path)) == trace


def test_trace_bytes_stable(tmp_path):
    """Recording twice at one seed, or loading and re-saving, writes
    identical bytes — the property that makes traces diffable artifacts."""
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    ArrivalTrace.record("poisson", rate_qps=80.0, duration_s=2.0,
                        seed=4).save(str(first))
    ArrivalTrace.record("poisson", rate_qps=80.0, duration_s=2.0,
                        seed=4).save(str(second))
    assert first.read_bytes() == second.read_bytes()
    resaved = tmp_path / "c.json"
    ArrivalTrace.load(str(first)).save(str(resaved))
    assert resaved.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("payload, message", [
    ("{not json", "not valid JSON"),
    ("[1, 2, 3]", "must hold a JSON object"),
    (json.dumps({"version": 2, "process": "poisson", "rate_qps": 1.0,
                 "duration_s": 1.0, "seed": 0, "timestamps": []}),
     "unsupported version"),
    (json.dumps({"version": 1, "process": "poisson"}),
     "missing required fields"),
    (json.dumps({"version": 1, "process": "poisson", "rate_qps": 1.0,
                 "duration_s": 1.0, "seed": 0, "timestamps": [0.1, "x"]}),
     "array of numbers"),
    (json.dumps({"version": 1, "process": "poisson", "rate_qps": 1.0,
                 "duration_s": 1.0, "seed": 0, "timestamps": [0.1, True]}),
     "array of numbers"),
    (json.dumps({"version": 1, "process": "poisson", "rate_qps": 1.0,
                 "duration_s": 1.0, "seed": 0, "timestamps": [0.5, 0.2]}),
     "non-decreasing"),
    (json.dumps({"version": 1, "process": "poisson", "rate_qps": "fast",
                 "duration_s": 1.0, "seed": 0, "timestamps": []}),
     "malformed"),
])
def test_trace_load_rejects_malformed_files(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(ValueError, match=message) as caught:
        ArrivalTrace.load(str(path))
    assert "bad.json" in str(caught.value)  # the message names the file


def test_trace_constructor_validates_timestamps():
    with pytest.raises(ValueError, match="non-decreasing"):
        ArrivalTrace(process="poisson", rate_qps=1.0, duration_s=1.0, seed=0,
                     timestamps=(0.2, 0.1))
    with pytest.raises(ValueError, match="finite non-negative"):
        ArrivalTrace(process="poisson", rate_qps=1.0, duration_s=1.0, seed=0,
                     timestamps=(-0.1,))
    with pytest.raises(ValueError, match="finite non-negative"):
        ArrivalTrace(process="poisson", rate_qps=1.0, duration_s=1.0, seed=0,
                     timestamps=(math.nan,))


# --------------------------------------------------------------------------- #
# Client pacing
# --------------------------------------------------------------------------- #
def test_client_clock_is_the_routers(fleet):
    router = _frozen_router(fleet)
    assert AsyncFleetClient(router).clock is router.clock


def test_pace_advances_frozen_clock_exactly(fleet):
    router = _frozen_router(fleet)

    async def main():
        client = AsyncFleetClient(router)
        await client.pace(0.25)
        first = client.clock()
        await client.pace(0.1)  # already past: a no-op, time never rewinds
        return first, client.clock()

    first, second = asyncio.run(main())
    assert first == pytest.approx(0.25)
    assert second == pytest.approx(0.25)


def test_pace_sleeps_real_time_with_hybrid_clock(fleet):
    import time

    clock = VirtualClock(base=time.perf_counter)
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2,
                         clock=clock)

    async def main():
        client = AsyncFleetClient(router)
        deadline = client.clock() + 0.05
        await client.pace(deadline)
        return client.clock() - deadline

    overshoot = asyncio.run(main())
    assert overshoot >= -1e-4  # woke at (or just past) the deadline


# --------------------------------------------------------------------------- #
# The open-loop driver
# --------------------------------------------------------------------------- #
def test_open_loop_replay_is_deterministic_and_driftless(fleet, workload):
    """Under a frozen clock a trace replay is a pure function of the trace:
    two runs produce identical estimates, and every completed query matches
    the unloaded sequential baseline at its global index."""
    trace = ArrivalTrace.record("poisson", rate_qps=150.0, duration_s=0.3,
                                seed=6)
    outcomes = [run_open_loop(_frozen_router(fleet), workload, trace)
                for _ in range(2)]
    first, second = (outcome.report.selectivities for outcome in outcomes)
    np.testing.assert_allclose(second, first, rtol=0.0, atol=0.0)
    assert outcomes[0].submitted == len(trace)
    assert outcomes[0].completed == len(trace)
    assert outcomes[0].shed == 0
    assert outcomes[0].offered_qps == pytest.approx(trace.offered_qps)
    baseline = _baseline(fleet, workload, trace.timestamps)
    summary = assert_degraded_not_collapsed(outcomes[0], baseline=baseline)
    assert summary["degraded_not_collapsed"]
    assert summary["max_estimate_drift"] == 0.0


def test_open_loop_reports_arrival_based_latency(fleet, workload):
    """The knee column measures from *scheduled* arrival: e2e >= the
    service-time number, and both appear in as_dict for the reports."""
    trace = ArrivalTrace.record("poisson", rate_qps=100.0, duration_s=0.3,
                                seed=6)
    outcome = run_open_loop(_frozen_router(fleet), workload, trace)
    assert outcome.e2e_p95_ms is not None
    assert outcome.e2e_p95_ms >= 0.0
    assert outcome.service_e2e_p95_ms is not None
    assert outcome.max_lateness_ms >= 0.0
    summary = outcome.as_dict()
    assert summary["completed"] == outcome.completed
    assert summary["e2e_p95_ms"] == outcome.e2e_p95_ms
    assert set(summary["arrival_e2e_ms"]) == {"p50", "p95", "p99"}
    # The CLI prints the idle-flush count, so the JSON document carries it.
    assert summary["idle_flushes"] == outcome.idle_flushes


def test_open_loop_overload_sheds_typed_and_bounded(fleet, workload):
    """A burst far beyond max_pending sheds (typed, counted) instead of
    growing the queue without bound — and the queries that *did* complete
    still match the baseline."""
    router = _frozen_router(fleet, batch_size=8, max_pending=2,
                            overflow="shed")
    arrivals = [0.0] * 30  # everything at once: queues must hit their bound
    outcome = run_open_loop(router, workload, arrivals, duration_s=1.0)
    assert outcome.shed > 0
    assert outcome.submitted + outcome.shed == len(arrivals)
    assert outcome.peak_pending <= 2
    baseline = _baseline(fleet, workload, arrivals)
    summary = assert_degraded_not_collapsed(outcome, baseline=baseline,
                                            max_pending=2)
    assert summary["shed"] == outcome.shed


def test_open_loop_validation_and_empty_run(fleet, workload):
    router = _frozen_router(fleet)
    with pytest.raises(ValueError, match="non-decreasing"):
        run_open_loop(router, workload, [0.2, 0.1])
    with pytest.raises(ValueError, match="at least one query"):
        run_open_loop(router, [], [0.1])
    outcome = run_open_loop(router, workload, [])
    assert outcome.submitted == outcome.completed == outcome.shed == 0
    assert outcome.arrival_e2e_ms is None
    assert outcome.e2e_p95_ms is None


def test_open_loop_ticks_flush_deadlines_inline(fleet, workload):
    """With a flush deadline configured, a frozen-clock run must still fire
    it (the inline tick): a partial batch dispatches when virtual pacing
    carries the clock past its deadline, not at drain."""
    router = _frozen_router(fleet, batch_size=64, flush_after_ms=10.0)
    outcome = run_open_loop(router, workload, [0.0, 0.1], duration_s=0.2)
    assert outcome.completed == 2
    assert outcome.report.stats.timeout_flushes >= 1


# --------------------------------------------------------------------------- #
# Chaos scenarios
# --------------------------------------------------------------------------- #
def test_chaos_scenario_validation(fleet):
    with pytest.raises(ValueError, match="at_fraction"):
        CacheWipe(at_fraction=1.0)
    with pytest.raises(ValueError, match="delay_ms"):
        SlowReplica("users", delay_ms=0.0)
    scenario = ChaosScenario(at_fraction=0.5)
    with pytest.raises(NotImplementedError):
        scenario.fire(0, None)
    assert set(SCENARIOS) == {"slow_replica", "cache_wipe"}
    assert isinstance(SCENARIOS["slow_replica"]("users", delay_ms=5.0),
                      SlowReplica)
    assert isinstance(SCENARIOS["cache_wipe"]("users", at_fraction=0.25),
                      CacheWipe)


def test_slow_replica_fires_once_chains_hook_and_restores(fleet, workload):
    trace = ArrivalTrace.record("poisson", rate_qps=120.0, duration_s=0.3,
                                seed=6)
    router = _frozen_router(fleet)
    route = router.resolve_route(workload[0])
    # Pre-install a hook: the scenario must chain onto it, not clobber it.
    engine = router.group(route).engines[0]
    observed = []
    prior_hook = observed.append
    engine.batch_hook = prior_hook
    scenario = SlowReplica(route, replica=0, delay_ms=25.0, at_fraction=0.0)
    outcome = run_open_loop(router, workload, trace, scenario=scenario)
    assert scenario.fired
    assert len(outcome.events) == 1  # fires exactly once
    assert "slow_replica" in outcome.events[0]
    assert observed, "the prior hook must keep firing under the wrapper"
    assert engine.batch_hook is prior_hook  # restored by finish()
    baseline = _baseline(fleet, workload, trace.timestamps)
    assert_degraded_not_collapsed(outcome, baseline=baseline)


def test_slow_replica_stall_advances_frozen_clock(fleet, workload):
    """The injected delay is visible in the latency accounting: queries
    behind the stall accrue measurable e2e under a purely virtual clock."""
    trace = ArrivalTrace.record("poisson", rate_qps=200.0, duration_s=0.25,
                                seed=6)
    route_of = _frozen_router(fleet).resolve_route(workload[0])
    quiet = run_open_loop(_frozen_router(fleet), workload, trace)
    slowed = run_open_loop(
        _frozen_router(fleet), workload, trace,
        scenario=SlowReplica(route_of, delay_ms=40.0, at_fraction=0.0))
    assert slowed.e2e_p95_ms > quiet.e2e_p95_ms


def test_cache_wipe_fires_and_estimates_hold(fleet, workload):
    trace = ArrivalTrace.record("poisson", rate_qps=150.0, duration_s=0.3,
                                seed=6)
    router = _frozen_router(fleet, result_cache=True)
    scenario = CacheWipe(at_fraction=0.5)
    outcome = run_open_loop(router, workload, trace, scenario=scenario)
    assert scenario.fired
    assert any("cache_wipe" in event for event in outcome.events)
    baseline = _baseline(fleet, workload, trace.timestamps)
    assert_degraded_not_collapsed(outcome, baseline=baseline)


def test_wipe_caches_empties_every_layer(fleet, workload):
    router = FleetRouter(fleet, batch_size=4, num_samples=_SAMPLES, seed=2,
                         result_cache=True)
    router.run(workload)
    assert len(router._result_cache) > 0
    wiped = router.wipe_caches()
    assert wiped["result_caches"] == 1
    assert wiped["conditional_caches"] >= 1
    assert len(router._result_cache) == 0
    plain = _frozen_router(fleet)  # no result cache layer
    assert plain.wipe_caches()["result_caches"] == 0


# --------------------------------------------------------------------------- #
# Sweeps, the knee, and the degradation contract
# --------------------------------------------------------------------------- #
def test_sweep_produces_one_row_per_rate(fleet, workload):
    rows = sweep_offered_load(lambda: _frozen_router(fleet), workload,
                              [50.0, 100.0], duration_s=0.2, seed=3)
    assert len(rows) == 2
    assert rows[0]["offered_qps"] < rows[1]["offered_qps"]
    for row in rows:
        assert row["completed"] + 0 == row["submitted"]  # frozen: no shed
        assert {"e2e_p95_ms", "service_p95_ms", "peak_pending",
                "queue_p95_ms", "max_lateness_ms"} <= set(row)
    with pytest.raises(ValueError, match="at least one offered rate"):
        sweep_offered_load(lambda: _frozen_router(fleet), workload, [],
                           duration_s=0.2)


def test_locate_knee_cases():
    def row(qps, p95):
        return {"offered_qps": qps, "e2e_p95_ms": p95}

    knee = locate_knee([row(10, 1.0), row(20, 2.0), row(40, 9.0)], 5.0)
    assert knee["knee_qps"] == 20
    assert knee["first_over_qps"] == 40
    assert knee["rows_over"] == 1
    assert not knee["meets_all"]
    all_meet = locate_knee([row(10, 1.0), row(20, 2.0)], 5.0)
    assert all_meet["meets_all"]
    assert all_meet["knee_qps"] == 20
    assert all_meet["first_over_qps"] is None
    none_meet = locate_knee([row(10, 9.0)], 5.0)
    assert none_meet["knee_qps"] is None
    assert none_meet["first_over_qps"] == 10
    empty_row = locate_knee([row(10, None)], 5.0)  # nothing completed: over
    assert empty_row["knee_qps"] is None
    with pytest.raises(ValueError, match="at least one sweep row"):
        locate_knee([], 5.0)
    with pytest.raises(ValueError, match="slo_ms"):
        locate_knee([row(10, 1.0)], 0.0)


def test_degradation_contract_failures_are_named(fleet, workload):
    trace = ArrivalTrace.record("poisson", rate_qps=100.0, duration_s=0.3,
                                seed=6)
    outcome = run_open_loop(_frozen_router(fleet), workload, trace)
    baseline = _baseline(fleet, workload, trace.timestamps)
    assert_degraded_not_collapsed(outcome, baseline=baseline)  # passes as-is
    outcome.peak_pending = 99
    with pytest.raises(AssertionError, match="queue growth unbounded"):
        assert_degraded_not_collapsed(outcome, baseline=baseline,
                                      max_pending=10)
    outcome.peak_pending = 0
    outcome.submitted += 1
    with pytest.raises(AssertionError, match="vanished"):
        assert_degraded_not_collapsed(outcome, baseline=baseline)
    outcome.submitted -= 1
    drifted = dataclasses.replace(
        outcome.report.results[0],
        selectivity=outcome.report.results[0].selectivity + 0.5)
    outcome.report.results[0] = drifted
    with pytest.raises(AssertionError, match="estimate drift"):
        assert_degraded_not_collapsed(outcome, baseline=baseline)
