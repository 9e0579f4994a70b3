"""Open-loop load generation and chaos drills for the serve fleet.

Every other harness in this repository is **closed-loop**: the next query is
submitted when the previous one (or its micro-batch) finishes, so the fleet
can never be offered more work than it completes and overload is unobservable
by construction.  This module is the open-loop complement — the tool that
measures what heavy live traffic actually does to the fleet:

* **Arrival processes** — :func:`poisson_arrivals` (memoryless steady
  traffic), :func:`diurnal_arrivals` (a sinusoidal day/night cycle) and
  :func:`flash_arrivals` (a flash crowd: a sudden sustained burst at a
  multiple of the base rate) generate monotone arrival timestamps whose
  *mean* rate is exactly the requested ``rate_qps``, so offered load means
  the same thing across processes.  All three are deterministic functions of
  their seed.
* **Replayable traces** — :class:`ArrivalTrace` records an arrival sequence
  (with the process, rate and seed that produced it) into a JSON file whose
  bytes are stable for a given seed: recording the same trace twice, or
  loading and re-saving it, produces identical files, and replaying it
  reproduces the arrival sequence exactly.  Traces are how a load test is
  shipped to another machine, attached to a bug report, or replayed in CI.
* **The open-loop driver** — :func:`run_open_loop` submits query *i* through
  an :class:`~repro.serve.stream.AsyncFleetClient` the moment the clock
  reaches ``arrivals[i]``, **regardless of completion rate**.  Overload
  therefore manifests the way it does in production: pending queues grow to
  their ``max_pending`` bound, the admission controller sheds (typed
  :class:`~repro.serve.router.AdmissionError`, counted — never a crash), and
  end-to-end latency climbs.  Pacing goes through
  :meth:`AsyncFleetClient.pace`, so a frozen
  :class:`~repro.serve.engine.VirtualClock` makes a trace replay fully
  deterministic under test while a hybrid clock paces against real time.
* **Scenario/chaos injection** — :class:`SlowReplica` (per-engine delay
  injected via the engine ``batch_hook``), :class:`CacheWipe` (every cache
  layer cleared mid-run) and, for the cross-process tier,
  :func:`run_kill_worker_drill` (:meth:`ProcessFleet.kill_worker
  <repro.serve.procfleet.ProcessFleet.kill_worker>` mid-stream, asserting
  the typed :class:`~repro.serve.procfleet.WorkerError` surfaces with no
  hang and no leaked children).
* **Latency-vs-offered-load curves** — :func:`sweep_offered_load` runs the
  driver at a ladder of offered rates and :func:`locate_knee` finds where
  the e2e p95 leaves the SLO; the ``serve_loadgen`` benchmark
  (:func:`repro.bench.serve_loadgen`) emits the curve to
  ``results/timing/serve_loadgen.{json,txt}``.

The degradation contract all of this asserts
(:func:`assert_degraded_not_collapsed`): under overload and chaos the fleet
**degrades, never collapses** — queue growth stays bounded by ``max_pending``,
refusals are typed and counted, and every query that *does* complete returns
exactly the estimate of the unloaded sequential baseline (estimates are keyed
by ``(seed, global index)`` alone, so no amount of queueing, shedding, cache
wiping or replica slowness may move a completed number).
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..query.predicates import Query
from .report import FleetReport, latency_percentiles, plain_dict
from .router import AdmissionError, FleetRouter
from .stream import AsyncFleetClient

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalTrace",
    "CacheWipe",
    "ChaosScenario",
    "OpenLoopResult",
    "SCENARIOS",
    "SlowReplica",
    "assert_degraded_not_collapsed",
    "diurnal_arrivals",
    "flash_arrivals",
    "generate_arrivals",
    "locate_knee",
    "poisson_arrivals",
    "run_kill_worker_drill",
    "run_open_loop",
    "sweep_offered_load",
]

#: The arrival processes :func:`generate_arrivals` understands (``"trace"``
#: is a CLI-level source, not a generator: it replays an :class:`ArrivalTrace`).
ARRIVAL_PROCESSES = ("poisson", "diurnal", "flash")

_TRACE_VERSION = 1

#: Peak-to-mean modulation of :func:`diurnal_arrivals`: the rate swings
#: between 0.2x and 1.8x the mean over one cycle per run.
_DIURNAL_DEPTH = 0.8
#: The :func:`flash_arrivals` burst: it starts half-way through the run,
#: lasts a fifth of it, and runs at five times the base rate.
_FLASH_AT = 0.5
_FLASH_WIDTH = 0.2
_FLASH_MULTIPLIER = 5.0


def _validate_load(rate_qps: float, duration_s: float) -> None:
    if not math.isfinite(rate_qps) or rate_qps <= 0.0:
        raise ValueError(f"offered rate must be positive and finite, got "
                         f"{rate_qps!r} qps")
    if not math.isfinite(duration_s) or duration_s <= 0.0:
        raise ValueError(f"duration must be positive and finite, got "
                         f"{duration_s!r} s")


def poisson_arrivals(rate_qps: float, duration_s: float, *,
                     seed: int = 0) -> list[float]:
    """Homogeneous Poisson arrivals: exponential gaps at ``rate_qps``.

    The memoryless baseline of open-loop load testing: arrivals are
    independent of each other and of the fleet's completions.  Timestamps
    are seconds from the start of the run, strictly increasing, all within
    ``[0, duration_s)``; their expected count is ``rate_qps * duration_s``.
    Deterministic for a given ``seed``.

    Raises:
        ValueError: Non-positive or non-finite ``rate_qps``/``duration_s``.
    """
    _validate_load(rate_qps, duration_s)
    rng = np.random.default_rng(seed)
    timestamps: list[float] = []
    now = 0.0
    while True:
        now += float(rng.exponential(1.0 / rate_qps))
        if now >= duration_s:
            return timestamps
        timestamps.append(now)


def _thinned_arrivals(rate_fn: Callable[[float], float], peak_qps: float,
                      duration_s: float, seed: int) -> list[float]:
    """Non-homogeneous Poisson arrivals by thinning (Lewis & Shedler).

    Candidates arrive as a homogeneous process at ``peak_qps``; candidate
    ``t`` survives with probability ``rate_fn(t) / peak_qps``.  One RNG
    drives both draws, so the sequence is a deterministic function of the
    seed.
    """
    rng = np.random.default_rng(seed)
    timestamps: list[float] = []
    now = 0.0
    while True:
        now += float(rng.exponential(1.0 / peak_qps))
        if now >= duration_s:
            return timestamps
        if float(rng.random()) * peak_qps < rate_fn(now):
            timestamps.append(now)


def diurnal_arrivals(rate_qps: float, duration_s: float, *,
                     seed: int = 0) -> list[float]:
    """Diurnal (sinusoidal) arrivals averaging exactly ``rate_qps``.

    The instantaneous rate is ``rate_qps * (1 + depth * sin(2πt/duration))``
    with ``depth`` = ``_DIURNAL_DEPTH`` (0.8: the rate swings between 0.2x
    and 1.8x the mean) — a day/night cycle compressed into the run.  One
    full cycle per run keeps the *mean* rate exactly the requested one, so
    a diurnal run at N qps offers the same total load as a Poisson run at N
    qps; only the shape differs.

    Args:
        rate_qps: Mean offered rate (must be positive).
        duration_s: Length of the arrival window in seconds.
        seed: RNG seed; the sequence is a deterministic function of it.

    Raises:
        ValueError: Invalid rate or duration.
    """
    _validate_load(rate_qps, duration_s)

    def rate(t: float) -> float:
        return rate_qps * (1.0 + _DIURNAL_DEPTH
                           * math.sin(2.0 * math.pi * t / duration_s))

    return _thinned_arrivals(rate, rate_qps * (1.0 + _DIURNAL_DEPTH),
                             duration_s, seed)


def flash_arrivals(rate_qps: float, duration_s: float, *,
                   seed: int = 0) -> list[float]:
    """Flash-crowd arrivals averaging exactly ``rate_qps``.

    A steady base rate with one sustained burst: during the window starting
    half-way through the run (``_FLASH_AT``) and lasting a fifth of it
    (``_FLASH_WIDTH``), the instantaneous rate jumps to five times the base
    (``_FLASH_MULTIPLIER``).  The base is scaled down so the *mean* over the
    whole run is exactly ``rate_qps`` — a flash run and a Poisson run at the
    same nominal rate offer the same total load, concentrated differently.

    Args:
        rate_qps: Mean offered rate (must be positive).
        duration_s: Length of the arrival window in seconds.
        seed: RNG seed; the sequence is a deterministic function of it.

    Raises:
        ValueError: Invalid rate or duration.
    """
    _validate_load(rate_qps, duration_s)
    start = _FLASH_AT * duration_s
    end = (_FLASH_AT + _FLASH_WIDTH) * duration_s
    # The window's share of the run, computed from its clock readings (a
    # literal _FLASH_WIDTH would move the base rate, and so every
    # timestamp, by an ulp).
    width = (end - start) / duration_s
    base = rate_qps / (1.0 + (_FLASH_MULTIPLIER - 1.0) * width)
    peak = base * _FLASH_MULTIPLIER

    def rate(t: float) -> float:
        return peak if start <= t < end else base

    return _thinned_arrivals(rate, peak, duration_s, seed)


def generate_arrivals(process: str, *, rate_qps: float, duration_s: float,
                      seed: int = 0) -> list[float]:
    """Generate one arrival sequence by process name.

    The string-keyed front door shared by the CLI, :class:`ArrivalTrace` and
    the sweep: ``process`` is one of :data:`ARRIVAL_PROCESSES`.

    Raises:
        ValueError: Unknown process, or a non-positive rate/duration (the
            ``--offered-qps`` fail-fast lives here).
    """
    generators = {"poisson": poisson_arrivals, "diurnal": diurnal_arrivals,
                  "flash": flash_arrivals}
    if process not in generators:
        raise ValueError(f"unknown arrival process {process!r}; known: "
                         f"{', '.join(ARRIVAL_PROCESSES)}")
    return generators[process](rate_qps, duration_s, seed=seed)


@dataclass(frozen=True)
class ArrivalTrace:
    """A recorded arrival sequence, replayable bit-for-bit from JSON.

    A trace bundles the timestamps with the provenance that produced them
    (process, rate, duration, seed), so a load test is fully
    described by one small file.  :meth:`save` / :meth:`load` round-trip
    **byte-stably**: for a given seed, recording the same trace twice — or
    loading a file and saving it again — writes identical bytes (JSON floats
    serialise via ``repr``, which round-trips IEEE doubles exactly), and the
    replayed arrival sequence equals the recorded one element for element.
    """

    process: str
    rate_qps: float
    duration_s: float
    seed: int
    timestamps: tuple[float, ...]

    def __post_init__(self) -> None:
        previous = -math.inf
        for position, timestamp in enumerate(self.timestamps):
            if not math.isfinite(timestamp) or timestamp < 0.0:
                raise ValueError(f"trace timestamp {position} is not a "
                                 f"finite non-negative number: {timestamp!r}")
            if timestamp < previous:
                raise ValueError(f"trace timestamps must be non-decreasing; "
                                 f"entry {position} ({timestamp!r}) precedes "
                                 f"its predecessor ({previous!r})")
            previous = timestamp

    @classmethod
    def record(cls, process: str, *, rate_qps: float, duration_s: float,
               seed: int = 0) -> "ArrivalTrace":
        """Generate and wrap one arrival sequence (see :func:`generate_arrivals`)."""
        timestamps = generate_arrivals(process, rate_qps=rate_qps,
                                       duration_s=duration_s, seed=seed)
        return cls(process=process, rate_qps=rate_qps, duration_s=duration_s,
                   seed=seed, timestamps=tuple(timestamps))

    def to_json(self) -> str:
        """The canonical JSON document — the exact bytes :meth:`save` writes."""
        document = {
            "version": _TRACE_VERSION,
            "process": self.process,
            "rate_qps": self.rate_qps,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "timestamps": list(self.timestamps),
        }
        return json.dumps(document, indent=1, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        """Write the trace file (stable bytes for a given trace)."""
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ArrivalTrace":
        """Read a trace file written by :meth:`save`.

        Raises:
            ValueError: Malformed file — unparseable JSON, a non-object
                document, an unsupported version, missing fields, or
                timestamps that are not a non-decreasing sequence of finite
                non-negative numbers.  The message always names the file.
        """
        with open(path) as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(f"trace file {path!r} is not valid JSON: "
                                 f"{error}") from error
        if not isinstance(document, dict):
            raise ValueError(f"trace file {path!r} must hold a JSON object, "
                             f"got {type(document).__name__}")
        version = document.get("version")
        if version != _TRACE_VERSION:
            raise ValueError(f"trace file {path!r} has unsupported version "
                             f"{version!r} (expected {_TRACE_VERSION})")
        missing = sorted({"process", "rate_qps", "duration_s", "seed",
                          "timestamps"} - set(document))
        if missing:
            raise ValueError(f"trace file {path!r} is missing required "
                             f"fields: {', '.join(missing)}")
        timestamps = document["timestamps"]
        if not isinstance(timestamps, list) or not all(
                isinstance(entry, (int, float)) and not isinstance(entry, bool)
                for entry in timestamps):
            raise ValueError(f"trace file {path!r} timestamps must be a JSON "
                             "array of numbers")
        try:
            return cls(process=document["process"],
                       rate_qps=float(document["rate_qps"]),
                       duration_s=float(document["duration_s"]),
                       seed=int(document["seed"]),
                       timestamps=tuple(float(entry) for entry in timestamps))
        except (TypeError, ValueError) as error:
            raise ValueError(f"trace file {path!r} is malformed: {error}") \
                from error

    @property
    def offered_qps(self) -> float:
        """The realised offered rate: arrivals per second of trace window."""
        return len(self.timestamps) / self.duration_s

    def __len__(self) -> int:
        return len(self.timestamps)


# --------------------------------------------------------------------------- #
# Scenario / chaos injection
# --------------------------------------------------------------------------- #
class ChaosScenario:
    """One fault injected at a chosen point of an open-loop run.

    Subclasses override :meth:`on_arrival` (called before every submission
    with the arrival's position) to fire their fault at ``at_fraction`` of
    the run, and :meth:`finish` to undo any instrumentation.  A fired
    scenario appends human-readable entries to
    :attr:`OpenLoopResult.events`, so reports show exactly when the fault
    landed.
    """

    name = "none"

    def __init__(self, *, at_fraction: float = 0.5) -> None:
        if not 0.0 <= at_fraction < 1.0:
            raise ValueError(f"at_fraction must be in [0, 1), got "
                             f"{at_fraction!r}")
        self.at_fraction = at_fraction
        self.fired = False

    def on_arrival(self, position: int, num_arrivals: int,
                   router: FleetRouter) -> str | None:
        """Hook before arrival ``position``; returns an event line if fired."""
        if self.fired or position < int(self.at_fraction * num_arrivals):
            return None
        self.fired = True
        return self.fire(position, router)

    def fire(self, position: int, router: FleetRouter) -> str | None:
        """Inject the fault; subclasses implement."""
        raise NotImplementedError

    def finish(self, router: FleetRouter) -> None:
        """Undo any instrumentation installed by :meth:`fire` (idempotent)."""


class SlowReplica(ChaosScenario):
    """One replica turns slow mid-run: delay injected via ``batch_hook``.

    From ``at_fraction`` of the run onward, every micro-batch the target
    replica dispatches is followed by ``delay_ms`` of stall — injected by
    chaining onto the engine's ``batch_hook`` (after any hook already
    installed there, so a route's SLO controller — see
    :class:`~repro.serve.router.FleetRouter`'s ``slo_ms`` — keeps observing
    and keeps steering *around* the slow replica).  Under a frozen :class:`~repro.serve.engine.VirtualClock`
    the stall advances virtual time (deterministic tests); under a real or
    hybrid clock it sleeps.

    The delay lands *after* dispatch, exactly where a slow model server
    stalls its caller: queries already answered are untouched, queries
    queued behind the stall accrue queue wait — latency degrades, estimates
    never move.
    """

    name = "slow_replica"

    def __init__(self, route: str, *, replica: int = 0, delay_ms: float = 50.0,
                 at_fraction: float = 0.25) -> None:
        super().__init__(at_fraction=at_fraction)
        if delay_ms <= 0:
            raise ValueError(f"delay_ms must be positive, got {delay_ms!r}")
        self.route = route
        self.replica = replica
        self.delay_ms = delay_ms
        self._engine = None
        self._prior_hook = None

    def _stall(self, clock) -> None:
        if hasattr(clock, "advance") and getattr(clock, "base", None) is None:
            clock.advance(self.delay_ms / 1000.0)
        else:
            time.sleep(self.delay_ms / 1000.0)

    def fire(self, position: int, router: FleetRouter) -> str:
        """Chain the stall onto the target engine's ``batch_hook``."""
        group = router.group(self.route)
        engine = group.engines[self.replica % len(group.engines)]
        prior = engine.batch_hook

        def slow_hook(record, prior=prior, engine=engine):
            if prior is not None:
                prior(record)
            self._stall(engine.clock)

        self._engine, self._prior_hook = engine, prior
        engine.batch_hook = slow_hook
        return (f"slow_replica: +{self.delay_ms:g} ms per dispatch on "
                f"{self.route}/{self.replica} from arrival {position}")

    def finish(self, router: FleetRouter) -> None:
        """Restore the hook that was installed before the stall."""
        if self._engine is not None:
            self._engine.batch_hook = self._prior_hook
            self._engine = None


class CacheWipe(ChaosScenario):
    """Every cache layer wiped mid-run (a cold restart of the cache tier).

    Fires :meth:`FleetRouter.wipe_caches
    <repro.serve.router.FleetRouter.wipe_caches>` at ``at_fraction`` of the
    run: the fleet result cache and every replica group's conditional cache
    empty at once.  Subsequent queries pay cold-cache latency — and must
    return exactly the numbers they would have anyway, since caches are a
    latency layer, never a correctness one.
    """

    name = "cache_wipe"

    def fire(self, position: int, router: FleetRouter) -> str:
        """Empty every cache layer through :meth:`FleetRouter.wipe_caches`."""
        wiped = router.wipe_caches()
        return (f"cache_wipe: cleared {wiped['conditional_caches']} "
                f"conditional cache(s) and "
                f"{wiped['result_caches']} result cache(s) at arrival "
                f"{position}")


#: Scenario name -> factory taking ``(route, **kwargs)``; the CLI builds
#: in-process scenarios through this table.  ``kill_worker``
#: is the cross-process drill and runs through :func:`run_kill_worker_drill`.
SCENARIOS: dict[str, Callable[..., ChaosScenario]] = {
    "slow_replica": lambda route, **kwargs: SlowReplica(route, **kwargs),
    "cache_wipe": lambda route, **kwargs: CacheWipe(**kwargs),
}


# --------------------------------------------------------------------------- #
# The open-loop driver
# --------------------------------------------------------------------------- #
@dataclass
class OpenLoopResult:
    """Everything one open-loop run measured.

    ``queries[i % len(queries)]`` was offered at ``arrivals[i]`` with global
    index ``i``; completed queries appear in :attr:`report` under those
    indices, shed ones are counted (typed, never silent).  ``offered_qps``
    is arrivals per second of window; ``achieved_qps`` is completions per
    second of measured wall time — open loop means the two diverge exactly
    when the fleet saturates.
    """

    report: FleetReport
    offered_qps: float
    achieved_qps: float
    duration_s: float
    wall_s: float
    submitted: int
    completed: int
    shed: int
    peak_pending: int
    #: Percentiles of the **open-loop** end-to-end latency: completion
    #: relative to the query's *scheduled* arrival time, so time the run
    #: spent falling behind its own arrival schedule is charged to the
    #: queries that suffered it (the coordinated-omission-free number a real
    #: submitter would observe).  ``None`` when nothing completed.
    arrival_e2e_ms: dict | None = None
    #: The largest submission lateness (scheduled arrival -> actual
    #: submission) any query accrued — how far behind schedule the run fell.
    max_lateness_ms: float = 0.0
    events: list[str] = field(default_factory=list)
    #: Micro-batches the client's flush driver dispatched at loop idle (see
    #: :attr:`~repro.serve.stream.AsyncFleetClient.idle_flushes`); the
    #: deadline-fired ones are the report's ``timeout_flushes``.
    idle_flushes: int = 0

    @property
    def e2e_p95_ms(self) -> float | None:
        """Open-loop e2e p95, from scheduled arrival (``None`` if empty)."""
        return self.arrival_e2e_ms["p95"] if self.arrival_e2e_ms else None

    @property
    def service_e2e_p95_ms(self) -> float | None:
        """e2e p95 from *actual* submission — the closed-loop-style number.

        Blind to schedule lateness, so under overload it can look healthy
        while :attr:`e2e_p95_ms` explodes; reported for comparison.
        """
        stats = self.report.stats.e2e_ms
        return stats["p95"] if stats is not None else None

    def as_dict(self) -> dict:
        """Plain-dict summary (everything but the report), for JSON reports."""
        return plain_dict(self, "e2e_p95_ms", "service_e2e_p95_ms",
                          exclude=("report",))


def run_open_loop(router: FleetRouter, queries: Sequence[Query],
                  arrivals: Sequence[float] | ArrivalTrace, *,
                  duration_s: float | None = None,
                  scenario: ChaosScenario | None = None) -> OpenLoopResult:
    """Offer a workload to the fleet open-loop: arrivals ignore completions.

    Query ``i % len(queries)`` is submitted with global index ``i`` the
    moment the client's clock reaches ``arrivals[i]`` (seconds from the
    run's start) — paced through :meth:`AsyncFleetClient.pace`, so a router
    on a frozen :class:`~repro.serve.engine.VirtualClock` replays a trace
    deterministically while a real/hybrid clock paces against wall time.
    Submission never waits for results: if the fleet falls behind, queues
    grow to their ``max_pending`` bound and the ``shed`` overflow policy
    refuses the excess with typed, counted
    :class:`~repro.serve.router.AdmissionError`\\ s.  After the last arrival
    the run drains, so every admitted query completes and is reported.

    Args:
        router: The fleet router (plain or streaming) to offer load to.
        queries: Query pool, cycled to cover all arrivals.  Indices are
            arrival positions, so estimates are comparable per-index with a
            closed-loop or sequential run of the same expanded workload.
        arrivals: Arrival timestamps (or a recorded :class:`ArrivalTrace`).
        duration_s: Offered-load window used for ``offered_qps`` accounting
            (defaults to the trace's window, or the last arrival time).
        scenario: Optional :class:`ChaosScenario` to inject mid-run.

    Returns:
        The run's :class:`OpenLoopResult`.

    Raises:
        ValueError: An empty query pool, or unsorted arrival timestamps.
    """
    if isinstance(arrivals, ArrivalTrace):
        if duration_s is None:
            duration_s = arrivals.duration_s
        arrivals = list(arrivals.timestamps)
    else:
        arrivals = list(arrivals)
    if not queries and arrivals:
        raise ValueError("an open-loop run needs at least one query to offer")
    if any(later < earlier
           for earlier, later in zip(arrivals, arrivals[1:])):
        raise ValueError("arrival timestamps must be non-decreasing")
    if duration_s is None:
        duration_s = arrivals[-1] if arrivals else 0.0
    router._begin_scope()
    events: list[str] = []
    counters = {"submitted": 0, "shed": 0, "peak_pending": 0}
    #: Index -> ms the submission ran behind its scheduled arrival.  Under
    #: overload the fleet cannot keep up and arrivals go out ever later;
    #: charging that lateness to the queries that suffered it is what makes
    #: the latency curve honest (no coordinated omission).
    lateness_ms: dict[int, float] = {}

    async def drive() -> tuple[FleetReport, float, int]:
        # The default flush driver: under a real/hybrid clock a background
        # task dispatches a partial batch as soon as pace() leaves the loop
        # idle between arrivals (so it waits neither for the *next* arrival
        # nor for its deadline, which only bounds a loop that never idles);
        # under a frozen clock the inline tick below keeps the replay a pure
        # function of the trace.
        client = AsyncFleetClient(router)
        ticking = router.flush_after_ms is not None
        start = client.clock()
        wall_start = time.perf_counter()
        try:
            for position, at in enumerate(arrivals):
                await client.pace(start + at)
                if scenario is not None:
                    event = scenario.on_arrival(position, len(arrivals), router)
                    if event is not None:
                        events.append(event)
                try:
                    client.submit(queries[position % len(queries)],
                                  index=position)
                    counters["submitted"] += 1
                    lateness_ms[position] = max(
                        0.0, (client.clock() - (start + at)) * 1000.0)
                except AdmissionError:
                    counters["shed"] += 1
                counters["peak_pending"] = max(counters["peak_pending"],
                                               router.peak_pending)
                if ticking:
                    router.tick()
                await asyncio.sleep(0)  # interleave like real producers
            report = await client.drain()
            return (report, time.perf_counter() - wall_start,
                    client.idle_flushes)
        finally:
            if scenario is not None:
                scenario.finish(router)
            client.close()

    report, wall_s, idle_flushes = asyncio.run(drive())
    completed = report.stats.num_queries
    arrival_e2es = [lateness_ms[result.index] + result.e2e_ms
                    for result in report.results
                    if result.index in lateness_ms]
    return OpenLoopResult(
        report=report,
        offered_qps=len(arrivals) / duration_s if duration_s > 0 else 0.0,
        achieved_qps=completed / wall_s if wall_s > 0 else 0.0,
        duration_s=duration_s, wall_s=wall_s,
        submitted=counters["submitted"], completed=completed,
        shed=counters["shed"],
        peak_pending=max(counters["peak_pending"], router.peak_pending),
        arrival_e2e_ms=latency_percentiles(arrival_e2es)
            if arrival_e2es else None,
        max_lateness_ms=max(lateness_ms.values(), default=0.0),
        events=events, idle_flushes=idle_flushes)


# --------------------------------------------------------------------------- #
# Sweeps, the SLO knee, and the degradation contract
# --------------------------------------------------------------------------- #
def sweep_offered_load(router_factory: Callable[[], FleetRouter],
                       queries: Sequence[Query], rates_qps: Sequence[float], *,
                       duration_s: float, process: str = "poisson",
                       seed: int = 0) -> list[dict]:
    """Run the open-loop driver at a ladder of offered rates.

    Each rate gets a **fresh** router from ``router_factory`` (so one
    overloaded run's warm caches and converged batch sizes never flatter the
    next) and its own arrival sequence at that rate; every run at the same
    ``seed`` is replayable.  Returns one row per rate — offered vs achieved
    throughput, shed count, queue high-water mark, latency percentiles —
    the rows :func:`locate_knee` reads and the ``serve_loadgen`` report
    renders.

    Raises:
        ValueError: Empty ``rates_qps``, or invalid rate/duration/process.
    """
    if not rates_qps:
        raise ValueError("sweep needs at least one offered rate")
    rows = []
    for rate in rates_qps:
        arrivals = generate_arrivals(process, rate_qps=rate,
                                     duration_s=duration_s, seed=seed)
        outcome = run_open_loop(router_factory(), queries, arrivals,
                                duration_s=duration_s)
        stats = outcome.report.stats
        rows.append({
            "offered_qps": outcome.offered_qps,
            "achieved_qps": outcome.achieved_qps,
            "submitted": outcome.submitted,
            "completed": outcome.completed,
            "shed": outcome.shed,
            "peak_pending": outcome.peak_pending,
            "queue_p95_ms": (stats.queue_wait_ms or {}).get("p95"),
            # Open-loop e2e: completion relative to *scheduled* arrival —
            # the column the SLO knee is read from.
            "e2e_p95_ms": outcome.e2e_p95_ms,
            # From actual submission, blind to schedule lateness.
            "service_p95_ms": outcome.service_e2e_p95_ms,
            "max_lateness_ms": outcome.max_lateness_ms,
        })
    return rows


def locate_knee(rows: Sequence[Mapping[str, object]],
                slo_ms: float) -> dict:
    """Find where the latency-vs-offered-load curve leaves the SLO.

    Scans sweep rows (as produced by :func:`sweep_offered_load`, assumed
    sorted by offered rate) for the first whose e2e p95 exceeds ``slo_ms``.
    The **knee** is the last offered rate still meeting the SLO — the
    fleet's usable capacity under that SLO.

    Returns:
        ``{"slo_ms", "knee_qps", "first_over_qps", "meets_all", "rows_over"}``
        — ``knee_qps`` is ``None`` when even the lowest rate misses,
        ``first_over_qps`` is ``None`` when every rate meets
        (``meets_all``).

    Raises:
        ValueError: Empty ``rows`` or a non-positive SLO.
    """
    if not rows:
        raise ValueError("locate_knee needs at least one sweep row")
    if slo_ms <= 0:
        raise ValueError(f"slo_ms must be positive, got {slo_ms!r}")
    knee = None
    first_over = None
    over = 0
    for row in rows:
        p95 = row["e2e_p95_ms"]
        misses = p95 is None or p95 > slo_ms
        if misses:
            over += 1
            if first_over is None:
                first_over = row["offered_qps"]
        elif first_over is None:
            knee = row["offered_qps"]
    return {"slo_ms": slo_ms, "knee_qps": knee, "first_over_qps": first_over,
            "meets_all": first_over is None, "rows_over": over}


def assert_degraded_not_collapsed(outcome: OpenLoopResult, *,
                                  baseline: FleetReport,
                                  max_pending: int | None = None,
                                  atol: float = 1e-9) -> dict:
    """Assert one run degraded within contract; returns the checked summary.

    The degradation contract of every chaos scenario and overload run:

    * **bounded queue growth** — the pending high-water mark never exceeded
      ``max_pending`` (when the router carries one);
    * **typed errors, full accounting** — every offered arrival is either
      completed or counted shed; nothing vanished;
    * **zero estimate drift** — every *completed* query's selectivity equals
      the unloaded ``baseline``'s at the same global index within ``atol``
      (estimates are keyed by ``(seed, index)`` alone, so chaos may cost
      latency, never correctness).

    Raises:
        AssertionError: The contract was violated; the message names the
            check and the numbers.
    """
    if max_pending is not None and outcome.peak_pending > max_pending:
        raise AssertionError(
            f"queue growth unbounded: peak pending {outcome.peak_pending} "
            f"exceeded max_pending {max_pending}")
    if outcome.completed != outcome.submitted:
        raise AssertionError(
            f"admitted queries vanished: {outcome.submitted} admitted but "
            f"only {outcome.completed} completed ({outcome.shed} were shed, "
            "typed and counted — the rest must all finish)")
    drift = 0.0
    for result in outcome.report.results:
        if result.from_result_cache:
            continue  # repeats serve their first occurrence, documented
        expected = baseline.results[result.index].selectivity
        drift = max(drift, abs(result.selectivity - expected))
    if drift > atol:
        raise AssertionError(
            f"estimate drift on completed queries: {drift:.3e} > {atol:.1e}")
    return {"completed": outcome.completed, "shed": outcome.shed,
            "peak_pending": outcome.peak_pending, "max_pending": max_pending,
            "max_estimate_drift": drift, "degraded_not_collapsed": True,
            "events": list(outcome.events)}


def run_kill_worker_drill(fleet, queries: Sequence[Query], *,
                          kill_after: int | None = None,
                          worker_id: int = 0) -> dict:
    """The cross-process chaos drill: SIGKILL a worker mid-stream.

    Submits the workload through a live
    :class:`~repro.serve.procfleet.ProcessFleet`, hard-kills ``worker_id``
    after ``kill_after`` submissions (half the workload by default), keeps
    submitting — the open-loop discipline: arrivals don't stop because a
    backend died — then collects.  The contract: the failure surfaces as a
    typed :class:`~repro.serve.procfleet.WorkerError` naming the dead worker
    within ``recv_timeout_s`` (never a hang), and ``close()`` still reaps
    every child.  The caller owns closing the fleet (and asserting no
    leaked children — see ``tests/test_serve_chaos.py``).

    Returns:
        ``{"killed_worker", "submitted", "error_type", "error_worker_id",
        "error_exit_code", "typed_error", "wall_s"}`` — ``typed_error`` is
        ``True`` exactly when the drill surfaced as :class:`WorkerError`.
    """
    from .procfleet import WorkerError
    if kill_after is None:
        kill_after = len(queries) // 2
    start = time.perf_counter()
    submitted = 0
    error: WorkerError | None = None
    killed = None
    try:
        for position, query in enumerate(queries):
            if position == kill_after:
                killed = fleet.kill_worker(worker_id)
            fleet.submit(query)
            submitted += 1
        fleet.flush()
        fleet.collect()
    except WorkerError as caught:
        error = caught
    wall_s = time.perf_counter() - start
    return {
        "killed_worker": worker_id,
        "killed_pid": getattr(killed, "pid", None),
        "kill_after": kill_after,
        "submitted": submitted,
        "typed_error": error is not None,
        "error_type": type(error).__name__ if error is not None else None,
        "error_worker_id": error.worker_id if error is not None else None,
        "error_exit_code": error.exit_code if error is not None else None,
        "wall_s": wall_s,
    }
