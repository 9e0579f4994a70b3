"""The four workloads: set-up, timed section, per-layer attribution.

Every workload is one function ``(seed, seconds, trace, sizes) -> Outcome``.
With ``trace`` off it measures for ``seconds`` (whole blocks of fixed size,
every timing reported as a median over blocks, so a multi-second stall of a
shared host moves a few blocks, not the metric) and returns the end-to-end
metrics.  With ``trace`` on it runs a *fixed* amount of work scaled from
``seconds`` — alternating untraced and traced blocks — and returns the
per-layer metrics, so every count repeats exactly for a fixed seed.

Inputs: data and model seeds are frozen (the trained models are the same in
every run); the *structure* of the query pool (which columns, which
operators) is frozen too, and ``seed`` draws the literals — so two seeds pose
different queries of the same cost profile, and the serving streams are keyed
by ``seed`` as well.  The program receives only the generated queries.
"""

from __future__ import annotations

import asyncio
import itertools
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core import NaruConfig, NaruEstimator
from repro.data import JoinSpec, make_dmv, make_sessions, make_users
from repro.query import Predicate, Query, WorkloadGenerator, q_error, true_cardinality
from repro.serve import (AdmissionError, AsyncFleetClient, FleetRouter,
                         ModelRegistry, ProcessFleet, generate_mixed_workload)

from . import check
from .trace import Tracer, summarise

__all__ = ["WORKLOADS", "SIZES", "RUN_SECONDS", "END_TO_END", "PER_LAYER",
           "HostSpeed", "Outcome", "run_workload"]

#: ``run_seconds`` of BENCHMARK.json; traced runs scale their fixed work from it.
RUN_SECONDS = 16
#: Latency limit each workload's ``goodput_share`` is stated against (ms).
#: ``open_loop``'s is the serving objective (p95 within 150 ms); the closed
#: loops' sit at about twice their p95 on the reference host, so they read
#: 1.0 until the tail doubles.
SLO_MS = {"oneshot": 100.0, "serve_distinct": 500.0, "serve_repeat": 250.0,
          "open_loop": 150.0}
#: Frozen absolute arrival rates of ``open_loop`` (queries/s), calibrated on
#: the 2-core reference host to about 25 %, 50 % and 70 % of the engines'
#: busy time.  Only the lowest feeds bounded metrics: queueing multiplies a
#: host's slow spells, and at the higher rates a 25 % slower minute doubled
#: the latencies (see README.md, "Calibration").
LOW_QPS = 40.0
MID_QPS = 80.0
HIGH_QPS = 120.0
#: Seeds of everything that must not change with ``--seed``.
DATA_SEED = 0
SHAPE_SEED = 0

#: ``--scale`` -> sizes.  ``full`` is what BENCHMARK.json's numbers mean;
#: ``smoke`` exists for the package's own fast test.
SIZES = {
    "full": {
        "setups": 3,
        "dmv_rows": 6000, "dmv_hidden": (64, 64), "dmv_epochs": 4,
        "dmv_batch": 256, "oneshot_queries": 240, "oneshot_samples": 1000,
        "oneshot_warmup": 30, "oneshot_min_passes": 3,
        "users": 400, "sessions": 3000, "fleet_hidden": (64, 64),
        "fleet_epochs": 5, "samples": 800, "batch": 16, "block": 240,
        "pool_blocks": 40, "min_blocks": 6, "open_pool_blocks": 10, "burst": 96,
        "checks": 32,
        # Fixed work of a traced run at RUN_SECONDS (pairs = one untraced
        # block followed by one traced block).
        "trace_pairs": {"oneshot": 1, "serve_distinct": 4, "serve_repeat": 8,
                        "open_loop": 4},
        "procfleet_blocks": 4, "trace_rate_s": 3.5,
    },
    "smoke": {
        "setups": 1,
        "dmv_rows": 500, "dmv_hidden": (16, 16), "dmv_epochs": 1,
        "dmv_batch": 256, "oneshot_queries": 12, "oneshot_samples": 50,
        "oneshot_warmup": 2, "oneshot_min_passes": 1,
        "users": 60, "sessions": 300, "fleet_hidden": (16, 16),
        "fleet_epochs": 1, "samples": 40, "batch": 4, "block": 24,
        "pool_blocks": 6, "min_blocks": 2, "open_pool_blocks": 3, "burst": 12,
        "checks": 6,
        "trace_pairs": {"oneshot": 1, "serve_distinct": 1, "serve_repeat": 1,
                        "open_loop": 1},
        "procfleet_blocks": 1, "trace_rate_s": 0.3,
    },
}

#: End-to-end metrics, printed by every workload with tracing off.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "1/s",
    "goodput_share": "share",
    "qerror_p50": "ratio",
}

#: Per-layer metrics, printed by every workload with tracing on (0 where the
#: layer does not run in that workload).
PER_LAYER = {
    "data.generate_s": "s", "query.generate_s": "s", "query.label_s": "s",
    "training.fit_s": "s", "training.epoch_s_p50": "s",
    "training.rows_per_s": "1/s", "training.entropy_gap_bits": "bits",
    "nn.forward_s": "s", "nn.backward_s": "s", "nn.step_s": "s",
    "registry.size_bytes": "bytes",
    "made.calls": "count", "made.rows": "count", "made.busy_ms": "ms",
    "made.us_per_row": "us", "made.share": "share",
    "made.flops_per_row": "count", "made.bytes_per_row": "bytes",
    "progressive.calls": "count", "progressive.busy_ms": "ms",
    "progressive.self_ms": "ms", "progressive.share": "share",
    "progressive.self_us_per_row": "us", "progressive.rows_submitted": "count",
    "progressive.unique_rows": "count", "progressive.dedup_ratio": "ratio",
    "progressive.forward_calls": "count",
    "estimator.self_ms": "ms", "estimator.enumerated_share": "share",
    "cache.lookup_self_ms": "ms", "cache.get_ms": "ms", "cache.put_ms": "ms",
    "cache.put_us_per_row": "us", "cache.share": "share",
    "cache.hits": "count", "cache.misses": "count", "cache.hit_rate": "share",
    "cache.evictions": "count", "cache.rows_evaluated": "count",
    "cache.entries_end": "count",
    "engine.batches": "count", "engine.batch_fill_mean": "count",
    "engine.dispatch_ms_p50": "ms", "engine.dispatch_ms_p95": "ms",
    "engine.dispatch_busy_ms": "ms", "engine.self_ms": "ms",
    "engine.share": "share",
    "engine.queue_wait_ms_p50": "ms", "engine.queue_wait_ms_p95": "ms",
    "engine.timeout_flush_share": "share",
    "router.submit_self_ms": "ms", "router.self_us_per_query": "us",
    "router.report_ms": "ms", "router.share": "share", "router.shed": "count",
    "router.peak_pending": "count",
    "stream.submit_self_ms": "ms", "stream.share": "share",
    "stream.client_self_ms_p50": "ms", "stream.lateness_ms_p95": "ms",
    "stream.max_lateness_ms": "ms",
    "stream.e2e_p50_ms.mid": "ms", "stream.e2e_p95_ms.mid": "ms",
    "stream.goodput_share.mid": "share",
    "stream.e2e_p50_ms.high": "ms", "stream.e2e_p95_ms.high": "ms",
    "stream.goodput_share.high": "share", "stream.achieved_qps.high": "1/s",
    "procfleet.qps": "1/s", "procfleet.spawn_s": "s",
    "procfleet.payload_bytes": "bytes", "procfleet.worker_busy_ms_max": "ms",
    "procfleet.worker_busy_ms_sum": "ms", "procfleet.busy_imbalance": "ratio",
    "procfleet.ipc_ms": "ms", "procfleet.ipc_share": "share",
    "accuracy.qerror_p95": "ratio", "accuracy.qerror_max": "ratio",
    "host.slowdown": "ratio",
    "trace.queries": "count", "trace.wall_ms": "ms",
    "trace.overhead_share": "share", "trace.unattributed_share": "share",
}


class HostSpeed:
    """How slow this host runs right now, against the reference host's best.

    The reference host is a shared VM whose speed changes by a third for tens
    of seconds to minutes at a time (a neighbour on the core's other hardware
    thread): whole runs read 20-30 % apart, and no within-run median removes
    a spell that covers the run.  A small fixed kernel — a 300×300 float64
    matmul, cache-resident and untouched by anything in ``src/`` — slows by
    the same factor, so every timed unit of work is divided by the kernel's
    reading taken next to it.  Over five minutes of ``serve_repeat`` blocks
    with two slow spells, the 16-second median block time spread 10.6 % raw
    and 3.8 % divided.  Bounded timings are therefore stated in
    reference-host time; ``host.slowdown`` (per layer, and ``--out`` notes)
    gives the factor back.
    """

    #: Median matmul time on the reference host with nothing contending (ms).
    REFERENCE_MS = 0.90

    def __init__(self) -> None:
        self._matrix = np.random.default_rng(0).random((300, 300))
        self._out = np.empty_like(self._matrix)
        self.readings: list[float] = []

    def read(self) -> float:
        """The slowdown factor now (1.0 = the reference host at its best)."""
        times = []
        for _ in range(7):
            begin = time.perf_counter()
            np.matmul(self._matrix, self._matrix, out=self._out)
            times.append(time.perf_counter() - begin)
        factor = float(np.median(times)) * 1e3 / self.REFERENCE_MS
        self.readings.append(factor)
        return factor


@dataclass
class Block:
    """One timed unit of serving work: a ``router.run`` scope or a burst."""

    traced: bool
    wall_s: float
    report: object
    #: Mean of the host-speed readings taken right before and right after.
    slowdown: float

    @property
    def steady_s(self) -> float:
        """Wall time in reference-host seconds."""
        return self.wall_s / self.slowdown


@dataclass
class Outcome:
    """What one run of one workload produced."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Human-readable reasons behind ``failed`` (empty on a correct run).
    failures: list[str] = field(default_factory=list)
    #: Sizes and counts worth keeping in a result file.
    notes: dict = field(default_factory=dict)


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #
@contextmanager
def _timed(timings: dict[str, float], stage: str):
    """Add the wall time of the ``with`` body to ``timings[stage]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - start


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its reaped workers, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _redraw_literals(shapes: list[Query], tables: dict, seed: int) -> list[Query]:
    """Queries with the shapes' columns and operators and seeded literals.

    Like :class:`repro.query.WorkloadGenerator`, every query takes its
    literals from one uniformly drawn data row, so it is in-distribution.
    """
    rng = np.random.default_rng(seed)
    queries = []
    for shape in shapes:
        table = tables[shape.table]
        row = int(rng.integers(0, table.num_rows))
        queries.append(Query(
            [Predicate(p.column, p.operator, table.column(p.column).values[row])
             for p in shape.predicates], table=shape.table))
    return queries


def _setup(build, repeats: int, tracer: Tracer | None, speed: HostSpeed):
    """Run ``build(timings)`` ``repeats`` times; keep the last build.

    Returns ``(objects, stage medians, setup_s)`` where ``setup_s`` is the
    median over repetitions of the summed stage times, each in
    reference-host seconds (the stage medians stay raw).  Only the last
    repetition is traced, so the earlier ones stay an untraced reference.
    """
    runs: list[dict[str, float]] = []
    totals: list[float] = []
    objects = None
    before = speed.read()
    for repetition in range(repeats):
        objects = None  # free the previous build before timing the next
        timings: dict[str, float] = {}
        last = repetition == repeats - 1
        if tracer is not None and last:
            tracer.install()
        try:
            objects = build(timings)
        finally:
            if tracer is not None:
                tracer.uninstall()
        runs.append(timings)
        after = speed.read()
        totals.append(sum(timings.values()) / ((before + after) / 2))
        before = after
    stages = {stage: np.median([run[stage] for run in runs]) for stage in runs[0]}
    return objects, stages, np.median(totals)


def _training_metrics(estimators: list[NaruEstimator], stages: dict[str, float],
                      tracer: Tracer) -> dict[str, float]:
    """Set-up layers' metrics from the stage timings and the traced last build."""
    spans = summarise(tracer.spans)
    epochs = [seconds for estimator in estimators
              for seconds in estimator.trainer.history.epoch_seconds]
    rows = sum(estimator.table.num_rows * estimator.trainer.history.num_epochs
               for estimator in estimators)
    fit_s = stages["training.fit_s"]
    return {
        "data.generate_s": stages["data.generate_s"],
        "query.generate_s": stages["query.generate_s"],
        "query.label_s": stages["query.label_s"],
        "training.fit_s": fit_s,
        "training.epoch_s_p50": np.median(epochs),
        "training.rows_per_s": rows / fit_s if fit_s else 0.0,
        "training.entropy_gap_bits": float(np.mean(
            [estimator.entropy_gap_bits() for estimator in estimators])),
        "nn.forward_s": spans.get("nn.forward", {}).get("busy_s", 0.0),
        "nn.backward_s": spans.get("nn.backward", {}).get("busy_s", 0.0),
        "nn.step_s": spans.get("nn.step", {}).get("busy_s", 0.0),
        "registry.size_bytes": float(sum(estimator.size_bytes()
                                         for estimator in estimators)),
    }


def _model_cost(model) -> tuple[float, float]:
    """Computed (not measured) flops and activation bytes of one model row.

    One ``conditional_probs`` row costs the first layer's per-column table
    gathers, the hidden matmuls, the requested column's output block, its
    embedding decode if it has one and a softmax; averaged over the columns.
    Bytes are the float64 activations a row reads and writes — weights are
    shared by the rows of a call and left out.
    """
    hidden = list(model.hidden_sizes)
    domains = model.domain_sizes()
    widths = model.encoder.output_widths
    columns = len(domains)
    trunk_flops = columns * hidden[0] + sum(
        2 * a * b for a, b in zip(hidden, hidden[1:]))
    trunk_bytes = 8 * (columns * hidden[0] + sum(hidden))
    flops, moved = [], []
    for domain, width in zip(domains, widths):
        decode = 2 * width * domain if width != domain else 0
        flops.append(trunk_flops + 2 * hidden[-1] * width + decode + 4 * domain)
        moved.append(trunk_bytes + 8 * (width + domain))
    return float(np.mean(flops)), float(np.mean(moved))


def _layer_metrics(tracer: Tracer, traced_s: list[float], queries: int,
                   untraced_s: list[float]) -> dict[str, float]:
    """Timed-section layer metrics shared by every workload.

    ``traced_s`` holds the wall time of each traced unit of work (a block, or
    one call in ``oneshot``), ``queries`` the queries they served and
    ``untraced_s`` the wall times of the untraced units they alternate with;
    the tracing overhead compares the two medians.  The engine, router
    counters and stream entries are filled in by the serving workloads.
    """
    spans = summarise(tracer.spans)
    wall_s = sum(traced_s)

    def total(name: str, key: str) -> float:
        return float(spans.get(name, {}).get(key, 0.0))

    wall_ms = wall_s * 1e3
    made_ms = total("made.forward", "busy_s") * 1e3
    made_rows = total("made.forward", "units")
    prog_self_ms = total("progressive.sample", "self_s") * 1e3
    rows_submitted = total("progressive.sample", "units")
    cached = "cache.lookup" in spans
    unique_rows = total("cache.lookup", "units") if cached else made_rows
    cache_ms = sum(total(name, "self_s")
                   for name in ("cache.lookup", "cache.get", "cache.put")) * 1e3
    put_rows = total("cache.put", "units")
    router_ms = sum(total(name, "self_s") for name in (
        "router.run", "router.submit", "router.flush", "router.tick",
        "router.report")) * 1e3
    attributed_ms = sum(entry["self_s"] for entry in spans.values()) * 1e3

    def share(value_ms: float) -> float:
        return value_ms / wall_ms if wall_ms else 0.0

    return {
        "made.calls": total("made.forward", "calls"),
        "made.rows": made_rows,
        "made.busy_ms": made_ms,
        "made.us_per_row": made_ms * 1e3 / made_rows if made_rows else 0.0,
        "made.share": share(total("made.forward", "self_s") * 1e3),
        "progressive.calls": total("progressive.sample", "calls"),
        "progressive.busy_ms": total("progressive.sample", "busy_s") * 1e3,
        "progressive.self_ms": prog_self_ms,
        "progressive.share": share(prog_self_ms),
        "progressive.self_us_per_row": (prog_self_ms * 1e3 / rows_submitted
                                        if rows_submitted else 0.0),
        "progressive.rows_submitted": rows_submitted,
        "progressive.unique_rows": unique_rows,
        "progressive.dedup_ratio": (rows_submitted / unique_rows
                                    if unique_rows else 0.0),
        "progressive.forward_calls": (total("cache.lookup", "calls") if cached
                                      else total("made.forward", "calls")),
        "estimator.self_ms": total("estimator.estimate", "self_s") * 1e3,
        "cache.lookup_self_ms": total("cache.lookup", "self_s") * 1e3,
        "cache.get_ms": total("cache.get", "busy_s") * 1e3,
        "cache.put_ms": total("cache.put", "busy_s") * 1e3,
        "cache.put_us_per_row": (total("cache.put", "busy_s") * 1e6 / put_rows
                                 if put_rows else 0.0),
        "cache.share": share(cache_ms),
        "cache.rows_evaluated": made_rows if cached else 0.0,
        "router.report_ms": total("router.report", "busy_s") * 1e3,
        "stream.submit_self_ms": total("stream.submit", "self_s") * 1e3,
        "stream.share": share(total("stream.submit", "self_s") * 1e3),
        "trace.queries": float(queries),
        "trace.wall_ms": wall_ms,
        "trace.overhead_share": (np.median(traced_s) / np.median(untraced_s) - 1.0
                                 if untraced_s else 0.0),
        "trace.unattributed_share": 1.0 - share(attributed_ms),
        # Router spans still contain the engines' dispatch bookkeeping here;
        # the serving workloads take it out (_split_engine_from_router).
        "router.submit_self_ms": router_ms,
        "router.self_us_per_query": router_ms * 1e3 / queries if queries else 0.0,
        "router.share": share(router_ms),
    }


def _accuracy(estimates, truths) -> list[float]:
    """Q-errors of cardinality estimates against executor truth."""
    return [q_error(estimate, truth) for estimate, truth in zip(estimates, truths)]


def _full_metrics(values: dict[str, float], names: dict[str, str]) -> dict[str, float]:
    """Exactly the contract's metric set: listed names, 0.0 where absent."""
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"metrics outside the contract: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in names}


def _notes(speed: HostSpeed, **notes) -> dict:
    """Result-file notes: sizes and counts plus the host-speed readings' spread."""
    low, centre, high = np.percentile(speed.readings, [5, 50, 95])
    return {**notes, "host_slowdown": {"p5": low, "p50": centre, "p95": high,
                                       "readings": len(speed.readings)}}


def _trace_pairs(sizes: dict, workload: str, seconds: float) -> int:
    """Untraced/traced block pairs of a traced run, scaled from ``seconds``."""
    return max(1, round(sizes["trace_pairs"][workload] * seconds / RUN_SECONDS))


# --------------------------------------------------------------------- #
# oneshot
# --------------------------------------------------------------------- #
def run_oneshot(seed: int, seconds: float, trace: bool, sizes: dict) -> Outcome:
    """One estimate at a time on one table: the paper's own regime."""
    setup_tracer = Tracer()

    def build(timings):
        with _timed(timings, "data.generate_s"):
            table = make_dmv(sizes["dmv_rows"], seed=DATA_SEED)
        estimator = NaruEstimator(table, NaruConfig(
            hidden_sizes=sizes["dmv_hidden"], epochs=sizes["dmv_epochs"],
            batch_size=sizes["dmv_batch"],
            progressive_samples=sizes["oneshot_samples"], seed=DATA_SEED))
        with _timed(timings, "training.fit_s"):
            estimator.fit()
        with _timed(timings, "query.generate_s"):
            shapes = WorkloadGenerator(table, seed=SHAPE_SEED).generate(
                sizes["oneshot_queries"])
            queries = _redraw_literals(shapes, {None: table}, seed)
        with _timed(timings, "query.label_s"):
            truths = [true_cardinality(table, query) for query in queries]
        return table, estimator, queries, truths

    speed = HostSpeed()
    (table, estimator, queries, truths), stages, setup_s = _setup(
        build, sizes["setups"], setup_tracer if trace else None, speed)

    for query in queries[:sizes["oneshot_warmup"]]:
        estimator.estimate_cardinality(query)

    clock = time.perf_counter
    estimates: list[float] = []

    def one_pass(number: int, deadline: float | None) -> list[tuple[float, float]]:
        """Time every query once, stopping at ``deadline`` if there is one.

        Returns ``(ms, slowdown)`` per call: the host's speed is read every
        16 calls, and a call's reference-host time is its ms over the
        reading next to it.
        """
        row = []
        for index, query in enumerate(queries):
            if index % 16 == 0:
                slowdown = speed.read()
            begin = clock()
            estimate = estimator.estimate_cardinality(query)
            row.append(((clock() - begin) * 1e3, slowdown))
            if number == 0:
                estimates.append(estimate)
            if deadline is not None and clock() >= deadline:
                break
        return row

    # timings[pass][query] = (ms, slowdown).
    tracer = Tracer()
    if trace:
        # Fixed work: untraced (even) and traced (odd) passes alternate.
        timings = []
        for number in range(2 * _trace_pairs(sizes, "oneshot", seconds)):
            if number % 2:
                tracer.install()
            try:
                timings.append(one_pass(number, None))
            finally:
                tracer.uninstall()
    else:
        deadline = clock() + seconds
        timings = [one_pass(number, None)
                   for number in range(sizes["oneshot_min_passes"])]
        while clock() < deadline:
            timings.append(one_pass(len(timings), deadline))

    errors = _accuracy(estimates, truths)
    failures = check.estimates_in_range(estimates, 0.0, float(table.num_rows))
    failures += check.accuracy_sane(errors)
    calls = sum(len(row) for row in timings)

    if trace:
        untraced = [ms for row in timings[0::2] for ms, _ in row]
        traced = [ms for row in timings[1::2] for ms, _ in row]
        metrics = _training_metrics([estimator], stages, setup_tracer)
        metrics.update(_layer_metrics(tracer, [ms / 1e3 for ms in traced],
                                      len(traced), [ms / 1e3 for ms in untraced]))
        flops, moved = _model_cost(estimator.model)
        threshold = estimator.config.enumeration_threshold
        metrics.update({
            "host.slowdown": np.median(speed.readings),
            "made.flops_per_row": flops, "made.bytes_per_row": moved,
            "estimator.enumerated_share": float(np.mean(
                [query.region_size(table) <= threshold for query in queries])),
            "accuracy.qerror_p95": np.percentile(errors, 95),
            "accuracy.qerror_max": max(errors),
        })
        return Outcome(_full_metrics(metrics, PER_LAYER), calls, len(failures),
                       failures, _notes(speed, passes=len(timings)))

    # Per-query latency: the median across passes of the query's timings,
    # each in reference-host ms.
    per_query = [np.median([row[index][0] / row[index][1]
                            for row in timings if index < len(row)])
                 for index in range(len(queries))]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "latency_p50_ms": np.median(per_query),
        "latency_p90_ms": np.percentile(per_query, 90),
        "throughput_qps": 1e3 / float(np.mean(per_query)),
        "goodput_share": float(np.mean([ms <= SLO_MS["oneshot"]
                                        for row in timings for ms, _ in row])),
        "qerror_p50": np.median(errors),
    }
    return Outcome(_full_metrics(metrics, END_TO_END), calls, len(failures),
                   failures, _notes(speed, passes=len(timings), calls=calls))


# --------------------------------------------------------------------- #
# The serving fleet shared by the three serving workloads
# --------------------------------------------------------------------- #
def _build_fleet(sizes: dict, seed: int, pool_queries: int, labelled: int):
    """``build(timings)`` for the three-relation fleet and its query pool."""

    def build(timings):
        with _timed(timings, "data.generate_s"):
            users = make_users(sizes["users"])
            sessions = make_sessions(sizes["sessions"], num_users=sizes["users"])
        registry = ModelRegistry(default_config=NaruConfig(
            hidden_sizes=sizes["fleet_hidden"], epochs=sizes["fleet_epochs"],
            seed=DATA_SEED))
        with _timed(timings, "training.fit_s"):
            registry.register_table(users)
            registry.register_table(sessions)
            registry.register_join(JoinSpec("sessions", "users",
                                            "user_id", "user_id"))
            registry.fit_all()
        tables = {name: registry.relation(name) for name in registry.names}
        with _timed(timings, "query.generate_s"):
            shapes = generate_mixed_workload(tables, pool_queries, seed=SHAPE_SEED)
            pool = _redraw_literals(shapes, tables, seed)
        with _timed(timings, "query.label_s"):
            truths = [true_cardinality(tables[query.table], query)
                      for query in pool[:labelled]]
        return registry, pool, truths

    return build


def _fleet_estimators(registry: ModelRegistry) -> list[NaruEstimator]:
    return [registry.estimator(name) for name in registry.names]


def _cache_counters(router: FleetRouter, registry: ModelRegistry) -> dict[str, int]:
    """Summed lifetime counters of the routes' conditional caches."""
    totals = {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
    for name in registry.names:
        cache = router.group(name).cache
        if cache is None:
            continue
        totals["hits"] += cache.stats.hits
        totals["misses"] += cache.stats.misses
        totals["evictions"] += cache.stats.evictions
        totals["entries"] += len(cache)
    return totals


def _engine_metrics(reports: list) -> dict[str, float]:
    """Engine-layer metrics from the ``BatchRecord`` lists of some scopes."""
    batches = [batch for report in reports
               for engine_reports in report.routes.values()
               for engine_report in engine_reports
               for batch in engine_report.batches]
    if not batches:
        return {}
    dispatch = [batch.latency_ms for batch in batches]
    waits = [wait for batch in batches for wait in batch.queue_wait_ms]
    return {
        "engine.batches": float(len(batches)),
        "engine.batch_fill_mean": (sum(batch.num_queries for batch in batches)
                                   / len(batches)),
        "engine.dispatch_ms_p50": np.median(dispatch),
        "engine.dispatch_ms_p95": np.percentile(dispatch, 95),
        "engine.dispatch_busy_ms": sum(dispatch),
        "engine.queue_wait_ms_p50": np.median(waits),
        "engine.queue_wait_ms_p95": np.percentile(waits, 95),
        "engine.timeout_flush_share": float(np.mean(
            [batch.timeout_flush for batch in batches])),
        "router.shed": float(sum(report.stats.shed for report in reports)),
    }


def _split_engine_from_router(metrics: dict[str, float],
                              dispatch_busy_ms: float) -> None:
    """Move the engines' dispatch bookkeeping out of the router's self time.

    ``EstimationEngine`` has no public dispatch call to wrap, so the span
    arithmetic books the dispatch time not spent in the sampler under the
    router call that triggered it; the traced blocks' ``BatchRecord``
    latencies tell how much that is.
    """
    wall_ms = metrics["trace.wall_ms"]
    queries = metrics["trace.queries"]
    engine_ms = max(0.0, dispatch_busy_ms - metrics["progressive.busy_ms"])
    router_ms = max(0.0, metrics["router.submit_self_ms"] - engine_ms)
    metrics.update({
        "engine.self_ms": engine_ms,
        "engine.share": engine_ms / wall_ms if wall_ms else 0.0,
        "router.submit_self_ms": router_ms,
        "router.self_us_per_query": router_ms * 1e3 / queries if queries else 0.0,
        "router.share": router_ms / wall_ms if wall_ms else 0.0,
    })


def _cache_metrics(delta: dict[str, int], entries: int) -> dict[str, float]:
    """Cache counters of the traced blocks (growth of the lifetime totals)."""
    hits, misses = delta.get("hits", 0), delta.get("misses", 0)
    return {
        "cache.hits": float(hits), "cache.misses": float(misses),
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": float(delta.get("evictions", 0)),
        "cache.entries_end": float(entries),
    }


def _grow(delta: dict[str, int], before: dict[str, int],
          after: dict[str, int]) -> None:
    """Add the counters' growth from ``before`` to ``after`` to ``delta``."""
    for key in ("hits", "misses", "evictions"):
        delta[key] = delta.get(key, 0) + after[key] - before[key]


def _run_closed_blocks(router: FleetRouter, registry: ModelRegistry, block_of,
                       *, seconds: float, trace: bool, pairs: int,
                       min_blocks: int, max_blocks: int, speed: HostSpeed):
    """The timed loop of the two closed-loop serving workloads.

    ``block_of(i)`` is block ``i``'s query list; each block is one
    ``router.run`` scope.  Untraced: whole blocks until ``seconds`` are up
    (at least ``min_blocks``).  Traced: ``pairs`` untraced/traced pairs.
    Returns the :class:`Block` records and the traced-section accumulators.
    """
    clock = time.perf_counter
    tracer = Tracer()
    records: list[Block] = []
    cache_delta: dict[str, int] = {}
    limit = min(max_blocks, 2 * pairs) if trace else max_blocks
    slow_before = speed.read()
    start = clock()
    while len(records) < limit:
        number = len(records)
        if not trace and number >= min_blocks and clock() - start >= seconds:
            break
        traced_block = trace and number % 2 == 1
        queries = block_of(number)
        if traced_block:
            before = _cache_counters(router, registry)
            tracer.install()
        begin = clock()
        try:
            report = router.run(queries)
        finally:
            wall_s = clock() - begin
            tracer.uninstall()
        if traced_block:
            _grow(cache_delta, before, _cache_counters(router, registry))
        slow_after = speed.read()
        records.append(Block(traced_block, wall_s, report,
                             (slow_before + slow_after) / 2))
        slow_before = slow_after
    return records, tracer, cache_delta


def _closed_loop_outcome(records: list[Block], *, block: int, slo_ms: float,
                         setup_s: float, errors: list[float],
                         failures: list[str], notes: dict) -> Outcome:
    """End-to-end metrics of a closed-loop serving workload.

    Medians over blocks, each block's timings in reference-host time; the
    goodput counts raw latencies, as a caller would.
    """
    latencies = [np.array([result.e2e_ms for result in record.report.results])
                 for record in records]
    served = sum(len(block_latencies) for block_latencies in latencies)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "latency_p50_ms": np.median([
            np.median(block_latencies) / record.slowdown
            for record, block_latencies in zip(records, latencies)]),
        "latency_p90_ms": np.median([
            np.percentile(block_latencies, 90) / record.slowdown
            for record, block_latencies in zip(records, latencies)]),
        "throughput_qps": np.median([block / record.steady_s
                                     for record in records]),
        "goodput_share": float(np.mean(np.concatenate(latencies) <= slo_ms)),
        "qerror_p50": np.median(errors),
    }
    notes = {**notes, "blocks": len(records), "served": served}
    return Outcome(_full_metrics(metrics, END_TO_END), served, len(failures),
                   failures, notes)


def _traced_serving_metrics(records: list[Block], tracer: Tracer, cache_delta: dict,
                            router: FleetRouter, *, block: int, stages: dict,
                            setup_tracer: Tracer, registry: ModelRegistry,
                            errors: list[float]) -> dict[str, float]:
    """Per-layer metrics of a closed-loop serving workload's traced blocks."""
    traced = [record for record in records if record.traced]
    untraced = [record.wall_s for record in records if not record.traced]
    estimators = _fleet_estimators(registry)
    metrics = _training_metrics(estimators, stages, setup_tracer)
    metrics.update(_layer_metrics(tracer, [record.wall_s for record in traced],
                                  block * len(traced), untraced))
    metrics.update(_engine_metrics([record.report for record in traced]))
    _split_engine_from_router(metrics, metrics.get("engine.dispatch_busy_ms", 0.0))
    metrics.update(_cache_metrics(
        cache_delta, _cache_counters(router, registry)["entries"]))
    costs = [_model_cost(estimator.model) for estimator in estimators]
    metrics.update({
        "made.flops_per_row": float(np.mean([flops for flops, _ in costs])),
        "made.bytes_per_row": float(np.mean([moved for _, moved in costs])),
        "accuracy.qerror_p95": np.percentile(errors, 95),
        "accuracy.qerror_max": max(errors),
        "host.slowdown": np.median([record.slowdown for record in traced]),
    })
    return metrics


# --------------------------------------------------------------------- #
# serve_distinct
# --------------------------------------------------------------------- #
def run_serve_distinct(seed: int, seconds: float, trace: bool, sizes: dict) -> Outcome:
    """Never-repeating queries through one long-lived router; bounded cache."""
    block = sizes["block"]
    pairs = _trace_pairs(sizes, "serve_distinct", seconds)
    # Block 0 warms the router; q-error covers the blocks that always run.
    always = 2 * pairs if trace else sizes["min_blocks"]
    setup_tracer, speed = Tracer(), HostSpeed()
    (registry, pool, truths), stages, setup_s = _setup(
        _build_fleet(sizes, seed, block * sizes["pool_blocks"],
                     block * (1 + always)),
        sizes["setups"], setup_tracer if trace else None, speed)

    router = FleetRouter(registry, batch_size=sizes["batch"],
                         num_samples=sizes["samples"], seed=seed)
    router.run(pool[:block])

    def block_of(number: int) -> list[Query]:
        return pool[block * (number + 1):block * (number + 2)]

    records, tracer, cache_delta = _run_closed_blocks(
        router, registry, block_of, seconds=seconds, trace=trace, pairs=pairs,
        min_blocks=sizes["min_blocks"], max_blocks=sizes["pool_blocks"] - 1,
        speed=speed)

    reports = [record.report for record in records]
    estimates = [result.cardinality for report in reports[:always]
                 for result in report.results]
    errors = _accuracy(estimates, truths[block:])
    failures = check.served_blocks(reports, block)
    failures += check.accuracy_sane(errors)
    failures += check.against_sequential(
        registry, [(query, result.index, result.selectivity)
                   for number in range(always)
                   for query, result in zip(block_of(number),
                                            reports[number].results)],
        num_samples=sizes["samples"], seed=seed, picks=sizes["checks"])
    notes = _notes(speed, pool=len(pool), block=block)

    if not trace:
        return _closed_loop_outcome(
            records, block=block, slo_ms=SLO_MS["serve_distinct"],
            setup_s=setup_s, errors=errors, failures=failures, notes=notes)

    metrics = _traced_serving_metrics(
        records, tracer, cache_delta, router, block=block, stages=stages,
        setup_tracer=setup_tracer, registry=registry, errors=errors)

    # Phase B: the same first blocks across the process boundary.
    fleet_blocks = min(sizes["procfleet_blocks"], len(reports))
    procfleet, mismatches = _run_procfleet(
        registry, [block_of(number) for number in range(fleet_blocks)],
        reports[:fleet_blocks], sizes=sizes, seed=seed)
    metrics.update(procfleet)
    failures += mismatches
    served = block * (len(records) + fleet_blocks)
    return Outcome(_full_metrics(metrics, PER_LAYER), served, len(failures),
                   failures, {**notes, "blocks": len(records)})


def _run_procfleet(registry: ModelRegistry, blocks: list[list[Query]],
                   reference: list, *, sizes: dict, seed: int):
    """Serve ``blocks`` through ``ProcessFleet(workers=2)``; compare with phase A."""
    clock = time.perf_counter
    begin = clock()
    fleet = ProcessFleet(registry, workers=2, batch_size=sizes["batch"],
                         num_samples=sizes["samples"], seed=seed)
    spawn_s = clock() - begin
    walls, busy, ipc, mismatches = [], [], [], []
    try:
        for block_queries, expected in zip(blocks, reference):
            begin = clock()
            report = fleet.run(block_queries)
            wall_ms = (clock() - begin) * 1e3
            walls.append(wall_ms)
            workers = report.stats.workers.values()
            busy.append([worker["busy_cpu_ms"] for worker in workers])
            ipc.append(wall_ms - max(worker["latency_ms"] for worker in workers))
            mismatches += check.same_estimates(report, expected, "procfleet")
    finally:
        fleet.close()
    busy_max = sum(max(block_busy) for block_busy in busy)
    busy_sum = sum(sum(block_busy) for block_busy in busy)
    workers = len(busy[0]) if busy else 1
    # Workers receive each model as a float32 npz: its byte size is the payload.
    payload = sum(estimator.size_bytes() for estimator in _fleet_estimators(registry))
    return {
        "procfleet.qps": np.median([len(block_queries) * 1e3 / wall_ms
                                 for block_queries, wall_ms in zip(blocks, walls)]),
        "procfleet.spawn_s": spawn_s,
        "procfleet.payload_bytes": float(payload),
        "procfleet.worker_busy_ms_max": busy_max,
        "procfleet.worker_busy_ms_sum": busy_sum,
        "procfleet.busy_imbalance": (busy_max * workers / busy_sum
                                     if busy_sum else 0.0),
        "procfleet.ipc_ms": sum(ipc),
        "procfleet.ipc_share": sum(ipc) / sum(walls) if walls else 0.0,
    }, mismatches


# --------------------------------------------------------------------- #
# serve_repeat
# --------------------------------------------------------------------- #
def run_serve_repeat(seed: int, seconds: float, trace: bool, sizes: dict) -> Outcome:
    """One hot set over and over; the conditional cache holds all of it."""
    block = sizes["block"]
    setup_tracer, speed = Tracer(), HostSpeed()
    (registry, hot, truths), stages, setup_s = _setup(
        _build_fleet(sizes, seed, block, block),
        sizes["setups"], setup_tracer if trace else None, speed)

    router = FleetRouter(registry, batch_size=sizes["batch"],
                         num_samples=sizes["samples"], seed=seed,
                         cache_entries=1 << 20)
    warm = router.run(hot)

    records, tracer, cache_delta = _run_closed_blocks(
        router, registry, lambda number: hot, seconds=seconds, trace=trace,
        pairs=_trace_pairs(sizes, "serve_repeat", seconds),
        min_blocks=sizes["min_blocks"], max_blocks=10_000, speed=speed)

    reports = [record.report for record in records]
    errors = _accuracy([result.cardinality for result in warm.results], truths)
    failures = check.served_blocks(reports, block)
    failures += check.accuracy_sane(errors)
    for report in reports:
        failures += check.same_estimates(report, warm, "repeat pass")
    failures += check.against_sequential(
        registry, [(query, result.index, result.selectivity)
                   for query, result in zip(hot, reports[0].results)],
        num_samples=sizes["samples"], seed=seed, picks=sizes["checks"])
    notes = _notes(speed, hot_set=block)

    if not trace:
        return _closed_loop_outcome(
            records, block=block, slo_ms=SLO_MS["serve_repeat"],
            setup_s=setup_s, errors=errors, failures=failures, notes=notes)

    metrics = _traced_serving_metrics(
        records, tracer, cache_delta, router, block=block, stages=stages,
        setup_tracer=setup_tracer, registry=registry, errors=errors)
    return Outcome(_full_metrics(metrics, PER_LAYER), block * len(records),
                   len(failures), failures, {**notes, "blocks": len(records)})


# --------------------------------------------------------------------- #
# open_loop
# --------------------------------------------------------------------- #
@dataclass
class _Arrivals:
    """What one open-loop phase observed, index = arrival position."""

    latency_ms: list[float | None]
    lateness_ms: list[float]
    results: list
    shed: int
    wall_s: float

    @property
    def completed(self) -> list[float]:
        return [ms for ms in self.latency_ms if ms is not None]


def _drive_open_loop(router: FleetRouter, queries: list[Query],
                     arrivals: np.ndarray) -> _Arrivals:
    """Submit ``queries[i]`` at ``arrivals[i]`` seconds, whatever has completed.

    The benchmark owns schedule and clock: latency runs from the *scheduled*
    send time to the moment the query's future is done, so a stalled
    generator charges its lateness to the queries that suffered it.
    """
    count = len(arrivals)
    observed = _Arrivals([None] * count, [0.0] * count, [None] * count, 0, 0.0)

    async def main() -> None:
        client = AsyncFleetClient(router)
        clock = client.clock
        futures = []

        def done(future, index: int, due: float) -> None:
            if not future.cancelled() and future.exception() is None:
                observed.latency_ms[index] = (clock() - due) * 1e3
                observed.results[index] = future.result()

        try:
            start = clock()
            for index, at in enumerate(arrivals):
                due = start + float(at)
                await client.pace(due)
                observed.lateness_ms[index] = (clock() - due) * 1e3
                try:
                    future = client.submit(queries[index], index=index)
                except AdmissionError:
                    observed.shed += 1
                    continue
                future.add_done_callback(
                    lambda f, index=index, due=due: done(f, index, due))
                futures.append(future)
                await asyncio.sleep(0)
            if futures:
                await asyncio.gather(*futures)
            await asyncio.sleep(0)  # let the last done-callbacks run
            observed.wall_s = clock() - start
        finally:
            client.close()

    asyncio.run(main())
    return observed


def _drive_saturated(router: FleetRouter, registry: ModelRegistry,
                     blocks, *, seconds: float | None, min_blocks: int,
                     tracer: Tracer | None, speed: HostSpeed):
    """Closed loop with ``submit_async`` backpressure, one scope per block.

    Untraced (``tracer`` None): blocks until ``seconds`` are up, at least
    ``min_blocks``.  Traced: every block the ``blocks`` iterable yields, odd
    ones traced.
    Returns ``(records, cache delta of the traced blocks)``, the records
    shaped like :func:`_run_closed_blocks`'s.
    """
    records: list[Block] = []
    cache_delta: dict[str, int] = {}

    async def main() -> None:
        client = AsyncFleetClient(router)
        clock = client.clock
        index = 0
        try:
            slow_before = speed.read()
            start = clock()
            for number, block_queries in enumerate(blocks):
                if (seconds is not None and number >= min_blocks
                        and clock() - start >= seconds):
                    break
                traced_block = tracer is not None and number % 2 == 1
                if traced_block:
                    before = _cache_counters(router, registry)
                    tracer.install()
                begin = clock()
                try:
                    futures = []
                    for query in block_queries:
                        futures.append(await client.submit_async(query, index=index))
                        index += 1
                    client.flush()
                    await asyncio.gather(*futures)
                finally:
                    wall_s = clock() - begin
                    if tracer is not None:
                        tracer.uninstall()
                if traced_block:
                    _grow(cache_delta, before, _cache_counters(router, registry))
                slow_after = speed.read()
                records.append(Block(traced_block, wall_s, router.report(),
                                     (slow_before + slow_after) / 2))
                slow_before = slow_after
                router.run([])  # next block, next scope
        finally:
            client.close()

    asyncio.run(main())
    return records, cache_delta


def _poisson(rate_qps: float, duration_s: float, rng) -> np.ndarray:
    """Arrival times of ``rate × duration`` queries with exponential gaps.

    Stretched so the last arrival lands on ``duration_s``: the realised mean
    rate is exactly the frozen one, whatever the draw.
    """
    count = max(1, int(rate_qps * duration_s))
    times = np.cumsum(rng.exponential(1.0 / rate_qps, size=count))
    return times * (duration_s / times[-1])


def run_open_loop(seed: int, seconds: float, trace: bool, sizes: dict) -> Outcome:
    """Independent clients on a fixed schedule, then a saturating closed loop.

    Phase *low*: arrivals at :data:`LOW_QPS` with seeded exponential gaps —
    the latency, goodput and q-error metrics.  Phase *saturated*: blocks
    pushed through ``submit_async`` as fast as they are admitted — the
    throughput metric and, traced, the layer shares (an open loop's wall
    time is mostly idle, so shares of it would mean nothing).  A traced run
    adds phases at :data:`MID_QPS` and :data:`HIGH_QPS` in between, reported
    per layer only.
    """
    block, slo_ms = sizes["block"], SLO_MS["open_loop"]
    pool_size = block * sizes["open_pool_blocks"]
    setup_tracer, speed = Tracer(), HostSpeed()
    (registry, pool, truths), stages, setup_s = _setup(
        _build_fleet(sizes, seed, pool_size, pool_size),
        sizes["setups"], setup_tracer if trace else None, speed)

    router = FleetRouter(registry, batch_size=sizes["batch"],
                         num_samples=sizes["samples"], seed=seed,
                         flush_after_ms=20.0, max_pending=64, overflow="shed")
    router.run(pool[:block])
    router.run([])  # fresh scope: every phase numbers its queries from zero
    # The schedule is part of the workload's frozen structure, like the
    # query shapes: ``seed`` changes what arrives, not when, so two seeds
    # meet the same bursts.
    rng = np.random.default_rng(SHAPE_SEED)
    scale = seconds / RUN_SECONDS
    low_s = sizes["trace_rate_s"] * scale if trace else 0.6 * seconds
    arrivals = _poisson(LOW_QPS, low_s, rng)[:pool_size]
    low = _drive_open_loop(router, pool, arrivals)
    low_report = router.report()
    peak_pending = router.peak_pending
    router.run([])

    sent = len(arrivals)
    completed = low.completed
    served = [(index, result) for index, result in enumerate(low.results)
              if result is not None]
    failures = check.conservation(sent, len(completed), low.shed)
    failures += check.estimates_in_range(
        [result.selectivity for _, result in served], 0.0, 1.0)
    failures += check.against_sequential(
        registry, [(pool[index], index, result.selectivity)
                   for index, result in served],
        num_samples=sizes["samples"], seed=seed, picks=sizes["checks"])
    # Short blocks: the saturated phase has 0.4 of the run, and its median
    # wants a dozen of them.  They start half-way into the pool, so the ones
    # that always run add queries the arrivals did not pose to the q-error.
    burst = sizes["burst"]
    starts = list(range(0, pool_size - burst + 1, burst))
    starts = starts[len(starts) // 2:] + starts[:len(starts) // 2]
    blocks = [pool[start:start + burst] for start in starts]
    always = sizes["min_blocks"] if not trace else 2 * _trace_pairs(
        sizes, "open_loop", seconds)
    notes = {"sent": sent, "shed": low.shed}

    def accuracy(saturated) -> list[float]:
        """Q-errors of the arrivals served and of the bursts that always run."""
        estimates = [result.cardinality for _, result in served]
        labels = [truths[index] for index, _ in served]
        for start, record in zip(starts, saturated[:always]):
            estimates += [result.cardinality for result in record.report.results]
            labels += truths[start:start + burst]
        return _accuracy(estimates, labels)

    if not trace:
        saturated, _ = _drive_saturated(
            router, registry, itertools.cycle(blocks), seconds=0.4 * seconds,
            min_blocks=always, tracer=None, speed=speed)
        failures += check.served_blocks([record.report for record in saturated],
                                        burst)
        errors = accuracy(saturated)
        failures += check.accuracy_sane(errors)
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
            "latency_p50_ms": np.median(completed),
            "latency_p90_ms": np.percentile(completed, 90),
            "throughput_qps": np.median([burst / record.steady_s
                                         for record in saturated]),
            # A shed or failed query misses the limit.
            "goodput_share": sum(ms <= slo_ms for ms in completed) / sent,
            "qerror_p50": np.median(errors),
        }
        return Outcome(_full_metrics(metrics, END_TO_END),
                       sent + burst * len(saturated), len(failures) + low.shed,
                       failures, _notes(speed, **notes,
                                        saturated_blocks=len(saturated)))

    # The two higher rates, reported per layer only.
    rates = {}
    for label, rate_qps in (("mid", MID_QPS), ("high", HIGH_QPS)):
        schedule = _poisson(rate_qps, sizes["trace_rate_s"] * scale,
                            rng)[:pool_size]
        observed = _drive_open_loop(router, pool, schedule)
        peak_pending = max(peak_pending, router.peak_pending)
        router.run([])
        failures += check.conservation(len(schedule), len(observed.completed),
                                       observed.shed)
        rates[label] = (len(schedule), observed)
    tracer = Tracer()
    pairs = _trace_pairs(sizes, "open_loop", seconds)
    saturated, cache_delta = _drive_saturated(
        router, registry, itertools.islice(itertools.cycle(blocks), 2 * pairs),
        seconds=None, min_blocks=0, tracer=tracer, speed=speed)
    failures += check.served_blocks([record.report for record in saturated], burst)
    errors = accuracy(saturated)
    failures += check.accuracy_sane(errors)

    metrics = _traced_serving_metrics(
        saturated, tracer, cache_delta, router, block=burst, stages=stages,
        setup_tracer=setup_tracer, registry=registry, errors=errors)
    # Batching and queueing are what arrivals change: those engine entries
    # describe phase low, not the saturated blocks the shares come from.
    arrivals_view = _engine_metrics([low_report])
    metrics.update({name: arrivals_view[name] for name in (
        "engine.batches", "engine.batch_fill_mean", "engine.dispatch_ms_p50",
        "engine.dispatch_ms_p95", "engine.queue_wait_ms_p50",
        "engine.queue_wait_ms_p95", "engine.timeout_flush_share")})
    engine_e2e = {result.index: result.e2e_ms for result in low_report.results}
    shed = low.shed + sum(observed.shed for _, observed in rates.values())
    metrics.update({
        "router.peak_pending": float(peak_pending),
        "router.shed": float(shed),
        "stream.client_self_ms_p50": np.median(
            [low.latency_ms[index] - low.lateness_ms[index] - engine_e2e[index]
             for index, _ in served]),
        "stream.lateness_ms_p95": np.percentile(low.lateness_ms, 95),
        "stream.max_lateness_ms": max(low.lateness_ms),
        "stream.achieved_qps.high": (len(rates["high"][1].completed)
                                     / rates["high"][1].wall_s),
    })
    for label, (offered, observed) in rates.items():
        metrics.update({
            f"stream.e2e_p50_ms.{label}": np.median(observed.completed),
            f"stream.e2e_p95_ms.{label}": np.percentile(observed.completed, 95),
            f"stream.goodput_share.{label}": sum(
                ms <= slo_ms for ms in observed.completed) / offered,
        })
    attempted = (sent + sum(offered for offered, _ in rates.values())
                 + burst * len(saturated))
    return Outcome(_full_metrics(metrics, PER_LAYER), attempted,
                   len(failures) + shed, failures,
                   _notes(speed, **notes, rates_sent={
                       label: offered for label, (offered, _) in rates.items()}))


#: name -> (function, why the workload exists)
WORKLOADS = {
    "oneshot": (run_oneshot,
                "one estimate at a time on one table: model forward and the "
                "sampler's column loop do all the work; set-up is training"),
    "serve_distinct": (run_serve_distinct,
                       "never-repeating queries through a long-lived router: "
                       "cache reads miss, writes and eviction do real work"),
    "serve_repeat": (run_serve_repeat,
                     "one hot set that fits the cache: reads always hit, the "
                     "model evaluates nothing, sampler arithmetic is all"),
    "open_loop": (run_open_loop,
                  "arrivals on a fixed schedule at a fixed rate: queue wait, "
                  "flush timers and admission only matter here"),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> Outcome:
    """Run one named workload; the single entry the runner and tests use."""
    function, _ = WORKLOADS[name]
    return function(seed, seconds, trace, SIZES[scale])
