"""Command line for the serving layer: replay workloads through one router.

Every invocation registers ``--tables`` (default: the census table alone)
and serves them through one :class:`~repro.serve.router.FleetRouter`; a
one-relation fleet's default route is simply that relation::

    # Generate a 64-query workload over the census table and serve it batched.
    python -m repro.serve --tables census --num-queries 64

    # Persist the generated workload, then replay it later.
    python -m repro.serve --save-workload workload.json --num-queries 64
    python -m repro.serve --workload workload.json --compare-sequential

    # Write the machine-readable report for dashboards / CI artifacts.
    python -m repro.serve --num-queries 32 --json report.json

    # Serve two base tables plus their join as three routed models.
    python -m repro.serve --tables users sessions \
        --join sessions:users:user_id:user_id --num-queries 48

    # Sample the join instead of materialising it, and save the mixed
    # (table-qualified) workload for replay.
    python -m repro.serve --tables users sessions \
        --join sessions:users:user_id:user_id:sess_users --join-sample 2000 \
        --save-workload mixed.json

    # Replicate every relation 4x, bound each replica group's pending queue,
    # and front the fleet with an exact-match result cache.
    python -m repro.serve --tables users sessions --replicas 4 \
        --max-pending 32 --overflow shed --result-cache --num-queries 96

    # Widen the query language: a quarter of the workload becomes
    # disjunctions (2 or 6 branches) and a quarter LIKE prefixes; 6-branch
    # disjunctions overflow Naru's inclusion–exclusion bound and route to
    # the per-relation sampling fallback estimator.
    python -m repro.serve --tables users sessions --fallback sampling \
        --dnf-fraction 0.25 --like-fraction 0.25 --dnf-branches 2 6 \
        --num-queries 96

    # Stream the workload query-by-query through the asyncio client, with
    # SLO-aware adaptive batching: micro-batches shrink whenever the
    # end-to-end latency EWMA (queue wait + dispatch) threatens the 50 ms
    # p95 target, and no partially filled batch waits past 20 ms.
    python -m repro.serve --tables users sessions --stream \
        --slo-ms 50 --flush-after-ms 20 --num-queries 96

    # Cross-process serving: shard the fleet's replicas across 4 OS worker
    # processes (same estimates as --workers 1, bit for bit), with one log
    # file per worker.  The process fleet is the same router, so the
    # admission, result-cache, ensemble and SLO flags above combine with it.
    # SIGTERM triggers a graceful drain: pending micro-batches flush and
    # their results are collected before exit.
    python -m repro.serve --tables users sessions --workers 4 \
        --replicas 4 --log-dir procfleet-logs --num-queries 96

    # Open-loop load generation: offer 200 Poisson arrivals/s for 2 seconds
    # regardless of completion rate, record the arrival trace for replay,
    # and shed (typed, counted) whatever overflows the admission bound.
    python -m repro.serve --tables users sessions --arrivals poisson \
        --offered-qps 200 --duration-s 2 --save-trace arrivals.json \
        --max-pending 32 --overflow shed

    # Replay the exact same arrival sequence (byte-stable trace files),
    # with a chaos scenario injected mid-run: one replica turns slow.
    python -m repro.serve --tables users sessions --arrivals trace \
        --trace-file arrivals.json --scenario slow_replica

    # The cross-process chaos drill: SIGKILL a worker mid-stream and verify
    # the failure surfaces as a typed WorkerError, not a hang.
    python -m repro.serve --tables users sessions --workers 2 \
        --scenario kill_worker --num-queries 48
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from collections import Counter

import numpy as np

from ..core import NaruConfig
from ..data import (
    JoinSpec,
    make_census,
    make_conviva_a,
    make_dmv,
    make_sessions,
    make_users,
)
from ..estimators import SamplingEstimator
from ..query import true_selectivities
from ..query.metrics import q_error
from ..query.shapes import query_shape
from .cache import canonical_query_key
from .loadgen import (
    ARRIVAL_PROCESSES,
    SCENARIOS,
    ArrivalTrace,
    run_kill_worker_drill,
    run_open_loop,
)
from .procfleet import ProcessFleet
from .registry import ModelRegistry
from .router import FleetRouter, RoutingError, run_fleet_sequential
from .stream import stream_workload
from .workload import (
    generate_mixed_workload,
    generate_shape_workload,
    load_workload,
    save_workload,
)

_DATASETS = {
    "census": make_census,
    "dmv": make_dmv,
    "conviva_a": make_conviva_a,
    # The users dimension table is sized at rows/8 so the sessions ⨝ users
    # join keeps realistic fan-out; both sides use the same user population.
    "users": lambda rows: make_users(max(rows // 8, 16)),
    "sessions": lambda rows: make_sessions(rows, num_users=max(rows // 8, 16)),
}


def parse_join_spec(text: str, sample_rows: int, seed: int) -> JoinSpec:
    """Parse a ``LEFT:RIGHT:LEFT_KEY:RIGHT_KEY[:NAME]`` command-line join."""
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise SystemExit(
            f"join spec {text!r} must be LEFT:RIGHT:LEFT_KEY:RIGHT_KEY[:NAME]")
    name = parts[4] if len(parts) == 5 else None
    how = "sample" if sample_rows > 0 else "materialise"
    return JoinSpec(parts[0], parts[1], parts[2], parts[3], name=name,
                    how=how, sample_rows=max(sample_rows, 1), seed=seed)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a query workload through the batched estimation engine")
    parser.add_argument("--tables", nargs="+", metavar="NAME",
                        choices=sorted(_DATASETS), default=["census"],
                        help="synthetic tables to build, register and serve "
                             "behind one router (default: census alone)")
    parser.add_argument("--join", action="append", default=[], metavar="SPEC",
                        help="register a join relation over two of --tables, "
                             "as LEFT:RIGHT:LEFT_KEY:RIGHT_KEY[:NAME]; "
                             "repeatable")
    parser.add_argument("--join-sample", type=int, default=0, metavar="ROWS",
                        help="sample this many join tuples through JoinSampler "
                             "instead of materialising the join (0 = materialise)")
    parser.add_argument("--rows", type=int, default=4000,
                        help="number of rows of each synthetic table (the "
                             "'users' dimension table is built with rows/8 "
                             "users so the sessions join keeps realistic "
                             "fan-out)")
    parser.add_argument("--workload", metavar="PATH",
                        help="replay a workload file instead of generating one")
    parser.add_argument("--save-workload", metavar="PATH",
                        help="write the served workload to a JSON file")
    parser.add_argument("--num-queries", type=int, default=64,
                        help="number of generated queries, split across the "
                             "relations (ignored with --workload)")
    parser.add_argument("--min-filters", type=int, default=2)
    parser.add_argument("--max-filters", type=int, default=5)
    parser.add_argument("--dnf-fraction", type=float, default=0.0, metavar="F",
                        help="rewrite this fraction of generated queries into "
                             "DNF disjunctions (fractions must lie in [0, 1] "
                             "and sum to at most 1)")
    parser.add_argument("--like-fraction", type=float, default=0.0, metavar="F",
                        help="rewrite this fraction of generated queries into "
                             "LIKE 'x%%' string-prefix queries (relations "
                             "without string columns keep their conjunction)")
    parser.add_argument("--dnf-branches", type=int, nargs="+", default=[2],
                        metavar="K",
                        help="branch counts cycled across the generated "
                             "disjunctions (each at least 2); counts above "
                             "the model's max_dnf_branches only serve when a "
                             "--fallback estimator is registered")
    parser.add_argument("--fallback", choices=("sampling",), default=None,
                        help="register a per-relation fallback estimator that "
                             "serves the query shapes the primary Naru model "
                             "refuses, e.g. many-branch disjunctions")
    parser.add_argument("--fallback-sample", type=int, default=1024,
                        metavar="ROWS",
                        help="rows retained by each sampling fallback "
                             "estimator (requires --fallback)")
    parser.add_argument("--epochs", type=int, default=5,
                        help="training epochs of each served Naru model")
    parser.add_argument("--samples", type=int, default=200,
                        help="progressive sample paths per query")
    parser.add_argument("--batch-size", type=int, default=16,
                        help="queries per (per-replica) micro-batch")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the conditional-probability caches")
    parser.add_argument("--cache-entries", type=int, default=65536,
                        help="cache budget (shared across models, replicas and "
                             "the result cache)")
    parser.add_argument("--replicas", type=int, default=1, metavar="N",
                        help="engine replicas per registered relation "
                             "(estimates are identical for any N)")
    parser.add_argument("--max-pending", type=int, default=0, metavar="N",
                        help="bound each replica group's pending queue at N "
                             "queries (0 = unbounded)")
    parser.add_argument("--overflow", choices=("block", "shed"), default="block",
                        help="what a full replica group does with a new query: "
                             "dispatch early (block) or refuse it (shed)")
    parser.add_argument("--result-cache", action="store_true",
                        help="front the fleet with an exact-match result cache "
                             "on canonicalised queries")
    parser.add_argument("--stream", action="store_true",
                        help="submit queries one at a time through the asyncio "
                             "streaming client instead of as one batch call "
                             "(estimates are identical)")
    parser.add_argument("--slo-ms", type=float, default=None, metavar="MS",
                        help="adapt each relation's micro-batch size (within "
                             "[1, batch size]) to keep p95 end-to-end latency, "
                             "submission to result, under MS (positive)")
    parser.add_argument("--flush-after-ms", type=float, default=None,
                        metavar="MS",
                        help="dispatch any partially filled micro-batch once "
                             "its oldest query has waited this long, bounding "
                             "queueing delay (must be positive)")
    parser.add_argument("--arrivals", choices=(*ARRIVAL_PROCESSES, "trace"),
                        default=None,
                        help="serve open-loop: offer queries at the arrival "
                             "process's timestamps regardless of completion "
                             "rate ('trace' replays --trace-file)")
    parser.add_argument("--offered-qps", type=float, default=None,
                        metavar="QPS",
                        help="mean offered arrival rate of the generated "
                             "arrival process (must be positive; requires "
                             "--arrivals poisson|diurnal|flash)")
    parser.add_argument("--duration-s", type=float, default=None, metavar="S",
                        help="length of the generated arrival window in "
                             "seconds (default 2; requires --arrivals "
                             "poisson|diurnal|flash)")
    parser.add_argument("--trace-file", metavar="PATH",
                        help="arrival trace to replay (requires "
                             "--arrivals trace)")
    parser.add_argument("--save-trace", metavar="PATH",
                        help="record the generated arrival sequence to a "
                             "replayable JSON trace file (byte-stable for a "
                             "given seed)")
    parser.add_argument("--scenario", choices=(*sorted(SCENARIOS),
                                               "kill_worker"),
                        default=None,
                        help="chaos scenario to inject mid-run: slow_replica/"
                             "cache_wipe need an open-loop run (--arrivals), "
                             "kill_worker needs the process fleet (--workers)")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="serve from N OS worker processes instead of "
                             "in-process engines (estimates are identical for "
                             "any N; 0 = in-process)")
    parser.add_argument("--log-dir", metavar="PATH",
                        help="directory for per-worker log files "
                             "(worker-<id>.log; requires --workers)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--compare-sequential", action="store_true",
                        help="also run the unbatched baseline and print the speedup")
    parser.add_argument("--q-errors", action="store_true",
                        help="score estimates against exact selectivities")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full report as JSON")
    return parser


def _print_latencies(stats) -> None:
    """Print the p50/p95/p99 line of every latency block a report carries."""
    for block, label in (("latency_ms", "dispatch latency"),
                         ("queue_wait_ms", "queue wait"),
                         ("e2e_ms", "end-to-end")):
        percentiles = getattr(stats, block)
        if percentiles is not None:
            print(f"  {label + ' p50/p95/p99:':<30}"
                  f"{percentiles['p50']:.1f} / {percentiles['p95']:.1f} / "
                  f"{percentiles['p99']:.1f} ms")


def _write_report(arguments, document: dict) -> None:
    """Dump the machine-readable report when ``--json`` asks for one."""
    if arguments.json:
        with open(arguments.json, "w") as handle:
            json.dump(document, handle, indent=1)
        print(f"\nReport written to {arguments.json}")


def _estimate_drift(report, baseline) -> tuple[float, int]:
    """Max ``|served - sequential|`` over the model-served results, and their count.

    Cache-served repeats intentionally reuse their first occurrence's
    estimate while the baseline re-samples every repeat under its own stream
    — they are excluded so the drift measures batching/routing determinism,
    not cache semantics.
    """
    compared = [(result.selectivity, baseline.results[result.index].selectivity)
                for result in report.results if not result.from_result_cache]
    return (max((abs(served - sequential) for served, sequential in compared),
                default=0.0), len(compared))


def _load_queries(arguments, registry) -> list:
    """Replay ``--workload``, refusing queries this registry cannot answer."""
    queries = load_workload(arguments.workload)
    default = registry.names[0] if len(registry) == 1 else None
    unroutable, unknown = set(), set()
    for query in queries:
        route = query.table or default
        if route is None:
            continue  # unqualified on a multi-relation fleet: the router reports it
        if route not in registry:
            unroutable.add(route)
            continue
        columns = set(registry.relation(route).column_names)
        unknown.update(f"{route}.{predicate.column}" for predicate in query
                       if predicate.column not in columns)
    if unroutable:
        raise SystemExit(
            f"workload {arguments.workload!r} targets relations not in "
            f"this registry: {', '.join(sorted(unroutable))} "
            f"(registered: {', '.join(registry.names)})")
    if unknown:
        raise SystemExit(f"workload {arguments.workload!r} references columns "
                         f"missing from their relation: "
                         f"{', '.join(sorted(unknown))}")
    print(f"Replaying {len(queries)} queries from {arguments.workload}")
    return queries


def _serve(arguments) -> int:
    registry = ModelRegistry(default_config=NaruConfig(
        epochs=arguments.epochs, hidden_sizes=(64, 64), batch_size=256,
        progressive_samples=arguments.samples, seed=arguments.seed))
    replica_note = f" x{arguments.replicas}" if arguments.replicas > 1 else ""
    for name in dict.fromkeys(arguments.tables):  # de-dup, keep order
        table = _DATASETS[name](arguments.rows)
        registry.register_table(table, replicas=arguments.replicas)
        print(f"Registered base relation: {table}{replica_note}")
    for text in arguments.join:
        spec = parse_join_spec(text, arguments.join_sample, arguments.seed)
        try:
            name = registry.register_join(spec, replicas=arguments.replicas)
        except (KeyError, ValueError) as error:
            raise SystemExit(f"cannot register join {text!r}: "
                             f"{error.args[0]}") from None
        print(f"Registered join relation: {registry.relation(name)} "
              f"({spec.how} of {spec.left} ⨝ {spec.right}){replica_note}")
    if arguments.fallback:
        for name in registry.names:
            estimator = SamplingEstimator(
                registry.relation(name),
                sample_size=arguments.fallback_sample, seed=arguments.seed)
            registry.set_fallback(name, estimator)
            print(f"Registered fallback estimator for {name}: "
                  f"{estimator.name}")

    if arguments.workload:
        queries = _load_queries(arguments, registry)
    elif arguments.dnf_fraction > 0 or arguments.like_fraction > 0:
        queries = generate_shape_workload(
            {name: registry.relation(name) for name in registry.names},
            arguments.num_queries, dnf_fraction=arguments.dnf_fraction,
            like_fraction=arguments.like_fraction,
            dnf_branches=tuple(arguments.dnf_branches),
            min_filters=arguments.min_filters,
            max_filters=arguments.max_filters, seed=arguments.seed)
        mix = Counter(query_shape(query).value for query in queries)
        parts = ", ".join(f"{count} {shape}"
                          for shape, count in sorted(mix.items()))
        print(f"Generated {len(queries)} queries across "
              f"{len(registry)} relations ({parts})")
    else:
        queries = generate_mixed_workload(
            {name: registry.relation(name) for name in registry.names},
            arguments.num_queries, min_filters=arguments.min_filters,
            max_filters=arguments.max_filters, seed=arguments.seed)
        print(f"Generated {len(queries)} queries across "
              f"{len(registry)} relations")
    if arguments.arrivals and not queries:
        raise SystemExit("--arrivals needs at least one query to offer: the "
                         "workload is empty")
    if arguments.save_workload:
        save_workload(arguments.save_workload, queries)
        print(f"Workload written to {arguments.save_workload}")

    registry.fit_all()
    for name, entry in registry.size_report().items():
        print(f"Trained model for {name}: {entry['model_bytes'] / 1e6:.2f} MB "
              f"({entry['num_rows']} rows x {entry['num_columns']} cols"
              f"{', join' if entry['is_join'] else ''})")
    print(f"Fleet model storage: {registry.size_bytes() / 1e6:.2f} MB")

    options = dict(batch_size=arguments.batch_size,
                   num_samples=arguments.samples,
                   use_cache=not arguments.no_cache,
                   cache_entries=arguments.cache_entries,
                   seed=arguments.seed,
                   max_pending=arguments.max_pending or None,
                   overflow=arguments.overflow,
                   result_cache=arguments.result_cache,
                   flush_after_ms=arguments.flush_after_ms,
                   slo_ms=arguments.slo_ms)
    if arguments.workers:
        options.update(workers=arguments.workers, log_dir=arguments.log_dir)
    router = (ProcessFleet if arguments.workers else FleetRouter)(
        registry, **options)
    if arguments.workers:
        for info in router.workers:
            hosted = ", ".join(f"{route}/{replica}"
                               for route, replica in info.keys)
            log_note = f" -> {info.log_path}" if info.log_path else ""
            print(f"Worker {info.worker_id} (pid {info.pid}): "
                  f"{hosted}{log_note}")
        if arguments.scenario == "kill_worker":
            return _kill_worker_drill(arguments, router, queries)
    if arguments.slo_ms is not None:
        print(f"Adaptive batching on: p95 e2e SLO {arguments.slo_ms:g} ms, "
              f"micro-batches in [1, {arguments.batch_size}]")
    if arguments.flush_after_ms is not None:
        print(f"Flush timeout on: partially filled micro-batches dispatch "
              f"after {arguments.flush_after_ms:g} ms")
    if arguments.result_cache:
        try:
            keys = [canonical_query_key(query, route=router.resolve_route(query))
                    for query in queries]
        except RoutingError:
            keys = []  # the run below reports the unroutable query properly
        repeats = len(keys) - len(set(keys))
        if repeats:
            print(f"note: {repeats} repeated queries will be answered from "
                  "the result cache (each repeat serves its first dispatched "
                  "occurrence's estimate instead of re-sampling)")
    if arguments.arrivals:
        return _serve_open_loop(arguments, registry, router, queries)
    try:
        if arguments.workers:
            report = _run_draining_on_sigterm(router, queries)
        elif arguments.stream:
            report = stream_workload(router, queries)
        else:
            report = router.run(queries)
    except RoutingError as error:
        raise SystemExit(f"unroutable query: {error}") from None
    stats = report.stats

    mode = "streamed" if arguments.stream else "Served"
    on_workers = (f" on {arguments.workers} worker processes"
                  if arguments.workers else "")
    print(f"\n{mode.capitalize()} {stats.num_queries} queries across "
          f"{stats.num_models} models{on_workers} "
          f"({stats.queries_per_second:.1f} queries/s overall, "
          f"cache budget {stats.cache_entries_per_model} entries/cache)")
    _print_latencies(stats)
    if stats.timeout_flushes:
        print(f"  {stats.timeout_flushes} micro-batches dispatched by the "
              f"flush timeout")
    if stats.rows_submitted:
        print(f"  prefix dedup: {stats.rows_submitted} rows -> "
              f"{stats.unique_rows} unique ({stats.dedup_ratio:.2f}x), "
              f"{stats.rows_evaluated} model-evaluated")
    if stats.shed:
        print(f"  shed {stats.shed} queries at the admission limit "
              f"(max_pending={arguments.max_pending}, policy=shed)")
    if stats.result_cache is not None:
        print(f"  result cache: {stats.result_cache['hits']} hits / "
              f"{stats.result_cache['misses']} misses "
              f"({stats.result_cache['hit_rate']:.1%} hit rate)")
    if stats.epochs:
        marks = ", ".join(
            f"{route}@{entry['data_epoch']}"
            + (f" (model {entry['staleness']} behind)"
               if entry["staleness"] else "")
            for route, entry in stats.epochs.items())
        print(f"  data epochs: {marks}; max staleness {stats.max_staleness}")
    for route, route_stats in stats.routes.items():
        cache = route_stats["cache"]
        hit_rate = f", cache hit rate {cache['hit_rate']:.1%}" if cache else ""
        replicas = (f" on {route_stats['num_replicas']} replicas"
                    if route_stats["num_replicas"] > 1 else "")
        print(f"  {route:<24} {route_stats['num_queries']:>4} queries in "
              f"{route_stats['num_batches']} batches{replicas}, "
              f"{route_stats['queries_per_second']:8.1f} queries/s{hit_rate}")
        if route_stats["batch_trace"]:
            trace = route_stats["batch_trace"]
            print(f"  {'':<24} dispatch p95 "
                  f"{route_stats['latency_ms']['p95']:.1f} ms, e2e p95 "
                  f"{route_stats['e2e_ms']['p95']:.1f} ms, "
                  f"batch size {trace[0]} -> {trace[-1]} "
                  f"(min {min(trace)}, {len(trace) - 1} dispatches)")
    for worker_id, entry in (stats.workers or {}).items():
        print(f"  worker {worker_id:<17} {entry['num_queries']:>4} queries in "
              f"{entry['num_batches']} batches, "
              f"busy CPU {entry['busy_cpu_ms']:.0f} ms "
              f"({', '.join(entry['engines'])})")
    if stats.estimators is not None and len(stats.estimators) > 1:
        print("  per-estimator breakdown:")
        for name, entry in stats.estimators.items():
            e2e = (f", e2e p95 {entry['e2e_ms']['p95']:.1f} ms"
                   if entry["e2e_ms"] else "")
            units = ", ".join(entry["units"]) if entry["units"] else "cache"
            print(f"    {name:<22} {entry['num_queries']:>4} queries via "
                  f"{units}{e2e}")

    document = {"fleet": stats.as_dict(),
                "estimates": [result.selectivity for result in report.results],
                "routes": [result.route for result in report.results]}

    if arguments.compare_sequential:
        if stats.shed:
            print("\nSkipping --compare-sequential: the shed policy dropped "
                  f"{stats.shed} queries, so the workloads no longer match")
        else:
            baseline = run_fleet_sequential(registry, queries,
                                            num_samples=arguments.samples,
                                            seed=arguments.seed)
            speedup = (baseline.stats.elapsed_s / stats.elapsed_s
                       if stats.elapsed_s > 0 else float("inf"))
            drift, compared = _estimate_drift(report, baseline)
            excluded = len(report.results) - compared
            note = (f"; {excluded} cache-served repeats excluded"
                    if excluded else "")
            print(f"\nSequential fleet baseline: "
                  f"{baseline.stats.queries_per_second:.1f} queries/s -> "
                  f"routed speedup {speedup:.1f}x "
                  f"(max estimate drift {drift:.2e}{note})")
            document["sequential"] = baseline.stats.as_dict()
            document["speedup"] = speedup
            document["max_estimate_drift"] = drift
            document["drift_excluded_cache_hits"] = excluded

    if arguments.q_errors:
        errors = []
        truths: dict[int, float] = {}
        for result in report.results:
            relation = registry.relation(result.route)
            truth = true_selectivities(relation, [result.query])[0]
            truths[result.index] = float(truth * relation.num_rows)
            errors.append(q_error(result.cardinality, truths[result.index]))
        if errors:
            print(f"\nq-error: median {np.median(errors):.2f}, "
                  f"p95 {np.quantile(errors, 0.95):.2f}, max {np.max(errors):.2f}")
        document["q_errors"] = errors
        if any(result.estimator for result in report.results):
            by_estimator = report.accuracy_by_estimator(truths)
            for name, entry in by_estimator.items():
                print(f"  {name:<22} {entry['num_queries']:>4} queries, "
                      f"median {entry['median_qerror']:.2f}, "
                      f"p95 {entry['p95_qerror']:.2f}, "
                      f"max {entry['max_qerror']:.2f}")
            document["q_errors_by_estimator"] = by_estimator

    _write_report(arguments, document)
    return 0


def _serve_open_loop(arguments, registry, router, queries) -> int:
    """Offer a prepared workload open-loop, optionally under a chaos scenario."""
    if arguments.arrivals == "trace":
        try:
            trace = ArrivalTrace.load(arguments.trace_file)
        except (OSError, ValueError) as error:
            raise SystemExit(str(error)) from None
        print(f"Replaying {len(trace)} arrivals from {arguments.trace_file} "
              f"({trace.process}, recorded at {trace.rate_qps:g} qps over "
              f"{trace.duration_s:g} s, seed {trace.seed})")
    else:
        duration_s = arguments.duration_s if arguments.duration_s is not None \
            else 2.0
        trace = ArrivalTrace.record(arguments.arrivals,
                                    rate_qps=arguments.offered_qps,
                                    duration_s=duration_s,
                                    seed=arguments.seed)
        print(f"Generated {len(trace)} {arguments.arrivals} arrivals "
              f"({arguments.offered_qps:g} qps offered over {duration_s:g} s, "
              f"realised {trace.offered_qps:.1f} qps)")
        if arguments.save_trace:
            trace.save(arguments.save_trace)
            print(f"Arrival trace written to {arguments.save_trace}")

    scenario = None
    if arguments.scenario:
        try:
            route = router.resolve_route(queries[0])
        except RoutingError as error:
            raise SystemExit(f"unroutable query: {error}") from None
        scenario = SCENARIOS[arguments.scenario](route)
        print(f"Chaos scenario armed: {arguments.scenario}")

    try:
        outcome = run_open_loop(router, queries, trace, scenario=scenario)
    except RoutingError as error:
        raise SystemExit(f"unroutable query: {error}") from None
    stats = outcome.report.stats

    print(f"\nOffered {outcome.submitted + outcome.shed} arrivals at "
          f"{outcome.offered_qps:.1f} qps: {outcome.completed} completed "
          f"({outcome.achieved_qps:.1f} qps achieved), {outcome.shed} shed "
          f"at the admission limit")
    print(f"  peak pending     {outcome.peak_pending}"
          + (f" (bound {arguments.max_pending})"
             if arguments.max_pending else ""))
    _print_latencies(stats)
    for event in outcome.events:
        print(f"  chaos: {event}")

    document = {"open_loop": outcome.as_dict(), "fleet": stats.as_dict(),
                "estimates": [result.selectivity
                              for result in outcome.report.results]}

    if arguments.compare_sequential:
        expanded = [queries[i % len(queries)]
                    for i in range(len(trace))]
        baseline = run_fleet_sequential(registry, expanded,
                                        num_samples=arguments.samples,
                                        seed=arguments.seed)
        drift, compared = _estimate_drift(outcome.report, baseline)
        print(f"\nSequential fleet baseline on the expanded arrival "
              f"workload: max estimate drift {drift:.2e} over "
              f"{compared} completed queries — open-loop pacing, "
              "shedding and chaos never move a completed number")
        document["max_estimate_drift"] = drift

    _write_report(arguments, document)
    return 0


def _kill_worker_drill(arguments, fleet: ProcessFleet, queries) -> int:
    """Run the SIGKILL-a-worker chaos drill on a freshly built process fleet."""
    try:
        drill = run_kill_worker_drill(fleet, queries)
    finally:
        fleet.close()
    print(f"\nkill_worker drill: worker {drill['killed_worker']} "
          f"(pid {drill['killed_pid']}) SIGKILLed after "
          f"{drill['kill_after']} of {drill['submitted']} submissions")
    if drill["typed_error"]:
        print(f"  surfaced as {drill['error_type']} (worker "
              f"{drill['error_worker_id']}, exit code "
              f"{drill['error_exit_code']}) in {drill['wall_s']:.2f} s — "
              "degraded, not collapsed")
    else:
        print("  WARNING: no typed WorkerError surfaced — the batches "
              "may all have missed the dead worker; rerun with more "
              "queries")
    _write_report(arguments, {"kill_worker_drill": drill})
    return 0 if drill["typed_error"] else 1


def _run_draining_on_sigterm(fleet: ProcessFleet, queries):
    """Serve one workload on a process fleet, then close it; SIGTERM drains."""
    def _drain_on_sigterm(signum, frame):
        # SystemExit unwinds through the ``with fleet:`` block below, whose
        # __exit__ is the graceful drain: pending micro-batches flush and
        # their results are collected before the workers stop.
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, _drain_on_sigterm)
    try:
        with fleet:
            return fleet.run(queries)
    finally:
        signal.signal(signal.SIGTERM, previous)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; validates the flags, then serves."""
    arguments = build_parser().parse_args(argv)
    for flag, value, least in (("--num-queries", arguments.num_queries, 0),
                               ("--samples", arguments.samples, 1),
                               ("--batch-size", arguments.batch_size, 1),
                               ("--min-filters", arguments.min_filters, 1),
                               ("--replicas", arguments.replicas, 1),
                               ("--fallback-sample",
                                arguments.fallback_sample, 1)):
        if value < least:
            raise SystemExit(f"{flag} must be at least {least}, got {value}")
    if arguments.max_filters < arguments.min_filters:
        raise SystemExit(f"--max-filters ({arguments.max_filters}) must not be "
                         f"below --min-filters ({arguments.min_filters})")
    if arguments.workers < 0:
        raise SystemExit("--workers must be non-negative (0 = in-process)")
    if arguments.log_dir is not None and not arguments.workers:
        raise SystemExit("--log-dir requires --workers: only worker "
                         "processes write per-worker log files")
    if arguments.workers:
        unsupported = [flag for flag, used in (
            ("--stream", arguments.stream),
            ("--arrivals", arguments.arrivals is not None),
        ) if used]
        if unsupported:
            raise SystemExit(
                f"{', '.join(unsupported)} and --workers are mutually "
                "exclusive: the asyncio streaming client and open-loop "
                "pacing do not drive worker processes yet")
    if arguments.max_pending < 0:
        raise SystemExit("--max-pending must be non-negative (0 = unbounded)")
    if arguments.overflow == "shed" and arguments.max_pending == 0:
        raise SystemExit("--overflow shed requires --max-pending: with an "
                         "unbounded queue nothing can ever be shed")
    if arguments.slo_ms is not None and arguments.slo_ms <= 0:
        raise SystemExit(f"--slo-ms must be positive, got {arguments.slo_ms:g} "
                         "(omit the flag to serve without an SLO)")
    if arguments.flush_after_ms is not None and arguments.flush_after_ms <= 0:
        raise SystemExit(f"--flush-after-ms must be positive, got "
                         f"{arguments.flush_after_ms:g} (omit the flag to let "
                         "partial batches wait indefinitely)")
    for flag, fraction in (("--dnf-fraction", arguments.dnf_fraction),
                           ("--like-fraction", arguments.like_fraction)):
        if not 0.0 <= fraction <= 1.0:
            raise SystemExit(f"{flag} must lie in [0, 1], got {fraction:g}")
    if arguments.dnf_fraction + arguments.like_fraction > 1.0:
        raise SystemExit("--dnf-fraction and --like-fraction must sum to at "
                         "most 1 (the rest of the workload stays conjunctive)")
    if any(branches < 2 for branches in arguments.dnf_branches):
        raise SystemExit("--dnf-branches values must be at least 2 (a "
                         "single-branch disjunction is just a conjunction)")
    shaped = arguments.dnf_fraction > 0 or arguments.like_fraction > 0
    if arguments.dnf_branches != [2] and arguments.dnf_fraction == 0:
        raise SystemExit("--dnf-branches does nothing without --dnf-fraction: "
                         "no disjunctions would be generated")
    if shaped and arguments.workload:
        raise SystemExit("--dnf-fraction/--like-fraction shape *generated* "
                         "workloads and are incompatible with --workload "
                         "(the file already fixes each query's shape)")
    if arguments.fallback_sample != 1024 and arguments.fallback is None:
        raise SystemExit("--fallback-sample does nothing without --fallback: "
                         "no fallback estimator would be built")
    if arguments.arrivals is not None and arguments.stream:
        raise SystemExit("--arrivals and --stream are mutually exclusive: "
                         "open-loop pacing already streams through the "
                         "asyncio client")
    if arguments.offered_qps is not None and arguments.offered_qps <= 0:
        raise SystemExit(f"--offered-qps must be positive, got "
                         f"{arguments.offered_qps:g}")
    if arguments.duration_s is not None and arguments.duration_s <= 0:
        raise SystemExit(f"--duration-s must be positive, got "
                         f"{arguments.duration_s:g}")
    generated = arguments.arrivals is not None and arguments.arrivals != "trace"
    if generated and arguments.offered_qps is None:
        raise SystemExit(f"--arrivals {arguments.arrivals} requires "
                         "--offered-qps: an open-loop run needs its offered "
                         "rate")
    if arguments.arrivals == "trace" and arguments.trace_file is None:
        raise SystemExit("--arrivals trace requires --trace-file: nothing to "
                         "replay otherwise")
    if arguments.arrivals == "trace":
        fixed = [flag for flag, used in (
            ("--offered-qps", arguments.offered_qps is not None),
            ("--duration-s", arguments.duration_s is not None),
            ("--save-trace", arguments.save_trace is not None),
        ) if used]
        if fixed:
            raise SystemExit(f"{', '.join(fixed)} and --arrivals trace are "
                             "mutually exclusive: a replayed trace fixes the "
                             "arrival sequence")
    for flag, used in (("--offered-qps", arguments.offered_qps is not None),
                       ("--duration-s", arguments.duration_s is not None),
                       ("--save-trace", arguments.save_trace is not None)):
        if used and not generated:
            raise SystemExit(f"{flag} requires --arrivals "
                             "poisson|diurnal|flash (a generated arrival "
                             "process)")
    if arguments.trace_file is not None and arguments.arrivals != "trace":
        raise SystemExit("--trace-file requires --arrivals trace")
    if arguments.scenario == "kill_worker":
        if not arguments.workers:
            raise SystemExit("--scenario kill_worker requires --workers: the "
                             "drill kills an OS worker process")
    elif arguments.scenario is not None and arguments.arrivals is None:
        raise SystemExit(f"--scenario {arguments.scenario} requires "
                         "--arrivals: chaos is injected into an open-loop "
                         "run")
    return _serve(arguments)


if __name__ == "__main__":
    sys.exit(main())
