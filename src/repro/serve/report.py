"""Serving reports: one fold from engine reports up to the whole fleet.

Every serving tier reports the same numbers at three levels — a *route* (one
serving unit's replica engines), an *estimator* (every unit one estimator
served) and the *fleet*.  Each level is :func:`summarise` of its own
:class:`~repro.serve.engine.EngineReport`\\ s — summed counters, throughput,
dedup ratio and query-weighted dispatch / queue-wait / end-to-end
percentiles — plus the few keys only that level has; :func:`merge_reports`
assembles all three into one :class:`FleetReport`.

This module imports nothing from the serving modules at run time, so the
engine, the caches and the load generator can all use :func:`plain_dict`,
the one ``as_dict`` body of the serving stack's stats classes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from ..query.metrics import q_error

if TYPE_CHECKING:
    from collections.abc import Sequence

    from ..query.predicates import Query
    from .engine import EngineReport, EstimateResult

__all__ = ["RoutedResult", "FleetStats", "FleetReport", "Rates",
           "latency_percentiles", "merge_reports", "plain_dict", "summarise"]

#: Counters every report level sums over its engine reports.
_SUMMED = ("num_queries", "num_batches", "elapsed_s", "timeout_flushes",
           "rows_submitted", "unique_rows", "rows_evaluated", "forward_calls")
#: The keys of a per-estimator entry besides its ``units``.
_ESTIMATOR_KEYS = ("num_queries", "elapsed_s", "queries_per_second",
                   "latency_ms", "e2e_ms")


def plain_dict(stats, *derived: str, exclude: tuple[str, ...] = ()) -> dict:
    """A dataclass's fields, then the named derived properties, as one dict.

    Values are not copied: the dict is a JSON-ready view of ``stats``.
    ``exclude`` drops fields that are not plain data (an embedded report).
    """
    entry = {spec.name: getattr(stats, spec.name) for spec in fields(stats)
             if spec.name not in exclude}
    entry.update((name, getattr(stats, name)) for name in derived)
    return entry


def latency_percentiles(latencies_ms, weights=None) -> dict:
    """p50/p95/p99 of a set of latencies, optionally query-weighted.

    Args:
        latencies_ms: Per-observation latencies in milliseconds (typically
            per-micro-batch dispatch latencies, or per-query queue waits).
        weights: Optional per-observation weights (typically the batch's
            query count, so every query contributes the latency of the
            dispatch that served it — the quantity a per-query latency SLO
            is about).  ``None`` weights every observation equally; weights
            of zero drop their observation.  Negative weights are a caller
            bug and raise ``ValueError`` — silently clipping them would
            report percentiles over a different population than asked for.

    Returns:
        ``{"p50": ..., "p95": ..., "p99": ...}`` in milliseconds; all zeros
        when ``latencies_ms`` is empty, so reports of empty workload scopes
        stay well-formed.
    """
    latencies = np.asarray(list(latencies_ms), dtype=float)
    if latencies.size == 0:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    if weights is not None:
        counts = np.asarray(list(weights), dtype=int)
        if counts.shape != latencies.shape:
            raise ValueError("weights and latencies_ms must have equal length")
        if np.any(counts < 0):
            raise ValueError(f"weights must be non-negative, got "
                             f"{counts[counts < 0].tolist()}")
        latencies = np.repeat(latencies, counts)
        if latencies.size == 0:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {f"p{int(q * 100)}": float(np.quantile(latencies, q))
            for q in (0.50, 0.95, 0.99)}


def summarise(reports: list[EngineReport], cached: int = 0) -> dict:
    """The block every report level shares, folded from its engine reports.

    Sums :data:`_SUMMED` over the reports' stats, derives throughput and the
    dedup ratio, and takes the p50/p95/p99 of every batched query's
    dispatch latency (``latency_ms``, query-weighted: each query contributes
    the latency of the micro-batch that served it), queueing delay
    (``queue_wait_ms``) and end-to-end latency (``e2e_ms``: its own wait
    plus its batch's dispatch).  ``cached`` result-cache hits count as
    queries but add no time and no latency sample — they never touch an
    engine.
    """
    block = {key: sum(getattr(report.stats, key) for report in reports)
             for key in _SUMMED}
    block["num_queries"] += cached
    block["elapsed_s"] = float(block["elapsed_s"])
    block["queries_per_second"] = (block["num_queries"] / block["elapsed_s"]
                                   if block["elapsed_s"] > 0 else 0.0)
    block["dedup_ratio"] = (block["rows_submitted"] / block["unique_rows"]
                            if block["unique_rows"] else 1.0)
    batches = [record for report in reports for record in report.batches]
    block["latency_ms"] = latency_percentiles(
        [record.latency_ms for record in batches],
        weights=[record.num_queries for record in batches])
    block["queue_wait_ms"] = latency_percentiles(
        [wait for record in batches for wait in record.queue_wait_ms])
    block["e2e_ms"] = latency_percentiles(
        [wait + record.latency_ms for record in batches
         for wait in record.queue_wait_ms])
    return block


class Rates:
    """The two ratios every stats class derives from its summed counters.

    A mixin for dataclasses with ``num_queries``, ``elapsed_s``,
    ``rows_submitted`` and ``unique_rows`` fields
    (:class:`~repro.serve.engine.EngineStats`, :class:`FleetStats`).
    """

    @property
    def queries_per_second(self) -> float:
        """Model-dispatch throughput: queries over summed batch time (0 idle).

        ``elapsed_s`` covers engine dispatches only — result-cache hits are
        effectively free, so a fleet scope served entirely from the result
        cache reports 0.0 here.  For end-to-end throughput of cache-heavy
        runs, wall-clock the serving call.
        """
        return self.num_queries / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def dedup_ratio(self) -> float:
        """Row shrink factor of prefix deduplication (1.0 when idle)."""
        return self.rows_submitted / self.unique_rows if self.unique_rows else 1.0


@dataclass(frozen=True)
class RoutedResult:
    """Per-query output of the fleet: an estimate plus the route that served it.

    ``replica`` is the index of the engine replica inside the route's group;
    ``-1`` (with ``batch_index=-1``) marks a result served straight from the
    fleet-wide result cache without touching any engine.  ``queue_wait_ms``
    and ``e2e_ms`` carry the engine's end-to-end accounting (zero for
    cache-served results, which never queue).  ``estimator`` names what
    actually answered: the serving estimator (primary or fallback of the
    route's ensemble), ``"cache"`` for result-cache hits, or ``""`` on
    reports that predate estimator accounting.  ``route`` is always the pure
    relation name, whichever ensemble member served.
    """

    index: int
    route: str
    query: Query
    selectivity: float
    cardinality: float
    batch_index: int
    replica: int = 0
    queue_wait_ms: float = 0.0
    e2e_ms: float = 0.0
    estimator: str = ""

    @classmethod
    def of(cls, result: EstimateResult, *, route: str, replica: int,
           estimator: str) -> RoutedResult:
        """One engine's :class:`~repro.serve.engine.EstimateResult`, routed."""
        return cls(route=route, replica=replica, estimator=estimator,
                   **plain_dict(result))

    @property
    def from_result_cache(self) -> bool:
        """Whether this answer came from the result cache, not a model."""
        return self.replica < 0


@dataclass
class FleetStats(Rates):
    """Fleet-wide throughput statistics with per-route/per-replica breakdown."""

    num_queries: int = 0
    num_models: int = 0
    elapsed_s: float = 0.0
    cache_entries_total: int = 0
    cache_entries_per_model: int = 0
    #: Queries refused under the ``shed`` overflow policy, fleet-wide.
    shed: int = 0
    #: ``ResultCacheStats.as_dict()`` of the fleet result cache (``None`` off).
    #: Like the conditional-cache counters, these are lifetime-of-the-cache
    #: numbers — caches survive workload scopes, so their hit/miss tallies
    #: accumulate across ``run()`` calls.  Per-scope cache-served counts live
    #: in :attr:`FleetReport.result_cache_hits` and the per-route
    #: ``result_cache_hits`` entries.
    result_cache: dict | None = None
    #: Fleet-wide p50/p95/p99 dispatch latency (ms), query-weighted: every
    #: query contributes the latency of the micro-batch that served it.
    #: Cache-served queries never touch an engine and are excluded.
    latency_ms: dict | None = None
    #: Fleet-wide p50/p95/p99 queueing delay (ms): per-query time between
    #: submission and the dispatch start of the query's micro-batch.  Same
    #: exclusion as ``latency_ms``: cache-served queries never queue.
    queue_wait_ms: dict | None = None
    #: Fleet-wide p50/p95/p99 end-to-end latency (ms): per-query time from
    #: submission to dispatch completion — ``queue_wait + dispatch``, the
    #: latency a caller actually observes and the quantity an end-to-end SLO
    #: is stated against.
    e2e_ms: dict | None = None
    #: Micro-batches this scope dispatched by a flush deadline
    #: (``flush_after_ms``) rather than by filling up, fleet-wide.
    timeout_flushes: int = 0
    #: Fleet-wide row accounting of the fused hot path (summed over routes):
    #: sample-path rows that needed a conditional, rows left after prefix
    #: deduplication, rows actually pushed through a network, and sampler
    #: ``conditional_probs`` calls.
    rows_submitted: int = 0
    unique_rows: int = 0
    rows_evaluated: int = 0
    forward_calls: int = 0
    #: Per-worker serving tallies when the report came from a
    #: :class:`repro.serve.procfleet.ProcessFleet` (``None`` on in-process
    #: routers): worker id -> pid, log path, hosted engines, query/batch
    #: counts, summed dispatch latency and busy-CPU time.
    workers: dict[str, dict] | None = None
    #: Route name -> ``{"data_epoch", "model_epoch", "staleness"}`` of every
    #: registered relation at report time (``None`` on reports that predate
    #: epoch accounting, e.g. the sequential baseline).  ``staleness`` counts
    #: the ingests the serving model is behind the data — non-zero while the
    #: fleet deliberately serves stale estimates awaiting a refresh.
    epochs: dict[str, dict] | None = None
    #: Estimator name -> aggregated serving stats across every unit that
    #: estimator served: query count, summed dispatch time, QPS, the serving
    #: ``units`` and per-estimator ``latency_ms``/``e2e_ms`` percentiles.
    #: The per-estimator accuracy companion lives on the report
    #: (:meth:`FleetReport.accuracy_by_estimator`) because accuracy needs
    #: ground truths the router never sees.
    estimators: dict[str, dict] | None = None
    #: Serving-unit name -> aggregated group stats: the union of the
    #: engine-stats keys (query/batch counts, QPS, the group cache's
    #: counters) plus ``relation`` and ``estimator`` identification,
    #: ``num_replicas``, ``shed``, ``result_cache_hits``, per-route
    #: ``latency_ms``/``queue_wait_ms``/``e2e_ms`` percentiles, the group's
    #: ``timeout_flushes`` count, the adaptive controller's ``batch_trace``
    #: (``None`` for a route with no SLO) and a ``replicas`` list holding each
    #: replica engine's own ``EngineStats.as_dict()``.  A unit is a relation
    #: name for the primary replica group and ``"<relation>@fallback"`` for
    #: the relation's fallback estimator.
    #: Cache counters live at route level only — replicas share one group
    #: cache, so the per-replica dicts carry ``cache=None``.
    routes: dict[str, dict] = field(default_factory=dict)

    @property
    def max_staleness(self) -> int:
        """The worst per-relation staleness in :attr:`epochs` (0 when fresh/unknown)."""
        if not self.epochs:
            return 0
        return max(entry["staleness"] for entry in self.epochs.values())

    def as_dict(self) -> dict:
        """Plain-dict form of the stats, ready for JSON serialisation."""
        return plain_dict(self, "queries_per_second", "dedup_ratio",
                          "max_staleness")


@dataclass
class FleetReport:
    """Merged per-replica reports of one served mixed workload."""

    #: All results in global submission order (model-served and cache-served).
    results: list[RoutedResult] = field(default_factory=list)
    #: Route name -> the full per-replica :class:`EngineReport` list.
    routes: dict[str, list[EngineReport]] = field(default_factory=dict)
    stats: FleetStats = field(default_factory=FleetStats)
    #: Lazy index -> result map backing :meth:`route_of` and
    #: :meth:`estimator_of` (results are frozen after construction, so it is
    #: built once on first use).
    _by_index: dict[int, RoutedResult] | None = field(default=None, repr=False,
                                                      compare=False)

    @property
    def selectivities(self) -> np.ndarray:
        """Per-query selectivity estimates, in global submission order."""
        return np.asarray([result.selectivity for result in self.results])

    @property
    def cardinalities(self) -> np.ndarray:
        """Per-query cardinality estimates, in global submission order."""
        return np.asarray([result.cardinality for result in self.results])

    def _result_of(self, index: int) -> RoutedResult:
        """The result carrying one global index (``KeyError`` when absent).

        Looked up by the result's ``index`` field, not list position: under
        :func:`repro.serve.stream.stream_workload` a shed query leaves its
        position-keyed index unused, so indices need not be dense.
        """
        if self._by_index is None:
            self._by_index = {result.index: result for result in self.results}
        try:
            return self._by_index[index]
        except KeyError:
            raise KeyError(f"no result with global index {index} in this "
                           "report") from None

    def route_of(self, index: int) -> str:
        """The relation that served the query with one global index."""
        return self._result_of(index).route

    def estimator_of(self, index: int) -> str:
        """The estimator that served the query with one global index.

        The primary or fallback estimator's name, ``"cache"`` for
        result-cache hits, ``""`` on reports without estimator accounting.
        """
        return self._result_of(index).estimator

    def accuracy_by_estimator(self, true_cardinalities) -> dict[str, dict]:
        """Per-estimator accuracy columns against known true cardinalities.

        Args:
            true_cardinalities: True cardinality per query, indexed by the
                query's *global* index (a sequence or a mapping — anything
                supporting ``true_cardinalities[result.index]``).

        Returns:
            Estimator name -> ``{"num_queries", "median_qerror",
            "p95_qerror", "max_qerror"}``, grouping every served query under
            the estimator that answered it (result-cache hits under
            ``"cache"``).  The accuracy half of the ensemble report; the
            latency half lives in :attr:`FleetStats.estimators`.
        """
        errors_by_estimator: dict[str, list[float]] = {}
        for result in self.results:
            truth = float(true_cardinalities[result.index])
            errors_by_estimator.setdefault(result.estimator, []).append(
                q_error(result.cardinality, truth))
        return {
            name: {
                "num_queries": len(errors),
                "median_qerror": float(np.median(errors)),
                "p95_qerror": float(np.quantile(errors, 0.95)),
                "max_qerror": float(np.max(errors)),
            }
            for name, errors in sorted(errors_by_estimator.items())
        }

    @property
    def result_cache_hits(self) -> int:
        """Queries in this report answered by the fleet result cache."""
        return sum(result.from_result_cache for result in self.results)

    def to_dict(self) -> dict:
        """JSON-ready form of the whole report: stats plus per-query results.

        ``stats`` is :meth:`FleetStats.as_dict` (which already carries the
        per-route breakdown, the row-accounting counters and the dedup
        ratio); ``results`` holds one entry per served query in global
        submission order.  The CLI's fleet modes dump exactly this.
        """
        return {
            "stats": self.stats.as_dict(),
            "result_cache_hits": self.result_cache_hits,
            "results": [{**plain_dict(result), "query": str(result.query)}
                        for result in self.results],
        }


def merge_reports(units: dict[str, dict], *,
                  cached: Sequence[RoutedResult] = (), **fleet) -> FleetReport:
    """Fold per-replica reports into one fleet report in global index order.

    ``units`` is keyed by *serving unit*: the relation name for its primary
    replica group, ``"<relation>@fallback"`` for its fallback estimator.
    Each unit maps to ``{"relation", "estimator", "reports"}`` (its
    per-replica :class:`~repro.serve.engine.EngineReport` list), plus the
    group's ``"shed"`` count and its controller's ``"batch_trace"`` when it
    has them.  ``cached`` holds the scope's result-cache hits; ``fleet``
    fills the :class:`FleetStats` fields only the router knows (model count,
    cache budget, result-cache counters, epochs).
    """
    merged = [RoutedResult.of(result, route=unit["relation"], replica=replica,
                              estimator=unit["estimator"])
              for unit in units.values()
              for replica, report in enumerate(unit["reports"])
              for result in report.results]
    merged.extend(cached)
    merged.sort(key=lambda result: result.index)
    cached_by_route = Counter(result.route for result in cached)
    routes: dict[str, dict] = {}
    by_estimator: dict[str, tuple[list[str], list[EngineReport]]] = {}
    for name, unit in units.items():
        replica_stats = [report.stats for report in unit["reports"]]
        routes[name] = {
            "relation": unit["relation"],
            "estimator": unit["estimator"],
            **summarise(unit["reports"]),
            "num_samples": replica_stats[0].num_samples,
            "batch_size": replica_stats[0].batch_size,
            # Replicas share one group-wide conditional cache, so every
            # replica holds the same counters: they exist at route level
            # only, and nulling the per-replica copies stops consumers from
            # summing the same counters N times.
            "cache": next((stats.cache for stats in replica_stats
                           if stats.cache is not None), None),
            "num_replicas": len(replica_stats),
            "replicas": [{**stats.as_dict(), "cache": None}
                         for stats in replica_stats],
            "shed": unit.get("shed", 0),
            "result_cache_hits": cached_by_route[name],
            "batch_trace": unit.get("batch_trace"),
        }
        # Per-estimator latency columns: fold every unit one estimator
        # served (a fallback may back several relations) into one row.
        unit_names, reports = by_estimator.setdefault(unit["estimator"],
                                                      ([], []))
        unit_names.append(name)
        reports.extend(unit["reports"])
    if cached:
        by_estimator.setdefault("cache", ([], []))
    estimators = {}
    for estimator, (unit_names, reports) in sorted(by_estimator.items()):
        block = summarise(reports,
                          cached=len(cached) if estimator == "cache" else 0)
        estimators[estimator] = {"units": sorted(unit_names),
                                 **{key: block[key] for key in _ESTIMATOR_KEYS}}
    block = summarise([report for unit in units.values()
                       for report in unit["reports"]], cached=len(cached))
    stats = FleetStats(
        **{spec.name: block[spec.name] for spec in fields(FleetStats)
           if spec.name in block},
        shed=sum(route["shed"] for route in routes.values()),
        estimators=estimators, routes=routes, **fleet)
    return FleetReport(results=merged, routes={
        name: unit["reports"] for name, unit in units.items()}, stats=stats)
