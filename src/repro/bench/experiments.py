"""One reproduction function per table and figure of the paper's evaluation.

Every function is self-contained: it generates the (synthetic) dataset,
builds and trains the relevant estimators, runs the workload, and returns a
dictionary holding the structured results plus their renderings, split by
what determines them: ``text`` (and, for the ``serve_*`` experiments, the
JSON-able ``report``) holds only what the seed determines — estimates,
q-errors, drift, routing and cache counts — and comes back byte-identical on
every run, while ``timing_text``/``timing`` hold whatever a clock was read
for.  An experiment with nothing on one side omits that side's keys.  The
functions are what the ``benchmarks/`` suite and the ``python -m repro.bench``
command line call.

Experiment ↔ paper mapping:

========================  =====================================================
``figure4_*``             Figure 4 — query selectivity distribution
``table3_*``              Table 3  — accuracy on DMV, all estimator families
``table4_*``              Table 4  — accuracy on Conviva-A
``table5_*``              Table 5  — robustness to out-of-distribution queries
``figure5_*``             Figure 5 — training time vs model quality
``figure6_*``             Figure 6 — estimation latency
``table6_*``              Table 6  — query-region size vs enumeration latency
``table7_*``              Table 7  — model size vs entropy gap
``figure7_*``             Figure 7 — robustness to model entropy gap (oracle)
``figure8_*``             Figure 8 — robustness to column count (oracle)
``table8_*``              Table 8  — robustness to data shifts
========================  =====================================================
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from ..core import (
    MADEModel,
    NaruConfig,
    NaruEstimator,
    NoisyOracleModel,
    OracleModel,
    ProgressiveSampler,
    Trainer,
)
from ..data import (
    JoinSpec,
    Table,
    make_census,
    make_conviva_a,
    make_conviva_b,
    make_dmv,
    make_sessions,
    make_users,
    partition_by_column,
)
from ..data.shift import PartitionedIngest, encode_with_dictionaries
from ..estimators import (
    CardinalityEstimator,
    ChowLiuEstimator,
    DBMS1Estimator,
    IndependenceEstimator,
    KDEEstimator,
    KDESupervEstimator,
    MSCNEstimator,
    MultiDimHistogramEstimator,
    PostgresEstimator,
    SamplingEstimator,
)
from ..query import (
    LabeledQuery,
    OODWorkloadGenerator,
    Query,
    WorkloadGenerator,
    q_error,
    summarize_errors,
    true_selectivities,
    true_selectivity,
)
from ..query.predicates import DNFQuery
from ..query.shapes import query_shape
from ..serve import (
    ArrivalTrace,
    CacheWipe,
    EstimationEngine,
    FleetRouter,
    ModelRegistry,
    ProcessFleet,
    RefreshController,
    SlowReplica,
    VirtualClock,
    assert_degraded_not_collapsed,
    canonical_query_key,
    generate_bursty_workload,
    generate_mixed_workload,
    generate_shape_workload,
    locate_knee,
    run_fleet_sequential,
    run_kill_worker_drill,
    run_open_loop,
    run_sequential,
    stream_workload,
    sweep_offered_load,
)
from .harness import accuracy_by_bucket, compare_estimators
from .reports import (
    format_accuracy_table,
    format_latency_table,
    format_series,
    format_summary_table,
)
from .scales import ExperimentScale, active_scale

__all__ = [
    "NaruSampleVariant",
    "figure4_selectivity_distribution",
    "table3_dmv_accuracy",
    "table4_conviva_accuracy",
    "table5_ood_robustness",
    "figure5_training_quality",
    "figure6_estimation_latency",
    "table6_query_region",
    "table7_model_size",
    "figure7_entropy_gap",
    "figure8_column_scaling",
    "table8_data_shift",
    "serve_throughput",
    "serve_multi",
    "serve_replicated",
    "serve_stream",
    "serve_procfleet",
    "serve_refresh",
    "serve_loadgen",
    "serve_ensemble",
]


def _timed(function, *args, **kwargs):
    """Wall-clock one call; returns ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


class NaruSampleVariant(CardinalityEstimator):
    """A view of a trained Naru model queried with a fixed sample budget.

    The paper's ``Naru-1000`` / ``Naru-2000`` / ``Naru-4000`` rows all use the
    *same* trained model and only vary the number of progressive-sampling
    paths; this wrapper reproduces that without retraining.
    """

    def __init__(self, base: NaruEstimator, num_samples: int) -> None:
        super().__init__(base.table)
        self.base = base
        self.num_samples = num_samples
        self.name = f"Naru-{num_samples}"

    def estimate_selectivity(self, query: Query) -> float:
        return self.base.estimate_selectivity(query, num_samples=self.num_samples,
                                              method="progressive")

    def size_bytes(self) -> int:
        return self.base.size_bytes()


# --------------------------------------------------------------------------- #
# Shared builders
# --------------------------------------------------------------------------- #
def _train_naru(table: Table, scale: ExperimentScale, seed: int = 0) -> NaruEstimator:
    config = NaruConfig(hidden_sizes=scale.naru_hidden, epochs=scale.naru_epochs,
                        batch_size=scale.naru_batch_size,
                        progressive_samples=scale.naru_samples[-1], seed=seed)
    estimator = NaruEstimator(table, config)
    estimator.fit()
    return estimator


def _workload(table: Table, count: int, seed: int = 100,
              ood: bool = False) -> list[LabeledQuery]:
    generator_cls = OODWorkloadGenerator if ood else WorkloadGenerator
    generator = generator_cls(table, min_filters=5, max_filters=min(11, table.num_columns),
                              seed=seed)
    return generator.generate_labeled(count)


def _supervised_baselines(table: Table, scale: ExperimentScale,
                          training_workload: list[LabeledQuery]
                          ) -> list[CardinalityEstimator]:
    """KDE-superv and MSCN-base: the two baselines a training workload tunes."""
    kde_superv = KDESupervEstimator(table, sample_size=scale.kde_sample, seed=2)
    feedback = [(item.query, item.cardinality)
                for item in training_workload[:scale.kde_feedback_queries]]
    kde_superv.fit_feedback(feedback, passes=1)
    mscn = MSCNEstimator(table, sample_size=1000, seed=3, name="MSCN-base")
    mscn.fit(training_workload, epochs=scale.mscn_epochs)
    return [kde_superv, mscn]


def _build_dmv_estimator_suite(table: Table, scale: ExperimentScale,
                               training_workload: list[LabeledQuery],
                               naru: NaruEstimator) -> list[CardinalityEstimator]:
    """All estimator families of Table 2, built under comparable budgets."""
    budget = naru.size_bytes()
    estimators: list[CardinalityEstimator] = [
        MultiDimHistogramEstimator(table, storage_budget_bytes=max(budget, 64_000)),
        IndependenceEstimator(table),
        PostgresEstimator(table),
        DBMS1Estimator(table),
        ChowLiuEstimator(table),
        SamplingEstimator(table, fraction=scale.sample_fraction, seed=1),
        KDEEstimator(table, sample_size=scale.kde_sample, seed=2),
        *_supervised_baselines(table, scale, training_workload),
    ]

    mscn_zero = MSCNEstimator(table, sample_size=0, seed=3, name="MSCN-0")
    mscn_zero.fit(training_workload, epochs=scale.mscn_epochs)
    estimators.append(mscn_zero)

    estimators.extend(NaruSampleVariant(naru, samples) for samples in scale.naru_samples)
    return estimators


# --------------------------------------------------------------------------- #
# Figure 4 — query selectivity distribution
# --------------------------------------------------------------------------- #
def figure4_selectivity_distribution(scale: ExperimentScale | None = None) -> dict:
    """Reproduce Figure 4: the CDF of true selectivities of the workload."""
    scale = scale or active_scale()
    results = {}
    rows = []
    for name, table in (("DMV", make_dmv(scale.dmv_rows)),
                        ("Conviva-A", make_conviva_a(scale.conviva_a_rows))):
        workload = _workload(table, scale.num_queries, seed=100)
        selectivities = np.array([item.selectivity for item in workload])
        quantiles = {f"p{int(q * 100)}": float(np.quantile(selectivities, q))
                     for q in (0.1, 0.25, 0.5, 0.75, 0.9)}
        buckets = {
            "high": float((selectivities > 0.02).mean()),
            "medium": float(((selectivities > 0.005) & (selectivities <= 0.02)).mean()),
            "low": float((selectivities <= 0.005).mean()),
        }
        results[name] = {"quantiles": quantiles, "bucket_fractions": buckets}
        rows.append({"dataset": name, **quantiles, **{f"frac_{k}": v for k, v in buckets.items()}})
    text = format_series(rows, list(rows[0].keys()),
                         "Figure 4: distribution of query selectivities")
    return {"results": results, "text": text}


# --------------------------------------------------------------------------- #
# Tables 3 and 4 — headline accuracy comparisons
# --------------------------------------------------------------------------- #
def table3_dmv_accuracy(scale: ExperimentScale | None = None) -> dict:
    """Reproduce Table 3: q-error quantiles of every estimator family on DMV."""
    scale = scale or active_scale()
    table = make_dmv(scale.dmv_rows)
    naru = _train_naru(table, scale, seed=0)
    training_workload = _workload(table, scale.mscn_training_queries, seed=7)
    test_workload = _workload(table, scale.num_queries, seed=100)

    estimators = _build_dmv_estimator_suite(table, scale, training_workload, naru)
    runs = compare_estimators(estimators, test_workload)
    buckets = accuracy_by_bucket(runs)
    text = format_accuracy_table(buckets, "Table 3: estimation errors on DMV (synthetic)")
    return {"runs": runs, "buckets": buckets, "text": text, "naru": naru, "table": table}


def table4_conviva_accuracy(scale: ExperimentScale | None = None) -> dict:
    """Reproduce Table 4: accuracy on Conviva-A for the promising baselines."""
    scale = scale or active_scale()
    table = make_conviva_a(scale.conviva_a_rows)
    naru = _train_naru(table, scale, seed=1)
    training_workload = _workload(table, scale.mscn_training_queries, seed=8)
    test_workload = _workload(table, scale.num_queries, seed=200)

    estimators: list[CardinalityEstimator] = [
        DBMS1Estimator(table),
        SamplingEstimator(table, fraction=scale.sample_fraction, seed=1),
        KDEEstimator(table, sample_size=scale.kde_sample, seed=2),
        *_supervised_baselines(table, scale, training_workload),
    ]
    estimators.extend(NaruSampleVariant(naru, samples) for samples in scale.naru_samples)

    runs = compare_estimators(estimators, test_workload)
    buckets = accuracy_by_bucket(runs)
    text = format_accuracy_table(buckets, "Table 4: estimation errors on Conviva-A (synthetic)")
    return {"runs": runs, "buckets": buckets, "text": text, "naru": naru, "table": table}


# --------------------------------------------------------------------------- #
# Table 5 — out-of-distribution robustness
# --------------------------------------------------------------------------- #
def table5_ood_robustness(scale: ExperimentScale | None = None) -> dict:
    """Reproduce Table 5: literals drawn from the full domain (mostly empty)."""
    scale = scale or active_scale()
    table = make_dmv(scale.dmv_rows)
    naru = _train_naru(table, scale, seed=0)
    training_workload = _workload(table, scale.mscn_training_queries, seed=7)
    ood_workload = _workload(table, scale.ood_queries, seed=300, ood=True)

    kde_superv, mscn = _supervised_baselines(table, scale, training_workload)
    estimators: list[CardinalityEstimator] = [
        mscn,
        kde_superv,
        SamplingEstimator(table, fraction=scale.sample_fraction, seed=1),
        NaruSampleVariant(naru, scale.naru_samples[-1]),
    ]
    runs = compare_estimators(estimators, ood_workload)
    summaries = {name: run.overall_summary() for name, run in runs.items()}
    zero_fraction = float(np.mean([item.cardinality == 0 for item in ood_workload]))
    text = format_summary_table(
        summaries,
        f"Table 5: robustness to OOD queries ({zero_fraction:.0%} have zero cardinality)")
    return {"runs": runs, "summaries": summaries, "zero_fraction": zero_fraction, "text": text}


# --------------------------------------------------------------------------- #
# Figure 5 — training time vs quality
# --------------------------------------------------------------------------- #
def figure5_training_quality(scale: ExperimentScale | None = None) -> dict:
    """Reproduce Figure 5: entropy gap and max q-error per training epoch."""
    scale = scale or active_scale()
    results = {}
    rows = []
    for name, table, seed in (("DMV", make_dmv(scale.dmv_rows), 0),
                              ("Conviva-A", make_conviva_a(scale.conviva_a_rows), 1)):
        workload = _workload(table, scale.training_curve_queries, seed=400 + seed)
        config = NaruConfig(hidden_sizes=scale.naru_hidden, epochs=0,
                            batch_size=scale.naru_batch_size,
                            progressive_samples=scale.naru_samples[-1], seed=seed)
        estimator = NaruEstimator(table, config)
        per_epoch = []
        for epoch in range(1, scale.training_curve_epochs + 1):
            _, epoch_seconds = _timed(estimator.fit, epochs=1)
            gap = estimator.entropy_gap_bits(sample_rows=2048)
            errors = [q_error(estimator.estimate_cardinality(item.query), item.cardinality)
                      for item in workload]
            per_epoch.append({
                "dataset": name, "epoch": epoch, "epoch_seconds": epoch_seconds,
                "entropy_gap_bits": gap, "max_error": float(max(errors)),
                "median_error": float(np.median(errors)),
            })
            rows.append(per_epoch[-1])
        results[name] = per_epoch
    text = format_series(rows, ["dataset", "epoch", "entropy_gap_bits",
                                "median_error", "max_error"],
                         "Figure 5: model quality per training epoch")
    timing_text = format_series(rows, ["dataset", "epoch", "epoch_seconds"],
                                "Figure 5: training time per epoch")
    return {"results": results, "text": text, "timing_text": timing_text}


# --------------------------------------------------------------------------- #
# Figure 6 and Table 6 — latency
# --------------------------------------------------------------------------- #
def figure6_estimation_latency(scale: ExperimentScale | None = None) -> dict:
    """Reproduce Figure 6: per-query estimation latency of each estimator."""
    scale = scale or active_scale()
    table = make_dmv(scale.dmv_rows)
    naru = _train_naru(table, scale, seed=0)
    training_workload = _workload(table, min(scale.mscn_training_queries, 200), seed=7)
    workload = _workload(table, scale.latency_queries, seed=500)

    mscn = MSCNEstimator(table, sample_size=1000, seed=3, name="MSCN-base")
    mscn.fit(training_workload, epochs=max(scale.mscn_epochs // 2, 3))
    estimators: list[CardinalityEstimator] = [
        PostgresEstimator(table),
        DBMS1Estimator(table),
        SamplingEstimator(table, fraction=scale.sample_fraction, seed=1),
        KDEEstimator(table, sample_size=scale.kde_sample, seed=2),
        mscn,
    ]
    estimators.extend(NaruSampleVariant(naru, samples) for samples in scale.naru_samples)

    runs = compare_estimators(estimators, workload)
    latencies = {name: run.latency_quantiles() for name, run in runs.items()}
    timing_text = format_latency_table(latencies,
                                       "Figure 6: estimation latency (ms, CPU)")
    return {"latencies": latencies, "runs": runs, "timing_text": timing_text,
            "naru": naru, "table": table, "workload": workload}


def table6_query_region(scale: ExperimentScale | None = None) -> dict:
    """Reproduce Table 6: query-region sizes vs enumeration vs Naru latency."""
    scale = scale or active_scale()
    rows = []
    results = {}
    for name, table, seed in (("DMV", make_dmv(scale.dmv_rows), 0),
                              ("Conviva-A", make_conviva_a(scale.conviva_a_rows), 1)):
        workload = _workload(table, scale.num_queries, seed=600 + seed)
        region_sizes = np.array([item.query.region_size(table) for item in workload])
        region_p99 = float(np.quantile(region_sizes, 0.99))

        # Throughput of exact enumeration: points/second through the model.
        model = MADEModel(table, hidden_sizes=scale.naru_hidden, seed=seed)
        probe = table.sample_rows(2048, np.random.default_rng(0))
        _, probe_seconds = _timed(model.log_prob, probe)
        enumeration_hours = region_p99 * probe_seconds / probe.shape[0] / 3600.0

        # Measured progressive-sampling latency on the same model.
        sampler = ProgressiveSampler(model, seed=0)
        hard_query = workload[int(np.argmax(region_sizes))].query
        _, naru_seconds = _timed(sampler.estimate_selectivity,
                                 hard_query.column_masks(table),
                                 num_samples=scale.naru_samples[-1])
        naru_ms = naru_seconds * 1000.0

        results[name] = {"region_size_p99": region_p99,
                         "enumeration_hours_estimated": enumeration_hours,
                         "naru_latency_ms": naru_ms}
        rows.append({"dataset": name, "region_p99": region_p99,
                     "enum_hours_est": enumeration_hours, "naru_ms": naru_ms})
    text = format_series(rows, ["dataset", "region_p99"],
                         "Table 6: query region size (99th percentile)")
    timing_text = format_series(
        rows, ["dataset", "enum_hours_est", "naru_ms"],
        "Table 6: estimated enumeration vs measured progressive sampling")
    return {"results": results, "text": text, "timing_text": timing_text}


# --------------------------------------------------------------------------- #
# Table 7 — model size vs entropy gap
# --------------------------------------------------------------------------- #
def table7_model_size(scale: ExperimentScale | None = None,
                      widths: tuple[int, ...] = (32, 64, 128, 256),
                      epochs: int | None = None) -> dict:
    """Reproduce Table 7: larger hidden layers yield lower entropy gaps."""
    scale = scale or active_scale()
    epochs = epochs if epochs is not None else max(scale.naru_epochs // 2, 2)
    table = make_conviva_a(scale.conviva_a_rows)
    rows = []
    results = {}
    for width in widths:
        hidden = (width,) * 4
        model = MADEModel(table, hidden_sizes=hidden, seed=0)
        trainer = Trainer(model, table, batch_size=scale.naru_batch_size,
                          learning_rate=5e-3)
        trainer.train(epochs=epochs)
        gap = trainer.entropy_gap_bits(sample_rows=2048)
        size_mb = model.size_bytes() / 1e6
        results[width] = {"size_mb": size_mb, "entropy_gap_bits": gap}
        rows.append({"architecture": "x".join([str(width)] * 4),
                     "size_mb": size_mb, "entropy_gap_bits": gap})
    text = format_series(rows, ["architecture", "size_mb", "entropy_gap_bits"],
                         f"Table 7: model size vs entropy gap ({epochs} epochs, Conviva-A)")
    return {"results": results, "text": text}


# --------------------------------------------------------------------------- #
# Figures 7 and 8 — oracle-model micro-benchmarks
# --------------------------------------------------------------------------- #
def figure7_entropy_gap(scale: ExperimentScale | None = None,
                        noise_levels: tuple[float, ...] = (0.0, 0.05, 0.2, 0.5, 0.9),
                        sample_counts: tuple[int, ...] = (50, 250, 1000)) -> dict:
    """Reproduce Figure 7: accuracy vs artificial entropy gap of an oracle model."""
    scale = scale or active_scale()
    table = make_conviva_b(scale.conviva_b_rows, num_columns=100).project(
        [f"col_{i:03d}" for i in range(15)], name="conviva_b_15")
    workload = _workload(table, scale.oracle_queries, seed=700)

    baselines = {
        "Indep": IndependenceEstimator(table),
        "Sample(1%)": SamplingEstimator(table, fraction=0.01, seed=0),
    }
    baseline_errors = {
        name: float(max(q_error(est.estimate_cardinality(item.query), item.cardinality)
                        for item in workload))
        for name, est in baselines.items()
    }

    rows = []
    results = {"baselines": baseline_errors, "sweep": []}
    for noise in noise_levels:
        model = NoisyOracleModel(table, noise=noise)
        gap = model.entropy_gap_bits(sample_rows=min(scale.conviva_b_rows, 1000))
        entry = {"noise": noise, "entropy_gap_bits": gap}
        for samples in sample_counts:
            sampler = ProgressiveSampler(model, seed=0)
            errors = []
            for item in workload:
                estimate = sampler.estimate_selectivity(item.query.column_masks(table),
                                                        num_samples=samples)
                errors.append(q_error(estimate * table.num_rows, item.cardinality))
            entry[f"max_error_naru_{samples}"] = float(max(errors))
        results["sweep"].append(entry)
        rows.append(entry)
    columns = ["noise", "entropy_gap_bits"] + [f"max_error_naru_{s}" for s in sample_counts]
    text = format_series(rows, columns,
                         "Figure 7: accuracy vs model entropy gap (oracle, 15 columns)")
    text += ("\nBaselines (max error): "
             + ", ".join(f"{k}={v:.1f}" for k, v in baseline_errors.items()))
    return {**results, "text": text}


def figure8_column_scaling(scale: ExperimentScale | None = None,
                           column_counts: tuple[int, ...] = (5, 15, 30, 50, 75, 100),
                           sample_counts: tuple[int, ...] = (100, 1000, 10_000)) -> dict:
    """Reproduce Figure 8: progressive sampling as the column count grows."""
    scale = scale or active_scale()
    full = make_conviva_b(scale.conviva_b_rows, num_columns=max(column_counts))
    rows = []
    results = []
    for num_columns in column_counts:
        table = full.project([f"col_{i:03d}" for i in range(num_columns)],
                             name=f"conviva_b_{num_columns}")
        generator = WorkloadGenerator(table, min_filters=min(5, num_columns),
                                      max_filters=min(12, num_columns), seed=800)
        workload = generator.generate_labeled(scale.oracle_queries)
        oracle = OracleModel(table)
        baselines = {
            "Indep": IndependenceEstimator(table),
            "Sample(1%)": SamplingEstimator(table, fraction=0.01, seed=0),
        }
        entry = {"columns": num_columns,
                 "log10_joint": table.log_joint_size()}
        for samples in sample_counts:
            sampler = ProgressiveSampler(oracle, seed=0)
            errors = [q_error(sampler.estimate_selectivity(
                item.query.column_masks(table), num_samples=samples) * table.num_rows,
                item.cardinality) for item in workload]
            entry[f"max_error_naru_{samples}"] = float(max(errors))
        for name, estimator in baselines.items():
            errors = [q_error(estimator.estimate_cardinality(item.query), item.cardinality)
                      for item in workload]
            entry[f"max_error_{name}"] = float(max(errors))
        results.append(entry)
        rows.append(entry)
    columns = (["columns", "log10_joint"]
               + [f"max_error_naru_{s}" for s in sample_counts]
               + ["max_error_Indep", "max_error_Sample(1%)"])
    text = format_series(rows, columns,
                         "Figure 8: accuracy vs number of columns (oracle model)")
    return {"results": results, "text": text}


# --------------------------------------------------------------------------- #
# Table 8 — data shifts
# --------------------------------------------------------------------------- #
def table8_data_shift(scale: ExperimentScale | None = None) -> dict:
    """Reproduce Table 8: stale vs refreshed Naru under partition-by-partition ingest."""
    scale = scale or active_scale()
    table = make_dmv(scale.dmv_rows)
    partitions = partition_by_column(table, "valid_date", scale.shift_partitions)

    # Both estimators are built against the *full-table* dictionaries (the
    # paper's "domain from user annotation" route), then trained on partition 1.
    config = NaruConfig(hidden_sizes=scale.naru_hidden, epochs=0,
                        batch_size=scale.naru_batch_size,
                        progressive_samples=scale.naru_samples[-1], seed=0)
    stale = NaruEstimator(table, config)
    refreshed = NaruEstimator(table, config.with_overrides(seed=0))

    first = encode_with_dictionaries(table, partitions[0])
    stale.refresh(first, epochs=scale.naru_epochs)
    refreshed.refresh(first, epochs=scale.naru_epochs)

    generator = WorkloadGenerator(partitions[0], min_filters=5,
                                  max_filters=min(11, table.num_columns), seed=900)
    queries = generator.generate(scale.shift_queries)

    visible = partitions[0]
    visible_codes = first
    rows = []
    results = []
    for index in range(scale.shift_partitions):
        if index > 0:
            visible = visible.concat(partitions[index])
            visible_codes = np.concatenate(
                [visible_codes, encode_with_dictionaries(table, partitions[index])])
            refreshed.refresh(visible_codes, epochs=1)
        for estimator in (stale, refreshed):
            estimator.set_row_count(visible.num_rows)

        entry = {"partitions_ingested": index + 1}
        for label, estimator in (("stale", stale), ("refreshed", refreshed)):
            errors = []
            for query in queries:
                truth = true_selectivity(visible, query) * visible.num_rows
                errors.append(q_error(estimator.estimate_cardinality(query), truth))
            summary = summarize_errors(errors)
            entry[f"{label}_p90"] = float(np.quantile(errors, 0.90))
            entry[f"{label}_max"] = summary.maximum
        results.append(entry)
        rows.append(entry)
    text = format_series(rows, ["partitions_ingested", "refreshed_p90", "refreshed_max",
                                "stale_p90", "stale_max"],
                         "Table 8: robustness to data shifts (DMV partitioned by date)")
    return {"results": results, "text": text}


# --------------------------------------------------------------------------- #
# Beyond the paper — the serving experiments
# --------------------------------------------------------------------------- #
class _ServeFleet:
    """The registry, workload and routers one ``serve_*`` experiment measures.

    ``prefix`` names the experiment's block of :class:`ExperimentScale`
    fields — ``<prefix>_rows``, ``_queries``, ``_samples``, ``_epochs``, … —
    read through :meth:`size`.  Every model shares one Naru config (batch
    256, seed 0) and every router and baseline the one sample budget and
    seed, so each query's random stream is keyed by ``(seed, global workload
    index)`` alone and whatever two runs disagree on is the serving path's
    doing.
    """

    def __init__(self, scale: ExperimentScale, prefix: str, *,
                 epochs: int | None = None,
                 hidden: tuple[int, ...] = (64, 64)) -> None:
        self.scale = scale
        self.prefix = prefix
        self.samples = self.size("samples")
        config = NaruConfig(
            epochs=self.size("epochs") if epochs is None else epochs,
            hidden_sizes=hidden, batch_size=256,
            progressive_samples=self.samples, seed=0)
        self.registry = ModelRegistry(default_config=config)

    def size(self, field: str):
        return getattr(self.scale, f"{self.prefix}_{field}")

    def register_users_sessions(self, *, join: bool = False) -> None:
        """A users dimension and a sessions fact table, optionally with their
        equi-join — served exactly like a base table, per §4.1."""
        users = self.size("users")
        self.registry.register_table(make_users(users))
        self.registry.register_table(make_sessions(self.size("rows"),
                                                   num_users=users))
        if join:
            self.registry.register_join(
                JoinSpec("sessions", "users", "user_id", "user_id"))

    def workload(self, build=generate_mixed_workload, **options) -> list:
        """Train every registered model, then build the table-qualified
        workload over all relations (``build`` is one of the
        ``repro.serve.generate_*_workload`` functions)."""
        self.registry.fit_all()
        relations = {name: self.registry.relation(name)
                     for name in self.registry.names}
        return build(relations, self.size("queries"), **options)

    def router(self, fleet_class=FleetRouter, *, batch_size: int | None = None,
               **options):
        return fleet_class(self.registry,
                           batch_size=batch_size or self.size("batch_size"),
                           num_samples=self.samples, seed=0, **options)

    def sequential(self, queries: list):
        """The baseline every drift is measured against: one unbatched,
        uncached, unfused sampler pass per query, models visited in turn."""
        return run_fleet_sequential(self.registry, queries,
                                    num_samples=self.samples, seed=0)


def _max_drift(report, reference) -> float:
    return float(np.max(np.abs(report.selectivities - reference.selectivities)))


#: The seed-determined fields of an engine, route or fleet stats dict.
_COUNT_KEYS = ("num_queries", "num_batches", "num_replicas", "rows_submitted",
               "unique_rows", "rows_evaluated", "forward_calls", "dedup_ratio",
               "shed", "result_cache_hits")


def _counts(stats: dict) -> dict:
    """What the seed determines of a closed-loop run's ``stats.as_dict()``.

    A whitelist, so a clock reading added to the serving stats later cannot
    leak into a tracked report.  Only valid for runs without flush timers —
    a timeout flush makes even the batch count a clock's doing.
    """
    counts = {key: stats[key] for key in _COUNT_KEYS if key in stats}
    if stats.get("cache"):
        counts["cache_hits"] = stats["cache"]["hits"]
        counts["cache_misses"] = stats["cache"]["misses"]
    if "routes" in stats:
        counts["routes"] = {route: _counts(route_stats)
                            for route, route_stats in stats["routes"].items()}
    return counts


def _throughput_rows(wall_s: dict[str, float], num_queries: int) -> list[dict]:
    return [{"mode": mode, "wall_s": seconds,
             "queries_per_second": num_queries / seconds}
            for mode, seconds in wall_s.items()]


def _cold_warm_passes(baseline, serve, queries: list) -> dict:
    """The pass-and-compare sequence the closed-loop experiments share.

    ``baseline(queries)`` runs once, then ``serve(queries)`` twice on the
    same long-lived engine or router: first sight of the workload (caches
    empty), then steady state.  Each pass is wall-clocked whole — cache hits
    never touch the engine-internal batch timers, which would flatter a warm
    pass.  Returns the three reports, ``drift`` (cold vs baseline) and
    ``warm_drift`` (warm vs cold), the seed-determined ``counts`` per pass,
    and the clock-determined ``timing`` dict.
    """
    reports, wall_s = {}, {}
    for mode, run in (("sequential", baseline), ("cold", serve), ("warm", serve)):
        reports[mode], wall_s[mode] = _timed(run, queries)
    stats = {mode: report.stats.as_dict() for mode, report in reports.items()}
    return {
        **reports,
        "drift": _max_drift(reports["cold"], reports["sequential"]),
        "warm_drift": _max_drift(reports["warm"], reports["cold"]),
        "counts": {mode: _counts(pass_stats)
                   for mode, pass_stats in stats.items()},
        "timing": {
            "cold_speedup": wall_s["sequential"] / wall_s["cold"],
            "speedup": wall_s["sequential"] / wall_s["warm"],
            "wall_s": wall_s,
            "stats": stats,
        },
    }


def _serve_result(title: str, report: dict, rows: list[dict], timing: dict,
                  timing_rows: list[dict]) -> dict:
    """Assemble a ``serve_*`` result: each part's text renders its own dict.

    The title line of ``text`` lists every scalar of ``report`` (of
    ``timing_text``, every scalar of ``timing``) above a table of ``rows``
    (``timing_rows``), so no reading can be in a JSON file and missing from
    the text beside it, or cross from one part's text into the other's.
    """
    def render(part: dict, table: list[dict]) -> str:
        scalars = ", ".join(
            f"{key} {value:.4g}" if isinstance(value, float) else f"{key} {value}"
            for key, value in part.items()
            if isinstance(value, (int, float, str)))
        return format_series(table, list(table[0]),
                             f"{title}: {scalars}" if scalars else title)

    return {"text": render(report, rows), "report": report,
            "timing_text": render(timing, timing_rows), "timing": timing}


def serve_throughput(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: throughput of the batched serving engine.

    Serves the same workload three times through the same trained Naru model:
    one query at a time through the unfused reference path (the paper's §5
    evaluation regime: no batching, no cache, no prefix dedup, full forward
    per conditional — see :func:`repro.serve.engine.run_sequential`), then
    twice through :class:`repro.serve.EstimationEngine` with the fused hot
    path (column-sliced conditionals, prefix-deduplicated sampling, the
    vectorized packed-prefix conditional cache) — a cold first pass and a
    warm steady-state pass.  The report holds the prefix-dedup ratio, the
    cache counts and the largest per-query estimate difference, which is
    exactly ``0.0``: the fused stack is bit-identical to the reference path
    by construction (every kernel is row-exact).  Queries/second and the
    cold and warm speedups are the timing part.
    """
    scale = scale or active_scale()
    fleet = _ServeFleet(scale, "serve")
    fleet.registry.register_table(make_census(scale.serve_rows))
    queries = fleet.workload(min_filters=5, max_filters=11)
    naru = fleet.registry.estimator("census")
    engine = EstimationEngine(naru, batch_size=scale.serve_batch_size,
                              num_samples=fleet.samples, seed=0)
    passes = _cold_warm_passes(
        lambda workload: run_sequential(naru, workload,
                                        num_samples=fleet.samples, seed=0),
        engine.run, queries)
    report = {
        "max_estimate_drift": max(passes["drift"], passes["warm_drift"]),
        "num_queries": len(queries),
        "counts": passes["counts"],
        "estimates": passes["warm"].selectivities.tolist(),
    }
    rows = [{"mode": mode, "batches": tally["num_batches"],
             "forward_calls": tally["forward_calls"],
             "unique_rows": tally["unique_rows"],
             "dedup_ratio": tally["dedup_ratio"],
             "cache_hits": tally.get("cache_hits", 0)}
            for mode, tally in passes["counts"].items()]
    return _serve_result(
        f"Serving throughput vs the unfused sequential baseline "
        f"({fleet.samples} samples, batch={scale.serve_batch_size})",
        report, rows, passes["timing"],
        _throughput_rows(passes["timing"]["wall_s"], len(queries)))


def serve_multi(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: fleet throughput of the multi-model serving router.

    Registers two base tables (a users dimension and a sessions fact table)
    plus their equi-join in a :class:`repro.serve.ModelRegistry`, then
    answers one interleaved mixed workload two ways: through a
    :class:`repro.serve.FleetRouter` (per-model micro-batches, per-model LRU
    caches under one shared budget) and through N independent sequential
    engines.  Both sides key every query's random stream by its global
    workload index, so the estimates agree to float round-off; the report
    holds the routing audit and the per-route counts, the timing part the
    fleet queries/second and the routed-vs-sequential speedup.
    """
    scale = scale or active_scale()
    fleet = _ServeFleet(scale, "serve_multi")
    fleet.register_users_sessions(join=True)
    queries = fleet.workload()
    passes = _cold_warm_passes(fleet.sequential, fleet.router().run, queries)
    warm = passes["warm"]
    report = {
        "max_estimate_drift": max(passes["drift"], passes["warm_drift"]),
        "misrouted": sum(result.route != result.query.table
                         for result in warm.results),
        "num_models": len(fleet.registry),
        "model_storage_bytes": fleet.registry.size_bytes(),
        "num_queries": len(queries),
        "counts": passes["counts"],
        "estimates": warm.selectivities.tolist(),
        "routes": [result.route for result in warm.results],
    }
    rows = [{"route": route, "queries": tally["num_queries"],
             "batches": tally["num_batches"],
             "dedup_ratio": tally["dedup_ratio"],
             "cache_hits": tally["cache_hits"]}
            for route, tally in passes["counts"]["warm"]["routes"].items()]
    return _serve_result(
        f"Multi-model serving vs N sequential engines "
        f"(batch={scale.serve_multi_batch_size})",
        report, rows, passes["timing"],
        _throughput_rows(passes["timing"]["wall_s"], len(queries)))


def serve_replicated(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: replicated hot-relation serving with admission control.

    A skewed mixed workload (``serve_repl_hot_fraction`` of the queries hammer
    the sessions fact table) is answered four ways over the same two trained
    models:

    * ``sequential`` — the single-engine-per-relation baseline,
    * ``cold`` / ``warm`` — a :class:`repro.serve.FleetRouter` with the hot
      relation at ``serve_repl_replicas`` engine replicas, a bounded pending
      queue (``max_pending``, ``block`` policy) and the fleet-wide exact-match
      result cache; the warm pass replays the workload against hot caches,
    * ``replicas=1`` — the same router configuration without replication,
      used to assert that replication never changes an estimate.

    All model-computed estimates agree to float round-off and the warm pass
    is served from the result cache bit-for-bit.  A final mini-run with a
    deliberately tiny ``max_pending`` under the ``shed`` policy demonstrates
    load shedding and the typed accounting around it.
    """
    scale = scale or active_scale()
    fleet = _ServeFleet(scale, "serve_repl")
    fleet.register_users_sessions()
    fleet.registry.set_replicas("sessions", scale.serve_repl_replicas)
    hot = scale.serve_repl_hot_fraction
    queries = fleet.workload(weights={"users": 1.0 - hot, "sessions": hot})
    # Precondition of the warm-replay exactness claims below: an exact-match
    # cache may only hit on a true replay, so the workload must be free of
    # canonically-equal duplicates.  Fail here, loudly, rather than letting a
    # scale tweak surface as a confusing "drift" assertion in the benchmark.
    keys = [canonical_query_key(query, route=query.table) for query in queries]
    if len(set(keys)) != len(keys):
        raise RuntimeError(
            "serve_replicated needs a duplicate-free workload (the generated "
            "one collided); adjust the scale's serve_repl_* knobs")

    bounded = {"max_pending": scale.serve_repl_max_pending, "overflow": "block"}
    passes = _cold_warm_passes(
        fleet.sequential, fleet.router(result_cache=True, **bounded).run, queries)
    warm = passes["warm"]

    # Replication must not change a single estimate: serve the same workload
    # through an unreplicated router of the same shape and compare.
    fleet.registry.set_replicas("sessions", 1)
    replica_drift = _max_drift(passes["cold"], fleet.router(**bounded).run(queries))
    fleet.registry.set_replicas("sessions", scale.serve_repl_replicas)

    # Load-shedding demonstration: a group bounded far below the burst size
    # refuses the overflow loudly and accounts for every refusal.
    shed_stats = fleet.router(max_pending=2, overflow="shed").run(queries).stats

    report = {
        "max_estimate_drift": passes["drift"],
        "replica_drift": replica_drift,
        "warm_drift": passes["warm_drift"],
        "hot_queries": sum(query.table == "sessions" for query in queries),
        "num_queries": len(queries),
        "shed": warm.stats.shed,
        "shed_demo": shed_stats.shed,
        "shed_demo_served": shed_stats.num_queries,
        "result_cache": warm.stats.result_cache,
        "result_cache_hits": warm.result_cache_hits,
        "counts": passes["counts"],
        "estimates": warm.selectivities.tolist(),
    }
    rows = [{"mode": mode, "route": route, "replicas": tally["num_replicas"],
             "batches": tally["num_batches"],
             "result_cache_hits": tally["result_cache_hits"]}
            for mode in ("cold", "warm")
            for route, tally in passes["counts"][mode]["routes"].items()]
    return _serve_result(
        f"Replicated hot-relation serving vs one sequential engine per "
        f"relation (sessions x{scale.serve_repl_replicas} replicas, "
        f"max_pending={scale.serve_repl_max_pending})",
        report, rows, passes["timing"],
        _throughput_rows(passes["timing"]["wall_s"], len(queries)))


def serve_stream(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: end-to-end latency SLOs under paced bursty arrivals.

    A bursty workload (the hot relation's queries arrive in uninterrupted
    runs of ``serve_stream_burst``, see
    :func:`repro.serve.generate_bursty_workload`) is streamed query-by-query
    with a *paced* arrival process: a hybrid
    :class:`repro.serve.VirtualClock` rides on the real clock, and every
    submission advances it by one measured per-query dispatch cost — so
    queries genuinely queue in partially filled micro-batches (in clock
    terms) without the benchmark sleeping through the gaps, and the pacing
    is calibrated to the host.  The same paced workload is served several
    ways over the same trained models (conditional caches off):

    * ``fixed`` — a plain :class:`repro.serve.FleetRouter` at the maximum
      micro-batch size.  Its measured hot-route **end-to-end** p95 (queueing
      delay + dispatch) calibrates the stated SLO:
      ``serve_stream_slo_fraction`` of it.
    * ``e2e-*`` — the same router with ``slo_ms`` set (its controller
      observes queue wait + dispatch) plus a flush deadline of
      ``serve_stream_flush_fraction`` of the SLO bounding how long a
      partial batch may linger.  The warmup pass starts at the maximum
      batch size; the steady pass must meet the end-to-end SLO.
    * ``streamed-shuffled`` — the e2e configuration with a *shuffled*
      arrival order and pre-assigned indices: streaming ≡ batch.

    Every mode's estimates are compared against the unbatched sequential
    baseline — adaptive batch boundaries, timeout flushes, pacing and
    shuffled streaming must not move a single number; that drift is the
    whole seed-determined report, since under flush timers even the batch
    counts are a clock's doing.

    The headline claim: steering the batch size on end-to-end latency (and
    bounding tail wait with the flush timeout) makes the fleet meet an SLO,
    stated against what a submitter experiences, that the fixed batch misses.
    """
    scale = scale or active_scale()
    fleet = _ServeFleet(scale, "serve_stream")
    fleet.register_users_sessions()
    hot = scale.serve_stream_hot_fraction
    queries = fleet.workload(
        generate_bursty_workload, hot="sessions",
        burst_size=scale.serve_stream_burst,
        weights={"users": 1.0 - hot, "sessions": hot})
    max_batch = scale.serve_stream_max_batch
    baseline = fleet.sequential(queries)

    # Calibrate the arrival pacing: one unpaced max-batch probe measures the
    # host's per-query dispatch cost, and queries then arrive one such cost
    # apart — fast hosts get tight pacing, slow hosts loose, and the
    # queueing dynamics stay comparable everywhere.
    probe = fleet.router(batch_size=max_batch, use_cache=False).run(queries)
    arrival_gap_ms = (probe.stats.routes["sessions"]["latency_ms"]["p95"]
                      / max_batch)

    def paced_router(**options) -> FleetRouter:
        return fleet.router(batch_size=max_batch, use_cache=False,
                            clock=VirtualClock(base=time.perf_counter),
                            **options)

    def paced(router, order=None):
        return _timed(stream_workload, router, queries, arrival_order=order,
                      advance_ms=arrival_gap_ms)

    modes = {"fixed": paced(paced_router())}
    fixed_e2e_p95 = modes["fixed"][0].stats.routes["sessions"]["e2e_ms"]["p95"]
    slo_ms = fixed_e2e_p95 * scale.serve_stream_slo_fraction
    steering = {"slo_ms": slo_ms,
                "flush_after_ms": slo_ms * scale.serve_stream_flush_fraction}

    # The controller observes end-to-end latency and the flush deadline
    # bounds how long a partial batch may linger.
    e2e_router = paced_router(**steering)
    modes["e2e-warmup"] = paced(e2e_router)
    modes["e2e-steady"] = paced(e2e_router)
    order = np.random.default_rng(1).permutation(len(queries)).tolist()
    modes["streamed-shuffled"] = paced(paced_router(**steering), order)

    rows, timing_rows = [], []
    for mode, (served, wall_s) in modes.items():
        hot_stats = served.stats.routes["sessions"]
        rows.append({"mode": mode, "queries": served.stats.num_queries,
                     "max_estimate_drift": _max_drift(served, baseline)})
        timing_rows.append({
            "mode": mode,
            "dispatch_p95_ms": hot_stats["latency_ms"]["p95"],
            "queue_p95_ms": hot_stats["queue_wait_ms"]["p95"],
            "e2e_p95_ms": hot_stats["e2e_ms"]["p95"],
            "timeout_flushes": hot_stats["timeout_flushes"],
            "queries_per_second": len(queries) / wall_s,
            "batches": hot_stats["num_batches"],
        })
    warmup, steady = modes["e2e-warmup"][0], modes["e2e-steady"][0]
    steady_e2e_p95 = steady.stats.routes["sessions"]["e2e_ms"]["p95"]
    report = {
        "max_estimate_drift": max(row["max_estimate_drift"] for row in rows),
        "hot_queries": sum(query.table == "sessions" for query in queries),
        "num_queries": len(queries),
        "estimates": steady.selectivities.tolist(),
    }
    timing = {
        **steering,
        "arrival_gap_ms": arrival_gap_ms,
        "fixed_e2e_p95_ms": fixed_e2e_p95,
        "steady_e2e_p95_ms": steady_e2e_p95,
        "fixed_meets_e2e_slo": fixed_e2e_p95 <= slo_ms,
        "steady_meets_e2e_slo": steady_e2e_p95 <= slo_ms,
        "e2e_batch_trace": list(
            warmup.stats.routes["sessions"]["batch_trace"] or []),
        "e2e_controller": e2e_router.controller("sessions").as_dict(),
        "modes": timing_rows,
        "stats": {mode: served.stats.as_dict()
                  for mode, (served, _) in modes.items()},
    }
    return _serve_result(
        f"End-to-end SLOs + streaming (sessions in bursts of "
        f"{scale.serve_stream_burst}, max batch {max_batch}, e2e p95 SLO = "
        f"{scale.serve_stream_slo_fraction:.0%} of the fixed batch's, flush "
        f"timeout = {scale.serve_stream_flush_fraction:.0%} of the SLO)",
        report, rows, timing, timing_rows)


def serve_procfleet(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: cross-process sharded serving with a ProcessFleet.

    The same mixed three-relation workload (users, sessions, their equi-join)
    is served three ways over the same trained models, conditional caches off
    so the process fleet's per-engine caches cannot differ from the router's
    group-shared ones:

    * ``sequential`` — one unbatched, uncached sampler pass per query,
    * ``cold`` / ``warm`` — the in-process :class:`repro.serve.FleetRouter`
      with every relation at ``serve_proc_workers`` replicas,
    * ``procfleet-*`` — a :class:`repro.serve.ProcessFleet` of
      ``serve_proc_workers`` OS worker processes hosting those same replicas
      (one per worker), models shipped via :mod:`repro.nn.serialization`.

    The process boundary must not change a single bit: ``fleet_drift``
    compares the process fleet against the in-process router bit-for-bit,
    and a final ``batch_size=1`` process-fleet pass must match the
    sequential baseline exactly (``max_estimate_drift == 0.0``).

    Throughput is timed two ways because CI hosts may expose a single
    core, where OS processes cannot overlap in wall-clock time:
    ``wall_speedup`` is honest host wall-clock, while the headline
    ``speedup`` is *capacity* — the fleet's critical path is the largest
    per-worker busy-CPU time (:func:`time.process_time`, immune to
    time-slice preemption), i.e. the wall-clock the same shard layout
    delivers once each worker owns a core.  Both sides are measured on a
    *warm* second pass: a freshly forked worker's first pass pays one-time
    costs (copy-on-write page faults, allocator growth, BLAS warm-up) that
    say nothing about steady-state serving; the cold passes are recorded
    alongside.  ``host_cpus`` is recorded so a reader can tell which regime
    produced the numbers.
    """
    scale = scale or active_scale()
    workers = scale.serve_proc_workers
    # (32, 32) hidden layers, not the (64, 64) of the in-process serving
    # benches: N workers time-slicing a small CI host each keep a private
    # copy of the model, and the smaller working set stays cache-resident
    # across context switches — the capacity numbers measure serving, not
    # the host's L2.
    fleet = _ServeFleet(scale, "serve_proc", hidden=(32, 32))
    fleet.register_users_sessions(join=True)
    queries = fleet.workload()
    # One replica of every relation per worker: each worker serves the whole
    # fleet, so micro-batch composition matches the in-process router's and
    # the bit-exactness comparison below is meaningful.
    for name in fleet.registry.names:
        fleet.registry.set_replicas(name, workers)

    passes = _cold_warm_passes(fleet.sequential,
                               fleet.router(use_cache=False).run, queries)
    wall_s = passes["timing"]["wall_s"]
    proc_fleet, spawn_s = _timed(fleet.router, ProcessFleet, workers=workers,
                                 use_cache=False)
    with proc_fleet:
        _, wall_s["procfleet-cold"] = _timed(proc_fleet.run, queries)
        proc, wall_s["procfleet-warm"] = _timed(proc_fleet.run, queries)
    worker_stats = proc.stats.workers
    wall_s["procfleet-capacity"] = max(
        stats["busy_cpu_ms"] for stats in worker_stats.values()) / 1000.0

    # Determinism pass: batch_size=1 with caches off walks the exact code
    # path of the sequential baseline, just on the far side of a pipe.
    with fleet.router(ProcessFleet, workers=workers, batch_size=1,
                      use_cache=False) as exact_fleet:
        drift = _max_drift(exact_fleet.run(queries), passes["sequential"])

    report = {
        "max_estimate_drift": drift,
        "batched_drift": passes["drift"],
        "fleet_drift": _max_drift(proc, passes["warm"]),
        "num_queries": len(queries),
        "worker_queries": {worker: stats["num_queries"]
                           for worker, stats in worker_stats.items()},
        "counts": {**passes["counts"],
                   "procfleet": _counts(proc.stats.as_dict())},
        "estimates": proc.selectivities.tolist(),
    }
    rows = [{"worker": worker, "engines": len(stats["engines"]),
             "queries": stats["num_queries"]}
            for worker, stats in worker_stats.items()]
    timing = {
        "speedup": wall_s["warm"] / wall_s["procfleet-capacity"],
        "wall_speedup": wall_s["warm"] / wall_s["procfleet-warm"],
        "host_cpus": os.cpu_count(),
        "spawn_s": spawn_s,
        "wall_s": wall_s,
        "worker_stats": worker_stats,
        "stats": {**passes["timing"]["stats"],
                  "procfleet": proc.stats.as_dict()},
    }
    return _serve_result(
        f"Cross-process fleet vs the single-process fleet's warm pass "
        f"({workers} workers x {len(fleet.registry)} relations, "
        f"batch={scale.serve_proc_batch_size})",
        report, rows, timing, _throughput_rows(wall_s, len(queries)))


def serve_refresh(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: live refresh of a serving fleet under data shift.

    Table 8 measures stale vs refreshed *estimators*; this experiment runs
    the same partition-by-partition ingest protocol against a *serving
    fleet* — a :class:`repro.serve.FleetRouter` with an epoch-keyed result
    cache, fed through :class:`repro.serve.RefreshController`.  One Naru
    model is built on the full table's dictionaries, trained on partition 1
    and registered behind the router; then every remaining partition of a
    :class:`repro.data.PartitionedIngest` is ingested through the controller
    (bumping the relation's data epoch and scoring the drift of the incoming
    rows), with the workload replayed after each ingest while the fleet
    serves *stale* — so the measured q-error degrades exactly as the
    relation drifts away from the model.  A single fine-tune refresh then
    swaps the next model version in atomically and the same workload
    recovers.

    Two correctness counters ride along.  ``invalid_cache_hits`` compares
    the long-lived router's post-refresh estimates bit-for-bit against a
    cold router built over the refreshed registry: any cache entry (result
    cache or conditional cache) that unlawfully survived an epoch bump would
    surface here as a differing bit, so the count must be exactly 0.
    ``result_cache_stale_rejects`` counts the epoch-mismatched result-cache
    entries that lookups *refused* to serve — it must be positive, proving
    the replays actually collided with pre-bump cache state rather than
    never touching it.
    """
    scale = scale or active_scale()
    table = make_dmv(scale.serve_refresh_rows)
    ingest = PartitionedIngest(table, "valid_date",
                               scale.serve_refresh_partitions)
    visible = ingest.ingest_next()

    # Full-table dictionaries ("domain from user annotation", §6.7.3), model
    # trained only on the first partition — the serving twin of table8.
    fleet = _ServeFleet(scale, "serve_refresh", epochs=0)
    registry = fleet.registry
    estimator = NaruEstimator(table, registry.default_config)
    estimator.refresh(encode_with_dictionaries(table, visible),
                      epochs=scale.serve_refresh_epochs)
    estimator.set_row_count(visible.num_rows)
    registry.register_table(visible, name="dmv", estimator=estimator)
    controller = RefreshController(
        registry, max_staleness=0,
        refresh_epochs=scale.serve_refresh_fine_tune_epochs)
    queries = fleet.workload(min_filters=5, max_filters=11, seed=900)

    def router_for() -> FleetRouter:
        return fleet.router(result_cache=True, cache_entries=8_192)

    router = router_for()
    rows, timing_rows = [], []

    def measure(phase: str):
        served, elapsed = _timed(router.run, queries)
        current = registry.relation("dmv")
        errors = [q_error(result.cardinality,
                          true_selectivity(current, result.query)
                          * current.num_rows)
                  for result in served.results]
        rows.append({
            "phase": phase,
            "partitions": ingest.num_ingested,
            "staleness": registry.staleness("dmv"),
            "drift_bits": controller.last_drift_bits.get("dmv") or 0.0,
            "p90": float(np.quantile(errors, 0.90)),
            "max": summarize_errors(errors).maximum,
        })
        timing_rows.append({"phase": phase, "elapsed_s": elapsed})
        return served

    measure("fresh")
    while ingest.remaining():
        part = ingest.partitions[ingest.num_ingested]
        ingest.ingest_next()
        record = controller.ingest("dmv", part)
        measure(f"stale+{record['staleness']}")

    controller.refresh("dmv")
    refreshed = measure("refreshed")

    # The zero-stale-hit proof: a cold router over the refreshed registry
    # has never seen a single pre-bump cache entry, so any surviving stale
    # state in the long-lived router shows up as a differing estimate.
    cold = router_for().run(queries)
    cache_stats = router.result_cache.stats.as_dict()
    report = {
        "invalid_cache_hits": int(np.count_nonzero(
            refreshed.selectivities != cold.selectivities)),
        "result_cache_stale_rejects": cache_stats["lifetime"]["stale_rejects"],
        "max_staleness_served": max(entry["staleness"] for entry in rows),
        "num_queries": len(queries),
        "results": rows,
        "result_cache": cache_stats,
        "epochs": refreshed.stats.epochs,
        "estimates": refreshed.selectivities.tolist(),
    }
    return _serve_result(
        f"Live refresh under partitioned ingest (DMV by date, "
        f"{scale.serve_refresh_partitions} partitions)",
        report, rows, {"replays": timing_rows}, timing_rows)


def serve_loadgen(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: the latency-vs-offered-load curve and the SLO knee.

    Every other serving benchmark is closed-loop — the next query waits for
    the previous batch, so the fleet can never be offered more than it
    completes and overload is invisible.  This one is **open-loop**
    (:mod:`repro.serve.loadgen`): arrivals land at a configured offered rate
    regardless of completion rate, paced on a hybrid
    :class:`repro.serve.VirtualClock` riding the real clock.

    Calibration first, so the claim is hardware-independent: a closed-loop
    probe at the full micro-batch size measures the host's capacity
    (completions per wall-second) and its e2e p95; the stated SLO is
    ``serve_loadgen_slo_multiplier`` times that p95, and the sweep offers
    ``serve_loadgen_rate_fractions`` times that capacity.  Each rung of the
    ladder gets a fresh admission-bounded router (``max_pending``,
    ``overflow="shed"``) and its own Poisson arrival sequence; the rows
    trace offered vs achieved throughput, shed counts, the pending
    high-water mark and the latency percentiles, and
    :func:`repro.serve.locate_knee` reads off the highest offered rate whose
    e2e p95 still meets the SLO.  Because every offered rate is a multiple
    of a measured capacity, the whole curve — arrival counts included — is
    the timing part.

    On top of the curve, three chaos drills at the mid rate, each asserted
    **degraded-not-collapsed** (:func:`repro.serve.assert_degraded_not_collapsed`:
    bounded queue growth, typed counted shedding, zero estimate drift on
    every completed query vs the unloaded sequential baseline):

    * ``slow_replica`` — one replica stalls ``delay_ms`` per dispatch from a
      quarter into the run (injected via the engine ``batch_hook``),
    * ``cache_wipe`` — every cache layer cleared mid-run,
    * ``kill_worker`` — a :class:`repro.serve.ProcessFleet` worker is
      SIGKILLed mid-stream and must surface a typed
      :class:`repro.serve.WorkerError`, not a hang.

    The arrival traces themselves are checked replayable: record → save →
    load → save must be byte-identical, and the loaded trace must reproduce
    the arrival sequence exactly.
    """
    scale = scale or active_scale()
    fleet = _ServeFleet(scale, "serve_loadgen")
    fleet.register_users_sessions()
    for name in fleet.registry.names:
        fleet.registry.set_replicas(name, scale.serve_loadgen_replicas)
    queries = fleet.workload()
    max_pending = scale.serve_loadgen_max_pending

    def cycled(count: int) -> list:
        return [queries[position % len(queries)] for position in range(count)]

    # Trace record/replay: byte-stable files, exact arrival reproduction.
    recorded = ArrivalTrace.record("poisson", rate_qps=100.0, duration_s=2.0,
                                   seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        recorded.save(path)
        replayed = ArrivalTrace.load(path)
    trace_byte_stable = (replayed.to_json() == recorded.to_json()
                         and replayed.timestamps == recorded.timestamps)

    # Closed-loop probe: the host's capacity (completions per wall-second at
    # the full batch size) and the service-time e2e p95 the SLO scales from.
    probe, probe_s = _timed(fleet.router().run, queries)
    capacity_qps = len(queries) / probe_s
    probe_e2e_p95 = probe.stats.e2e_ms["p95"]
    slo_ms = probe_e2e_p95 * scale.serve_loadgen_slo_multiplier

    def fresh_router() -> FleetRouter:
        # A partial micro-batch may linger at most one probe-p95 before it
        # is force-dispatched, so low offered rates are not dominated by
        # batch-fill waiting (which would invert the curve).
        return fleet.router(max_pending=max_pending, overflow="shed",
                            flush_after_ms=probe_e2e_p95,
                            clock=VirtualClock(base=time.perf_counter))

    duration_s = scale.serve_loadgen_duration_s
    rates = [fraction * capacity_qps
             for fraction in scale.serve_loadgen_rate_fractions]
    curve = [{"rate_fraction": fraction, **row} for fraction, row in zip(
        scale.serve_loadgen_rate_fractions,
        sweep_offered_load(fresh_router, queries, rates, duration_s=duration_s,
                           process="poisson", seed=0))]

    # Chaos drills at the mid offered rate: each must degrade, not collapse.
    mid_rate = rates[len(rates) // 2]
    chaos_trace = ArrivalTrace.record("poisson", rate_qps=mid_rate,
                                      duration_s=duration_s, seed=1)
    chaos_baseline = fleet.sequential(cycled(len(chaos_trace)))
    scenarios, chaos = {}, {}
    for name, scenario in (
            ("slow_replica", SlowReplica("sessions", delay_ms=20.0,
                                         at_fraction=0.25)),
            ("cache_wipe", CacheWipe(at_fraction=0.5))):
        outcome = run_open_loop(fresh_router(), queries, chaos_trace,
                                scenario=scenario)
        chaos[name] = assert_degraded_not_collapsed(
            outcome, baseline=chaos_baseline, max_pending=max_pending)
        chaos[name]["e2e_p95_ms"] = outcome.e2e_p95_ms
        scenarios[name] = {key: chaos[name][key] for key in
                           ("degraded_not_collapsed", "max_estimate_drift")}

    # The drill's size is cycled from the workload, not cut from the chaos
    # trace, so it does not depend on the arrivals the probed capacity
    # implied.  Where past the kill the error surfaces (a later submit, or
    # the collect) is up to the pipe — ``submitted`` is a timing reading,
    # like the pid and the wall time.
    with fleet.router(ProcessFleet, workers=scale.serve_loadgen_workers,
                      recv_timeout_s=30.0) as proc_fleet:
        chaos["kill_worker"] = run_kill_worker_drill(
            proc_fleet, cycled(max(4 * scale.serve_loadgen_batch_size
                                   * scale.serve_loadgen_workers, 64)))
    scenarios["kill_worker"] = {
        key: chaos["kill_worker"][key] for key in
        ("killed_worker", "kill_after", "typed_error", "error_type",
         "error_worker_id", "error_exit_code")}

    report = {
        "trace_byte_stable": trace_byte_stable,
        "num_queries": len(queries),
        "scenarios": scenarios,
    }
    timing = {
        "capacity_qps": capacity_qps,
        "probe_e2e_p95_ms": probe_e2e_p95,
        **locate_knee(curve, slo_ms),
        "chaos_offered_qps": mid_rate,
        "curve": curve,
        "chaos": chaos,
    }
    fractions = "/".join(f"{fraction:g}"
                         for fraction in scale.serve_loadgen_rate_fractions)
    return _serve_result(
        f"Open-loop load (Poisson arrivals at {fractions}x the probed "
        f"closed-loop capacity, max_pending {max_pending}, overflow shed, "
        f"e2e p95 SLO = {scale.serve_loadgen_slo_multiplier:g}x the probe's, "
        f"measured from each query's *scheduled* arrival; chaos at the mid "
        f"rate)",
        report,
        [{"scenario": name, "outcome": ", ".join(
            f"{key} {value}" for key, value in summary.items())}
         for name, summary in scenarios.items()],
        timing, curve)


def serve_ensemble(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: a widened query language served by estimator ensembles.

    The paper's workload is purely conjunctive.  This benchmark widens it —
    a ``dnf_fraction`` share of the workload becomes DNF disjunctions
    (branch counts alternating between 2 and 6) and a ``like_fraction``
    share becomes ``LIKE 'x%'`` string prefixes — and serves it through
    per-relation *ensembles*: the Naru primary answers prefixes (one more
    valid-code mask) and small disjunctions by inclusion–exclusion, while
    disjunctions above ``max_dnf_branches`` route to a
    :class:`repro.estimators.SamplingEstimator` fallback registered next to
    each model.  Three claims are asserted exactly, not statistically:

    * **routing** — every query lands where the capability matrix says it
      must: conjunctions/prefixes/2-branch DNF on the Naru primary,
      6-branch DNF on the fallback, nothing unroutable;
    * **determinism** — the routed fleet and a sequential per-query pass
      agree bit-for-bit (max drift exactly 0.0), conjunctions included, so
      registering fallbacks perturbs nothing the paper measures;
    * **inclusion–exclusion identity** — on a small relation where the
      per-term estimates are *exact*, the expansion reproduces the true
      union selectivity to float round-off (``ie_oracle_gap <= 1e-9``),
      checking the expansion itself with no estimation noise on top.

    The reported table is the per-estimator ensemble breakdown: queries
    served and median/p95 q-error for the Naru primaries and the sampling
    fallbacks side by side, with their p95 end-to-end latency in the timing
    part.
    """
    scale = scale or active_scale()
    fleet = _ServeFleet(scale, "serve_ens")
    fleet.register_users_sessions()
    registry = fleet.registry
    for name in registry.names:
        registry.set_fallback(name, SamplingEstimator(
            registry.relation(name),
            sample_size=scale.serve_ens_fallback_sample, seed=0))
    queries = fleet.workload(
        generate_shape_workload, dnf_fraction=scale.serve_ens_dnf_fraction,
        like_fraction=scale.serve_ens_like_fraction, dnf_branches=(2, 6))
    shape_mix = {}
    for query in queries:
        shape = query_shape(query).value
        shape_mix[shape] = shape_mix.get(shape, 0) + 1

    served = fleet.router().run(queries)
    sequential = fleet.sequential(queries)

    # Routing audit against the capability matrix: the fallback serves
    # exactly the disjunctions whose branch count exceeds the Naru primary's
    # inclusion–exclusion bound, and nothing else.
    max_branches = registry.default_config.max_dnf_branches
    overflow = {index for index, query in enumerate(queries)
                if isinstance(query, DNFQuery)
                and len(query.branches) > max_branches}
    fallback_served = {result.index for result in served.results
                      if result.estimator.startswith("Sample(")}
    if fallback_served != overflow:
        raise AssertionError(
            f"fallback routing mismatch: expected indices {sorted(overflow)}, "
            f"served {sorted(fallback_served)}")

    # Per-estimator accuracy (exact truths from the executor, which unions
    # branch masks for DNF and masks prefixes like any comparison).
    truths: dict[int, float] = {}
    errors = []
    for result in served.results:
        relation = registry.relation(result.route)
        truth = true_selectivities(relation, [result.query])[0]
        truths[result.index] = float(truth * relation.num_rows)
        errors.append(q_error(result.cardinality, truths[result.index]))
    accuracy = served.accuracy_by_estimator(truths)
    latency = served.stats.estimators

    # Inclusion–exclusion oracle identity: with exact per-term estimates the
    # expansion must reproduce the exact union selectivity to round-off.
    oracle_table = make_users(scale.serve_ens_oracle_rows)
    oracle_queries = [
        query for query in generate_shape_workload(
            {"users": oracle_table}, scale.serve_ens_oracle_queries,
            dnf_fraction=1.0, like_fraction=0.0, dnf_branches=(2, 3),
            min_filters=1, max_filters=2, seed=1)
        if isinstance(query, DNFQuery)]
    probe = SamplingEstimator(oracle_table, fraction=1.0, seed=0)
    ie_oracle_gap = 0.0
    for query in oracle_queries:
        exact_union = float(true_selectivities(oracle_table, [query])[0])
        expanded = probe._inclusion_exclusion(
            query, lambda term: float(true_selectivities(oracle_table,
                                                         [term])[0]))
        ie_oracle_gap = max(ie_oracle_gap, abs(expanded - exact_union))

    report = {
        "max_estimate_drift": _max_drift(served, sequential),
        "ie_oracle_gap": ie_oracle_gap,
        "ie_oracle_queries": len(oracle_queries),
        "fallback_served": len(fallback_served),
        "overflow_dnf": len(overflow),
        "q_error_median": float(np.median(errors)),
        "q_error_p95": float(np.quantile(errors, 0.95)),
        "num_queries": len(queries),
        "shape_mix": shape_mix,
        "accuracy_by_estimator": accuracy,
        "estimates": served.selectivities.tolist(),
        "routes": [result.route for result in served.results],
    }
    timing = {"estimators": latency,
              "stats": {"fleet": served.stats.as_dict(),
                        "sequential": sequential.stats.as_dict()}}
    mix_note = ", ".join(f"{count} {shape}"
                         for shape, count in sorted(shape_mix.items()))
    return _serve_result(
        f"Estimator ensemble over a widened workload ({mix_note}; DNF over "
        f"{max_branches} branches falls back to sampling)",
        report,
        [{"estimator": name, "queries": entry["num_queries"],
          "median_qerror": entry["median_qerror"],
          "p95_qerror": entry["p95_qerror"]}
         for name, entry in sorted(accuracy.items())],
        timing,
        [{"estimator": name, "e2e_p95_ms": entry["e2e_ms"]["p95"]}
         for name, entry in sorted(latency.items())])
