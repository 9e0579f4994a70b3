"""One reproduction function per table and figure of the paper's evaluation.

Every function is self-contained: it generates the (synthetic) dataset,
builds and trains the relevant estimators, runs the workload, and returns a
dictionary holding the structured results plus a ``text`` field with a
paper-style rendering.  The functions are what the ``benchmarks/`` suite and
the ``python -m repro.bench`` command line call.

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
from ..data import Table, make_conviva_a, make_conviva_b, make_dmv, partition_by_column
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
    true_selectivity,
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
]


def _timed(function, *args, **kwargs):
    """Wall-clock one call; returns ``(result, elapsed_seconds)``.

    The serving benchmarks time whole serving passes this way because cache
    hits never touch the engine-internal batch timers.
    """
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
    ]

    kde_superv = KDESupervEstimator(table, sample_size=scale.kde_sample, seed=2)
    feedback = [(item.query, item.cardinality)
                for item in training_workload[:scale.kde_feedback_queries]]
    kde_superv.fit_feedback(feedback, passes=1)
    estimators.append(kde_superv)

    mscn_base = MSCNEstimator(table, sample_size=1000, seed=3, name="MSCN-base")
    mscn_base.fit(training_workload, epochs=scale.mscn_epochs)
    estimators.append(mscn_base)

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
    ]
    kde_superv = KDESupervEstimator(table, sample_size=scale.kde_sample, seed=2)
    kde_superv.fit_feedback([(item.query, item.cardinality)
                             for item in training_workload[:scale.kde_feedback_queries]],
                            passes=1)
    estimators.append(kde_superv)
    mscn = MSCNEstimator(table, sample_size=1000, seed=3, name="MSCN-base")
    mscn.fit(training_workload, epochs=scale.mscn_epochs)
    estimators.append(mscn)
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

    mscn = MSCNEstimator(table, sample_size=1000, seed=3, name="MSCN-base")
    mscn.fit(training_workload, epochs=scale.mscn_epochs)
    kde_superv = KDESupervEstimator(table, sample_size=scale.kde_sample, seed=2)
    kde_superv.fit_feedback([(item.query, item.cardinality)
                             for item in training_workload[:scale.kde_feedback_queries]],
                            passes=1)
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
        estimator._fitted = True  # evaluated after each manual epoch below
        per_epoch = []
        for epoch in range(1, scale.training_curve_epochs + 1):
            start = time.perf_counter()
            estimator.trainer.train_epoch()
            epoch_seconds = time.perf_counter() - start
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
    text = format_series(rows, ["dataset", "epoch", "epoch_seconds",
                                "entropy_gap_bits", "median_error", "max_error"],
                         "Figure 5: training time vs quality")
    return {"results": results, "text": text}


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
    text = format_latency_table(latencies, "Figure 6: estimation latency (ms, CPU)")
    return {"latencies": latencies, "runs": runs, "text": text,
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
        start = time.perf_counter()
        model.log_prob(probe)
        per_point_seconds = (time.perf_counter() - start) / probe.shape[0]
        enumeration_hours = region_p99 * per_point_seconds / 3600.0

        # Measured progressive-sampling latency on the same model.
        sampler = ProgressiveSampler(model, seed=0)
        hard_query = workload[int(np.argmax(region_sizes))].query
        start = time.perf_counter()
        sampler.estimate_selectivity(hard_query.column_masks(table),
                                     num_samples=scale.naru_samples[-1])
        naru_ms = (time.perf_counter() - start) * 1000.0

        results[name] = {"region_size_p99": region_p99,
                         "enumeration_hours_estimated": enumeration_hours,
                         "naru_latency_ms": naru_ms}
        rows.append({"dataset": name, "region_p99": region_p99,
                     "enum_hours_est": enumeration_hours, "naru_ms": naru_ms})
    text = format_series(rows, ["dataset", "region_p99", "enum_hours_est", "naru_ms"],
                         "Table 6: query region size vs enumeration vs progressive sampling")
    return {"results": results, "text": text}


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
    full_codes = table.encoded()

    def partition_codes(part: Table) -> np.ndarray:
        columns = [table.column(name) for name in table.column_names]
        return np.stack([
            np.searchsorted(column.domain, part.column(column.name).values)
            for column in columns
        ], axis=1)

    first = partition_codes(partitions[0])
    stale.refresh(first, epochs=scale.naru_epochs)
    refreshed.refresh(first, epochs=scale.naru_epochs)
    stale._fitted = refreshed._fitted = True

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
                [visible_codes, partition_codes(partitions[index])])
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


def serve_throughput(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: throughput of the batched serving engine.

    Serves the same workload three times through the same trained Naru model:
    one query at a time through the unfused reference path (the paper's §5
    evaluation regime: no batching, no cache, no prefix dedup, full forward
    per conditional — see :func:`repro.serve.engine.run_sequential`), then
    twice through :class:`repro.serve.EstimationEngine` with the fused hot
    path (column-sliced conditionals, prefix-deduplicated sampling, the
    vectorized packed-prefix conditional cache) — a cold first pass and a
    warm steady-state pass.  It reports queries/second, the cold and warm
    speedups, the prefix-dedup ratio and the largest per-query estimate
    difference, which is exactly ``0.0``: the fused stack is bit-identical
    to the reference path by construction (every kernel is row-exact).
    """
    from ..data import make_census
    from ..serve import EstimationEngine, run_sequential

    scale = scale or active_scale()
    table = make_census(scale.serve_rows)
    config = NaruConfig(epochs=scale.serve_epochs, hidden_sizes=(64, 64),
                        batch_size=256, progressive_samples=scale.serve_samples,
                        seed=0)
    naru = NaruEstimator(table, config)
    naru.fit()
    generator = WorkloadGenerator(table, min_filters=5,
                                  max_filters=min(11, table.num_columns), seed=0)
    queries = generator.generate(scale.serve_queries)

    sequential = run_sequential(naru, queries, num_samples=scale.serve_samples,
                                seed=0)
    engine = EstimationEngine(naru, batch_size=scale.serve_batch_size,
                              num_samples=scale.serve_samples, seed=0)
    cold = engine.run(queries)      # first sight of the workload, cache empty
    warm = engine.run(queries)      # steady state: conditional cache is hot

    drift = max(
        float(np.max(np.abs(cold.selectivities - sequential.selectivities))),
        float(np.max(np.abs(warm.selectivities - cold.selectivities))))
    cold_speedup = (sequential.stats.elapsed_s / cold.stats.elapsed_s
                    if cold.stats.elapsed_s > 0 else float("inf"))
    warm_speedup = (sequential.stats.elapsed_s / warm.stats.elapsed_s
                    if warm.stats.elapsed_s > 0 else float("inf"))
    cache = warm.stats.cache or {}
    rows = [
        {"mode": "sequential", "queries_per_second": sequential.stats.queries_per_second,
         "elapsed_s": sequential.stats.elapsed_s, "batches": sequential.stats.num_batches},
        {"mode": "batched-cold", "queries_per_second": cold.stats.queries_per_second,
         "elapsed_s": cold.stats.elapsed_s, "batches": cold.stats.num_batches},
        {"mode": "batched-warm", "queries_per_second": warm.stats.queries_per_second,
         "elapsed_s": warm.stats.elapsed_s, "batches": warm.stats.num_batches},
    ]
    text = format_series(
        rows, ["mode", "queries_per_second", "elapsed_s", "batches"],
        f"Serving throughput ({scale.serve_queries} queries, "
        f"{scale.serve_samples} samples, batch={scale.serve_batch_size}): "
        f"{cold_speedup:.2f}x cold / {warm_speedup:.2f}x warm speedup over the "
        f"unfused sequential baseline, prefix dedup "
        f"{cold.stats.dedup_ratio:.2f}x, cache hit rate "
        f"{cache.get('hit_rate', 0.0):.1%}, estimate drift {drift:g}")
    return {
        "text": text,
        "speedup": warm_speedup,
        "cold_speedup": cold_speedup,
        "max_estimate_drift": drift,
        "sequential": sequential.stats.as_dict(),
        "batched": warm.stats.as_dict(),
        "batched_cold": cold.stats.as_dict(),
        "num_queries": len(queries),
    }


def serve_multi(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: fleet throughput of the multi-model serving router.

    Registers two base tables (a users dimension and a sessions fact table)
    plus their equi-join — served exactly like a base table, per §4.1 — in a
    :class:`repro.serve.ModelRegistry`, then answers one interleaved mixed
    workload two ways: through a :class:`repro.serve.FleetRouter` (per-model
    micro-batches, per-model LRU caches under one shared budget) and through
    N independent sequential engines (one unbatched, uncached sampler pass
    per query, models visited one after another).  Both sides key every
    query's random stream by its global workload index, so the estimates
    agree to float round-off; the reported numbers are fleet queries/second,
    the per-route breakdown, and the routed-vs-sequential speedup.
    """
    from ..data import JoinSpec, make_sessions, make_users
    from ..serve import (
        FleetRouter,
        ModelRegistry,
        generate_mixed_workload,
        run_fleet_sequential,
    )

    scale = scale or active_scale()
    config = NaruConfig(epochs=scale.serve_multi_epochs, hidden_sizes=(64, 64),
                        batch_size=256,
                        progressive_samples=scale.serve_multi_samples, seed=0)
    registry = ModelRegistry(default_config=config)
    registry.register_table(make_users(scale.serve_multi_users))
    registry.register_table(make_sessions(scale.serve_multi_rows,
                                          num_users=scale.serve_multi_users))
    registry.register_join(JoinSpec("sessions", "users", "user_id", "user_id"))
    registry.fit_all()

    queries = generate_mixed_workload(
        {name: registry.relation(name) for name in registry.names},
        scale.serve_multi_queries, min_filters=2, max_filters=5, seed=0)

    sequential = run_fleet_sequential(registry, queries,
                                      num_samples=scale.serve_multi_samples,
                                      seed=0)
    router = FleetRouter(registry, batch_size=scale.serve_multi_batch_size,
                         num_samples=scale.serve_multi_samples, seed=0)
    cold = router.run(queries)      # first sight of the workload, caches empty
    warm = router.run(queries)      # steady state: per-model caches are hot

    drift = max(
        float(np.max(np.abs(cold.selectivities - sequential.selectivities))),
        float(np.max(np.abs(warm.selectivities - cold.selectivities))))
    cold_speedup = (sequential.stats.elapsed_s / cold.stats.elapsed_s
                    if cold.stats.elapsed_s > 0 else float("inf"))
    warm_speedup = (sequential.stats.elapsed_s / warm.stats.elapsed_s
                    if warm.stats.elapsed_s > 0 else float("inf"))
    misrouted = sum(result.route != result.query.table for result in warm.results)

    rows = []
    for route, route_stats in warm.stats.routes.items():
        cache = route_stats["cache"] or {}
        rows.append({
            "route": route,
            "queries": route_stats["num_queries"],
            "queries_per_second": route_stats["queries_per_second"],
            "cache_hit_rate": cache.get("hit_rate", 0.0),
        })
    rows.append({"route": "fleet", "queries": warm.stats.num_queries,
                 "queries_per_second": warm.stats.queries_per_second,
                 "cache_hit_rate": float("nan")})
    text = format_series(
        rows, ["route", "queries", "queries_per_second", "cache_hit_rate"],
        f"Multi-model serving ({len(registry)} relations, "
        f"{warm.stats.num_queries} queries, batch="
        f"{scale.serve_multi_batch_size}): {cold_speedup:.2f}x cold / "
        f"{warm_speedup:.2f}x warm over N sequential engines")
    return {
        "text": text,
        "speedup": warm_speedup,
        "cold_speedup": cold_speedup,
        "max_estimate_drift": drift,
        "misrouted": misrouted,
        "num_models": len(registry),
        "model_storage_bytes": registry.size_bytes(),
        "sequential": sequential.stats.as_dict(),
        "fleet": warm.stats.as_dict(),
        "fleet_cold": cold.stats.as_dict(),
        "num_queries": len(queries),
        "estimates": [result.selectivity for result in warm.results],
        "routes": [result.route for result in warm.results],
    }


def serve_replicated(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: replicated hot-relation serving with admission control.

    A skewed mixed workload (``serve_repl_hot_fraction`` of the queries hammer
    the sessions fact table) is answered four ways over the same two trained
    models:

    * ``sequential`` — one unbatched, uncached sampler pass per query, the
      single-engine-per-relation baseline,
    * ``replicated-cold`` / ``replicated-warm`` — a
      :class:`repro.serve.FleetRouter` with the hot relation registered at
      ``serve_repl_replicas`` engine replicas, a bounded pending queue
      (``max_pending``, ``block`` policy) and the fleet-wide exact-match
      result cache; the warm pass replays the workload against hot caches,
    * ``replicas=1`` — the same router configuration without replication,
      used to assert that replication never changes an estimate.

    Every run keys each query's random stream by ``(seed, global workload
    index)``, so all model-computed estimates agree to float round-off; the
    warm pass is served from the result cache bit-for-bit.  Speedups are
    wall-clock (the warm pass spends its time in cache lookups, not engine
    batches, so engine-internal latencies alone would overstate it).  A final
    mini-run with a deliberately tiny ``max_pending`` under the ``shed``
    policy demonstrates load shedding and the typed accounting around it.
    """
    from ..data import make_sessions, make_users
    from ..serve import (
        FleetRouter,
        ModelRegistry,
        canonical_query_key,
        generate_mixed_workload,
        run_fleet_sequential,
    )

    scale = scale or active_scale()
    config = NaruConfig(epochs=scale.serve_repl_epochs, hidden_sizes=(64, 64),
                        batch_size=256,
                        progressive_samples=scale.serve_repl_samples, seed=0)
    registry = ModelRegistry(default_config=config)
    registry.register_table(make_users(scale.serve_repl_users))
    registry.register_table(
        make_sessions(scale.serve_repl_rows, num_users=scale.serve_repl_users),
        replicas=scale.serve_repl_replicas)
    registry.fit_all()

    hot = scale.serve_repl_hot_fraction
    queries = generate_mixed_workload(
        {name: registry.relation(name) for name in registry.names},
        scale.serve_repl_queries, min_filters=2, max_filters=5, seed=0,
        weights={"users": 1.0 - hot, "sessions": hot})
    hot_queries = sum(query.table == "sessions" for query in queries)
    # Precondition of the warm-replay exactness claims below: an exact-match
    # cache may only hit on a true replay, so the workload must be free of
    # canonically-equal duplicates.  Fail here, loudly, rather than letting a
    # scale tweak surface as a confusing "drift" assertion in the benchmark.
    keys = [canonical_query_key(query, route=query.table) for query in queries]
    if len(set(keys)) != len(keys):
        raise RuntimeError(
            "serve_replicated needs a duplicate-free workload (the generated "
            "one collided); adjust the scale's serve_repl_* knobs")

    sequential, sequential_s = _timed(
        lambda: run_fleet_sequential(registry, queries,
                                     num_samples=scale.serve_repl_samples,
                                     seed=0))
    router = FleetRouter(registry, batch_size=scale.serve_repl_batch_size,
                         num_samples=scale.serve_repl_samples, seed=0,
                         max_pending=scale.serve_repl_max_pending,
                         overflow="block", result_cache=True)
    cold, cold_s = _timed(router.run, queries)   # caches empty, models cold
    warm, warm_s = _timed(router.run, queries)   # result cache answers repeats

    # Replication must not change a single estimate: serve the same workload
    # through an unreplicated router of the same shape and compare.
    registry.set_replicas("sessions", 1)
    single = FleetRouter(registry, batch_size=scale.serve_repl_batch_size,
                         num_samples=scale.serve_repl_samples, seed=0,
                         max_pending=scale.serve_repl_max_pending,
                         overflow="block").run(queries)
    registry.set_replicas("sessions", scale.serve_repl_replicas)

    drift = float(np.max(np.abs(cold.selectivities - sequential.selectivities)))
    replica_drift = float(np.max(np.abs(cold.selectivities - single.selectivities)))
    warm_drift = float(np.max(np.abs(warm.selectivities - cold.selectivities)))
    cold_speedup = sequential_s / cold_s if cold_s > 0 else float("inf")
    warm_speedup = sequential_s / warm_s if warm_s > 0 else float("inf")

    # Load-shedding demonstration: a group bounded far below the burst size
    # refuses the overflow loudly and accounts for every refusal.
    shedder = FleetRouter(registry, batch_size=scale.serve_repl_batch_size,
                          num_samples=scale.serve_repl_samples, seed=0,
                          max_pending=2, overflow="shed")
    shed_report = shedder.run(queries)

    hot_stats = warm.stats.routes.get("sessions", {})
    rows = [
        {"mode": "sequential", "wall_s": sequential_s,
         "queries_per_second": len(queries) / sequential_s},
        {"mode": "replicated-cold", "wall_s": cold_s,
         "queries_per_second": len(queries) / cold_s},
        {"mode": "replicated-warm", "wall_s": warm_s,
         "queries_per_second": len(queries) / warm_s},
    ]
    text = format_series(
        rows, ["mode", "wall_s", "queries_per_second"],
        f"Replicated hot-relation serving ({hot_queries}/{len(queries)} "
        f"queries on sessions x{scale.serve_repl_replicas} replicas, "
        f"max_pending={scale.serve_repl_max_pending}): "
        f"{cold_speedup:.2f}x cold / {warm_speedup:.2f}x warm over one "
        f"sequential engine per relation; replica drift {replica_drift:.1e}, "
        f"shed demo refused {shed_report.stats.shed}/{len(queries)}")
    return {
        "text": text,
        "speedup": warm_speedup,
        "cold_speedup": cold_speedup,
        "max_estimate_drift": drift,
        "replica_drift": replica_drift,
        "warm_drift": warm_drift,
        "replicas": scale.serve_repl_replicas,
        "hot_queries": hot_queries,
        "num_queries": len(queries),
        "shed": warm.stats.shed,
        "shed_demo": shed_report.stats.shed,
        "shed_demo_served": shed_report.stats.num_queries,
        "result_cache": warm.stats.result_cache,
        "result_cache_hits": warm.result_cache_hits,
        "sequential_wall_s": sequential_s,
        "cold_wall_s": cold_s,
        "warm_wall_s": warm_s,
        "sequential": sequential.stats.as_dict(),
        "fleet_cold": cold.stats.as_dict(),
        "fleet_warm": warm.stats.as_dict(),
        "hot_route": hot_stats,
        "estimates": [result.selectivity for result in warm.results],
    }


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

    Every mode's estimates are compared against the unbatched
    :func:`repro.serve.run_fleet_sequential` baseline — adaptive batch
    boundaries, timeout flushes, pacing and shuffled streaming must not
    move a single number.

    The headline claim: steering the batch size on end-to-end latency (and
    bounding tail wait with the flush timeout) makes the fleet meet an SLO,
    stated against what a submitter experiences, that the fixed batch misses.
    """
    from ..data import make_sessions, make_users
    from ..serve import (
        FleetRouter,
        ModelRegistry,
        VirtualClock,
        generate_bursty_workload,
        run_fleet_sequential,
        stream_workload,
    )

    scale = scale or active_scale()
    config = NaruConfig(epochs=scale.serve_stream_epochs, hidden_sizes=(64, 64),
                        batch_size=256,
                        progressive_samples=scale.serve_stream_samples, seed=0)
    registry = ModelRegistry(default_config=config)
    registry.register_table(make_users(scale.serve_stream_users))
    registry.register_table(make_sessions(scale.serve_stream_rows,
                                          num_users=scale.serve_stream_users))
    registry.fit_all()

    hot = scale.serve_stream_hot_fraction
    queries = generate_bursty_workload(
        {name: registry.relation(name) for name in registry.names},
        scale.serve_stream_queries, hot="sessions",
        burst_size=scale.serve_stream_burst, min_filters=2, max_filters=5,
        seed=0, weights={"users": 1.0 - hot, "sessions": hot})
    hot_queries = sum(query.table == "sessions" for query in queries)
    max_batch = scale.serve_stream_max_batch

    baseline = run_fleet_sequential(registry, queries,
                                    num_samples=scale.serve_stream_samples,
                                    seed=0)

    # Calibrate the arrival pacing: one unpaced max-batch probe measures the
    # host's per-query dispatch cost, and queries then arrive one such cost
    # apart — fast hosts get tight pacing, slow hosts loose, and the
    # queueing dynamics stay comparable everywhere.
    probe = FleetRouter(registry, batch_size=max_batch,
                        num_samples=scale.serve_stream_samples,
                        use_cache=False, seed=0).run(queries)
    arrival_gap_ms = (probe.stats.routes["sessions"]["latency_ms"]["p95"]
                      / max_batch)

    def paced_clock() -> VirtualClock:
        return VirtualClock(base=time.perf_counter)

    def paced(router, order=None):
        return _timed(stream_workload, router, queries, arrival_order=order,
                      advance_ms=arrival_gap_ms)

    fixed_router = FleetRouter(registry, batch_size=max_batch,
                               num_samples=scale.serve_stream_samples,
                               use_cache=False, seed=0, clock=paced_clock())
    fixed, fixed_s = paced(fixed_router)
    fixed_e2e_p95 = fixed.stats.routes["sessions"]["e2e_ms"]["p95"]
    slo_ms = fixed_e2e_p95 * scale.serve_stream_slo_fraction
    flush_after_ms = slo_ms * scale.serve_stream_flush_fraction

    def adaptive_router() -> FleetRouter:
        return FleetRouter(registry, batch_size=max_batch,
                           num_samples=scale.serve_stream_samples,
                           use_cache=False, seed=0, slo_ms=slo_ms,
                           flush_after_ms=flush_after_ms, clock=paced_clock())

    # The controller observes end-to-end latency and the flush deadline
    # bounds how long a partial batch may linger.
    e2e_router = adaptive_router()
    e2e_warmup, e2e_warmup_s = paced(e2e_router)
    e2e_steady, e2e_steady_s = paced(e2e_router)

    order = np.random.default_rng(1).permutation(len(queries)).tolist()
    streamed, streamed_s = paced(adaptive_router(), order)

    drift = max(
        float(np.max(np.abs(report.selectivities - baseline.selectivities)))
        for report in (fixed, e2e_warmup, e2e_steady, streamed))

    def hot_latencies(report) -> dict:
        stats = report.stats.routes["sessions"]
        return {"dispatch_p95_ms": stats["latency_ms"]["p95"],
                "queue_wait_p95_ms": stats["queue_wait_ms"]["p95"],
                "e2e_p95_ms": stats["e2e_ms"]["p95"]}

    e2e_scoped = hot_latencies(e2e_steady)
    rows = []
    for mode, report, wall_s in (
            ("fixed", fixed, fixed_s),
            ("e2e-warmup", e2e_warmup, e2e_warmup_s),
            ("e2e-steady", e2e_steady, e2e_steady_s),
            ("streamed-shuffled", streamed, streamed_s)):
        hot_stats = report.stats.routes["sessions"]
        rows.append({
            "mode": mode,
            "dispatch_p95_ms": hot_stats["latency_ms"]["p95"],
            "queue_p95_ms": hot_stats["queue_wait_ms"]["p95"],
            "e2e_p95_ms": hot_stats["e2e_ms"]["p95"],
            "timeout_flushes": hot_stats["timeout_flushes"],
            "queries_per_second": len(queries) / wall_s if wall_s > 0 else 0.0,
            "batches": hot_stats["num_batches"],
        })
    text = format_series(
        rows, ["mode", "dispatch_p95_ms", "queue_p95_ms", "e2e_p95_ms",
               "timeout_flushes", "queries_per_second", "batches"],
        f"End-to-end SLOs + streaming ({hot_queries}/{len(queries)} queries "
        f"on sessions in bursts of {scale.serve_stream_burst}, max batch "
        f"{max_batch}, arrivals paced {arrival_gap_ms:.1f} ms apart): stated "
        f"e2e p95 SLO {slo_ms:.1f} ms (= "
        f"{scale.serve_stream_slo_fraction:.0%} of fixed e2e p95 "
        f"{fixed_e2e_p95:.1f} ms), flush timeout {flush_after_ms:.1f} ms — "
        f"e2e-scoped steering delivers e2e p95 "
        f"{e2e_scoped['e2e_p95_ms']:.1f} ms "
        f"({'meets' if e2e_scoped['e2e_p95_ms'] <= slo_ms else 'misses'}); "
        f"drift vs sequential baseline {drift:.1e}")
    return {
        "text": text,
        "slo_ms": slo_ms,
        "slo_fraction": scale.serve_stream_slo_fraction,
        "flush_after_ms": flush_after_ms,
        "flush_fraction": scale.serve_stream_flush_fraction,
        "arrival_gap_ms": arrival_gap_ms,
        "fixed_e2e_p95_ms": fixed_e2e_p95,
        "e2e_scoped": e2e_scoped,
        "e2e_scoped_meets_e2e_slo": e2e_scoped["e2e_p95_ms"] <= slo_ms,
        "fixed_meets_e2e_slo": fixed_e2e_p95 <= slo_ms,
        "max_estimate_drift": drift,
        "max_batch": max_batch,
        "burst_size": scale.serve_stream_burst,
        "hot_queries": hot_queries,
        "num_queries": len(queries),
        "e2e_batch_trace": list(
            e2e_warmup.stats.routes["sessions"]["batch_trace"] or []),
        "e2e_controller": e2e_router.controller("sessions").as_dict(),
        "modes": rows,
        "fixed": fixed.stats.as_dict(),
        "e2e_steady": e2e_steady.stats.as_dict(),
        "streamed": streamed.stats.as_dict(),
        "estimates": [result.selectivity for result in e2e_steady.results],
    }


def serve_procfleet(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: cross-process sharded serving with a ProcessFleet.

    The same mixed three-relation workload (users, sessions, their equi-join)
    is served three ways over the same trained models, conditional caches off
    so the process fleet's per-engine caches cannot differ from the router's
    group-shared ones:

    * ``sequential`` — one unbatched, uncached sampler pass per query,
    * ``fleet`` — the in-process :class:`repro.serve.FleetRouter` with every
      relation at ``serve_proc_workers`` replicas,
    * ``procfleet`` — a :class:`repro.serve.ProcessFleet` of
      ``serve_proc_workers`` OS worker processes hosting those same replicas
      (one per worker), models shipped via :mod:`repro.nn.serialization`.

    Every run keys each query's random stream by ``(seed, global workload
    index)``, so the process boundary must not change a single bit:
    ``fleet_drift`` compares the process fleet against the in-process router
    bit-for-bit, and a final ``batch_size=1`` process-fleet pass must match
    :func:`repro.serve.run_fleet_sequential` exactly
    (``max_estimate_drift == 0.0``).

    Throughput is reported two ways because CI hosts may expose a single
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
    from ..data import JoinSpec, make_sessions, make_users
    from ..serve import (
        FleetRouter,
        ModelRegistry,
        ProcessFleet,
        generate_mixed_workload,
        run_fleet_sequential,
    )

    scale = scale or active_scale()
    workers = scale.serve_proc_workers
    # (32, 32) hidden layers, not the (64, 64) of the in-process serving
    # benches: N workers time-slicing a small CI host each keep a private
    # copy of the model, and the smaller working set stays cache-resident
    # across context switches — the capacity numbers measure serving, not
    # the host's L2.
    config = NaruConfig(epochs=scale.serve_proc_epochs, hidden_sizes=(32, 32),
                        batch_size=256,
                        progressive_samples=scale.serve_proc_samples, seed=0)
    registry = ModelRegistry(default_config=config)
    registry.register_table(make_users(scale.serve_proc_users))
    registry.register_table(make_sessions(scale.serve_proc_rows,
                                          num_users=scale.serve_proc_users))
    registry.register_join(JoinSpec("sessions", "users", "user_id", "user_id"))
    registry.fit_all()
    # One replica of every relation per worker: each worker serves the whole
    # fleet, so micro-batch composition matches the in-process router's and
    # the bit-exactness comparison below is meaningful.
    for name in registry.names:
        registry.set_replicas(name, workers)

    queries = generate_mixed_workload(
        {name: registry.relation(name) for name in registry.names},
        scale.serve_proc_queries, min_filters=2, max_filters=5, seed=0)

    sequential, sequential_s = _timed(
        lambda: run_fleet_sequential(registry, queries,
                                     num_samples=scale.serve_proc_samples,
                                     seed=0))

    router = FleetRouter(registry, batch_size=scale.serve_proc_batch_size,
                         num_samples=scale.serve_proc_samples,
                         use_cache=False, seed=0)
    _, fleet_cold_s = _timed(router.run, queries)
    fleet, fleet_s = _timed(router.run, queries)       # steady state

    proc_fleet, spawn_s = _timed(
        lambda: ProcessFleet(registry, workers=workers,
                             batch_size=scale.serve_proc_batch_size,
                             num_samples=scale.serve_proc_samples,
                             use_cache=False, seed=0))
    try:
        _, proc_cold_s = _timed(proc_fleet.run, queries)
        proc, proc_s = _timed(proc_fleet.run, queries)  # steady state
    finally:
        proc_fleet.close()
    worker_stats = proc.stats.workers or {}
    critical_path_s = max(
        (stats["busy_cpu_ms"] for stats in worker_stats.values()),
        default=0.0) / 1000.0

    # Determinism pass: batch_size=1 with caches off walks the exact code
    # path of the sequential baseline, just on the far side of a pipe.
    with ProcessFleet(registry, workers=workers, batch_size=1,
                      num_samples=scale.serve_proc_samples,
                      use_cache=False, seed=0) as exact_fleet:
        exact = exact_fleet.run(queries)

    drift = float(np.max(np.abs(exact.selectivities
                                - sequential.selectivities)))
    batched_drift = float(np.max(np.abs(fleet.selectivities
                                        - sequential.selectivities)))
    fleet_drift = float(np.max(np.abs(proc.selectivities
                                      - fleet.selectivities)))
    wall_speedup = fleet_s / proc_s if proc_s > 0 else float("inf")
    speedup = (fleet_s / critical_path_s
               if critical_path_s > 0 else float("inf"))

    rows = [
        {"mode": "sequential", "wall_s": sequential_s,
         "queries_per_second": len(queries) / sequential_s},
        {"mode": "fleet", "wall_s": fleet_s,
         "queries_per_second": len(queries) / fleet_s},
        {"mode": "procfleet-wall", "wall_s": proc_s,
         "queries_per_second": len(queries) / proc_s},
        {"mode": "procfleet-capacity", "wall_s": critical_path_s,
         "queries_per_second": (len(queries) / critical_path_s
                                if critical_path_s > 0 else float("inf"))},
    ]
    text = format_series(
        rows, ["mode", "wall_s", "queries_per_second"],
        f"Cross-process fleet ({workers} workers x {len(registry)} "
        f"relations, {len(queries)} queries, batch="
        f"{scale.serve_proc_batch_size}, host_cpus={os.cpu_count()}): "
        f"capacity {speedup:.2f}x / wall {wall_speedup:.2f}x over the "
        f"single-process fleet; process-boundary drift {fleet_drift:.1e}, "
        f"batch=1 drift vs sequential {drift:.1e}")
    return {
        "text": text,
        "speedup": speedup,
        "wall_speedup": wall_speedup,
        "max_estimate_drift": drift,
        "batched_drift": batched_drift,
        "fleet_drift": fleet_drift,
        "workers": workers,
        "host_cpus": os.cpu_count(),
        "spawn_s": spawn_s,
        "sequential_wall_s": sequential_s,
        "fleet_cold_s": fleet_cold_s,
        "fleet_wall_s": fleet_s,
        "procfleet_cold_s": proc_cold_s,
        "procfleet_wall_s": proc_s,
        "critical_path_s": critical_path_s,
        "sequential_qps": len(queries) / sequential_s,
        "fleet_qps": len(queries) / fleet_s,
        "wall_qps": len(queries) / proc_s,
        "capacity_qps": (len(queries) / critical_path_s
                         if critical_path_s > 0 else float("inf")),
        "worker_stats": worker_stats,
        "num_queries": len(queries),
        "sequential": sequential.stats.as_dict(),
        "fleet": fleet.stats.as_dict(),
        "procfleet": proc.stats.as_dict(),
        "estimates": [result.selectivity for result in proc.results],
    }


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
    from ..data.shift import PartitionedIngest, encode_with_dictionaries
    from ..serve import FleetRouter, ModelRegistry, RefreshController

    scale = scale or active_scale()
    table = make_dmv(scale.serve_refresh_rows)
    ingest = PartitionedIngest(table, "valid_date",
                               scale.serve_refresh_partitions)
    visible = ingest.ingest_next()

    # Full-table dictionaries ("domain from user annotation", §6.7.3), model
    # trained only on the first partition — the serving twin of table8.
    config = NaruConfig(hidden_sizes=(64, 64), epochs=0, batch_size=256,
                        progressive_samples=scale.serve_refresh_samples,
                        seed=0)
    estimator = NaruEstimator(table, config)
    estimator.refresh(encode_with_dictionaries(table, visible),
                      epochs=scale.serve_refresh_epochs)
    estimator._fitted = True
    estimator.set_row_count(visible.num_rows)

    registry = ModelRegistry(default_config=config)
    registry.register_table(visible, name="dmv", estimator=estimator)
    controller = RefreshController(
        registry, max_staleness=0,
        refresh_epochs=scale.serve_refresh_fine_tune_epochs)

    generator = WorkloadGenerator(visible, min_filters=5,
                                  max_filters=min(11, table.num_columns),
                                  seed=900)
    queries = [query.qualified("dmv")
               for query in generator.generate(scale.serve_refresh_queries)]

    def router_for() -> "FleetRouter":
        return FleetRouter(registry,
                           batch_size=scale.serve_refresh_batch_size,
                           num_samples=scale.serve_refresh_samples, seed=0,
                           result_cache=True, cache_entries=8_192)

    router = router_for()

    def measure(phase: str):
        report, elapsed = _timed(router.run, queries)
        current = registry.relation("dmv")
        errors = [q_error(result.cardinality,
                          true_selectivity(current, result.query)
                          * current.num_rows)
                  for result in report.results]
        entry = {
            "phase": phase,
            "partitions": ingest.num_ingested,
            "staleness": registry.staleness("dmv"),
            "drift_bits": controller.last_drift_bits.get("dmv") or 0.0,
            "p90": float(np.quantile(errors, 0.90)),
            "max": summarize_errors(errors).maximum,
            "elapsed_s": elapsed,
        }
        return entry, report

    rows = []
    fresh, _ = measure("fresh")
    rows.append(fresh)
    while ingest.remaining():
        part = ingest.partitions[ingest.num_ingested]
        ingest.ingest_next()
        record = controller.ingest("dmv", part)
        entry, _ = measure(f"stale+{record['staleness']}")
        rows.append(entry)
    last_stale = rows[-1]

    controller.refresh("dmv")
    refreshed, post_report = measure("refreshed")
    rows.append(refreshed)

    # The zero-stale-hit proof: a cold router over the refreshed registry
    # has never seen a single pre-bump cache entry, so any surviving stale
    # state in the long-lived router shows up as a differing estimate.
    cold_report = router_for().run(queries)
    invalid_cache_hits = int(np.count_nonzero(
        post_report.selectivities != cold_report.selectivities))
    cache_stats = router.result_cache.stats.as_dict()
    stale_rejects = cache_stats["lifetime"]["stale_rejects"]

    text = format_series(
        rows, ["phase", "partitions", "staleness", "drift_bits", "p90",
               "max", "elapsed_s"],
        f"Live refresh under partitioned ingest (DMV by date, "
        f"{scale.serve_refresh_partitions} partitions, "
        f"{scale.serve_refresh_queries} queries): stale p90 "
        f"{fresh['p90']:.2f} -> {last_stale['p90']:.2f}, refreshed "
        f"{refreshed['p90']:.2f}; invalid cache hits {invalid_cache_hits}, "
        f"stale result-cache entries rejected {stale_rejects}")
    return {
        "text": text,
        "results": rows,
        "fresh_p90": fresh["p90"],
        "fresh_max": fresh["max"],
        "stale_p90": last_stale["p90"],
        "stale_max": last_stale["max"],
        "refreshed_p90": refreshed["p90"],
        "refreshed_max": refreshed["max"],
        "invalid_cache_hits": invalid_cache_hits,
        "result_cache_stale_rejects": stale_rejects,
        "result_cache": cache_stats,
        "epochs": post_report.stats.epochs,
        "max_staleness_served": max(entry["staleness"] for entry in rows),
        "num_queries": len(queries),
        "estimates": [result.selectivity for result in post_report.results],
    }


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
    e2e p95 still meets the SLO.

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
    from ..data import make_sessions, make_users
    from ..serve import (
        ArrivalTrace,
        CacheWipe,
        FleetRouter,
        ModelRegistry,
        ProcessFleet,
        SlowReplica,
        VirtualClock,
        assert_degraded_not_collapsed,
        generate_mixed_workload,
        locate_knee,
        run_fleet_sequential,
        run_kill_worker_drill,
        run_open_loop,
        sweep_offered_load,
    )

    scale = scale or active_scale()
    config = NaruConfig(epochs=scale.serve_loadgen_epochs,
                        hidden_sizes=(64, 64), batch_size=256,
                        progressive_samples=scale.serve_loadgen_samples,
                        seed=0)
    registry = ModelRegistry(default_config=config)
    registry.register_table(make_users(scale.serve_loadgen_users),
                            replicas=scale.serve_loadgen_replicas)
    registry.register_table(
        make_sessions(scale.serve_loadgen_rows,
                      num_users=scale.serve_loadgen_users),
        replicas=scale.serve_loadgen_replicas)
    registry.fit_all()
    queries = generate_mixed_workload(
        {name: registry.relation(name) for name in registry.names},
        scale.serve_loadgen_queries, min_filters=2, max_filters=5, seed=0)

    # Trace record/replay: byte-stable files, exact arrival reproduction.
    recorded = ArrivalTrace.record("poisson", rate_qps=100.0, duration_s=2.0,
                                   seed=7)
    first_bytes = recorded.to_json()
    replayed = None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        recorded.save(path)
        replayed = ArrivalTrace.load(path)
    trace_byte_stable = (replayed.to_json() == first_bytes
                         and replayed.timestamps == recorded.timestamps)

    # Closed-loop probe: the host's capacity (completions per wall-second at
    # the full batch size) and the service-time e2e p95 the SLO scales from.
    probe_router = FleetRouter(registry,
                               batch_size=scale.serve_loadgen_batch_size,
                               num_samples=scale.serve_loadgen_samples,
                               seed=0)
    probe, probe_s = _timed(probe_router.run, queries)
    capacity_qps = len(queries) / probe_s if probe_s > 0 else float("inf")
    probe_e2e_p95 = probe.stats.e2e_ms["p95"]
    slo_ms = probe_e2e_p95 * scale.serve_loadgen_slo_multiplier
    # A partial micro-batch may linger at most one probe-p95 before it is
    # force-dispatched, so low offered rates are not dominated by
    # batch-fill waiting (which would invert the curve).
    flush_after_ms = probe_e2e_p95

    duration_s = scale.serve_loadgen_duration_s
    rates = [fraction * capacity_qps
             for fraction in scale.serve_loadgen_rate_fractions]

    def fresh_router() -> FleetRouter:
        return FleetRouter(registry,
                           batch_size=scale.serve_loadgen_batch_size,
                           num_samples=scale.serve_loadgen_samples, seed=0,
                           max_pending=scale.serve_loadgen_max_pending,
                           overflow="shed", flush_after_ms=flush_after_ms,
                           clock=VirtualClock(base=time.perf_counter))

    rows = sweep_offered_load(fresh_router, queries, rates,
                              duration_s=duration_s, process="poisson",
                              seed=0)
    for fraction, row in zip(scale.serve_loadgen_rate_fractions, rows):
        row["rate_fraction"] = fraction
    knee = locate_knee(rows, slo_ms)

    # Chaos drills at the mid offered rate: each must degrade, not collapse.
    mid_rate = rates[len(rates) // 2]
    chaos_trace = ArrivalTrace.record("poisson", rate_qps=mid_rate,
                                      duration_s=duration_s, seed=1)
    expanded = [queries[i % len(queries)] for i in range(len(chaos_trace))]
    chaos_baseline = run_fleet_sequential(
        registry, expanded, num_samples=scale.serve_loadgen_samples, seed=0)
    scenarios = {}
    for name, scenario in (
            ("slow_replica", SlowReplica("sessions", delay_ms=20.0,
                                         at_fraction=0.25)),
            ("cache_wipe", CacheWipe(at_fraction=0.5))):
        outcome = run_open_loop(fresh_router(), queries, chaos_trace,
                                scenario=scenario)
        scenarios[name] = assert_degraded_not_collapsed(
            outcome, baseline=chaos_baseline,
            max_pending=scale.serve_loadgen_max_pending)
        scenarios[name]["e2e_p95_ms"] = outcome.e2e_p95_ms

    drill_queries = expanded[:max(4 * scale.serve_loadgen_batch_size
                                  * scale.serve_loadgen_workers, 64)]
    fleet = ProcessFleet(registry, workers=scale.serve_loadgen_workers,
                         batch_size=scale.serve_loadgen_batch_size,
                         num_samples=scale.serve_loadgen_samples, seed=0,
                         recv_timeout_s=30.0)
    try:
        drill = run_kill_worker_drill(fleet, drill_queries)
    finally:
        fleet.close()
    scenarios["kill_worker"] = drill

    knee_note = (f"knee at {knee['knee_qps']:.1f} qps offered"
                 if knee["knee_qps"] is not None
                 else "no offered rate met the SLO")
    over_note = (f"first over at {knee['first_over_qps']:.1f} qps"
                 if knee["first_over_qps"] is not None
                 else "every swept rate met the SLO")
    text = format_series(
        rows, ["rate_fraction", "offered_qps", "achieved_qps", "completed",
               "shed", "peak_pending", "service_p95_ms", "e2e_p95_ms"],
        f"Latency vs offered load (Poisson arrivals over {duration_s:g} s "
        f"windows, {len(queries)} distinct queries cycled, "
        f"max_pending {scale.serve_loadgen_max_pending}, overflow shed): "
        f"closed-loop capacity {capacity_qps:.1f} qps, e2e p95 SLO "
        f"{slo_ms:.1f} ms (= {scale.serve_loadgen_slo_multiplier:g}x probe "
        f"e2e p95 {probe_e2e_p95:.1f} ms, flush timeout "
        f"{flush_after_ms:.1f} ms; e2e is measured from each query's "
        f"*scheduled* arrival) -> {knee_note}, {over_note}")
    chaos_lines = [
        f"chaos @ {mid_rate:.1f} qps offered:",
        (f"  slow_replica: completed {scenarios['slow_replica']['completed']}"
         f", shed {scenarios['slow_replica']['shed']}, peak pending "
         f"{scenarios['slow_replica']['peak_pending']}, drift "
         f"{scenarios['slow_replica']['max_estimate_drift']:.1e} — degraded,"
         " not collapsed"),
        (f"  cache_wipe:   completed {scenarios['cache_wipe']['completed']}"
         f", shed {scenarios['cache_wipe']['shed']}, peak pending "
         f"{scenarios['cache_wipe']['peak_pending']}, drift "
         f"{scenarios['cache_wipe']['max_estimate_drift']:.1e} — degraded,"
         " not collapsed"),
        (f"  kill_worker:  worker {drill['killed_worker']} SIGKILLed after "
         f"{drill['kill_after']}/{drill['submitted']} submissions -> "
         f"{drill['error_type']} (exit {drill['error_exit_code']}) in "
         f"{drill['wall_s']:.2f} s — typed, no hang"),
        f"trace record/replay byte-stable: {trace_byte_stable}",
    ]
    text = text + "\n" + "\n".join(chaos_lines)
    return {
        "text": text,
        "capacity_qps": capacity_qps,
        "probe_e2e_p95_ms": probe_e2e_p95,
        "slo_ms": slo_ms,
        "slo_multiplier": scale.serve_loadgen_slo_multiplier,
        "flush_after_ms": flush_after_ms,
        "duration_s": duration_s,
        "rate_fractions": list(scale.serve_loadgen_rate_fractions),
        "max_pending": scale.serve_loadgen_max_pending,
        "curve": rows,
        "knee": knee,
        "chaos_offered_qps": mid_rate,
        "scenarios": scenarios,
        "trace_byte_stable": trace_byte_stable,
        "num_queries": len(queries),
        "workers": scale.serve_loadgen_workers,
    }


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
    served, median/p95 q-error, and p95 end-to-end latency for the Naru
    primaries and the sampling fallbacks side by side.
    """
    from ..data import make_sessions, make_users
    from ..query import true_selectivities
    from ..query.predicates import DNFQuery
    from ..query.shapes import QueryShape, query_shape
    from ..serve import (
        FleetRouter,
        ModelRegistry,
        generate_shape_workload,
        run_fleet_sequential,
    )

    scale = scale or active_scale()
    config = NaruConfig(epochs=scale.serve_ens_epochs, hidden_sizes=(64, 64),
                        batch_size=256,
                        progressive_samples=scale.serve_ens_samples, seed=0)
    registry = ModelRegistry(default_config=config)
    users = make_users(scale.serve_ens_users)
    sessions = make_sessions(scale.serve_ens_rows,
                             num_users=scale.serve_ens_users)
    for table in (users, sessions):
        registry.register_table(table, fallback=SamplingEstimator(
            table, sample_size=scale.serve_ens_fallback_sample, seed=0))
    registry.fit_all()

    queries = generate_shape_workload(
        {name: registry.relation(name) for name in registry.names},
        scale.serve_ens_queries, dnf_fraction=scale.serve_ens_dnf_fraction,
        like_fraction=scale.serve_ens_like_fraction, dnf_branches=(2, 6),
        seed=0)
    shape_mix = {}
    for query in queries:
        shape = query_shape(query).value
        shape_mix[shape] = shape_mix.get(shape, 0) + 1

    router = FleetRouter(registry, batch_size=scale.serve_ens_batch_size,
                         num_samples=scale.serve_ens_samples, seed=0)
    report = router.run(queries)
    sequential = run_fleet_sequential(registry, queries,
                                      num_samples=scale.serve_ens_samples,
                                      seed=0)
    drift = float(np.max(np.abs(report.selectivities -
                                sequential.selectivities)))

    # Routing audit against the capability matrix: the fallback serves
    # exactly the disjunctions whose branch count exceeds the Naru primary's
    # inclusion–exclusion bound, and nothing else.
    max_branches = registry.default_config.max_dnf_branches
    overflow = {index for index, query in enumerate(queries)
                if isinstance(query, DNFQuery)
                and len(query.branches) > max_branches}
    fallback_served = {result.index for result in report.results
                      if result.estimator.startswith("Sample(")}
    if fallback_served != overflow:
        raise AssertionError(
            f"fallback routing mismatch: expected indices {sorted(overflow)}, "
            f"served {sorted(fallback_served)}")

    # Per-estimator accuracy (exact truths from the executor, which unions
    # branch masks for DNF and masks prefixes like any comparison).
    truths: dict[int, float] = {}
    errors = []
    for result in report.results:
        relation = registry.relation(result.route)
        truth = true_selectivities(relation, [result.query])[0]
        truths[result.index] = float(truth * relation.num_rows)
        errors.append(q_error(result.cardinality, truths[result.index]))
    accuracy = report.accuracy_by_estimator(truths)
    latency = report.stats.estimators or {}

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

    rows = []
    for name in sorted(set(accuracy) | set(latency)):
        acc = accuracy.get(name, {})
        lat = latency.get(name, {})
        e2e = lat.get("e2e_ms") or {}
        rows.append({
            "estimator": name,
            "queries": acc.get("num_queries", lat.get("num_queries", 0)),
            "median_qerror": acc.get("median_qerror", float("nan")),
            "p95_qerror": acc.get("p95_qerror", float("nan")),
            "e2e_p95_ms": e2e.get("p95", float("nan")),
        })
    mix_note = ", ".join(f"{count} {shape}"
                         for shape, count in sorted(shape_mix.items()))
    text = format_series(
        rows, ["estimator", "queries", "median_qerror", "p95_qerror",
               "e2e_p95_ms"],
        f"Estimator ensemble over a widened workload ({mix_note}; "
        f"max drift {drift:.1e}, I-E oracle gap {ie_oracle_gap:.1e})")
    return {
        "text": text,
        "shape_mix": shape_mix,
        "max_estimate_drift": drift,
        "ie_oracle_gap": ie_oracle_gap,
        "ie_oracle_queries": len(oracle_queries),
        "fallback_served": len(fallback_served),
        "overflow_dnf": len(overflow),
        "max_dnf_branches": max_branches,
        "accuracy_by_estimator": accuracy,
        "estimators": latency,
        "q_error_median": float(np.median(errors)),
        "q_error_p95": float(np.quantile(errors, 0.95)),
        "fleet": report.stats.as_dict(),
        "sequential": sequential.stats.as_dict(),
        "num_queries": len(queries),
        "estimates": [result.selectivity for result in report.results],
        "routes": [result.route for result in report.results],
    }
