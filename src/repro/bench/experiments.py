"""One reproduction function per table and figure of the paper's evaluation.

Every function is self-contained: it generates the (synthetic) dataset,
builds and trains the relevant estimators, runs the workload, and returns a
dictionary holding the structured results plus their renderings, split by
what determines them: ``text`` holds only what the seed determines (q-errors,
counts) and comes back byte-identical on every run, while ``timing_text``
(and, for the ``serve_*`` experiments, the JSON-able ``timing``) hold
whatever a clock was read for.  An experiment with nothing on one side omits
that side's keys; the three ``serve_*`` experiments beyond the paper are
wall-clock gates, so they have only the timing side.  The functions are what
the ``benchmarks/`` suite and the ``python -m repro.bench`` command line call.

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

import copy
import os
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
    make_conviva_a,
    make_conviva_b,
    make_dmv,
    make_sessions,
    make_users,
    partition_by_column,
)
from ..data.shift import encode_with_dictionaries
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
    true_cardinality,
)
from ..serve import (
    FleetRouter,
    ModelRegistry,
    ProcessFleet,
    RefreshController,
    VirtualClock,
    generate_bursty_workload,
    generate_mixed_workload,
    locate_knee,
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
from .scales import ExperimentScale, ServeScale, active_scale

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
    "serve_stream",
    "serve_procfleet",
    "serve_loadgen",
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
    """Reproduce Table 8: stale vs refreshed Naru under partition-by-partition ingest.

    One model, built on the full table's dictionaries (§6.7.3's "domain from
    user annotation") and trained on partition 1, serves two relations of one
    registry behind one long-lived, result-cached router.  Both ingest every
    partition through one :class:`repro.serve.RefreshController` (so both
    know today's row count); only ``refreshed`` is then fine-tuned, one epoch
    per partition.  ``queries_changed`` counts the queries a partition holds
    a matching row for.  The header claims: the last row's estimates against
    a never-cached router, the pre-ingest entries the lookups refused, and
    the last row's (hence the worst) staleness served.
    """
    scale = scale or active_scale()
    table = make_dmv(scale.dmv_rows)
    partitions = partition_by_column(table, "valid_date", scale.shift_partitions)
    config = NaruConfig(hidden_sizes=scale.naru_hidden, epochs=0,
                        batch_size=scale.naru_batch_size,
                        progressive_samples=scale.naru_samples[-1], seed=0)
    trained = NaruEstimator(table, config)
    trained.refresh(encode_with_dictionaries(table, partitions[0]),
                    epochs=scale.naru_epochs)
    trained.set_row_count(partitions[0].num_rows)
    registry = ModelRegistry(default_config=config)
    registry.register_table(partitions[0], name="refreshed", estimator=trained)
    registry.register_table(partitions[0], name="stale", estimator=copy.deepcopy(
        trained, {id(table): table}))
    controller = RefreshController(registry, refresh_epochs=1)
    queries = WorkloadGenerator(
        partitions[0], min_filters=5, max_filters=min(11, table.num_columns),
        seed=900).generate(scale.shift_queries)
    # matches[p, i]: partition p's rows matching query i; the visible
    # relation's exact cardinalities are their running sum.
    matches = np.array([[true_cardinality(part, query) for query in queries]
                        for part in partitions])
    truths = np.cumsum(matches, axis=0)

    serving = {"num_samples": config.progressive_samples, "seed": 0,
               "result_cache": True, "cache_entries": 8_192}

    def serve(router: FleetRouter) -> dict:
        return {name: router.run([query.qualified(name) for query in queries])
                for name in registry.names}

    router = FleetRouter(registry, **serving)
    rows = []
    for index, part in enumerate(partitions):
        if index > 0:
            for name in registry.names:
                controller.ingest(name, part)
            controller.refresh("refreshed")
        served = serve(router)
        entry = {"partitions_ingested": index + 1,
                 "queries_changed": int(np.count_nonzero(matches[index]))}
        for name, report in served.items():
            errors = [q_error(estimate, truth) for estimate, truth
                      in zip(report.cardinalities, truths[index])]
            entry[f"{name}_p90"] = float(np.quantile(errors, 0.90))
            entry[f"{name}_max"] = max(errors)
        rows.append(entry)

    cold = serve(FleetRouter(registry, **serving))
    claims = {
        "invalid_cache_hits": sum(int(np.count_nonzero(
            served[name].selectivities != cold[name].selectivities))
            for name in registry.names),
        "result_cache_stale_rejects":
            router.result_cache.stats.as_dict()["lifetime"]["stale_rejects"],
        "max_staleness_served": served["stale"].stats.max_staleness}
    header = ", ".join(f"{key} {value}" for key, value in claims.items())
    text = format_series(rows, list(rows[0]), "Table 8: robustness to data "
                         f"shifts (DMV partitioned by date): {header}")
    return {"results": rows, "text": text, **claims,
            "epochs": served["refreshed"].stats.epochs}


# --------------------------------------------------------------------------- #
# Beyond the paper — the serving experiments' wall-clock gates
# --------------------------------------------------------------------------- #
# What the seed determines of serving — estimates, routes, counts — is proved
# by tests/ (the invariance grid above all); these three experiments keep
# only the gates a clock decides, so each result is timing alone.
#
#: serve_stream's stated p95 end-to-end SLO, as a fraction of the measured
#: fixed-batch end-to-end p95 — calibrated per machine so the benchmark's
#: claim ("the fixed batch misses the e2e SLO the SLO-steered router meets")
#: is hardware-independent.  0.35 keeps the SLO well below what the fixed
#: batch delivers while leaving the steered router room across
#: converged-batch-size noise.
SERVE_STREAM_SLO_FRACTION = 0.35
#: The flush deadline of serve_stream's e2e-scoped run, as a fraction of the
#: stated SLO: a partially filled micro-batch may spend at most this share of
#: the latency budget waiting before it is force-dispatched.
SERVE_STREAM_FLUSH_FRACTION = 0.25
#: serve_loadgen's stated e2e p95 SLO, as a multiple of the closed-loop
#: probe's e2e p95 — calibrated per machine (like SERVE_STREAM_SLO_FRACTION)
#: so the knee's existence is hardware-independent: generous enough that the
#: lowest offered rates meet it, tight enough that overload misses it.
SERVE_LOADGEN_SLO_MULTIPLIER = 4.0


class _ServeFleet:
    """The registry, workload and routers one ``serve_*`` experiment measures.

    ``scale`` is that experiment's :class:`ServeScale`.  Every model shares
    one Naru config (batch 256, seed 0) and every router the one sample
    budget and seed, so each query's random stream is keyed by
    ``(seed, global workload index)`` alone.
    """

    def __init__(self, scale: ServeScale, *,
                 hidden: tuple[int, ...] = (64, 64)) -> None:
        self.scale = scale
        config = NaruConfig(epochs=scale.epochs, hidden_sizes=hidden,
                            batch_size=256, progressive_samples=scale.samples,
                            seed=0)
        self.registry = ModelRegistry(default_config=config)

    def register_users_sessions(self, *, join: bool = False) -> None:
        """A users dimension and a sessions fact table, optionally with their
        equi-join — served exactly like a base table, per §4.1."""
        users = self.scale.users
        self.registry.register_table(make_users(users))
        self.registry.register_table(make_sessions(self.scale.rows,
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
        return build(relations, self.scale.queries, **options)

    def router(self, fleet_class=FleetRouter, *, batch_size: int | None = None,
               **options):
        return fleet_class(self.registry,
                           batch_size=batch_size or self.scale.batch_size,
                           num_samples=self.scale.samples, seed=0, **options)


def _timing_result(title: str, timing: dict, rows: list[dict]) -> dict:
    """A ``serve_*`` result: ``timing`` and its text, whose title line lists
    every scalar of ``timing`` above a table of ``rows``."""
    scalars = ", ".join(
        f"{key} {value:.4g}" if isinstance(value, float) else f"{key} {value}"
        for key, value in timing.items()
        if isinstance(value, (int, float, str)))
    return {"timing_text": format_series(rows, list(rows[0]),
                                         f"{title}: {scalars}"),
            "timing": timing}


def serve_stream(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: end-to-end latency SLOs under paced bursty arrivals.

    A bursty workload (the hot relation's queries arrive in uninterrupted
    runs of ``burst``, see
    :func:`repro.serve.generate_bursty_workload`) is streamed query-by-query
    with a *paced* arrival process: a hybrid
    :class:`repro.serve.VirtualClock` rides on the real clock, and every
    submission advances it by one measured per-query dispatch cost — so
    queries genuinely queue in partially filled micro-batches (in clock
    terms) without the benchmark sleeping through the gaps, and the pacing
    is calibrated to the host.  Conditional caches are off.

    * ``fixed`` — a plain :class:`repro.serve.FleetRouter` at the maximum
      micro-batch size (the scale's ``batch_size``).  Its measured hot-route
      **end-to-end** p95 (queueing delay + dispatch) calibrates the stated
      SLO: :data:`SERVE_STREAM_SLO_FRACTION` of it.
    * ``e2e-*`` — the same router with ``slo_ms`` set (its controller
      observes queue wait + dispatch) plus a flush deadline of
      :data:`SERVE_STREAM_FLUSH_FRACTION` of the SLO bounding how long a
      partial batch may linger.  The warmup pass starts at the maximum
      batch size; the steady pass must meet the end-to-end SLO.

    The claim, and the whole result: steering the batch size on end-to-end
    latency (and bounding tail wait with the flush timeout) makes the fleet
    meet an SLO, stated against what a submitter experiences, that the
    fixed batch misses.  That none of it moves an estimate is the
    invariance grid's claim (``tests/test_serve_invariance.py``).
    """
    scale = (scale or active_scale()).serve_stream
    fleet = _ServeFleet(scale)
    fleet.register_users_sessions()
    hot = scale.hot_fraction
    queries = fleet.workload(
        generate_bursty_workload, hot="sessions", burst_size=scale.burst,
        weights={"users": 1.0 - hot, "sessions": hot})
    max_batch = scale.batch_size

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

    def paced(router):
        return stream_workload(router, queries, advance_ms=arrival_gap_ms)

    fixed = paced(paced_router())
    fixed_e2e_p95 = fixed.stats.routes["sessions"]["e2e_ms"]["p95"]
    slo_ms = fixed_e2e_p95 * SERVE_STREAM_SLO_FRACTION
    steering = {"slo_ms": slo_ms,
                "flush_after_ms": slo_ms * SERVE_STREAM_FLUSH_FRACTION}
    # One router lives through both passes: the warmup pass converges its
    # controller, the steady pass is judged.
    e2e_router = paced_router(**steering)
    warmup, steady = paced(e2e_router), paced(e2e_router)
    steady_e2e_p95 = steady.stats.routes["sessions"]["e2e_ms"]["p95"]

    rows = []
    for mode, served in (("fixed", fixed), ("e2e-warmup", warmup),
                         ("e2e-steady", steady)):
        hot_stats = served.stats.routes["sessions"]
        rows.append({
            "mode": mode,
            "dispatch_p95_ms": hot_stats["latency_ms"]["p95"],
            "queue_p95_ms": hot_stats["queue_wait_ms"]["p95"],
            "e2e_p95_ms": hot_stats["e2e_ms"]["p95"],
            "timeout_flushes": hot_stats["timeout_flushes"],
            "batches": hot_stats["num_batches"],
        })
    timing = {
        **steering,
        "arrival_gap_ms": arrival_gap_ms,
        "fixed_e2e_p95_ms": fixed_e2e_p95,
        "steady_e2e_p95_ms": steady_e2e_p95,
        "fixed_meets_e2e_slo": fixed_e2e_p95 <= slo_ms,
        "steady_meets_e2e_slo": steady_e2e_p95 <= slo_ms,
        "modes": rows,
    }
    return _timing_result(
        f"End-to-end SLOs (sessions in bursts of {scale.burst}, max batch "
        f"{max_batch}, e2e p95 SLO = {SERVE_STREAM_SLO_FRACTION:.0%} of the "
        f"fixed batch's, flush timeout = {SERVE_STREAM_FLUSH_FRACTION:.0%} "
        f"of the SLO)", timing, rows)


def serve_procfleet(scale: ExperimentScale | None = None) -> dict:
    """Beyond the paper: the capacity of a cross-process sharded fleet.

    One mixed three-relation workload (users, sessions, their equi-join) is
    served over the same trained models, conditional caches off, by the
    in-process :class:`repro.serve.FleetRouter` with every relation at
    ``workers`` replicas and by a :class:`repro.serve.ProcessFleet` of
    ``workers`` OS worker processes hosting those same replicas (one of
    each relation per worker), each twice.

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
    produced the numbers.  That the process boundary changes no estimate
    and every worker serves is proved in ``tests/test_serve_invariance.py``.
    """
    scale = (scale or active_scale()).serve_procfleet
    workers = scale.workers
    # (32, 32) hidden layers, not the (64, 64) of the in-process serving
    # benches: N workers time-slicing a small CI host each keep a private
    # copy of the model, and the smaller working set stays cache-resident
    # across context switches — the capacity numbers measure serving, not
    # the host's L2.
    fleet = _ServeFleet(scale, hidden=(32, 32))
    fleet.register_users_sessions(join=True)
    queries = fleet.workload()
    for name in fleet.registry.names:
        fleet.registry.set_replicas(name, workers)

    wall_s = {}
    router = fleet.router(use_cache=False)
    _, wall_s["cold"] = _timed(router.run, queries)
    _, wall_s["warm"] = _timed(router.run, queries)
    proc_fleet, spawn_s = _timed(fleet.router, ProcessFleet, workers=workers,
                                 use_cache=False)
    with proc_fleet:
        _, wall_s["procfleet-cold"] = _timed(proc_fleet.run, queries)
        proc, wall_s["procfleet-warm"] = _timed(proc_fleet.run, queries)
    worker_stats = proc.stats.workers
    wall_s["procfleet-capacity"] = max(
        stats["busy_cpu_ms"] for stats in worker_stats.values()) / 1000.0

    timing = {
        "speedup": wall_s["warm"] / wall_s["procfleet-capacity"],
        "wall_speedup": wall_s["warm"] / wall_s["procfleet-warm"],
        "host_cpus": os.cpu_count(),
        "spawn_s": spawn_s,
        "wall_s": wall_s,
        "worker_stats": worker_stats,
    }
    return _timing_result(
        f"Cross-process fleet vs the single-process fleet's warm pass "
        f"({workers} workers x {len(fleet.registry)} relations, "
        f"batch={scale.batch_size})", timing,
        [{"mode": mode, "wall_s": seconds,
          "queries_per_second": len(queries) / seconds}
         for mode, seconds in wall_s.items()])


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
    :data:`SERVE_LOADGEN_SLO_MULTIPLIER` times that p95, and the sweep offers
    the scale's ``rate_fractions`` times that capacity.  Each rung of the
    ladder gets a fresh admission-bounded router (``max_pending``,
    ``overflow="shed"``) and its own Poisson arrival sequence; the rows
    trace offered vs achieved throughput, shed counts, the pending
    high-water mark and the latency percentiles, and
    :func:`repro.serve.locate_knee` reads off the highest offered rate whose
    e2e p95 still meets the SLO.  Because every offered rate is a multiple
    of a measured capacity, the whole curve — arrival counts included — is
    timing.  The chaos drills and trace replay are tested in
    ``tests/test_serve_openloop.py`` and ``tests/test_serve_chaos.py``.
    """
    scale = (scale or active_scale()).serve_loadgen
    fleet = _ServeFleet(scale)
    fleet.register_users_sessions()
    for name in fleet.registry.names:
        fleet.registry.set_replicas(name, scale.replicas)
    queries = fleet.workload()

    # Closed-loop probe: the host's capacity (completions per wall-second at
    # the full batch size) and the service-time e2e p95 the SLO scales from.
    probe, probe_s = _timed(fleet.router().run, queries)
    capacity_qps = len(queries) / probe_s
    probe_e2e_p95 = probe.stats.e2e_ms["p95"]
    slo_ms = probe_e2e_p95 * SERVE_LOADGEN_SLO_MULTIPLIER

    def fresh_router() -> FleetRouter:
        # A partial micro-batch may linger at most one probe-p95 before it
        # is force-dispatched, so low offered rates are not dominated by
        # batch-fill waiting (which would invert the curve).
        return fleet.router(max_pending=scale.max_pending, overflow="shed",
                            flush_after_ms=probe_e2e_p95,
                            clock=VirtualClock(base=time.perf_counter))

    rates = [fraction * capacity_qps for fraction in scale.rate_fractions]
    curve = [{"rate_fraction": fraction, **row} for fraction, row in zip(
        scale.rate_fractions,
        sweep_offered_load(fresh_router, queries, rates,
                           duration_s=scale.duration_s, process="poisson",
                           seed=0))]
    timing = {
        "capacity_qps": capacity_qps,
        "probe_e2e_p95_ms": probe_e2e_p95,
        **locate_knee(curve, slo_ms),
        "curve": curve,
    }
    fractions = "/".join(f"{fraction:g}" for fraction in scale.rate_fractions)
    return _timing_result(
        f"Open-loop load (Poisson arrivals at {fractions}x the probed "
        f"closed-loop capacity, max_pending {scale.max_pending}, overflow "
        f"shed, e2e p95 SLO = {SERVE_LOADGEN_SLO_MULTIPLIER:g}x the probe's, "
        f"measured from each query's *scheduled* arrival)", timing, curve)
