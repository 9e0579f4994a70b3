"""Experiment harness reproducing every table and figure of the paper."""

from .experiments import (
    NaruSampleVariant,
    figure4_selectivity_distribution,
    figure5_training_quality,
    figure6_estimation_latency,
    figure7_entropy_gap,
    figure8_column_scaling,
    serve_loadgen,
    serve_procfleet,
    serve_stream,
    table3_dmv_accuracy,
    table4_conviva_accuracy,
    table5_ood_robustness,
    table6_query_region,
    table7_model_size,
    table8_data_shift,
)
from .harness import EstimatorRun, accuracy_by_bucket, compare_estimators, run_estimator
from .registry import EXPERIMENTS, list_experiments, run_experiment
from .reports import (
    format_accuracy_table,
    format_latency_table,
    format_series,
    format_summary_table,
)
from .scales import PAPER, SMOKE, ExperimentScale, active_scale

__all__ = [
    "EstimatorRun",
    "run_estimator",
    "compare_estimators",
    "accuracy_by_bucket",
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
    "EXPERIMENTS",
    "run_experiment",
    "list_experiments",
    "ExperimentScale",
    "SMOKE",
    "PAPER",
    "active_scale",
    "format_accuracy_table",
    "format_summary_table",
    "format_series",
    "format_latency_table",
]
