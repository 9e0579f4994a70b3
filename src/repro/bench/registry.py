"""Registry mapping experiment identifiers to their reproduction functions."""

from __future__ import annotations

from typing import Callable

from . import experiments

__all__ = ["EXPERIMENTS", "run_experiment", "list_experiments"]

#: Experiment id → (description, callable).
EXPERIMENTS: dict[str, tuple[str, Callable[..., dict]]] = {
    "figure4": ("Query selectivity distribution",
                experiments.figure4_selectivity_distribution),
    "table3": ("Accuracy on DMV, all estimator families",
               experiments.table3_dmv_accuracy),
    "table4": ("Accuracy on Conviva-A",
               experiments.table4_conviva_accuracy),
    "table5": ("Robustness to out-of-distribution queries",
               experiments.table5_ood_robustness),
    "figure5": ("Training time vs model quality",
                experiments.figure5_training_quality),
    "figure6": ("Estimation latency",
                experiments.figure6_estimation_latency),
    "table6": ("Query-region size vs enumeration latency",
               experiments.table6_query_region),
    "table7": ("Model size vs entropy gap",
               experiments.table7_model_size),
    "figure7": ("Accuracy vs artificial entropy gap (oracle)",
                experiments.figure7_entropy_gap),
    "figure8": ("Accuracy vs column count (oracle)",
                experiments.figure8_column_scaling),
    "table8": ("Robustness to data shifts: stale vs refreshed model "
               "behind one result-cached router",
               experiments.table8_data_shift),
    "serve_stream": ("End-to-end SLO under bursty arrivals: the "
                     "SLO-steered router meets what the fixed batch misses",
                     experiments.serve_stream),
    "serve_procfleet": ("Cross-process sharded fleet: capacity of N OS "
                        "worker processes vs the single-process router",
                        experiments.serve_procfleet),
    "serve_loadgen": ("Open-loop load generation: latency-vs-offered-load "
                      "curve and its SLO knee",
                      experiments.serve_loadgen),
}


def list_experiments() -> list[tuple[str, str]]:
    """Return ``(identifier, description)`` pairs of all known experiments."""
    return [(name, description) for name, (description, _) in EXPERIMENTS.items()]


def run_experiment(name: str, **kwargs) -> dict:
    """Run one experiment by id and return its structured result."""
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known experiments: {known}")
    _, function = EXPERIMENTS[name]
    return function(**kwargs)
