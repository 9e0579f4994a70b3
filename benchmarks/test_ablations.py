"""Ablation benchmarks for the paper's individual design choices.

These are not paper tables; they quantify the contribution of the design
decisions the paper's sections argue for:

* progressive sampling vs the naive uniform region sampler (§5.1),
* masked-MLP architecture B vs per-column architecture A (§4.3),
* the autoregressive column ordering,
* embedding-reuse decoding vs one-hot/direct decoding for large domains (§4.2).
"""

from __future__ import annotations

import numpy as np

from repro.core import MADEModel, NaruConfig, NaruEstimator, OracleModel, Trainer
from repro.core.progressive import ProgressiveSampler, UniformRegionSampler
from repro.data import ColumnSpec, make_correlated_table
from repro.query import WorkloadGenerator, q_error


def _ablation_table(num_rows: int = 2500, seed: int = 42):
    specs = [
        ColumnSpec("a", 40, "ordinal", skew=1.4),
        ColumnSpec("b", 12, "categorical", skew=1.5),
        ColumnSpec("c", 90, "ordinal", skew=1.2),
        ColumnSpec("d", 6, "categorical", skew=1.6),
        ColumnSpec("e", 25, "ordinal", skew=1.3),
    ]
    return make_correlated_table(specs, num_rows, seed=seed, name="ablation")


def _max_error(estimate_fn, workload, num_rows):
    return max(q_error(estimate_fn(item) * num_rows, item.cardinality)
               for item in workload)


def test_ablation_progressive_vs_uniform_sampler(save_report):
    """Progressive sampling dominates uniform region sampling on skewed data."""
    table = _ablation_table()
    oracle = OracleModel(table)
    workload = WorkloadGenerator(table, min_filters=3, max_filters=5,
                                 seed=1).generate_labeled(30)

    progressive = ProgressiveSampler(oracle, seed=0)
    uniform = UniformRegionSampler(oracle, seed=0)
    prog_max = _max_error(
        lambda item: progressive.estimate_selectivity(
            item.query.column_masks(table), num_samples=500),
        workload, table.num_rows)
    unif_max = _max_error(
        lambda item: uniform.estimate_selectivity(
            item.query.column_masks(table), num_samples=500),
        workload, table.num_rows)
    save_report("ablation_sampler",
                {"text": f"progressive max error: {prog_max:.2f}\n"
                         f"uniform-region max error: {unif_max:.2f}"})
    assert prog_max <= unif_max


def test_ablation_architecture_made_vs_column_nets(save_report):
    """Architecture A (per-column nets) and B (masked MLP) reach similar fits."""
    table = _ablation_table()

    gaps = {}
    for architecture in ("made", "column"):
        config = NaruConfig(architecture=architecture, epochs=6,
                            hidden_sizes=(48, 48), progressive_samples=300, seed=0)
        estimator = NaruEstimator(table, config)
        estimator.fit()
        gaps[architecture] = estimator.entropy_gap_bits(sample_rows=None)
    save_report("ablation_architecture", {"text": "\n".join(
        f"{k}: entropy gap {v:.3f} bits" for k, v in gaps.items())})
    # Both must actually learn something (gap well below the untrained regime).
    assert all(np.isfinite(v) for v in gaps.values())


def test_ablation_column_ordering(save_report):
    """The factorisation order affects convergence only mildly."""
    table = _ablation_table()
    natural = list(range(table.num_columns))
    reversed_order = natural[::-1]

    gaps = {}
    for label, order in (("natural", natural), ("reversed", reversed_order)):
        model = MADEModel(table, hidden_sizes=(48, 48), order=order, seed=0)
        trainer = Trainer(model, table, batch_size=256, learning_rate=5e-3)
        trainer.train(epochs=6)
        gaps[label] = trainer.entropy_gap_bits(sample_rows=None)
    save_report("ablation_ordering", {"text": "\n".join(
        f"{k}: entropy gap {v:.3f} bits" for k, v in gaps.items())})
    assert all(v >= 0 for v in gaps.values())


def test_ablation_embedding_reuse(save_report):
    """Embedding reuse shrinks the model without giving up the fit."""
    table = _ablation_table()

    outcome = {}
    for label, threshold in (("embedding_reuse", 16), ("one_hot_direct", 10_000)):
        model = MADEModel(table, hidden_sizes=(48, 48),
                          embedding_threshold=threshold, embedding_dim=16, seed=0)
        trainer = Trainer(model, table, batch_size=256, learning_rate=5e-3)
        trainer.train(epochs=5)
        outcome[label] = {
            "parameters": model.num_parameters(),
            "entropy_gap_bits": trainer.entropy_gap_bits(sample_rows=None),
        }
    save_report("ablation_embedding", {"text": "\n".join(
        f"{k}: params={v['parameters']}, gap={v['entropy_gap_bits']:.3f} bits"
        for k, v in outcome.items())})
    assert np.isfinite(outcome["embedding_reuse"]["entropy_gap_bits"])
    assert np.isfinite(outcome["one_hot_direct"]["entropy_gap_bits"])
