"""Experiment scaling presets.

The paper's evaluation uses millions of rows, 2,000 queries per workload and a
GPU.  This reproduction trains NumPy models on a CPU, so every experiment
accepts a :class:`ExperimentScale` that controls dataset sizes, query counts
and training epochs, with one :class:`ServeScale` per serving experiment.  Two
presets are provided:

* ``SMOKE``  — minutes-scale runs used by the pytest benchmarks and CI,
* ``PAPER``  — larger runs closer to the published setup (hours on a laptop).

The active preset defaults to ``SMOKE`` and can be switched with the
``REPRO_SCALE`` environment variable (``smoke`` or ``paper``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["ExperimentScale", "ServeScale", "SMOKE", "PAPER", "active_scale"]


@dataclass(frozen=True, kw_only=True)
class ServeScale:
    """The sizes of one ``serve_*`` experiment.

    The first six are every experiment's: rows of its fact table and of its users
    dimension (0 if none), queries, sample paths per estimate, micro-batch size
    and training epochs.  The rest are read only by the experiments named beside them.
    """

    rows: int
    users: int = 0
    queries: int
    samples: int
    batch_size: int
    epochs: int
    replicas: int = 1  # serve_replicated (hot relation), serve_loadgen
    max_pending: int = 0  # serve_replicated, serve_loadgen: admission bound
    hot_fraction: float = 0.0  # serve_replicated, serve_stream: sessions share
    burst: int = 0  # serve_stream: hot queries per uninterrupted run
    workers: int = 0  # serve_procfleet, serve_loadgen: OS worker processes
    duration_s: float = 0.0  # serve_loadgen: seconds per offered rate
    #: serve_loadgen: offered rates as multiples of the probed capacity, from
    #: well under to far over saturation so the knee lies inside the sweep.
    rate_fractions: tuple[float, ...] = ()
    fallback_sample: int = 0  # serve_ensemble: the sampling fallback's rows
    oracle_rows: int = 0  # serve_ensemble: the identity check's table
    oracle_queries: int = 0  # serve_ensemble: the identity check's queries


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shared by all experiments, and one ``ServeScale`` per serving one."""

    name: str
    dmv_rows: int
    conviva_a_rows: int
    conviva_b_rows: int
    num_queries: int
    ood_queries: int
    naru_epochs: int
    naru_hidden: tuple[int, ...]
    naru_batch_size: int
    naru_samples: tuple[int, ...]
    mscn_training_queries: int
    mscn_epochs: int
    kde_sample: int
    kde_feedback_queries: int
    sample_fraction: float
    latency_queries: int
    training_curve_epochs: int
    training_curve_queries: int
    oracle_queries: int
    shift_queries: int
    shift_partitions: int
    serve_throughput: ServeScale
    serve_multi: ServeScale
    serve_replicated: ServeScale
    serve_stream: ServeScale
    serve_procfleet: ServeScale
    serve_loadgen: ServeScale
    serve_ensemble: ServeScale


SMOKE = ExperimentScale(
    name="smoke",
    dmv_rows=12_000,
    conviva_a_rows=9_000,
    conviva_b_rows=700,
    num_queries=100,
    ood_queries=80,
    naru_epochs=10,
    naru_hidden=(128, 128),
    naru_batch_size=128,
    naru_samples=(500, 1000),
    mscn_training_queries=250,
    mscn_epochs=15,
    kde_sample=600,
    kde_feedback_queries=40,
    sample_fraction=0.013,
    latency_queries=40,
    training_curve_epochs=5,
    training_curve_queries=25,
    oracle_queries=30,
    shift_queries=40,
    shift_partitions=5,
    serve_throughput=ServeScale(rows=2_000, queries=64, samples=1_500, batch_size=16, epochs=8),
    serve_multi=ServeScale(rows=3_000, users=400, queries=60, samples=800, batch_size=16, epochs=6),
    serve_replicated=ServeScale(rows=3_000, users=300, queries=72, samples=800, batch_size=12,
                                epochs=6, replicas=4, hot_fraction=0.75, max_pending=48),
    serve_stream=ServeScale(rows=3_000, users=300, queries=120, samples=500, batch_size=24,
                            epochs=6, burst=12, hot_fraction=0.75),
    serve_procfleet=ServeScale(rows=2_500, users=300, queries=192, samples=600, batch_size=12,
                               epochs=5, workers=4),
    serve_loadgen=ServeScale(rows=2_000, users=200, queries=48, samples=400, batch_size=8,
                             epochs=5, replicas=2, max_pending=32, workers=2, duration_s=1.5,
                             rate_fractions=(0.25, 0.5, 1.0, 2.0, 4.0)),
    serve_ensemble=ServeScale(rows=2_400, users=300, queries=64, samples=600, batch_size=12,
                              epochs=5, fallback_sample=1_024, oracle_rows=160,
                              oracle_queries=12),
)

PAPER = ExperimentScale(
    name="paper",
    dmv_rows=120_000,
    conviva_a_rows=80_000,
    conviva_b_rows=4_000,
    num_queries=2_000,
    ood_queries=2_000,
    naru_epochs=20,
    naru_hidden=(256, 256, 256),
    naru_batch_size=512,
    naru_samples=(1000, 2000, 4000),
    mscn_training_queries=10_000,
    mscn_epochs=40,
    kde_sample=5_000,
    kde_feedback_queries=500,
    sample_fraction=0.013,
    latency_queries=500,
    training_curve_epochs=10,
    training_curve_queries=200,
    oracle_queries=50,
    shift_queries=200,
    shift_partitions=5,
    serve_throughput=ServeScale(rows=6_000, queries=256, samples=2_000, batch_size=32, epochs=15),
    serve_multi=ServeScale(rows=8_000, users=800, queries=192, samples=1_500, batch_size=32,
                           epochs=12),
    serve_replicated=ServeScale(rows=8_000, users=800, queries=240, samples=1_500,
                                batch_size=24, epochs=12, replicas=4, hot_fraction=0.8,
                                max_pending=96),
    serve_stream=ServeScale(rows=8_000, users=800, queries=360, samples=1_000, batch_size=32,
                            epochs=12, burst=16, hot_fraction=0.8),
    serve_procfleet=ServeScale(rows=8_000, users=800, queries=480, samples=1_200,
                               batch_size=16, epochs=12, workers=4),
    serve_loadgen=ServeScale(rows=6_000, users=600, queries=120, samples=800, batch_size=16,
                             epochs=10, replicas=4, max_pending=64, workers=4, duration_s=5.0,
                             rate_fractions=(0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)),
    serve_ensemble=ServeScale(rows=8_000, users=800, queries=192, samples=1_200,
                              batch_size=16, epochs=12, fallback_sample=2_048,
                              oracle_rows=240, oracle_queries=24),
)


def active_scale() -> ExperimentScale:
    """Return the preset selected by the ``REPRO_SCALE`` environment variable."""
    choice = os.environ.get("REPRO_SCALE", "smoke").lower()
    if choice == "paper":
        return PAPER
    if choice == "smoke":
        return SMOKE
    raise ValueError(f"unknown REPRO_SCALE value {choice!r}; use 'smoke' or 'paper'")
