"""Experiment scaling presets.

The paper's evaluation uses millions of rows, 2,000 queries per workload and a
GPU.  This reproduction trains NumPy models on a CPU, so every experiment
accepts a :class:`ExperimentScale` that controls dataset sizes, query counts
and training epochs.  Two presets are provided:

* ``SMOKE``  — minutes-scale runs used by the pytest benchmarks and CI,
* ``PAPER``  — larger runs closer to the published setup (hours on a laptop).

The active preset defaults to ``SMOKE`` and can be switched with the
``REPRO_SCALE`` environment variable (``smoke`` or ``paper``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["ExperimentScale", "SMOKE", "PAPER", "active_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shared by all experiments."""

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
    # Serving-throughput experiment (repro.serve); defaulted so existing
    # presets and overrides keep working unchanged.
    serve_rows: int = 2_000
    serve_queries: int = 64
    serve_samples: int = 1_500
    serve_batch_size: int = 16
    serve_epochs: int = 8
    # Multi-model fleet experiment (serve_multi): two base tables plus one
    # join relation behind a FleetRouter; defaulted for the same reason.
    serve_multi_rows: int = 3_000
    serve_multi_users: int = 400
    serve_multi_queries: int = 60
    serve_multi_samples: int = 800
    serve_multi_batch_size: int = 16
    serve_multi_epochs: int = 6
    # Replicated hot-relation experiment (serve_replicated): a skewed
    # workload hammers one relation served by N engine replicas behind an
    # admission-controlled router with a fleet result cache.
    serve_repl_rows: int = 3_000
    serve_repl_users: int = 300
    serve_repl_queries: int = 72
    serve_repl_samples: int = 800
    serve_repl_batch_size: int = 12
    serve_repl_epochs: int = 6
    serve_repl_replicas: int = 4
    serve_repl_hot_fraction: float = 0.75
    serve_repl_max_pending: int = 48
    # Streaming/SLO experiment (serve_stream): a bursty workload served with
    # a fixed max-size micro-batch vs an SLO-adaptive one, plus a
    # shuffled-arrival asyncio streaming pass proving streaming ≡ batch.
    serve_stream_rows: int = 3_000
    serve_stream_users: int = 300
    serve_stream_queries: int = 120
    serve_stream_samples: int = 500
    serve_stream_epochs: int = 6
    serve_stream_max_batch: int = 24
    serve_stream_burst: int = 12
    serve_stream_hot_fraction: float = 0.75
    #: The stated p95 end-to-end SLO, as a fraction of the measured
    #: fixed-batch end-to-end p95 — calibrated per machine so the
    #: benchmark's claim ("the fixed batch misses the e2e SLO the
    #: SLO-steered router meets") is hardware-independent.  0.35 keeps the
    #: SLO well below what the fixed batch delivers while leaving the
    #: steered router room across converged-batch-size noise.
    serve_stream_slo_fraction: float = 0.35
    #: The flush deadline of the e2e-scoped run, as a fraction of the stated
    #: SLO: a partially filled micro-batch may spend at most this share of
    #: the latency budget waiting before it is force-dispatched.
    serve_stream_flush_fraction: float = 0.25
    # Cross-process fleet experiment (serve_procfleet): the same mixed
    # workload served by the single-process fleet and by a ProcessFleet of
    # serve_proc_workers OS processes (one replica per worker), reporting
    # wall-clock and critical-path capacity throughput plus estimate drift.
    serve_proc_rows: int = 2_500
    serve_proc_users: int = 300
    serve_proc_queries: int = 192
    serve_proc_samples: int = 600
    serve_proc_batch_size: int = 12
    serve_proc_epochs: int = 5
    serve_proc_workers: int = 4
    # Live-refresh experiment (serve_refresh): a PartitionedIngest replayed
    # against a fleet with an epoch-keyed result cache — the stale model's
    # q-error degrades partition by partition, one fine-tune refresh
    # recovers it, and a cold-router cross-check proves zero invalid cache
    # hits survived the epoch bumps.
    serve_refresh_rows: int = 3_000
    serve_refresh_queries: int = 48
    serve_refresh_samples: int = 600
    serve_refresh_batch_size: int = 12
    serve_refresh_epochs: int = 6
    serve_refresh_partitions: int = 4
    serve_refresh_fine_tune_epochs: int = 1
    # Open-loop load-generation experiment (serve_loadgen): a closed-loop
    # probe calibrates the host's capacity, then a ladder of offered rates
    # (fractions of that capacity) is swept open-loop to trace the
    # latency-vs-offered-load curve and locate the SLO knee, with chaos
    # scenarios (slow replica, cache wipe, worker kill) asserted
    # degraded-not-collapsed at the mid rate.
    serve_loadgen_rows: int = 2_000
    serve_loadgen_users: int = 200
    serve_loadgen_queries: int = 48
    serve_loadgen_samples: int = 400
    serve_loadgen_batch_size: int = 8
    serve_loadgen_epochs: int = 5
    serve_loadgen_replicas: int = 2
    serve_loadgen_max_pending: int = 32
    serve_loadgen_duration_s: float = 1.5
    #: Offered rates of the sweep, as multiples of the probed closed-loop
    #: capacity — spanning comfortably-under to far-over saturation so the
    #: knee always lies inside the swept range.
    serve_loadgen_rate_fractions: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    #: The stated e2e p95 SLO, as a multiple of the closed-loop probe's e2e
    #: p95 — calibrated per machine (like serve_stream_slo_fraction) so the
    #: knee's existence is hardware-independent: generous enough that the
    #: lowest offered rates meet it, tight enough that overload misses it.
    serve_loadgen_slo_multiplier: float = 4.0
    serve_loadgen_workers: int = 2
    # Estimator-ensemble experiment (serve_ensemble): a widened workload —
    # DNF disjunctions and LIKE prefixes alongside plain conjunctions —
    # served by per-relation ensembles: Naru primaries answer small
    # disjunctions by inclusion–exclusion while many-branch disjunctions
    # route to a sampling fallback, with per-estimator accuracy/latency
    # columns and an exact inclusion–exclusion oracle identity check.
    serve_ens_rows: int = 2_400
    serve_ens_users: int = 300
    serve_ens_queries: int = 64
    serve_ens_samples: int = 600
    serve_ens_batch_size: int = 12
    serve_ens_epochs: int = 5
    serve_ens_fallback_sample: int = 1_024
    serve_ens_dnf_fraction: float = 0.25
    serve_ens_like_fraction: float = 0.25
    serve_ens_oracle_rows: int = 160
    serve_ens_oracle_queries: int = 12


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
    serve_rows=6_000,
    serve_queries=256,
    serve_samples=2_000,
    serve_batch_size=32,
    serve_epochs=15,
    serve_multi_rows=8_000,
    serve_multi_users=800,
    serve_multi_queries=192,
    serve_multi_samples=1_500,
    serve_multi_batch_size=32,
    serve_multi_epochs=12,
    serve_repl_rows=8_000,
    serve_repl_users=800,
    serve_repl_queries=240,
    serve_repl_samples=1_500,
    serve_repl_batch_size=24,
    serve_repl_epochs=12,
    serve_repl_replicas=4,
    serve_repl_hot_fraction=0.8,
    serve_repl_max_pending=96,
    serve_stream_rows=8_000,
    serve_stream_users=800,
    serve_stream_queries=360,
    serve_stream_samples=1_000,
    serve_stream_epochs=12,
    serve_stream_max_batch=32,
    serve_stream_burst=16,
    serve_stream_hot_fraction=0.8,
    serve_stream_slo_fraction=0.35,
    serve_proc_rows=8_000,
    serve_proc_users=800,
    serve_proc_queries=480,
    serve_proc_samples=1_200,
    serve_proc_batch_size=16,
    serve_proc_epochs=12,
    serve_proc_workers=4,
    serve_refresh_rows=10_000,
    serve_refresh_queries=200,
    serve_refresh_samples=1_200,
    serve_refresh_batch_size=16,
    serve_refresh_epochs=12,
    serve_refresh_partitions=5,
    serve_refresh_fine_tune_epochs=2,
    serve_loadgen_rows=6_000,
    serve_loadgen_users=600,
    serve_loadgen_queries=120,
    serve_loadgen_samples=800,
    serve_loadgen_batch_size=16,
    serve_loadgen_epochs=10,
    serve_loadgen_replicas=4,
    serve_loadgen_max_pending=64,
    serve_loadgen_duration_s=5.0,
    serve_loadgen_rate_fractions=(0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
    serve_loadgen_slo_multiplier=4.0,
    serve_loadgen_workers=4,
    serve_ens_rows=8_000,
    serve_ens_users=800,
    serve_ens_queries=192,
    serve_ens_samples=1_200,
    serve_ens_batch_size=16,
    serve_ens_epochs=12,
    serve_ens_fallback_sample=2_048,
    serve_ens_oracle_rows=240,
    serve_ens_oracle_queries=24,
)


def active_scale() -> ExperimentScale:
    """Return the preset selected by the ``REPRO_SCALE`` environment variable."""
    choice = os.environ.get("REPRO_SCALE", "smoke").lower()
    if choice == "paper":
        return PAPER
    if choice == "smoke":
        return SMOKE
    raise ValueError(f"unknown REPRO_SCALE value {choice!r}; use 'smoke' or 'paper'")
