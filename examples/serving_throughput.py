"""Serving workloads: batched + cached estimation with ``repro.serve``.

Trains one Naru model, then answers the same 64-query workload two ways —
one query at a time (how the paper evaluates, §6.1) and through the
:class:`repro.serve.EstimationEngine`, which packs queries into micro-batches,
shares the per-column model forward passes between them and memoises repeated
sample-path prefixes in an LRU cache.  Both modes use the same per-query
random streams, so they return the same estimates; only the throughput
changes.

Run with::

    python examples/serving_throughput.py
"""

from __future__ import annotations

import numpy as np

from repro.core import NaruConfig, NaruEstimator
from repro.data import make_census
from repro.query import WorkloadGenerator, true_selectivities
from repro.serve import EstimationEngine, run_sequential


def main() -> None:
    # 1. One model serves the whole workload: train it once.
    table = make_census(num_rows=2_000)
    naru = NaruEstimator(table, NaruConfig(epochs=8, hidden_sizes=(64, 64),
                                           batch_size=256,
                                           progressive_samples=1_000))
    naru.fit()
    print(f"Serving {table} with a {naru.size_bytes() / 1e6:.2f} MB model")

    # 2. A paper-style workload (5-11 filters per query, literals from data).
    queries = WorkloadGenerator(table, min_filters=5, max_filters=11,
                                seed=7).generate(64)

    # 3. The paper's regime: one progressive-sampling run per query.
    sequential = run_sequential(naru, queries, seed=0)
    print(f"sequential: {sequential.stats.queries_per_second:6.1f} queries/s "
          f"({sequential.stats.elapsed_s * 1000:.0f} ms total)")

    # 4. The serving regime: micro-batches + conditional-CDF cache.
    engine = EstimationEngine(naru, batch_size=16, seed=0)
    batched = engine.run(queries)
    cache = batched.stats.cache
    print(f"batched:    {batched.stats.queries_per_second:6.1f} queries/s "
          f"({batched.stats.elapsed_s * 1000:.0f} ms total, "
          f"{batched.stats.num_batches} micro-batches)")
    print(f"  speedup        {sequential.stats.elapsed_s / batched.stats.elapsed_s:.1f}x")
    print(f"  cache          {cache['hits']} hits / {cache['misses']} misses "
          f"({cache['hit_rate']:.0%} hit rate)")
    print(f"  model rows     {cache['rows_evaluated']} evaluated, "
          f"{cache['rows_served_from_cache']} served from memory")

    # 5. Same answers either way (bounded by float round-off), and sane ones:
    drift = np.max(np.abs(batched.selectivities - sequential.selectivities))
    print(f"  estimate drift {drift:.2e}")
    truth = true_selectivities(table, queries)
    worst = np.max(np.abs(batched.selectivities - truth))
    print(f"  worst |estimate - truth| on this workload: {worst:.3f}")


if __name__ == "__main__":
    main()
