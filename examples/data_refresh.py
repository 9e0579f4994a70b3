"""Handling data shifts: stale vs periodically refreshed estimators (§6.7.3).

The relation grows one partition at a time (think "one new day of data").
Two relations of one serving registry start from the same model, learned on
day one.  Both ingest every partition, so both know today's row count; a
refresh controller fine-tunes only the second one after every ingest.  One
router serves the same workload to both, and the example prints how the
worst-case error of each evolves — a miniature of the paper's Table 8.

Run with::

    python examples/data_refresh.py
"""

from __future__ import annotations

import copy

from repro.core import NaruConfig, NaruEstimator
from repro.data import encode_with_dictionaries, make_dmv, partition_by_column
from repro.query import WorkloadGenerator, q_error, true_cardinality
from repro.serve import FleetRouter, ModelRegistry, RefreshController


def main(num_rows: int = 10_000, num_partitions: int = 5, epochs: int = 10,
         num_queries: int = 30, samples: int = 800) -> None:
    table = make_dmv(num_rows=num_rows)
    partitions = partition_by_column(table, "valid_date", num_partitions)

    # Built on the full table's dictionaries, trained on day one only.
    config = NaruConfig(epochs=0, hidden_sizes=(96, 96), batch_size=128,
                        progressive_samples=samples)
    model = NaruEstimator(table, config)
    model.refresh(encode_with_dictionaries(table, partitions[0]), epochs=epochs)
    model.set_row_count(partitions[0].num_rows)

    registry = ModelRegistry(default_config=config)
    registry.register_table(partitions[0], name="stale", estimator=model)
    registry.register_table(partitions[0], name="refreshed",
                            estimator=copy.deepcopy(model))
    controller = RefreshController(registry)
    router = FleetRouter(registry, num_samples=samples, result_cache=True)

    queries = WorkloadGenerator(partitions[0], min_filters=5, max_filters=11,
                                seed=11).generate(num_queries)
    print(f"{'ingested':>9} {'stale max':>12} {'refreshed max':>15}")
    for index, part in enumerate(partitions):
        if index > 0:
            for name in registry.names:
                controller.ingest(name, part)
            controller.refresh("refreshed")
        worst = {}
        for name in registry.names:
            relation = registry.relation(name)
            served = router.run([query.qualified(name) for query in queries])
            worst[name] = max(
                q_error(result.cardinality, true_cardinality(relation, result.query))
                for result in served.results)
        print(f"{index + 1:>9} {worst['stale']:>12.1f} {worst['refreshed']:>15.1f}")


if __name__ == "__main__":
    main()
