"""Async streaming submission with an end-to-end SLO-aware batch size.

Queries do not have to arrive as a list: this example streams a bursty
workload one query at a time through :class:`repro.serve.AsyncFleetClient`
(pure asyncio — the engines stay synchronous and single-threaded underneath)
into a :class:`repro.serve.FleetRouter` given an ``slo_ms``, whose
micro-batch size then *adapts*: an AIMD controller per relation watches an
**end-to-end** latency EWMA (queueing delay + dispatch — what a submitter
actually waits) and halves the batch size whenever it threatens the p95
SLO, growing it back once the burst passes.

Three properties are demonstrated:

* **SLO compliance** — under bursty arrivals a fixed max-size micro-batch
  pays a full-batch dispatch latency on every burst; the adaptive router
  shrinks its batches until the p95 end-to-end latency fits the target.
* **Streaming determinism** — every query's estimate is keyed by
  ``(seed, global submission index)`` alone, so the streamed run returns
  exactly the numbers of one big batched ``run()`` call, at any batch size.
* **Awaitable backpressure** — concurrent producers over a bounded replica
  group suspend in ``await client.submit_async(...)`` at the admission
  limit instead of seeing per-submit ``AdmissionError`` storms; the flush
  timeout keeps partial batches moving, so nothing is shed.

Run with::

    python examples/streaming_slo.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core import NaruConfig
from repro.data import make_sessions, make_users
from repro.serve import (
    AsyncFleetClient,
    FleetRouter,
    ModelRegistry,
    generate_bursty_workload,
    stream_workload,
)


def build_fleet(num_users: int, num_rows: int, epochs: int,
                samples: int) -> ModelRegistry:
    """Train the two-relation fleet the example streams into."""
    registry = ModelRegistry(default_config=NaruConfig(
        epochs=epochs, hidden_sizes=(32, 32), batch_size=256,
        progressive_samples=samples))
    registry.register_table(make_users(num_users))
    registry.register_table(make_sessions(num_rows, num_users=num_users))
    registry.fit_all()
    return registry


async def multi_producers(router: FleetRouter, queries,
                          producers: int = 4):
    """Drive one bounded router from N concurrent producers.

    Each producer awaits ``submit_async``: at the group's ``max_pending``
    the call suspends until a micro-batch dispatches (by filling up or by
    the flush timeout), so admission control becomes cooperative queueing
    rather than shed errors.
    """
    async with AsyncFleetClient(router) as client:
        async def produce(chunk):
            for query in chunk:
                await client.submit_async(query)

        await asyncio.gather(*(produce(queries[offset::producers])
                               for offset in range(producers)))
        return await client.drain()


async def stream(router: FleetRouter, queries) -> list:
    """Submit every query one at a time, then drain the outstanding futures.

    ``async with`` drains on exit and detaches the client's observer from
    the router — the lifecycle a long-lived service should copy.
    """
    async with AsyncFleetClient(router) as client:
        futures = []
        for query in queries:
            futures.append(client.submit(query))
            await asyncio.sleep(0)  # yield, like an independent producer would
        await client.drain()
    return [future.result() for future in futures]


def main(num_users: int = 300, num_rows: int = 4_000, epochs: int = 5,
         num_queries: int = 64, samples: int = 400, max_batch: int = 16,
         burst_size: int = 8) -> None:
    """Run the demonstration end to end (shrunk by tests to smoke scale)."""
    # 1. A fleet of two relations; the sessions fact table is the hot one and
    #    its queries will arrive in uninterrupted bursts.
    registry = build_fleet(num_users, num_rows, epochs, samples)
    workload = generate_bursty_workload(
        {name: registry.relation(name) for name in registry.names},
        num_queries, hot="sessions", burst_size=burst_size,
        seed=0, weights={"users": 0.25, "sessions": 0.75})

    # 2. Baseline: a fixed max-size micro-batch, served as one batch call.
    #    Every burst fills a whole batch, so every query in it pays the
    #    full-batch dispatch latency.  (Caches off: comparable latencies.)
    fixed = FleetRouter(registry, batch_size=max_batch, use_cache=False,
                        num_samples=samples, seed=0)
    fixed_report = fixed.run(workload)
    fixed_p95 = fixed_report.stats.routes["sessions"]["e2e_ms"]["p95"]
    slo_ms = 0.4 * fixed_p95  # the target the fixed batch cannot meet
    print(f"Fixed batch={max_batch}: sessions p95 end-to-end latency "
          f"{fixed_p95:.1f} ms -> stating a {slo_ms:.1f} ms e2e p95 SLO")

    # 3. Stream the same workload, query by query, into the same router class
    #    with an SLO — the one option that makes it adaptive.  This first
    #    pass starts at the full batch size, so its p95 still carries the
    #    initial oversized dispatches — watch the controller shrink the
    #    batch mid-stream instead.
    router = FleetRouter(registry, batch_size=max_batch, use_cache=False,
                         num_samples=samples, seed=0, slo_ms=slo_ms,
                         flush_after_ms=max(slo_ms / 4.0, 1.0))
    results = asyncio.run(stream(router, workload))
    report = router.report()
    stats = report.stats.routes["sessions"]
    trace = stats["batch_trace"]
    print(f"Adaptive stream (converging): batch size {trace[0]} -> "
          f"{trace[-1]} over {stats['num_batches']} dispatches, "
          f"e2e p95 {stats['e2e_ms']['p95']:.1f} ms")

    # 4. Controllers outlive workload scopes (like the caches), so a replay
    #    starts at the converged batch size: the steady state an always-on
    #    service operates in, and where the SLO must hold.
    steady = stream_workload(router, workload)
    steady_p95 = steady.stats.routes["sessions"]["e2e_ms"]["p95"]
    print(f"Steady-state stream: e2e p95 {steady_p95:.1f} ms "
          f"({'meets' if steady_p95 <= slo_ms else 'misses'} the "
          f"{slo_ms:.1f} ms SLO, "
          f"{steady.stats.timeout_flushes} timeout flushes)")

    # 5. Streaming and adaptive batching changed nothing: the futures carry
    #    the very numbers the one-shot batched run computed.
    drift = float(np.max(np.abs(
        np.asarray([result.selectivity for result in results])
        - fixed_report.selectivities)))
    print(f"Streaming vs batched estimate drift: {drift:.2e}")

    # 6. Multi-producer backpressure: bound the groups well below the batch
    #    size under the *shed* policy.  Synchronous submission would storm
    #    AdmissionError; submit_async suspends the producers at the limit
    #    and the flush timeout keeps freeing capacity — nothing is shed.
    bounded = FleetRouter(registry, batch_size=max_batch, use_cache=False,
                          num_samples=samples, seed=0,
                          max_pending=max(max_batch // 2, 1),
                          overflow="shed", flush_after_ms=25.0)
    backpressured = asyncio.run(multi_producers(bounded, workload))
    print(f"Backpressure: {backpressured.stats.num_queries} queries from 4 "
          f"producers, {backpressured.stats.shed} shed, "
          f"{backpressured.stats.timeout_flushes} timeout flushes, "
          f"e2e p95 {backpressured.e2e_percentiles['p95']:.1f} ms")


if __name__ == "__main__":
    main()
