"""Async streaming submission: one query in, one future out.

This module is the *streaming* face of the serving stack.  Everything below
it — :class:`~repro.serve.engine.EstimationEngine`,
:class:`~repro.serve.router.FleetRouter`, :class:`~repro.serve.router
.ReplicaGroup` — answers workloads handed over as a list; here queries arrive
**one at a time**, from any number of asyncio producers, and are answered
through futures:

* :class:`AsyncFleetClient` — ``submit()`` one query, get an
  :class:`asyncio.Future` back; the future resolves with the query's
  :class:`~repro.serve.report.RoutedResult` the moment its micro-batch
  dispatches (or immediately, on a result-cache hit).  Pure asyncio: the
  engines stay single-threaded and synchronous underneath, no OS threads are
  spawned, and producers coordinate through the event loop alone.
* :func:`stream_workload` — the one-call bridge from a list-shaped workload
  to that client, ticking flush deadlines inline.

Latency control is the router's, not this module's: ``FleetRouter(...,
slo_ms=...)`` steers each relation's micro-batch size against an end-to-end
p95 SLO and ``flush_after_ms`` bounds how long a partially filled batch may
linger — ticks dispatch any batch whose oldest query has exceeded it.  The
client's flush driver rarely lets a batch get that old: it dispatches a
partial batch as soon as the event loop goes idle.

Determinism is inherited, not re-implemented: every query's random stream is
keyed by ``(seed, global submission index)`` alone, so **streaming ≡ batch
for any arrival order**.  A producer that numbers its queries up front can
submit them in whatever order they happen to arrive — out-of-order, bursty,
interleaved across tasks — and each query's estimate is identical (to float
round-off) to what :meth:`FleetRouter.run` returns for the in-order workload,
at any batch size and any replica count.  Adaptive batching preserves the
same contract for free: batch boundaries never change the numbers.

One deliberate exception, inherited from the result cache's documented
semantics: with ``result_cache=True`` and a workload containing *exact
repeats*, a repeat serves the stored estimate of its earliest **dispatched**
occurrence — and arrival order decides which occurrence dispatches first, so
repeats may serve a different occurrence's estimate than the in-order run's.
Workloads of distinct queries (an exact-match cache cannot hit otherwise)
keep the full arrival-order guarantee.
"""

from __future__ import annotations

import asyncio

from ..query.predicates import Query
from .cache import canonical_query_key
from .report import FleetReport, RoutedResult
from .router import AdmissionError, FleetRouter

__all__ = ["AsyncFleetClient", "stream_workload"]


class AsyncFleetClient:
    """Asynchronous streaming frontend: submit one query, await its result.

    The client layers futures over a fleet router.  The
    engines underneath stay synchronous and single-threaded — resolution
    happens inline, on whichever ``submit()`` or ``flush()`` call causes a
    micro-batch to dispatch — so there are no OS threads, no locks and no
    cross-thread hand-offs; asyncio is purely the coordination surface
    between producers.

    Usage::

        async def serve(router, queries):
            client = AsyncFleetClient(router)
            futures = [client.submit(query) for query in queries]
            report = await client.drain()      # flush + settle every future
            return [future.result() for future in futures], report

    Determinism: a query's estimate is keyed by ``(seed, global submission
    index)``.  By default the client numbers queries in arrival order; a
    producer that assigned indices up front may pass ``index=`` explicitly
    and submit in *any* order — the estimates equal the in-order batch run's
    (the invariance suite asserts this under shuffled asyncio arrival).

    Two asyncio conveniences layer on top of the synchronous router:

    * **Awaitable backpressure** — ``await client.submit_async(query)``
      suspends the producer while the query's replica group is at
      ``max_pending`` and resumes it once capacity frees, replacing
      per-submit :class:`~repro.serve.router.AdmissionError` storms (and the
      ``block`` policy's forced early dispatch) with cooperative queueing.
    * **Flush driver** — when the router carries a flush deadline
      (``flush_after_ms``), a background task dispatches a partially filled
      batch as soon as the event loop goes idle (a pass of the loop in which
      no query reached the router), so a lone query does not wait out the
      deadline for company that is not coming.  The deadline stays the
      bound for a loop that never idles: the task ticks the router when it
      passes.

    Parameters
    ----------
    router:
        The :class:`~repro.serve.router.FleetRouter` to stream into.  The
        client chains onto
        the router's ``on_result`` observer; any previously installed
        observer keeps firing first.
    flush_driver:
        Whether to run the flush driver: a background asyncio task that
        dispatches the partially filled micro-batches of a router with a
        flush deadline once the event loop goes idle, and ticks the router
        at the earliest deadline while it stays busy — so no batch waits
        longer than its ``flush_after_ms``, and most wait far less.
        ``True`` (default) starts the driver exactly when the router carries
        a flush deadline and its clock moves with real time (see
        :meth:`_ensure_driver`); ``False`` disables it (the caller ticks the
        router itself — what :func:`stream_workload` does to stay
        deterministic under a virtual clock).
    """

    def __init__(self, router: FleetRouter, *,
                 flush_driver: bool = True) -> None:
        self.router = router
        #: The arrival-pacing clock (see :meth:`pace`): the router's own, so
        #: arrival pacing and flush deadlines read the same timeline; a
        #: frozen :class:`~repro.serve.engine.VirtualClock` on the router
        #: makes :meth:`pace` advance virtual time instead of sleeping.
        self.clock = router.clock
        self._futures: dict[int, asyncio.Future] = {}
        #: Every index this client ever submitted: uniqueness is enforced for
        #: the client's whole lifetime, not just while a future is pending —
        #: reusing a dispatched index would silently share a random stream.
        self._used: set[int] = set()
        self._flush_driver = flush_driver
        #: Micro-batches the flush driver dispatched because the event loop
        #: went idle (deadline-fired ones count as the router's
        #: ``timeout_flushes``).
        self.idle_flushes = 0
        self._driver_task: asyncio.Task | None = None
        self._wakeup: asyncio.Event | None = None
        #: Route -> producers suspended in :meth:`acquire`, woken (to re-check
        #: capacity) whenever one of the route's results resolves.
        self._admission_waiters: dict[str, list[asyncio.Future]] = {}
        self._prior_on_result = router.on_result
        # Pin one bound-method object: attribute access creates a fresh one
        # each time, so close() must compare against exactly what it installed.
        self._installed = self._resolve
        router.on_result = self._installed

    # ------------------------------------------------------------------ #
    @property
    def outstanding(self) -> int:
        """Futures submitted but not yet resolved (their batch is pending)."""
        return len(self._futures)

    def _resolve(self, result: RoutedResult) -> None:
        """Router observer: settle the future registered under the index."""
        if self._prior_on_result is not None:
            self._prior_on_result(result)
        future = self._futures.pop(result.index, None)
        if future is not None and not future.cancelled():
            future.set_result(result)
        # A resolved result means its micro-batch dispatched: the route's
        # pending count dropped, so suspended producers may now be admitted.
        waiters = self._admission_waiters.pop(result.route, None)
        if waiters:
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_result(None)

    def submit(self, query: Query, index: int | None = None) -> asyncio.Future:
        """Stream one query in; returns the future of its routed result.

        Must be called from within a running asyncio event loop.  The future
        resolves when the query's micro-batch dispatches — which may be
        during this very call (batch full, admission-forced early dispatch,
        or a result-cache hit), so the returned future can already be done.

        Args:
            query: The (table-qualified) query to estimate.
            index: Explicit global submission index; ``None`` (default)
                numbers queries in arrival order.  Indices key the per-query
                random streams and must be unique — the client enforces
                uniqueness across its whole lifetime (a dispatched index is
                just as used as a pending one).

        Returns:
            An :class:`asyncio.Future` resolving to the query's
            :class:`~repro.serve.report.RoutedResult`.

        Raises:
            RoutingError: The query names no servable relation (nothing is
                enqueued and no index is consumed).
            AdmissionError: The target replica group is full under the
                ``shed`` overflow policy (ditto).
            ValueError: ``index`` was already submitted through this client.
        """
        loop = asyncio.get_running_loop()
        if index is None:
            index = self.router.next_index
        if index in self._used:
            raise ValueError(f"submission index {index} was already used by "
                             "this client; every query needs its own index")
        future = loop.create_future()
        self._futures[index] = future
        self._used.add(index)
        try:
            self.router.submit(query, index=index)
        except BaseException:
            self._futures.pop(index, None)
            self._used.discard(index)
            raise
        # Start the flush driver only after a successful submission: a
        # submit that dies in the router (unroutable query, failing
        # registry, refused admission) must not leave a driver task running
        # with nothing to drive — the teardown-leak regression in
        # tests/test_serve_procfleet_lifecycle.py pins this down.
        self._ensure_driver(loop)
        if self._wakeup is not None:
            self._wakeup.set()  # a new pending batch may move the deadline
        return future

    async def acquire(self, query: Query) -> str:
        """Suspend until the unit that will answer the query has capacity.

        Awaitable backpressure: instead of the submit-time ``block`` early
        dispatch or a ``shed`` :class:`AdmissionError`, a producer awaits
        here and is resumed once the group's pending count drops below
        ``max_pending`` (capacity frees when a micro-batch dispatches — by
        filling up, by the flush driver once the loop idles or the deadline
        passes, or by another producer's flush).
        The unit is the one :meth:`~repro.serve.router.FleetRouter
        .resolve_serving` names — the route's primary replica group, or its
        fallback unit for a query only the fallback can serve — so a
        fallback-served query never waits on (or flushes) the primary's
        batch.  Returns the resolved route; a unit without a ``max_pending``
        bound (every fallback unit) admits immediately, and so does a query
        the router's result cache will answer (an entry under its canonical
        key at the route's current version, peeked without moving a
        counter): a hit takes no capacity.

        When the route carries **no flush deadline — or no flush driver is
        running to fire one** — nothing would ever dispatch a partially
        filled batch while every producer is suspended, so rather than
        deadlock, the fullest replica is flushed early (exactly the
        ``block`` policy's behaviour, made awaitable).

        Raises:
            RoutingError: The query names no servable relation.
            StaleEpochError: On a :class:`~repro.serve.procfleet.ProcessFleet`
                whose registry moved past the exported models.
        """
        route, role = self.router.resolve_serving(query)
        cache = self.router.result_cache
        if cache is not None and cache.epoch_of(canonical_query_key(
                query, route=route)) == self.router.registry.version(route):
            return route
        group = (self.router.group(route) if role == "primary"
                 else self.router.fallback_unit(route))
        loop = asyncio.get_running_loop()
        self._ensure_driver(loop)
        while group.max_pending is not None \
                and group.pending >= group.max_pending:
            # Waiting is only safe when something will actually fire the
            # route's flush deadline: a *running* driver.  A configured
            # deadline with no driver (flush_driver=False, or a frozen
            # virtual clock the driver skips) would park every producer
            # with nothing left to tick — deadlock, not backpressure.
            driver_alive = (self._driver_task is not None
                            and not self._driver_task.done())
            if not driver_alive or not any(
                    engine.flush_after_ms is not None
                    for engine in group.engines):
                fullest = max(group.engines,
                              key=lambda engine: engine.pending)
                fullest.flush(reason="admission")
                continue
            waiter = loop.create_future()
            self._admission_waiters.setdefault(route, []).append(waiter)
            try:
                await waiter
            finally:
                pending = self._admission_waiters.get(route)
                if pending and waiter in pending:
                    pending.remove(waiter)
        return route

    async def submit_async(self, query: Query,
                           index: int | None = None) -> asyncio.Future:
        """Backpressure-aware :meth:`submit`: suspends until admitted.

        Semantically ``await acquire(query)`` followed by :meth:`submit` —
        the call returns (with the query's result future) only once the
        query has been admitted to its replica group, so concurrent
        producers throttle to the fleet's capacity instead of racing into
        per-submit :class:`AdmissionError` storms under the ``shed`` policy.

        Args:
            query: The (table-qualified) query to estimate.
            index: Explicit global submission index, as for :meth:`submit`.

        Returns:
            The query's result future (possibly already done).

        Raises:
            RoutingError: The query names no servable relation.
            ValueError: ``index`` was already submitted through this client.
        """
        await self.acquire(query)
        # No awaits sit between acquire()'s capacity re-check and this
        # synchronous submit, so on a cooperative event loop the freed slot
        # cannot be lost to a racing producer: the submit is admitted.  (A
        # retry here would also double-count the group's shed tally, since
        # ReplicaGroup.submit counts before raising.)
        return self.submit(query, index=index)

    async def pace(self, until: float) -> None:
        """Suspend until the client's clock reads at least ``until`` seconds.

        The arrival-pacing primitive of the open-loop load generator
        (:mod:`repro.serve.loadgen`): a producer replaying an arrival trace
        paces each submission with ``await client.pace(start + t_i)``.  On a
        real or hybrid clock this sleeps the remaining wall time (one
        clock-second is one real second).  On a **frozen**
        :class:`~repro.serve.engine.VirtualClock` — ``advance()`` with no
        real-time base — sleeping can never make the deadline arrive, so the
        clock is advanced to ``until`` directly (after a zero-sleep yield,
        keeping producer interleaving): trace replay becomes a pure function
        of the trace, byte-stable run after run.

        A deadline already in the past returns immediately — open-loop
        pacing never *delays* an overdue arrival, it only spaces out early
        ones.
        """
        frozen = (hasattr(self.clock, "advance")
                  and getattr(self.clock, "base", None) is None)
        while True:
            remaining = until - self.clock()
            if remaining <= 0:
                return
            if frozen:
                await asyncio.sleep(0)  # yield: interleave like real producers
                self.clock.advance(remaining)
            else:
                await asyncio.sleep(remaining)

    # ------------------------------------------------------------------ #
    def _ensure_driver(self, loop: asyncio.AbstractEventLoop) -> None:
        """Start the wall-clock flush driver once, if it is wanted.

        With ``flush_driver=True`` the driver starts exactly when the router
        carries a flush deadline *and* its clock moves with real time — a
        fully virtual clock (a :class:`VirtualClock` with no ``base``) can
        never make a deadline due by sleeping, so the caller ticks there
        instead of a task that would wake forever for nothing.
        """
        if self._driver_task is not None or not self._flush_driver:
            return
        frozen_clock = (hasattr(self.router.clock, "advance")
                        and getattr(self.router.clock, "base", None) is None)
        if self.router.flush_after_ms is None or frozen_clock:
            return
        self._wakeup = asyncio.Event()
        self._driver_task = loop.create_task(self._drive_flushes())

    def _abort(self, error: BaseException) -> None:
        """Fail every unresolved future and suspended producer with ``error``.

        The flush driver calls this when one of its dispatches raises: the
        error must surface through the futures awaiters already hold — a
        dead driver with silently pending futures is exactly the hang class
        :meth:`close` exists to prevent.
        """
        outstanding, self._futures = self._futures, {}
        for future in outstanding.values():
            if not future.done():
                future.set_exception(error)
        waiters, self._admission_waiters = self._admission_waiters, {}
        for route_waiters in waiters.values():
            for waiter in route_waiters:
                if not waiter.done():
                    waiter.set_exception(error)

    async def _drive_flushes(self) -> None:
        """Background task: dispatch partial batches at loop idle, or by deadline.

        Every iteration ticks the router (dispatching whatever is overdue).
        While a partial batch is pending on a route with a deadline, the
        task then yields to the loop once: if no query reached the router
        during that pass, nothing is about to join the batch, and every
        pending batch with a deadline dispatches at once as an ordinary
        flush.  Otherwise it waits for the next submission or the earliest
        deadline, which stays the bound for a loop that never idles.  With
        no deadline outstanding the task parks on the wake-up event, so an
        idle client costs nothing.  If a dispatch raises, the error is
        propagated into every outstanding future (see :meth:`_abort`) and
        the driver stops.

        Idle is judged in this process only.  That suffices while
        streaming stays in-process (the CLI refuses ``--stream`` and
        ``--arrivals`` with ``--workers``); a
        :class:`~repro.serve.procfleet.ProcessFleet` streamed through this
        driver would also have to count a worker with a batch in flight as
        busy.
        """
        while True:
            try:
                deadline = self.router.tick()
                if deadline is not None:
                    submissions = self.router.submissions
                    await asyncio.sleep(0)
                    if self.router.submissions == submissions:
                        self.idle_flushes += self.router.flush_deadlined()
                        continue
            except Exception as error:
                self._abort(error)
                # Clear the handle so the next submission can start a fresh
                # driver: a dead driver left registered would silently void
                # the flush-timeout guarantee for the rest of the client's
                # life.
                self._driver_task = None
                return
            if deadline is None:
                await self._wakeup.wait()
                self._wakeup.clear()
                continue
            delay = deadline - self.router.clock()
            if delay > 0:
                try:
                    await asyncio.wait_for(self._wakeup.wait(), timeout=delay)
                    self._wakeup.clear()
                except asyncio.TimeoutError:
                    pass  # deadline reached: the next tick() fires it

    def flush(self) -> None:
        """Dispatch every partially filled micro-batch, settling its futures."""
        self.router.flush()

    async def drain(self) -> FleetReport:
        """Flush everything, await every outstanding future, return the report.

        An empty stream (nothing ever submitted) returns a well-formed empty
        report: zero queries, zeroed latency percentiles.
        """
        self.router.flush()
        if self._futures:
            await asyncio.gather(*list(self._futures.values()))
        return self.router.report()

    def close(self) -> None:
        """Detach from the router and fail everything still unresolved.

        Restores the router's previous result observer, stops the flush
        driver, **cancels every outstanding result future** and every
        producer suspended in :meth:`acquire` — a closed client must never
        leave an awaiter suspended forever (the queries themselves may still
        be pending inside the router; ``router.flush()`` dispatches them,
        their results simply no longer resolve through this client).
        Idempotent.
        """
        if self.router.on_result is self._installed:
            self.router.on_result = self._prior_on_result
        if self._driver_task is not None:
            self._driver_task.cancel()
            self._driver_task = None
        outstanding, self._futures = self._futures, {}
        for future in outstanding.values():
            if not future.done():
                future.cancel("AsyncFleetClient closed with the query's "
                              "micro-batch still in flight")
        waiters, self._admission_waiters = self._admission_waiters, {}
        for route_waiters in waiters.values():
            for waiter in route_waiters:
                if not waiter.done():
                    waiter.cancel("AsyncFleetClient closed while awaiting "
                                  "admission")

    async def __aenter__(self) -> "AsyncFleetClient":
        """Enter the streaming scope; starts the flush driver if wanted."""
        self._ensure_driver(asyncio.get_running_loop())
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Drain outstanding futures (on clean exit) and detach.

        On the exception path the drain is skipped — the queries of an
        aborted scope are not worth finishing — and :meth:`close` cancels
        every unresolved future instead, so concurrent awaiters observe
        :class:`asyncio.CancelledError` rather than deadlocking on futures
        nothing will ever resolve.
        """
        try:
            if exc_type is None:
                await self.drain()
        finally:
            self.close()


def stream_workload(router: FleetRouter, queries: list[Query], *,
                    arrival_order: list[int] | None = None,
                    advance_ms: float | None = None) -> FleetReport:
    """Serve a workload through :class:`AsyncFleetClient` in a private loop.

    One-call bridge from list-shaped workloads to the streaming path, used by
    the CLI's ``--stream`` mode, the ``serve_stream`` benchmark and the
    invariance tests.  Each query keeps its *workload position* as its
    submission index, so the returned report is comparable element-for-element
    with :meth:`FleetRouter.run` on the same list — even when
    ``arrival_order`` submits the queries in a different (e.g. shuffled)
    order.  Producers yield to the event loop between submissions, so
    arrivals interleave like independent asyncio tasks.

    The router is ticked after every submission, so flush deadlines
    (``flush_after_ms``) fire inline on this call stack — there is no
    background task, which keeps the batch pattern a pure function of the
    clock.  With a wall clock that pattern depends on host timing (the
    estimates never do); pass ``advance_ms`` with a
    :class:`repro.serve.engine.VirtualClock` on the router to script the
    timeline exactly — each submission then advances virtual time by that
    many milliseconds before the tick, and timeout-triggered flushes land on
    byte-stable batch boundaries, run after run.

    Args:
        router: The fleet router to serve through.
        queries: The workload; element ``i`` is submitted with index ``i``.
        arrival_order: Permutation of ``range(len(queries))`` giving the
            order in which queries *arrive*; ``None`` = in order.
        advance_ms: Milliseconds of *virtual* inter-arrival time: the
            router's clock (which must expose ``advance()``, i.e. be a
            :class:`~repro.serve.engine.VirtualClock`) is advanced by this
            much after each submission.  ``None`` (default) leaves the clock
            alone — real time, real deadlines.

    Returns:
        The merged :class:`~repro.serve.report.FleetReport`, results in
        global index order.  Queries shed by the admission controller are
        skipped and counted per route in the report, like ``run()`` — with
        one indexing difference: indices here are *positions*, so a shed
        query's index is simply left unused (under ``run()`` the next query
        inherits it).  Position-keyed indices are what make the estimates
        independent of the arrival order, shed or not.
    """
    order = list(arrival_order) if arrival_order is not None \
        else list(range(len(queries)))
    if sorted(order) != list(range(len(queries))):
        raise ValueError("arrival_order must be a permutation of "
                         "range(len(queries))")
    if advance_ms is not None:
        if advance_ms < 0:
            raise ValueError(f"advance_ms must be non-negative, "
                             f"got {advance_ms}")
        if not hasattr(router.clock, "advance"):
            raise ValueError("advance_ms needs an advanceable router clock "
                             "(pass clock=VirtualClock() to the router)")
    router._begin_scope()

    async def main() -> FleetReport:
        # Deadlines are ticked inline below, not from a background driver:
        # the flush pattern stays a deterministic function of the clock.
        client = AsyncFleetClient(router, flush_driver=False)
        ticking = router.flush_after_ms is not None
        try:
            for position in order:
                try:
                    client.submit(queries[position], index=position)
                except AdmissionError:
                    pass  # counted in the group's shed tally, like run()
                if advance_ms is not None:
                    router.clock.advance(advance_ms / 1000.0)
                if ticking:
                    router.tick()
                await asyncio.sleep(0)  # yield: interleave like real producers
            return await client.drain()
        finally:
            client.close()

    return asyncio.run(main())
