"""Cross-process serving: a fleet router whose engines live in worker processes.

Everything else the serve stack ships lives in one Python process and is
therefore GIL-bound.  :class:`ProcessFleet` is the scale-out tier, and it *is*
the router: a :class:`~repro.serve.router.FleetRouter` subclass that inherits
routing, ``crc32`` replica placement, admission control, the result cache,
fallback units, flush deadlines, SLO steering, workload scopes and report
merging unchanged.  Only batch execution crosses the pipe:

* **One proxy engine per replica** (:class:`_WorkerEngine`): a filled
  micro-batch is shipped to the worker hosting that ``(relation, replica)``
  (:meth:`repro.serve.registry.ModelRegistry.worker_assignments`) and the
  parent keeps submitting while workers compute.  Every per-query random
  stream is keyed by ``(seed, global index)`` and every engine sees the same
  micro-batch sequence whichever process hosts it, so ``workers=1`` and
  ``workers=N`` return **bit-identical** estimates — the invariance grid in
  ``tests/test_serve_invariance.py`` proves it.
* **Models ship, they are not retrained** (:func:`export_relation` /
  :func:`restore_estimator`), and payloads are built *before* any process is
  spawned, so a failing registry fails fast with no children left behind.
* **Failures surface, they do not hang**: a dead, failing or silent worker
  raises a typed :class:`WorkerError`, never an indefinite ``recv()``, and
  :meth:`ProcessFleet.close` is an idempotent graceful drain.

See ``docs/operations.md`` for the operator's view: launching, per-worker log
layout, drain semantics and a troubleshooting table.
"""

from __future__ import annotations

import io
import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass
from functools import partial
from multiprocessing import connection as mp_connection

from ..core.estimator import NaruEstimator
from ..nn.serialization import load_state_dict, save_state_dict
from .engine import EstimationEngine
from .registry import ModelRegistry
from .report import FleetReport
from .router import FleetRouter

__all__ = ["WorkerError", "WorkerInfo", "StaleEpochError", "ProcessFleet",
           "export_relation", "restore_estimator", "worker_main"]

#: Granularity of the parent's liveness checks while waiting on workers.
_POLL_S = 0.05


# --------------------------------------------------------------------- #
# Model shipping
# --------------------------------------------------------------------- #
def export_relation(registry: ModelRegistry, name: str) -> dict:
    """Snapshot one relation's trained estimator into a picklable payload.

    Builds and fits the estimator if the registry has not yet (so all
    training happens in the parent, before any worker exists), then captures
    everything a worker needs to serve the relation: the table, the model
    config, the trained weights as in-memory ``.npz`` bytes
    (:func:`repro.nn.serialization.save_state_dict`) and the serving row
    count.  Raises ``TypeError`` for estimators that do not expose a config
    and a state-dict model — only registry-built Naru estimators can cross a
    process boundary.
    """
    estimator = registry.estimator(name)
    model = getattr(estimator, "model", None)
    config = getattr(estimator, "config", None)
    if model is None or config is None or not hasattr(model, "state_dict"):
        raise TypeError(
            f"relation {name!r} is served by {type(estimator).__name__}, "
            "which does not expose a config and a state-dict model; "
            "ProcessFleet can only ship Naru-style estimators to workers")
    buffer = io.BytesIO()
    save_state_dict(model.state_dict(), buffer)
    return {"name": name, "table": estimator.table, "config": config,
            "weights": buffer.getvalue(), "num_rows": estimator.num_rows}


def restore_estimator(payload: dict):
    """Rebuild a served estimator from an :func:`export_relation` payload.

    The constructor deterministically rebuilds the architecture from
    ``(table, config)``; the shipped weights overwrite the fresh parameters
    in place and the model is put in eval mode, exactly matching the parent's
    post-``fit()`` state — a restored estimator answers bit-identically to
    the one it was exported from.
    """
    estimator = NaruEstimator(payload["table"], payload["config"])
    estimator.model.load_state_dict(load_state_dict(io.BytesIO(payload["weights"])))
    estimator.model.eval()
    estimator._fitted = True
    if payload["num_rows"] != estimator.num_rows:
        estimator.set_row_count(payload["num_rows"])
    return estimator


# --------------------------------------------------------------------- #
# Errors and worker identity
# --------------------------------------------------------------------- #
class WorkerError(RuntimeError):
    """A worker process died, misbehaved or timed out.

    Raised in the *parent* whenever a worker cannot answer: the process
    exited (``exit_code`` carries its code), its pipe hit EOF, it reported a
    remote exception (``remote_traceback`` carries the formatted worker-side
    traceback) or it failed to answer within the fleet's ``recv_timeout_s``.
    Carries ``worker_id`` and ``log_path`` so an operator knows exactly which
    log file to read — see the troubleshooting table in
    ``docs/operations.md``.
    """

    def __init__(self, worker_id: int, message: str, *,
                 exit_code: int | None = None,
                 log_path: str | None = None,
                 remote_traceback: str | None = None) -> None:
        details = [message]
        if exit_code is not None:
            details.append(f"exit code {exit_code}")
        if log_path is not None:
            details.append(f"log: {log_path}")
        super().__init__(f"worker {worker_id}: " + "; ".join(details)
                         + (f"\n--- worker traceback ---\n{remote_traceback}"
                            if remote_traceback else ""))
        self.worker_id = worker_id
        self.exit_code = exit_code
        self.log_path = log_path
        self.remote_traceback = remote_traceback


class StaleEpochError(RuntimeError):
    """The registry's epoch moved past the models a fleet's workers hold.

    Workers serve from npz-copied model snapshots frozen at fleet
    construction, which no parent-side ingest or refresh swap can reach.
    Rather than silently serve frozen models against moved data, the fleet
    refuses with this typed error; the message names the remedy.
    """

    def __init__(self, route: str, fleet_epoch: tuple[int, int, int],
                 registry_epoch: tuple[int, int, int]) -> None:
        super().__init__(
            f"relation {route!r} was exported at epoch "
            f"(data={fleet_epoch[0]}, model={fleet_epoch[1]}, "
            f"swaps={fleet_epoch[2]}) but the registry is now at "
            f"(data={registry_epoch[0]}, model={registry_epoch[1]}, "
            f"swaps={registry_epoch[2]}); the workers' npz-copied models are "
            "stale — close this fleet and build a new ProcessFleet to "
            "re-export the current models")
        self.route = route
        self.fleet_epoch = fleet_epoch
        self.registry_epoch = registry_epoch


@dataclass(frozen=True)
class WorkerInfo:
    """Identity of one live worker: id, OS pid, log file and hosted engines."""

    worker_id: int
    pid: int
    log_path: str | None
    #: The ``(relation, replica)`` engines this worker hosts.
    keys: tuple[tuple[str, int], ...]


# --------------------------------------------------------------------- #
# The worker side
# --------------------------------------------------------------------- #
def worker_main(worker_id: int, conn, spec: dict) -> None:
    """Entry point of one worker process: serve micro-batches until told to stop.

    The protocol over ``conn`` (one duplex pipe to the parent) is strictly
    request/response and FIFO:

    * ``("batch", batch_id, route, replica, [(index, query), ...])`` — answer
      the micro-batch on the ``(route, replica)`` engine (built lazily from
      the shipped payload on first use) and reply ``("result", worker_id,
      batch_id, [(index, selectivity), ...], latency_ms, busy_cpu_ms)``,
      where ``latency_ms`` is the engine's dispatch latency and
      ``busy_cpu_ms`` the CPU time (:func:`time.process_time`) the dispatch
      consumed — the quantity the bench's capacity accounting aggregates.
    * ``("reset",)`` — start a fresh workload scope on every engine (caches
      survive, exactly like the single-process fleet).
    * ``("wipe",)`` — drop every engine's conditional-cache entries (counters
      and epoch stamps survive) and reply ``("wiped", worker_id, count)`` with
      the number of stores cleared — the far half of
      :meth:`ProcessFleet.wipe_caches`.
    * ``("report",)`` — reply ``("report", worker_id, {key: {"cache":
      cache_stats, "counters": scope_counters}})`` carrying each engine's
      conditional-cache counters and its row-accounting scope deltas
      (:meth:`~repro.serve.engine.EstimationEngine.scope_counters`).
    * ``("stop",)`` — reply ``("stopped", worker_id)`` and exit.

    Any worker-side exception is formatted and sent up as ``("error",
    worker_id, traceback)`` before the process exits, so the parent can raise
    a typed :class:`WorkerError` instead of hanging.  EOF on the pipe means
    the parent is gone; the worker exits quietly.
    """
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent owns Ctrl-C
    # Line-buffered: every line reaches the file at once, so the log
    # survives a crash; a log-less fleet writes to the null device.
    log_file = open(spec.get("log_path") or os.devnull, "a", buffering=1,
                    encoding="utf-8")

    def log(message: str) -> None:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
        log_file.write(f"{stamp} worker-{worker_id} {message}\n")

    estimators: dict[str, object] = {}
    engines: dict[tuple[str, int], EstimationEngine] = {}
    sink: list = []     # EstimateResults of the batch being served
    records: list = []  # ... and its BatchRecord

    def engine_for(route: str, replica: int) -> EstimationEngine:
        key = (route, replica)
        engine = engines.get(key)
        if engine is None:
            estimator = estimators.get(route)
            if estimator is None:
                build_start = time.perf_counter()
                estimator = restore_estimator(spec["payloads"][route])
                estimators[route] = estimator
                log(f"restored model {route!r} in "
                    f"{(time.perf_counter() - build_start) * 1000:.1f}ms")
            engine = EstimationEngine(
                estimator, batch_size=1, result_sink=sink.append,
                batch_hook=records.append, **spec["engine"])
            engines[key] = engine
            log(f"engine up for {route!r} replica {replica}")
        return engine

    try:
        log(f"ready pid={os.getpid()} keys={sorted(spec['keys'])}")
        conn.send(("ready", worker_id, os.getpid()))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "batch":
                _, batch_id, route, replica, items = message
                engine = engine_for(route, replica)
                # The parent owns batching: dispatch exactly this batch.
                engine.batch_size = max(len(items), 1)
                del sink[:]
                del records[:]
                busy_start = time.process_time()
                for index, query in items:
                    engine.submit(query, index=index)
                engine.flush()
                busy_cpu_ms = (time.process_time() - busy_start) * 1000.0
                record = records[-1]
                conn.send(("result", worker_id, batch_id,
                           [(result.index, result.selectivity)
                            for result in sink],
                           record.latency_ms, busy_cpu_ms))
                log(f"batch {batch_id} {route!r}/{replica} "
                    f"n={len(items)} latency={record.latency_ms:.2f}ms "
                    f"busy_cpu={busy_cpu_ms:.2f}ms")
            elif kind == "reset":
                for engine in engines.values():
                    engine.reset()
                log("reset (new workload scope)")
            elif kind == "wipe":
                caches = [engine.cache for engine in engines.values()
                          if engine.cache is not None]
                for cache in caches:
                    cache.clear()
                conn.send(("wiped", worker_id, len(caches)))
                log(f"wiped {len(caches)} conditional caches")
            elif kind == "report":
                conn.send(("report", worker_id,
                           {key: {"cache": engine.cache_stats,
                                  "counters": engine.scope_counters()}
                            for key, engine in engines.items()}))
            elif kind == "stop":
                log("stopping (graceful drain complete)")
                conn.send(("stopped", worker_id))
                return
            else:
                raise ValueError(f"unknown message kind {kind!r}")
    except EOFError:
        log("parent pipe closed; exiting")
    except Exception:
        formatted = traceback.format_exc()
        log("error\n" + formatted)
        try:
            conn.send(("error", worker_id, formatted))
        except Exception:
            pass
    finally:
        log_file.close()


# --------------------------------------------------------------------- #
# The parent side
# --------------------------------------------------------------------- #
@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one worker: identity, process, pipe end."""

    info: WorkerInfo
    process: object
    conn: object


class _WorkerEngine(EstimationEngine):
    """Parent-side proxy of one ``(relation, replica)`` engine in a worker.

    Queues, stamps arrivals, honours flush deadlines and reports exactly like
    its base class; the one difference is *where a filled micro-batch
    executes*: :meth:`_dispatch` hands it to ``ship`` (the fleet sends it down
    the hosting worker's pipe and returns at once) and :meth:`finish` runs the
    base class's accounting when the reply arrives.  The conditional cache
    lives with the model in the worker, so none is built here and the cache
    and row counters are whatever the worker last reported (``remote``).
    """

    def __init__(self, estimator, *, ship, **options) -> None:
        options.update(use_cache=False, cache=None)
        super().__init__(estimator, **options)
        self._ship = ship
        #: ``{"cache": ..., "counters": ...}`` from the worker's last report.
        self.remote: dict = {}

    @property
    def cache_stats(self) -> dict | None:
        return self.remote.get("cache")

    def scope_counters(self) -> dict[str, int]:
        return self.remote.get("counters") or super().scope_counters()

    def _dispatch(self, *, reason: str, start: float | None = None) -> None:
        batch, self._pending = self._pending, []
        self._ship(self, batch, reason)

    def finish(self, batch, pairs, latency_ms: float, *, reason: str) -> None:
        """The worker answered one shipped batch: account for it.

        The dispatch is taken to have started ``latency_ms`` (the worker's own
        measurement) before the reply arrived, so pipe transit and time
        queued behind other batches in the worker count as queue wait and
        ``e2e_ms`` is arrival to receipt on the parent's clock.
        """
        selectivities = dict(pairs)
        self._complete(batch, [selectivities[index] for index, _, _ in batch],
                       start=self.clock() - latency_ms / 1000.0,
                       latency_ms=latency_ms, reason=reason)


class ProcessFleet(FleetRouter):
    """A :class:`~repro.serve.router.FleetRouter` served by N worker processes.

    It is the router (see the module docstring): serving is inherited, each
    ``(relation, replica)`` engine lives in the worker the registry's
    round-robin assignment names, and the worker count is invisible in the
    numbers.  What this class adds is lifecycle: spawn, :meth:`collect`,
    :meth:`kill_worker`, :meth:`close`, liveness and epoch guards, and the
    per-worker ``stats.workers`` breakdown.

    Parameters
    ----------
    registry:
        The model fleet.  Every relation is built, fitted and snapshotted in
        the parent *before* any worker spawns, so a failing registry raises
        here with no child processes left behind.
    workers:
        Number of OS worker processes to spawn.  Each relation's replica
        count is its registered one (``registry.set_replicas``).  More
        replicas than workers is fine (workers host several engines); more
        workers than engines leaves workers idle.
    log_dir:
        Directory for per-worker log files (``worker-<id>.log``, created if
        missing); ``None`` disables worker logging.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default;
        ``"spawn"`` is supported — payloads travel as pickled process
        arguments, not inherited memory).
    recv_timeout_s:
        How long a worker may stay silent while the parent waits on it before
        :class:`WorkerError` is raised — the bound that turns a stuck worker
        into a typed error instead of a hang.  Measured on
        :func:`time.monotonic` (never the injectable ``clock``) and re-armed
        by every message received.
    **router_options:
        Every other :class:`~repro.serve.router.FleetRouter` keyword
        (batching, SLO, caches, admission, result cache, clock), with
        the router's semantics.  One difference: conditional caches are per
        engine, inside the workers (a process boundary rules out the router's
        group-shared store), so with ``replicas > 1`` cache hit patterns —
        never estimates — may differ from the in-process router's.
    """

    def __init__(self, registry: ModelRegistry, *, workers: int = 2,
                 log_dir: str | None = None,
                 start_method: str | None = None,
                 recv_timeout_s: float = 120.0, **router_options) -> None:
        super().__init__(registry, **router_options)
        self.num_workers = workers
        self.recv_timeout_s = recv_timeout_s
        # Also the validation of ``workers`` (ValueError).
        self._assignment = registry.worker_assignments(workers)

        # Train + snapshot every model BEFORE spawning anything: a broken
        # registry must fail fast with no children to clean up.
        payloads = {name: export_relation(registry, name)
                    for name in registry.names}
        # The epochs those snapshots were taken at: serving refuses
        # (StaleEpochError) once the registry moves past them.
        self._epochs = {name: registry.serving_epoch(name)
                        for name in registry.names}
        if log_dir is not None:
            os.makedirs(log_dir, exist_ok=True)

        #: batch id -> (worker id, engine, batch, flush reason) of every
        #: micro-batch shipped and not yet answered.
        self._inflight: dict[int, tuple] = {}
        self._next_batch_id = 0
        self._replies: dict[tuple[int, str], tuple] = {}
        self._handles: dict[int, _WorkerHandle] = {}
        self._tallies = self._zero_tallies()
        self._closed = False

        context = mp.get_context(start_method)
        engine_options = {"num_samples": self.num_samples,
                          "use_cache": self.use_cache,
                          "cache_entries": self.cache_entries_per_model,
                          "seed": self.seed}
        try:
            for worker_id in range(workers):
                keys = sorted(key for key, wid in self._assignment.items()
                              if wid == worker_id)
                log_path = (os.path.join(log_dir, f"worker-{worker_id}.log")
                            if log_dir is not None else None)
                self._handles[worker_id] = self._start_worker(
                    worker_id, context,
                    {"keys": keys, "engine": engine_options,
                     "payloads": {route: payloads[route] for route, _ in keys},
                     "log_path": log_path})
            for handle in self._handles.values():
                self._ask(handle, None, "ready", "before reporting ready")
        except BaseException:
            # Partial construction must not leak children: terminate whatever
            # was already spawned, then re-raise the original failure.
            self._shutdown(timeout_s=5.0, graceful=False)
            self._closed = True
            raise

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _start_worker(self, worker_id: int, context, spec: dict) -> _WorkerHandle:
        """Spawn one worker process and return its parent-side handle."""
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=worker_main, name=f"procfleet-worker-{worker_id}",
            args=(worker_id, child_conn, spec), daemon=True)
        process.start()
        child_conn.close()  # the worker owns its end now
        info = WorkerInfo(worker_id, process.pid, spec.get("log_path"),
                          tuple(spec["keys"]))
        return _WorkerHandle(info, process, parent_conn)

    @property
    def workers(self) -> list[WorkerInfo]:
        """Identity of every worker (id, pid, log file, hosted engines)."""
        return [handle.info for handle in self._handles.values()]

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed (submissions are refused)."""
        return self._closed

    @property
    def pending(self) -> int:
        """Queries accepted but not yet shipped to a worker."""
        return sum(group.pending for group in self._groups.values())

    @property
    def in_flight(self) -> int:
        """Queries shipped to workers whose results have not returned yet."""
        return sum(len(batch) for _, _, batch, _ in self._inflight.values())

    def kill_worker(self, worker_id: int) -> WorkerInfo:
        """Hard-kill one worker (SIGKILL) — a failure-injection drill hook.

        The next :meth:`collect`/:meth:`run` touching the dead worker raises
        :class:`WorkerError` within ``recv_timeout_s``; ``docs/operations.md``
        and the :func:`repro.serve.loadgen.run_kill_worker_drill` chaos drill
        use this to demonstrate crash handling.  Returns the killed worker's
        :class:`WorkerInfo` (what the drill report records); raises
        ``ValueError`` for an id that names no worker of this fleet and
        ``RuntimeError`` on a closed fleet (nothing left to kill).
        """
        self._require_open()
        if worker_id not in self._handles:
            raise ValueError(
                f"no worker {worker_id!r} in this fleet (workers: "
                f"{sorted(self._handles)})")
        self._handles[worker_id].process.kill()
        return self._handles[worker_id].info

    def __enter__(self) -> "ProcessFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()  # the graceful drain

    def close(self, timeout_s: float = 10.0) -> None:
        """Gracefully drain and stop the fleet; idempotent.

        Flushes every pending micro-batch, collects in-flight results (so a
        later :meth:`report` still covers them), snapshots worker cache
        stats, then asks each worker to stop and joins it — terminating any
        straggler after ``timeout_s``.  Errors during the drain (e.g. a
        worker already dead) are swallowed: ``close()`` is teardown, and the
        typed :class:`WorkerError` surfaced on the serving path that got
        here first.
        """
        if self._closed:
            return
        try:
            self.flush()
            self.collect()
            self._refresh_engine_stats()
        except Exception:
            pass  # best-effort drain; the hard stop below always runs
        finally:
            self._closed = True
            self._shutdown(timeout_s=timeout_s, graceful=True)

    def _shutdown(self, *, timeout_s: float, graceful: bool) -> None:
        """Stop every worker: politely when ``graceful``, else terminate."""
        for handle in self._handles.values():
            if graceful and handle.process.is_alive():
                try:
                    handle.conn.send(("stop",))
                except Exception:
                    pass
        for handle in self._handles.values():
            handle.process.join(timeout_s if graceful else 0.1)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(1.0)
            try:
                handle.conn.close()
            except Exception:
                pass

    def _worker_failure(self, worker_id: int, reason: str) -> WorkerError:
        """Build the typed error for one failed worker."""
        handle = self._handles[worker_id]
        # A freshly killed child may not be reapable the instant its pipe
        # EOFs; give it a bounded moment so the typed error carries the real
        # exit code (e.g. -9 for SIGKILL) instead of a racy None.
        handle.process.join(timeout=1.0)
        return WorkerError(worker_id, reason,
                           exit_code=handle.process.exitcode,
                           log_path=handle.info.log_path)

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("the fleet is closed")

    # ------------------------------------------------------------------ #
    # The pipe: send, receive, request/reply
    # ------------------------------------------------------------------ #
    def _live(self) -> list[_WorkerHandle]:
        """Handles of the workers still running."""
        return [handle for handle in self._handles.values()
                if handle.process.is_alive()]

    def _send(self, handle: _WorkerHandle, message: tuple, when: str) -> None:
        try:
            handle.conn.send(message)
        except (OSError, ValueError) as error:
            raise self._worker_failure(handle.info.worker_id,
                                       f"went away {when}") from error

    def _poll(self, handles: list[_WorkerHandle], timeout: float) -> bool:
        """Fold in what ``handles`` sent within ``timeout`` s; did anything arrive?"""
        by_conn = {handle.conn: handle for handle in handles}
        ready = mp_connection.wait(list(by_conn), timeout=timeout)
        for conn in ready:
            try:
                message = conn.recv()
            except (EOFError, OSError) as error:
                raise self._worker_failure(
                    by_conn[conn].info.worker_id,
                    "pipe closed with answers outstanding") from error
            self._handle_message(message)
        return bool(ready)

    def _wait_for(self, handles: list[_WorkerHandle], done, when: str) -> None:
        """Receive from ``handles`` until ``done()``; never hang.

        Raises :class:`WorkerError` when one of them dies, or when all stay
        silent for ``recv_timeout_s``.  The silence bound is re-armed by every
        message (a long backlog that keeps answering is progress, not a
        timeout) and read from :func:`time.monotonic`, never the injectable
        accounting ``clock`` — a frozen test clock must not disable it.
        """
        deadline = time.monotonic() + self.recv_timeout_s
        while not done():
            if self._poll(handles, _POLL_S):
                deadline = time.monotonic() + self.recv_timeout_s
                continue
            for handle in handles:
                if not handle.process.is_alive():
                    raise self._worker_failure(handle.info.worker_id,
                                               f"died {when}")
            if time.monotonic() > deadline:
                owing = {worker_id for worker_id, *_ in self._inflight.values()}
                silent = next((handle.info for handle in handles
                               if handle.info.worker_id in owing),
                              handles[0].info)
                raise WorkerError(
                    silent.worker_id,
                    f"no answer within {self.recv_timeout_s:g}s {when}",
                    log_path=silent.log_path)

    def _ask(self, handle: _WorkerHandle, request: tuple | None, reply: str,
             when: str) -> tuple:
        """Send one request (if any) and wait for the worker's ``reply``."""
        if request is not None:
            self._send(handle, request, when)
        key = (handle.info.worker_id, reply)
        self._wait_for([handle], lambda: key in self._replies, when)
        return self._replies.pop(key)

    def _handle_message(self, message: tuple) -> None:
        """Fold one worker message into the parent-side accounting."""
        kind, worker_id = message[0], message[1]
        if kind == "result":
            _, _, batch_id, pairs, latency_ms, busy_cpu_ms = message
            _, engine, batch, reason = self._inflight.pop(batch_id)
            engine.finish(batch, pairs, latency_ms, reason=reason)
            tally = self._tallies[worker_id]
            tally["num_queries"] += len(pairs)
            tally["num_batches"] += 1
            tally["busy_cpu_ms"] += busy_cpu_ms
            tally["latency_ms"] += latency_ms
        elif kind == "error":
            handle = self._handles[worker_id]
            raise WorkerError(worker_id, "raised while serving",
                              exit_code=handle.process.exitcode,
                              log_path=handle.info.log_path,
                              remote_traceback=message[2])
        else:  # "ready" / "report" / "wiped": claimed by the _ask awaiting it
            self._replies[(worker_id, kind)] = message

    def _ship(self, key: tuple[str, int], engine: _WorkerEngine, batch: list,
              reason: str) -> None:
        """Send one engine's filled micro-batch to the worker hosting it."""
        handle = self._handles[self._assignment[key]]
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        self._send(handle, ("batch", batch_id, *key,
                            [(index, query) for index, query, _ in batch]),
                   "while a batch was being sent")
        self._inflight[batch_id] = (handle.info.worker_id, engine, batch, reason)

    def collect(self) -> None:
        """Block until every in-flight micro-batch has returned its results.

        Raises :class:`WorkerError` if a worker dies, or stays silent for
        ``recv_timeout_s``, while results are outstanding.
        """
        if not self._closed:
            # Every worker is listened to, not only those owing results: a
            # dead idle worker is still a failure the caller must hear about.
            self._wait_for(list(self._handles.values()),
                           lambda: not self._inflight,
                           f"with {self.in_flight} queries in flight")

    # ------------------------------------------------------------------ #
    # The router's seams and guards
    # ------------------------------------------------------------------ #
    def _make_engine(self, route: str, replica: int, estimator,
                     **options) -> _WorkerEngine:
        key = (route, replica)
        if key not in self._assignment:
            raise RuntimeError(
                f"relation {route!r} was registered after this fleet was "
                "built, so no worker hosts it; close this fleet and build a "
                "new ProcessFleet")
        return _WorkerEngine(estimator, ship=partial(self._ship, key),
                             **options)

    def _check_epoch(self, route: str) -> None:
        """Refuse to serve a route whose registry epoch moved past the export."""
        snapshot = self._epochs.get(route)  # None: registered after the export
        current = self.registry.serving_epoch(route)
        if snapshot is not None and current != snapshot:
            raise StaleEpochError(route, snapshot, current)

    def resolve_serving(self, query) -> tuple[str, str]:
        """:meth:`FleetRouter.resolve_serving` plus the stale-epoch guard."""
        route, role = super().resolve_serving(query)
        self._check_epoch(route)
        return route, role

    def submit(self, query, index: int | None = None) -> str:
        """:meth:`FleetRouter.submit`; also raises ``RuntimeError`` once closed,
        :class:`StaleEpochError` once the registry moved past the exported
        models, and :class:`WorkerError` if a worker is found dead."""
        self._require_open()
        if self._inflight:
            # Workers answer while the parent keeps submitting: fold in what
            # has arrived so the result pipes never back up.
            self._poll(list(self._handles.values()), 0)
        return super().submit(query, index)

    def _begin_scope(self) -> None:
        self._require_open()
        if self._inflight:
            raise RuntimeError("submitted queries are still in flight; call "
                               "flush() and collect() before run()")
        for route in self._epochs:
            self._check_epoch(route)
        super()._begin_scope()
        for handle in self._handles.values():
            self._send(handle, ("reset",), "during scope reset")
        self._tallies = self._zero_tallies()

    def wipe_caches(self) -> dict[str, int]:
        """:meth:`FleetRouter.wipe_caches`, reaching into the workers.

        The conditional caches live in the worker processes, so the wipe is
        forwarded to every live worker and ``conditional_caches`` counts the
        worker-side stores actually cleared.
        """
        wiped = super().wipe_caches()
        for handle in self._live():
            wiped["conditional_caches"] += self._ask(
                handle, ("wipe",), "wiped", "during a cache wipe")[2]
        return wiped

    def _refresh_engine_stats(self) -> None:
        """Pull per-engine cache counters and scope deltas from live workers."""
        for handle in self._live():
            stats = self._ask(handle, ("report",), "report",
                              "during a stats snapshot")[2]
            for (route, replica), entry in stats.items():
                self.engine(route, replica).remote = entry

    def _zero_tallies(self) -> dict[int, dict]:
        return {worker_id: {"num_queries": 0, "num_batches": 0,
                            "busy_cpu_ms": 0.0, "latency_ms": 0.0}
                for worker_id in range(self.num_workers)}

    def worker_stats(self) -> dict[str, dict]:
        """Per-worker serving tallies for the current workload scope.

        Keyed by stringified worker id (JSON-friendly).  The summed busy-CPU
        column is what the ``serve_procfleet`` bench's capacity accounting is
        built from: CPU seconds are immune to time-slicing, so the fleet's
        critical path is ``max`` over workers even on a single-core host.
        """
        return {
            str(info.worker_id): {
                "pid": info.pid,
                "log_path": info.log_path,
                "engines": [f"{route}/{replica}"
                            for route, replica in info.keys],
                **self._tallies[info.worker_id],
            }
            for info in self.workers}

    def report(self) -> FleetReport:
        """:meth:`FleetRouter.report` once every in-flight result is in.

        Collects first (a closed fleet already has), refreshes the
        worker-side cache and row counters, and adds the per-worker
        ``stats.workers`` breakdown — the only place the worker boundary
        shows in the report.
        """
        if not self._closed:
            self.collect()
            self._refresh_engine_stats()
        report = super().report()
        report.stats.workers = self.worker_stats()
        return report

    def __repr__(self) -> str:
        state = "closed" if self._closed else "live"
        return (f"ProcessFleet({len(self.registry)} relations, "
                f"{self.num_workers} workers, "
                f"{sum(self._replica_counts.values())} engines, {state})")
