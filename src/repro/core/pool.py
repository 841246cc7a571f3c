"""The supervised worker pool: crash-isolated warm workers, never a lost batch.

One pool serves both multi-process callers.  ``rpslyzer serve --workers N``
ships query batches to it (component ``serve``);
:meth:`~repro.api.Session.verify_table` with ``processes=N`` ships table
chunks (component ``verify``) over the same lease pipe, to the same worker
body, through this module's table client, :func:`_verify_pooled` — so the
one module that sends a ``chunk`` frame is the one that reads its answer.
This module alone creates worker processes and pipes, and owns:

* **warm workers** — each worker process builds its own
  :class:`~repro.api.Session` from the parent's parsed IR and compiled
  index (shared copy-on-write under ``fork``, pickled once under
  ``spawn``), so it answers warm without ever recompiling, and its hop
  cache carries from one batch or chunk to the next.
* **supervision** — a monitor task on the caller's event loop
  health-checks idle workers with heartbeat pings, SIGKILLs hung ones (a
  worker that stops answering mid-batch is caught by the per-batch hang
  bound), and respawns crashed ones with exponential backoff under a
  bounded *restart budget*.  Budget exhausted ⇒ the pool degrades:
  ``dispatch`` answers None from then on and the caller runs its
  in-process serial path.
* **crash isolation** — a dying worker fails only its in-flight batch,
  which is retried on another worker (at most ``BATCH_RETRIES`` times); a
  batch the pool cannot place is handed back (None) for the caller to run
  itself.
* **pool health** — a failing pool is one whose workers keep dying.
  A degraded or stopping pool, or one with no live worker, hands a batch
  back at once instead of waiting out ``LEASE_TIMEOUT`` for a worker
  that cannot come free.  The respawn backoff is the cooldown, and the
  next worker admitted is the probe.

Every fault is recorded as ``<component>/worker-crashed``,
``worker-hung``, ``worker-restarted``, ``worker-spawn-failed`` or
``pool-degraded`` in the caller's
:class:`~repro.core.degradation.DegradationReport` (``docs/robustness.md``).

Pipe discipline: a worker's :class:`~multiprocessing.connection.Connection`
is only ever touched by whoever holds the worker leased from the free
queue — batch and chunk executors, a reload, and the heartbeat monitor
alike — and every exchange is one conversation: a ``(kind, id, payload)``
frame answered by one ``("result", id, outcome, event_lines)`` (the frame
table is :func:`_worker_main`'s).  A reader skips a result whose id is
not its own — the late answer of a cancelled conversation.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro import faultplan
from repro.bgp.table import RouteEntry
from repro.bgp.topology import AsRelationships
from repro.core.compiled import CompiledIndex
from repro.core.degradation import DegradationReport
from repro.core.verify import Verifier, VerifyOptions, verify_into
from repro.ir.model import Ir
from repro.obs import NULL_REGISTRY, MetricsRegistry, get_registry, set_registry
from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.stats.verification import VerificationStats

__all__ = ["PoolUnavailable", "SupervisorConfig", "WorkerCrash", "WorkerSupervisor"]

log = logging.getLogger("repro.core.pool")

# A table chunk's hang bound grows with its length — a worker may spend
# this long per route, hop cache cold, before it is presumed wedged —
# and never drops below ``SupervisorConfig.hang_timeout``.
CHUNK_SECONDS_PER_ROUTE = 0.005

# How long a new worker may take to warm up and report ready.
SPAWN_TIMEOUT = 60.0

# How many times one batch is retried on another worker after a crash
# before it is handed back for the caller to run serially.
BATCH_RETRIES = 2

# How long a batch waits for a live but busy worker to come free before
# it is handed back (a pool with no live worker hands it back at once).
LEASE_TIMEOUT = 5.0

# The exponential respawn backoff after consecutive spawn failures: the
# first retry waits BACKOFF_BASE, each further one twice as long, capped
# at BACKOFF_MAX.  It is the only cooldown the pool has.
BACKOFF_BASE = 0.05
BACKOFF_MAX = 2.0


class WorkerCrash(RuntimeError):
    """A worker died or hung while executing a batch."""


class PoolUnavailable(RuntimeError):
    """No healthy worker could be leased in time."""


@dataclass(frozen=True, slots=True)
class SupervisorConfig:
    """Knobs for the worker pool; defaults suit a local daemon.

    ``hang_timeout`` bounds one batch's execution in a worker — a worker
    that exceeds it is presumed wedged and SIGKILLed (a table chunk's
    bound grows from it with the chunk's length).  ``heartbeat_*``
    drive the idle-worker liveness probe.  ``restart_budget`` is the
    total number of respawns before the pool gives up and degrades to
    the in-process serial path; respawns back off exponentially
    (:data:`BACKOFF_BASE`, :data:`BACKOFF_MAX`) — the only cooldown the
    pool has: while no worker is live, batches are handed back at once.
    """

    workers: int = 2
    hang_timeout: float = 10.0
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 2.0
    restart_budget: int = 8
    start_method: str | None = None


def _verify_chunk(
    verifier: Verifier, index: int, entries: Sequence[RouteEntry]
) -> tuple:
    """A worker's ``chunk`` frame: verify chunk ``index`` on the worker's
    persistent ``verifier`` (its hop cache carries from chunk to chunk).

    Returns ``("ok", stats, metrics, sampled)``: what the chunk recorded
    into the worker's registry (:meth:`~repro.obs.MetricsRegistry.drain`)
    and the routes its tracer sampled, both counted from this chunk's start.
    A chunk that fails drains its partial attempt and discards it, so a
    retry elsewhere is never double-counted.  The installed fault plan's
    chunk fault, if any, is called first (:mod:`repro.faultplan`).
    """
    chunk_fault = faultplan.current().chunk
    if chunk_fault is not None:
        chunk_fault(index)
    registry = get_registry()
    tracer = get_tracer()
    if tracer.enabled:
        tracer.chunk_id = index
        tracer.sampled = dict.fromkeys(tracer.sampled, 0)
    stats = VerificationStats()
    try:
        with registry.span("verify/worker"):
            verify_into(verifier, entries, stats)
    except BaseException:
        registry.drain()
        raise
    return "ok", stats, registry.drain(), tracer.sampled


def _verify_pooled(
    ir: Ir,
    relationships: AsRelationships,
    options: VerifyOptions | None,
    index: CompiledIndex,
    chunks: Iterator[tuple[int, list[RouteEntry]]],
    processes: int,
    start_method: str | None,
) -> VerificationStats:
    """The pool's table client: one chunk in flight per worker.

    Starts a pool of ``processes`` workers over ⟨ir, index⟩, feeds it the
    numbered ``chunks`` and stops it again, all inside one event loop of
    its own, on this thread — so the caller's iterator is advanced, every
    result merged and the pool supervised here.  (Like any
    ``asyncio.run``, not from inside a running loop: hand a pooled table
    pass to an executor thread there.)

    A chunk the pool hands back, or one that raised in a worker, is
    verified in-process and recorded as ``verify/chunk-serial-fallback``;
    once the pool degrades, the rest of the table drains here.  The
    returned stats are exact either way.  Each worker's drained metrics,
    trace lines and sample counts are folded into the parent's registry
    and tracer only for a chunk whose result is accepted.
    """
    registry = get_registry()
    tracer = get_tracer()
    total = VerificationStats()
    fallback: Verifier | None = None
    pool = WorkerSupervisor(
        ir,
        relationships,
        options,
        index,
        SupervisorConfig(workers=processes, start_method=start_method),
        degradation=total.degradation,
        component="verify",
        observability=(registry.enabled, tracer.config if tracer.enabled else None),
    )

    async def slot() -> None:
        nonlocal fallback
        # Every slot draws from the one iterator; next() never spans an await.
        for number, chunk in chunks:
            dispatched = await pool.dispatch_chunk(number, chunk)
            if dispatched is not None and dispatched[0][0] == "ok":
                _, partial, metrics, sampled = dispatched[0]
                total.merge(partial)
                registry.merge_snapshot(metrics)
                # The chunk's trace events and sample counts, taken with the
                # result that counts: a chunk that falls through emits them
                # again below.
                tracer.absorb(dispatched[1])
                for reason, count in sampled.items():
                    tracer.sampled[reason] += count
                continue
            if dispatched is not None:
                why = dispatched[0][1]  # the chunk raised in a worker that survived
            elif pool.degraded:
                why = None  # the pool said so once; the table drains here
            else:
                why = "the pool handed it back"
            if why is not None:
                total.degradation.record(
                    "verify", "chunk-serial-fallback", f"chunk {number}: {why}"
                )
            # A deterministic error surfaces from here, in the parent.
            if fallback is None:
                fallback = Verifier(ir, relationships, options, index=index)
            verify_into(fallback, chunk, total)

    async def run() -> None:
        slots: list[asyncio.Task] = []
        try:
            await pool.start()
            slots = [asyncio.create_task(slot()) for _ in range(processes)]
            await asyncio.gather(*slots)
        finally:
            # A slot that raised leaves the others running: stop them
            # before the pool goes.
            for task in slots:
                task.cancel()
            if slots:
                await asyncio.wait(slots)
            await pool.stop()

    asyncio.run(run())

    if registry.enabled:
        registry.gauge("verify_workers").set(processes)
        for event in total.degradation.events():
            registry.counter(
                "verify_degradation_total",
                component=event.component,
                kind=event.kind,
            ).inc(event.count)
    return total


def _worker_main(
    conn,
    ir: Ir,
    relationships: AsRelationships,
    options: VerifyOptions | None,
    index: CompiledIndex | None,
    observability: tuple,
    plan: faultplan.FaultPlan,
) -> None:
    """The worker process body: one warm Session answering frames.

    Every frame in is ``(kind, id, payload)``; each but ``stop`` is
    answered by one ``("result", id, outcome, event_lines)``, and the only
    other frame out is ``("ready", pid)``, once warm:

    * ``batch`` — payload: items ``(kind, prefix, as_path, collector,
      request_id)``; outcome: one ``("ok", body, verdicts)`` or ``("err",
      message)`` per item (:func:`repro.serve.core.answer_query`: the
      response body crosses the pipe as the bytes the front-end writes).
    * ``chunk`` — payload: ``(chunk_index, entries)``; outcome: ``("ok",
      stats, metrics, sampled)`` (see :func:`_verify_chunk`) or ``("err",
      message)`` — the worker outlives a chunk that raised.
    * ``reload`` — payload: ``(expected_generation, journal)``; outcome:
      ``("ok", generation, degraded)`` or ``("err", message)``.
    * ``ping`` — payload and outcome None: the monitor's liveness probe.
    * ``stop`` — no answer; the worker exits.

    Everything the worker has to say goes into one
    :class:`~repro.obs.events.EventLog`, drained into every result frame:
    a ``worker-execute`` event per query (the request's correlation id,
    this worker's pid, the generation, the per-query duration), an
    explained route's hop events, a reload's ``worker-reloaded`` event,
    and — in a traced table run — the chunk's ``route``/``hop`` events.
    The caller absorbs the lines of a result it accepts, so one request id
    greps across process boundaries and a chunk's events arrive exactly
    once (a killed worker's die with its chunk; the retry emits them again).

    A reload replays the journal onto the worker's own session
    (:meth:`repro.api.Session.apply_deltas` — the same deterministic
    patch the parent ran), so the swap ships kilobytes of delta down the
    pipe instead of re-pickling the whole index.  The generation check
    makes redundant reloads no-ops.
    """
    # Imported lazily: repro.serve.core imports this module at its top
    # level, and repro.api is imported by it.
    from repro.api import Session
    from repro.serve.core import answer_query

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    faultplan.install(plan)
    pid = os.getpid()
    # Fresh per-process observability: a worker must never write into a
    # registry or tracer inherited across fork (the parent would never read
    # the child's copy).  Unbounded, because every result frame drains it.
    events = EventLog()
    collect_metrics, trace_config = observability
    set_registry(MetricsRegistry() if collect_metrics else None)
    set_tracer(
        Tracer(trace_config, log=events, ids={"worker": pid})
        if trace_config is not None
        else None
    )
    session = Session(ir, relationships, options=options, index=index)
    session.flight = events
    session.warm()
    conn.send(("ready", pid))
    while True:
        try:
            kind, frame_id, payload = conn.recv()
        except (EOFError, OSError):
            return
        if kind == "stop":
            return
        if kind == "batch":
            outcome = []
            for query_kind, prefix, as_path, collector, request_id in payload:
                item_start = time.monotonic()
                answer = answer_query(
                    session, query_kind, prefix, as_path, collector, request_id
                )
                outcome.append(answer)
                events.record(
                    "worker-execute",
                    request=request_id,
                    worker=pid,
                    generation=session.generation,
                    endpoint=query_kind,
                    outcome=answer[0],
                    ms=round((time.monotonic() - item_start) * 1000.0, 3),
                )
        elif kind == "chunk":
            try:
                outcome = _verify_chunk(session.verifier, *payload)
            except Exception as exc:  # noqa: BLE001 - the parent verifies it
                outcome = ("err", f"{type(exc).__name__}: {exc}")
        elif kind == "reload":
            expected_generation, journal = payload
            # A worker respawned from the parent's post-patch state is
            # already at (or past) the target: nothing to apply.
            outcome = ("ok", session.generation, False)
            if session.generation < expected_generation:
                try:
                    report = session.apply_deltas(journal)
                except Exception as exc:  # noqa: BLE001 - the parent retires us
                    outcome = ("err", str(exc))
                else:
                    events.record(
                        "worker-reloaded",
                        worker=pid,
                        generation=session.generation,
                        hop_cache=session.last_delta_hop_cache,
                    )
                    outcome = ("ok", session.generation, bool(report))
        else:  # ping
            outcome = None
        try:
            conn.send(("result", frame_id, outcome, events.drain()))
        except (BrokenPipeError, OSError):
            return


@dataclass(slots=True, eq=False)
class _Worker:
    """One live worker process, the parent's end of its pipe, and the index
    it warmed on."""

    worker_id: int
    process: multiprocessing.Process
    conn: object
    pid: int
    index: CompiledIndex | None


class WorkerSupervisor:
    """Owns the pool: spawn, lease, heartbeat, restart, degrade.

    The pool lives on its caller's event loop (the serve daemon's, or
    the table client's own) and starts no thread: ``await start()``
    spawns the workers and schedules the monitor task (heartbeats,
    respawns), ``dispatch``/``dispatch_chunk``/``reload`` are awaited
    there, and ``await stop()`` cancels the task and reaps every worker.
    Every state transition, metric (when a registry is given) and crash
    or degradation recorded in ``degradation`` under the caller's
    ``component`` (``serve`` or ``verify``) happens on that loop; another
    thread only reads, through :meth:`worker_pids` and :meth:`state`.
    ``observability`` — ``(collect_metrics, trace_config)`` —
    is what each worker installs for itself; only a table run sets it.
    Each worker also installs the fault plan that was current when it
    was spawned (:mod:`repro.faultplan`).
    """

    def __init__(
        self,
        ir: Ir,
        relationships: AsRelationships,
        options: VerifyOptions | None,
        index: CompiledIndex | None,
        config: SupervisorConfig | None = None,
        *,
        registry: MetricsRegistry = NULL_REGISTRY,
        degradation: DegradationReport | None = None,
        flight: EventLog = NULL_EVENTS,
        component: str = "serve",
        observability: tuple = (False, None),
    ):
        self.config = config or SupervisorConfig()
        if self.config.workers < 1:
            raise ValueError("SupervisorConfig.workers must be >= 1")
        self._ir = ir
        self._relationships = relationships
        self._options = options
        self._index = index
        self.component = component
        self._observability = observability
        start_method = self.config.start_method or (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._ctx = multiprocessing.get_context(start_method)
        self.degradation = (
            degradation if degradation is not None else DegradationReport()
        )
        self.flight = flight
        self.degraded = False
        self._stopping = False
        self._workers: dict[int, _Worker] = {}
        self._free: deque[_Worker] = deque()  # live workers nobody holds
        # Set when a worker comes free or the pool's health changes: what
        # a waiting lease, or a reload sweep, wakes on.
        self._changed = asyncio.Event()
        self._next_id = 0
        self._frame_ids = itertools.count(1)
        self.restarts = 0
        self._consecutive_spawn_failures = 0
        self._monitor: asyncio.Task | None = None
        self._registry = registry
        self._gauge_live = registry.gauge(f"{component}_workers_live")
        self._gauge_restarting = registry.gauge(f"{component}_workers_restarting")
        self._counter_restarts = registry.counter(f"{component}_worker_restarts_total")
        self._gauge_degraded = registry.gauge(f"{component}_degraded")

    def _event(self, kind: str, worker: _Worker | None = None, **payload) -> None:
        """Record one lifecycle event, under the generation workers spawn from."""
        if worker is not None:
            payload["slot"] = worker.worker_id
        self.flight.record(
            kind,
            worker=worker.pid if worker is not None else None,
            generation=self._index.generation if self._index is not None else 0,
            **payload,
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "WorkerSupervisor":
        """Spawn the initial pool and schedule the monitor task on this loop.

        A worker that fails to come up during initial start is left to
        the monitor's respawn, which draws on the restart budget like any
        later crash; a pool that cannot field a single worker starts
        degraded instead of raising.
        """
        for _ in range(self.config.workers):
            try:
                await self._admit(await self._spawn_worker())
            except WorkerCrash as exc:
                self.degradation.record(
                    self.component,
                    "worker-spawn-failed",
                    f"startup spawn failed: {exc}",
                )
        if not self._workers:
            self._degrade("no worker survived startup")
        self._monitor = asyncio.create_task(
            self._monitor_loop(), name=f"{self.component}-pool-monitor"
        )
        self._publish_metrics()
        return self

    async def stop(self) -> None:
        """Cancel the monitor task, then stop every worker.

        In that order, so nothing admits a worker behind the sweep; a
        respawn the cancellation catches still warming is reaped by
        :meth:`_spawn_worker` itself.
        """
        self._stopping = True
        self._changed.set()
        if self._monitor is not None:
            self._monitor.cancel()
            await asyncio.wait([self._monitor])
            self._monitor = None
        workers = list(self._workers.values())
        self._workers.clear()
        self._free.clear()
        for worker in workers:
            try:
                worker.conn.send(("stop", None, None))
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=0.5)
            self._reap(worker.process, worker.conn)
        self._publish_metrics()

    @staticmethod
    def _reap(process, conn) -> None:
        """SIGKILL a worker that is still running and release its pipe and
        process handle now — a pool is started and stopped per table run,
        so its descriptors cannot wait for a garbage collection."""
        process.kill()
        process.join(timeout=5)
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
        if not process.is_alive():
            process.close()

    # -- spawning ----------------------------------------------------------

    async def _spawn_worker(self) -> _Worker:
        """Start one worker and await its ``ready`` frame on the loop."""
        worker_id = self._next_id
        self._next_id += 1
        index = self._index
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._ir,
                self._relationships,
                self._options,
                index,
                self._observability,
                faultplan.current(),
            ),
            name=f"rpslyzer-{self.component}-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            await self._readable(parent_conn, SPAWN_TIMEOUT)
            message = parent_conn.recv()
        except TimeoutError:
            self._reap(process, parent_conn)
            raise WorkerCrash(f"worker {worker_id} never reported ready") from None
        except (EOFError, OSError) as exc:
            self._reap(process, parent_conn)
            raise WorkerCrash(f"worker {worker_id} died during warmup") from exc
        except asyncio.CancelledError:
            self._reap(process, parent_conn)  # stop() landed mid-warmup
            raise
        assert message[0] == "ready"
        return _Worker(worker_id, process, parent_conn, message[1], index)

    async def _admit(self, worker: _Worker) -> None:
        # A reload swapped the state while this worker warmed and could not
        # reach it (it was not in the pool yet): warm another.
        while worker.index is not self._index:
            self._reap(worker.process, worker.conn)
            worker = await self._spawn_worker()
        self._workers[worker.worker_id] = worker
        self._event("worker-spawn", worker)
        self._release(worker)
        self._consecutive_spawn_failures = 0

    # -- dispatch ----------------------------------------------------------
    #
    # All parent-side work of a batch, chunk, reload or ping happens on the
    # loop thread — send, await readability via add_reader, recv — so no
    # thread is parked on a pipe: under the serve daemon every such thread's
    # wakeup had to win the GIL back from the busy loop, which cost more
    # than the batch itself.

    def _hands_back(self) -> bool:
        """The pool-health rule: no batch waits for a worker that cannot come.

        A lease is worth waiting for only while some worker is live and
        merely busy; a degraded or stopping pool, or one whose workers are
        all dead and not yet respawned, hands the batch back at once.
        """
        return self.degraded or self._stopping or not self._workers

    def _release(self, worker: _Worker) -> None:
        """Hand a leased worker back, unless it was retired meanwhile."""
        if worker.worker_id in self._workers:
            self._free.append(worker)
        self._changed.set()

    async def _changes_before(self, deadline: float) -> bool:
        """Wait for a worker to come free or the pool's health to change;
        False once the loop clock passes ``deadline`` first."""
        self._changed.clear()
        loop = asyncio.get_running_loop()
        try:
            await asyncio.wait_for(self._changed.wait(), deadline - loop.time())
        except TimeoutError:
            return False
        return True

    async def _lease(self) -> _Worker:
        deadline = asyncio.get_running_loop().time() + LEASE_TIMEOUT
        while not self._hands_back():
            if self._free:
                return self._free.popleft()
            if not await self._changes_before(deadline):
                raise PoolUnavailable(f"no worker free within {LEASE_TIMEOUT:g}s")
        raise PoolUnavailable("degraded, stopping, or no live worker")

    @staticmethod
    async def _readable(conn, timeout: float) -> None:
        """Await readability of a worker pipe; TimeoutError on silence."""
        loop = asyncio.get_running_loop()
        ready: asyncio.Future = loop.create_future()
        fd = conn.fileno()
        loop.add_reader(fd, lambda: ready.done() or ready.set_result(None))
        try:
            await asyncio.wait_for(ready, timeout)
        finally:
            loop.remove_reader(fd)

    async def _converse(
        self, worker: _Worker, kind: str, payload, timeout: float
    ) -> tuple[object, list[str]]:
        """Send ``(kind, id, payload)`` to a leased worker and await the
        ``result`` frame with that id; returns ``(outcome, event_lines)``.

        The caller hands the worker back.  A worker that dies, or stays
        silent for ``timeout``, is retired (``crashed`` / ``hung``) and
        :class:`WorkerCrash` raised.
        """
        frame_id = next(self._frame_ids)
        try:
            worker.conn.send((kind, frame_id, payload))
            while True:
                await self._readable(worker.conn, timeout)
                _, answered, outcome, lines = worker.conn.recv()
                if answered == frame_id:
                    return outcome, lines
                # A stale result (a cancelled conversation's): keep reading.
        except asyncio.CancelledError:
            # Shutdown cancelled the conversation, not a worker fault: hand
            # the worker back (its late result is skipped as a stale frame).
            self._release(worker)
            raise
        except (EOFError, BrokenPipeError, OSError, TimeoutError) as exc:
            why = "hung" if isinstance(exc, TimeoutError) else "crashed"
            self._retire(worker, why)
            raise WorkerCrash(
                f"worker {worker.worker_id} {why} mid-{kind}: {exc}"
            ) from exc

    async def execute(
        self, kind: str, items, hang_timeout: float
    ) -> tuple[list, list[str], dict]:
        """Run one ``kind`` frame on a leased worker; raises on crash or hang.

        Returns ``(payload, event_lines, timings)``: what the worker
        answered, the event lines it recorded since its previous frame
        (the caller absorbs them into its own log if it accepts the
        answer), and the batch's ``dispatch_s`` (lease wait) and
        ``execute_s`` (pipe round-trip including verification) — the
        stage breakdown the telemetry attributes to every request in the
        batch.
        """
        lease_start = time.monotonic()
        worker = await self._lease()
        dispatch_s = time.monotonic() - lease_start
        execute_start = time.monotonic()
        outcomes, lines = await self._converse(worker, kind, items, hang_timeout)
        self._release(worker)
        return outcomes, lines, {
            "dispatch_s": dispatch_s,
            "execute_s": time.monotonic() - execute_start,
        }

    async def dispatch(
        self, items, *, kind: str = "batch", hang_timeout: float | None = None
    ) -> tuple[list, list[str], dict] | None:
        """Bounded-retry execute.

        Returns ``(payload, event_lines, timings)``, or None when the pool cannot
        serve this batch (degraded, stopping, no live worker, none free
        within ``LEASE_TIMEOUT``, retries exhausted) — the caller then
        falls back to its serial path, so no batch is ever lost to a dying
        worker.
        """
        if self._hands_back():
            return None
        if hang_timeout is None:
            hang_timeout = self.config.hang_timeout
        failure: Exception | None = None
        for _ in range(BATCH_RETRIES + 1):
            try:
                return await self.execute(kind, items, hang_timeout)
            except PoolUnavailable as exc:
                failure = exc
                break
            except WorkerCrash as exc:
                failure = exc
        log.warning("pool dispatch failed, falling back serially: %s", failure)
        self._publish_metrics()
        return None

    async def dispatch_chunk(
        self, index: int, entries: Sequence[RouteEntry]
    ) -> tuple[tuple, list[str], dict] | None:
        """Dispatch one table chunk under a hang bound scaled to its length."""
        return await self.dispatch(
            (index, entries),
            kind="chunk",
            hang_timeout=max(
                self.config.hang_timeout, len(entries) * CHUNK_SECONDS_PER_ROUTE
            ),
        )

    # -- hot swap -------------------------------------------------------------

    async def reload(self, ir: Ir, index: CompiledIndex | None, journal) -> dict:
        """Swap every live worker to the patched state without dropping work.

        The parent state is updated first, so any worker the monitor
        respawns from here on warms straight from the new IR and index.
        Each live worker is then taken off the free queue as it comes
        free and sent a ``reload`` frame — the same exclusivity the batch
        executors use, so a reload never interleaves with an in-flight
        batch and no client request is dropped: batches simply queue
        behind the (millisecond-scale) per-worker patch.

        A worker whose patch raised is retired as ``reload-failed``; one
        that crashes or wedges mid-reload as ``crashed`` / ``hung``, like
        any frame; the monitor respawns them from the already-updated
        parent state.  Past the deadline any still-unswapped worker is
        retired as ``stale-after-reload``, so no worker keeps answering
        from the old index indefinitely; a degraded or stopping pool
        answers nothing again, so the sweep stops there.  The workers'
        ``worker-reloaded`` events land in ``flight``.  Returns a summary
        dict (``reloaded``/``retired``/``degraded``).
        """
        self._ir = ir
        self._index = index
        targets = set(self._workers)
        frame = (index.generation if index is not None else 0, journal)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + LEASE_TIMEOUT + 2 * self.config.hang_timeout
        reloaded = degraded_applies = retired = 0
        while True:
            pending = [w for wid, w in self._workers.items() if wid in targets]
            if not pending:
                break
            if loop.time() >= deadline:
                for worker in pending:
                    self._retire(worker, "stale-after-reload")
                retired += len(pending)
                break
            if self._hands_back():
                break
            # A freshly spawned (already on the new state) or already
            # swapped worker stays free for the batches.
            worker = next((w for w in self._free if w.worker_id in targets), None)
            if worker is None:
                await self._changes_before(deadline)
                continue
            self._free.remove(worker)
            targets.discard(worker.worker_id)
            try:
                outcome, lines = await self._converse(
                    worker, "reload", frame, self.config.hang_timeout
                )
            except WorkerCrash:
                retired += 1
                continue
            self.flight.absorb(lines)
            if outcome[0] == "ok":
                reloaded += 1
                degraded_applies += outcome[2]
                worker.index = index  # else this record keeps the old index mapped
                self._release(worker)
            else:
                self._retire(worker, "reload-failed")
                retired += 1
        self._publish_metrics()
        return dict(reloaded=reloaded, retired=retired, degraded=degraded_applies)

    # -- retirement and respawn ---------------------------------------------

    def _retire(self, worker: _Worker, why: str) -> None:
        """Remove a worker from service and SIGKILL its process."""
        if self._workers.pop(worker.worker_id, None) is None:
            return  # already retired by another path
        if worker in self._free:
            self._free.remove(worker)
        self._changed.set()
        self._reap(worker.process, worker.conn)
        self.degradation.record(
            self.component,
            f"worker-{why}",
            f"worker {worker.worker_id} (pid {worker.pid})",
        )
        self._event("worker-retired", worker, why=why)
        log.warning(
            "retired worker %d (pid %d): %s", worker.worker_id, worker.pid, why
        )
        self._publish_metrics()

    def _degrade(self, why: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self._changed.set()
        self.degradation.record(self.component, "pool-degraded", why)
        self._event("pool-degraded", why=why)
        # Restart-budget exhaustion is a forensic moment: the ring holds
        # the retirement sequence that burned the budget.
        self.flight.dump_incident(
            "pool-degraded", trigger={"kind": "pool-degraded", "why": why}
        )
        log.error("worker pool degraded to serial execution: %s", why)
        self._publish_metrics()

    async def _monitor_loop(self) -> None:
        """The monitor task: every ``heartbeat_interval``, respawn the
        missing workers, then ping the idle ones.  stop() cancels it."""
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            try:
                await self._respawn_missing()
                await self._heartbeat_idle()
            except Exception:  # noqa: BLE001 - the monitor must survive
                log.exception("supervisor monitor iteration failed")
            self._publish_metrics()

    async def _respawn_missing(self) -> None:
        if self.degraded:
            return
        for _ in range(self.config.workers - len(self._workers)):
            if self.restarts >= self.config.restart_budget:
                self._degrade(
                    f"restart budget ({self.config.restart_budget}) exhausted"
                )
                return
            if self._consecutive_spawn_failures:
                await asyncio.sleep(
                    min(
                        BACKOFF_BASE * 2 ** (self._consecutive_spawn_failures - 1),
                        BACKOFF_MAX,
                    )
                )
            self.restarts += 1
            self._counter_restarts.inc()
            try:
                await self._admit(await self._spawn_worker())
            except WorkerCrash as exc:
                self._consecutive_spawn_failures += 1
                self.degradation.record(
                    self.component, "worker-spawn-failed", str(exc)
                )
                self._event("worker-spawn-failed", error=str(exc)[:200])
            else:
                self.degradation.record(self.component, "worker-restarted")
                self._event(
                    "worker-respawn",
                    restarts=self.restarts,
                    budget_remaining=max(
                        0, self.config.restart_budget - self.restarts
                    ),
                )

    async def _heartbeat_idle(self) -> None:
        """Ping every idle worker; retire the ones that do not answer.

        Taking them off the free queue gives the monitor exclusive use of
        each pipe, so pings never interleave with batch frames.  The pings
        run side by side: a lease waits out one round trip, not all of them.
        """
        idle = list(self._free)
        self._free.clear()
        await asyncio.gather(*(self._ping(worker) for worker in idle))

    async def _ping(self, worker: _Worker) -> None:
        try:
            _, lines = await self._converse(
                worker, "ping", None, self.config.heartbeat_timeout
            )
        except WorkerCrash:
            return  # retired as hung or crashed
        self.flight.absorb(lines)
        self._release(worker)

    # -- introspection -------------------------------------------------------
    #
    # Safe from another thread (a test) while the loop
    # changes the pool: each reads the worker table once, in one C call.

    def worker_pids(self) -> list[int]:
        """PIDs of the live workers (chaos faults target these)."""
        return [worker.pid for worker in list(self._workers.values())]

    def state(self) -> dict:
        """The ``/healthz`` supervisor block."""
        live = len(self._workers)
        return {
            "workers": self.config.workers,
            "live": live,
            "restarting": max(0, self.config.workers - live)
            if not self.degraded
            else 0,
            "restarts_total": self.restarts,
            "restart_budget_remaining": max(
                0, self.config.restart_budget - self.restarts
            ),
            "degraded": self.degraded,
        }

    def _publish_metrics(self) -> None:
        if not self._registry.enabled:
            return
        snapshot = self.state()
        self._gauge_live.set(float(snapshot["live"]))
        self._gauge_restarting.set(float(snapshot["restarting"]))
        self._gauge_degraded.set(1.0 if self.degraded else 0.0)
