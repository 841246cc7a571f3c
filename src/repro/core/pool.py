"""The supervised worker pool: crash-isolated warm workers, never a lost batch.

One pool serves both multi-process callers.  ``rpslyzer serve --workers N``
ships query batches to it (component ``serve``); bulk
:func:`~repro.core.parallel.verify_table` with ``processes=N`` ships table
chunks (component ``verify``) over the same lease pipe, to the same worker
body.  This module alone creates worker processes and pipes, and owns:

* **warm workers** — each worker process builds its own
  :class:`~repro.api.Session` from the parent's parsed IR and compiled
  index (shared copy-on-write under ``fork``, pickled once under
  ``spawn``), so it answers warm without ever recompiling, and its hop
  cache carries from one batch or chunk to the next.
* **supervision** — a monitor thread health-checks idle workers with
  heartbeat pings, SIGKILLs hung ones (a worker that stops answering
  mid-batch is caught by the per-batch hang bound), and respawns
  crashed ones with exponential backoff under a bounded *restart
  budget*.  Budget exhausted ⇒ the pool degrades: ``dispatch`` answers
  None from then on and the caller runs its in-process serial path.
* **crash isolation** — a dying worker fails only its in-flight batch,
  which is retried on another worker with bounded attempts; a batch the
  pool cannot place is handed back (None) for the caller to run itself.
* **pool health** — a failing pool is one whose workers keep dying.
  A degraded or stopping pool, or one with no live worker, hands a batch
  back at once instead of waiting out ``lease_timeout`` for a worker
  that cannot come free.  The respawn backoff is the cooldown, and the
  next worker admitted is the probe.

Every fault is recorded as ``<component>/worker-crashed``,
``worker-hung``, ``worker-restarted``, ``worker-spawn-failed`` or
``pool-degraded`` in the caller's
:class:`~repro.core.degradation.DegradationReport` (``docs/robustness.md``).

Pipe discipline: a worker's :class:`~multiprocessing.connection.Connection`
is only ever touched by whoever holds the worker leased from the free
queue — batch executors and the heartbeat monitor alike — so request
and pong frames never interleave.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import os
import queue
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.bgp.table import RouteEntry
from repro.bgp.topology import AsRelationships
from repro.core.compiled import CompiledIndex
from repro.core.degradation import DegradationReport
from repro.core.parallel import verify_into
from repro.core.verify import Verifier, VerifyOptions
from repro.ir.model import Ir
from repro.obs import NULL_REGISTRY, MetricsRegistry, get_registry, set_registry
from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.stats.verification import VerificationStats

__all__ = [
    "ChunkRunner",
    "PoolUnavailable",
    "SupervisorConfig",
    "WorkerCrash",
    "WorkerSupervisor",
]

log = logging.getLogger("repro.core.pool")

# A table chunk's hang bound grows with its length — a worker may spend
# this long per route, hop cache cold, before it is presumed wedged —
# and never drops below ``SupervisorConfig.hang_timeout``.
CHUNK_SECONDS_PER_ROUTE = 0.005


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
    the in-process serial path; ``backoff_base``/``backoff_max`` shape
    the exponential respawn backoff after consecutive failures — the
    only cooldown the pool has: while no worker is live, batches are
    handed back at once.  ``batch_retries`` bounds how many times one
    batch is retried on another worker after a crash before falling
    back serially.
    """

    workers: int = 2
    hang_timeout: float = 10.0
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 2.0
    spawn_timeout: float = 60.0
    lease_timeout: float = 5.0
    restart_budget: int = 8
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    batch_retries: int = 2
    start_method: str | None = None


def _snapshot_delta(current: dict, previous: dict | None) -> dict:
    """What ``current`` adds over ``previous`` (worker chunk boundaries).

    The worker's registry accumulates for its whole life (so the verifier's
    pre-bound instruments stay valid and the hop cache survives across
    chunks); each chunk ships only the delta so the parent's merge stays an
    exact sum.  Gauges are point-in-time and pass through unchanged.
    """
    if previous is None:
        return current

    def key(record: dict) -> tuple:
        return (record["name"], tuple(sorted(record["labels"].items())))

    prev_counters = {key(r): r for r in previous.get("counters", ())}
    counters = []
    for record in current.get("counters", ()):
        before = prev_counters.get(key(record))
        value = record["value"] - (before["value"] if before else 0)
        if value:
            counters.append({**record, "value": value})

    prev_hists = {key(r): r for r in previous.get("histograms", ())}
    histograms = []
    for record in current.get("histograms", ()):
        before = prev_hists.get(key(record))
        if before is None:
            if record["count"]:
                histograms.append(record)
            continue
        count = record["count"] - before["count"]
        if not count:
            continue
        histograms.append(
            {
                **record,
                "bucket_counts": [
                    now - then
                    for now, then in zip(
                        record["bucket_counts"], before["bucket_counts"]
                    )
                ],
                "sum": record["sum"] - before["sum"],
                "count": count,
            }
        )

    prev_spans = {r["path"]: r for r in previous.get("spans", ())}
    spans = []
    for record in current.get("spans", ()):
        before = prev_spans.get(record["path"])
        if before is None:
            spans.append(record)
            continue
        count = record["count"] - before["count"]
        if not count:
            continue
        spans.append(
            {
                **record,
                "count": count,
                "wall_s": record["wall_s"] - before["wall_s"],
                "cpu_s": record["cpu_s"] - before["cpu_s"],
            }
        )

    return {
        "counters": counters,
        "gauges": current.get("gauges", []),
        "histograms": histograms,
        "spans": spans,
    }


class ChunkRunner:
    """The worker's side of a pooled table run: chunks in, stats and a
    metrics delta out.

    One per worker process, because the cursor is per-registry: the
    worker's registry accumulates for its whole life and each chunk ships
    only what it added.  ``fault_hook(chunk_index)`` is chaos
    instrumentation (picklable, so it survives the trip into a
    spawn-started worker), called before the chunk is verified; never
    set in production runs.
    """

    def __init__(
        self,
        collect_metrics: bool,
        fault_hook: Callable[[int], None] | None = None,
    ):
        self._collect_metrics = collect_metrics
        self._fault_hook = fault_hook
        self._last_snapshot: dict | None = None

    def run(
        self, verifier: Verifier, index: int, entries: Sequence[RouteEntry]
    ) -> tuple[VerificationStats, dict | None]:
        """Verify chunk ``index`` on the worker's persistent ``verifier``;
        returns its stats and what it added to the worker's registry."""
        if self._fault_hook is not None:
            self._fault_hook(index)
        registry = get_registry()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.chunk_id = index
        stats = VerificationStats()
        try:
            with registry.span("verify/worker"):
                verify_into(verifier, entries, stats)
        except BaseException:
            # A mid-chunk failure must still advance the snapshot cursor:
            # whatever this partial attempt recorded is baked into the worker's
            # cumulative registry, and without moving the cursor the next
            # chunk on this worker would ship a delta that double-counts it.
            if self._collect_metrics:
                self._last_snapshot = registry.snapshot()
            raise
        if not self._collect_metrics:
            return stats, None
        snapshot = registry.snapshot()
        delta = _snapshot_delta(snapshot, self._last_snapshot)
        self._last_snapshot = snapshot
        return stats, delta


def _worker_main(
    conn,
    ir: Ir,
    relationships: AsRelationships,
    options: VerifyOptions | None,
    index: CompiledIndex | None,
    observability: tuple,
    fault_hook: Callable[[int], None] | None,
) -> None:
    """The worker process body: one warm Session answering frames.

    Frames in: ``("batch", batch_id, items)`` where each item is
    ``(kind, prefix, as_path, collector, request_id)``, ``("chunk",
    batch_id, (chunk_index, entries))``, ``("ping", seq)``, ``("reload",
    expected_generation, journal)``, and ``("stop",)``.  Frames out:
    ``("ready", pid)`` once warm, ``("result", batch_id, payload,
    event_lines)``, ``("pong", seq)``, and ``("reloaded", generation,
    degraded)`` / ``("reload-failed", message)``.  A batch's payload is
    one ``("ok", body, verdicts)`` or ``("err", message)`` per item
    (:func:`repro.serve.core.answer_query`: the response body crosses the
    pipe as the bytes the front-end writes); a chunk's
    is ``("ok", stats, metrics_delta)`` (see :class:`ChunkRunner`) or
    ``("err", message)`` — the worker outlives a chunk that raised.

    Everything the worker has to say goes into one
    :class:`~repro.obs.events.EventLog`, drained into every result frame:
    a ``worker-execute`` event per query (the request's correlation id,
    this worker's pid, the generation, the per-query duration), an
    explained route's hop events, and — in a traced table run — the
    chunk's ``route``/``hop`` events.  The caller absorbs the lines of a
    result it accepts, so one request id greps across process boundaries
    and a chunk's events arrive exactly once (a killed worker's die with
    its chunk; the retry emits them again).

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
    chunks = ChunkRunner(collect_metrics, fault_hook)
    conn.send(("ready", pid))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "ping":
            conn.send(("pong", message[1]))
            continue
        if kind == "reload":
            expected_generation, journal = message[1], message[2]
            if session.generation >= expected_generation:
                # Already at (or past) the target: a respawned worker was
                # built from the parent's post-patch state.
                conn.send(("reloaded", session.generation, False))
                continue
            try:
                report = session.apply_deltas(journal)
            except Exception as exc:  # noqa: BLE001 - supervisor retires us
                conn.send(("reload-failed", str(exc)))
                continue
            events.record(
                "worker-reloaded",
                worker=pid,
                generation=session.generation,
                hop_cache=session.last_delta_hop_cache,
            )
            conn.send(("reloaded", session.generation, bool(report)))
            continue
        batch_id, items = message[1], message[2]
        if kind == "chunk":
            try:
                payload = ("ok", *chunks.run(session.verifier, *items))
            except Exception as exc:  # noqa: BLE001 - the parent verifies it
                payload = ("err", f"{type(exc).__name__}: {exc}")
        else:
            payload = []
            for query_kind, prefix, as_path, collector, request_id in items:
                item_start = time.monotonic()
                answer = answer_query(
                    session, query_kind, prefix, as_path, collector, request_id
                )
                payload.append(answer)
                events.record(
                    "worker-execute",
                    request=request_id,
                    worker=pid,
                    generation=session.generation,
                    endpoint=query_kind,
                    outcome=answer[0],
                    ms=round((time.monotonic() - item_start) * 1000.0, 3),
                )
        try:
            conn.send(("result", batch_id, payload, events.drain()))
        except (BrokenPipeError, OSError):
            return


@dataclass(slots=True)
class _Worker:
    """One live worker process and the parent's end of its pipe."""

    worker_id: int
    process: multiprocessing.Process
    conn: object
    pid: int


class WorkerSupervisor:
    """Owns the pool: spawn, lease, heartbeat, restart, degrade.

    ``dispatch``/``dispatch_chunk`` are awaited on the caller's event
    loop (the serve daemon's, or the table client's own); the monitor
    thread runs heartbeats and respawns.  Every state transition lands
    in the supervisor's metrics (when a registry is given) and
    crashes/degradation in the ``degradation`` report, under the
    caller's ``component`` (``serve`` or ``verify``).
    ``observability`` — ``(collect_metrics, trace_config)`` —
    is what each worker installs for itself and ``fault_hook`` its
    :class:`ChunkRunner` hook; both only a table run sets.
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
        metrics_lock: threading.Lock | None = None,
        degradation: DegradationReport | None = None,
        flight: EventLog = NULL_EVENTS,
        component: str = "serve",
        observability: tuple = (False, None),
        fault_hook: Callable[[int], None] | None = None,
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
        self._fault_hook = fault_hook
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
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._free: queue.Queue[_Worker] = queue.Queue()
        self._workers: dict[int, _Worker] = {}
        self._next_id = 0
        self._batch_seq = 0
        self.restarts = 0
        self._consecutive_spawn_failures = 0
        self._monitor: threading.Thread | None = None
        self._registry = registry
        self._metrics_lock = metrics_lock or threading.Lock()
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

    def start(self) -> "WorkerSupervisor":
        """Spawn the initial pool and the monitor thread.

        A worker that fails to come up during initial start consumes
        restart budget like any later crash would; a pool that cannot
        field a single worker starts degraded instead of raising.
        """
        for _ in range(self.config.workers):
            try:
                self._admit(self._spawn_worker())
            except WorkerCrash as exc:
                self.degradation.record(
                    self.component,
                    "worker-spawn-failed",
                    f"startup spawn failed: {exc}",
                )
        if not self._workers:
            self._degrade("no worker survived startup")
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            name=f"rpslyzer-{self.component}-supervisor",
            daemon=True,
        )
        self._monitor.start()
        self._publish_metrics()
        return self

    def stop(self) -> None:
        """Stop the monitor thread, then kill every worker.

        In that order: a monitor caught inside ``_spawn_worker`` (seconds
        under ``spawn``) still admits the worker it was starting, and only
        a sweep that runs after the thread is gone finds it.
        """
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.config.spawn_timeout)
            self._monitor = None
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        while True:
            try:
                self._free.get_nowait()
            except queue.Empty:
                break
        for worker in workers:
            self._terminate(worker)
        self._publish_metrics()

    def _terminate(self, worker: _Worker) -> None:
        try:
            worker.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        worker.process.join(timeout=0.5)
        self._reap(worker.process, worker.conn)

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

    def _spawn_worker(self) -> _Worker:
        with self._lock:
            worker_id = self._next_id
            self._next_id += 1
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._ir,
                self._relationships,
                self._options,
                self._index,
                self._observability,
                self._fault_hook,
            ),
            name=f"rpslyzer-{self.component}-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(self.config.spawn_timeout):
            self._reap(process, parent_conn)
            raise WorkerCrash(f"worker {worker_id} never reported ready")
        try:
            message = parent_conn.recv()
        except (EOFError, OSError) as exc:
            self._reap(process, parent_conn)
            raise WorkerCrash(f"worker {worker_id} died during warmup") from exc
        assert message[0] == "ready"
        return _Worker(worker_id, process, parent_conn, message[1])

    def _admit(self, worker: _Worker) -> None:
        with self._lock:
            self._workers[worker.worker_id] = worker
        self._event("worker-spawn", worker)
        self._free.put(worker)
        self._consecutive_spawn_failures = 0

    # -- leasing (blocking: reload's sweep, on an executor thread) ------------

    def _lease(self) -> _Worker:
        deadline = time.monotonic() + self.config.lease_timeout
        while True:
            try:
                worker = self._free.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise PoolUnavailable(
                    f"no worker free within {self.config.lease_timeout:g}s"
                ) from None
            with self._lock:
                live = worker.worker_id in self._workers
            if live:
                return worker
            # A worker retired while sitting in the free queue: skip it.

    # -- dispatch (on the caller's event loop) ---------------------------------
    #
    # All parent-side work of a batch happens on the loop thread — send,
    # await readability via add_reader, recv — so no thread is parked on a
    # pipe per batch: under the serve daemon every such thread's wakeup had
    # to win the GIL back from the busy loop, which cost more than the batch
    # itself.  The table client runs the same coroutines on a loop of its own.

    def _hands_back(self) -> bool:
        """The pool-health rule: no batch waits for a worker that cannot come.

        A lease is worth waiting for only while some worker is live and
        merely busy; a degraded or stopping pool, or one whose workers are
        all dead and not yet respawned, hands the batch back at once.
        """
        return self.degraded or self._stopping.is_set() or not self._workers

    async def _lease_async(self) -> _Worker:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.lease_timeout
        while True:
            if self._hands_back():
                raise PoolUnavailable("degraded, stopping, or no live worker")
            try:
                worker = self._free.get_nowait()
            except queue.Empty:
                if loop.time() >= deadline:
                    raise PoolUnavailable(
                        f"no worker free within {self.config.lease_timeout:g}s"
                    ) from None
                await asyncio.sleep(0.001)
                continue
            with self._lock:
                live = worker.worker_id in self._workers
            if live:
                return worker
            # A worker retired while sitting in the free queue: skip it.

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
        worker = await self._lease_async()
        dispatch_s = time.monotonic() - lease_start
        with self._lock:
            self._batch_seq += 1
            batch_id = self._batch_seq
        execute_start = time.monotonic()
        try:
            worker.conn.send((kind, batch_id, items))
            while True:
                await self._readable(worker.conn, hang_timeout)
                message = worker.conn.recv()
                if message[0] == "result" and message[1] == batch_id:
                    outcomes, lines = message[2], message[3]
                    break
                # Stale frame (a late pong): ignore and keep reading.
        except asyncio.CancelledError:
            # Shutdown cancelled the batch, not a worker fault: hand the
            # worker back (its late result is skipped as a stale frame).
            self._free.put(worker)
            raise
        except (EOFError, BrokenPipeError, OSError, TimeoutError) as exc:
            why = "hung" if isinstance(exc, TimeoutError) else "crashed"
            self._retire(worker, why)
            raise WorkerCrash(
                f"worker {worker.worker_id} {why} mid-batch: {exc}"
            ) from exc
        self._free.put(worker)
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
        within ``lease_timeout``, retries exhausted) — the caller then
        falls back to its serial path, so no batch is ever lost to a dying
        worker.
        """
        if self._hands_back():
            return None
        if hang_timeout is None:
            hang_timeout = self.config.hang_timeout
        failure: Exception | None = None
        for _ in range(self.config.batch_retries + 1):
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

    def reload(self, ir: Ir, index: CompiledIndex | None, journal) -> dict:
        """Swap every live worker to the patched state without dropping work.

        The parent state is updated first (under the lock), so any worker
        the monitor respawns from here on warms straight from the new IR
        and index.  Each live worker is then *leased* from the free queue
        before its reload frame is sent — leasing is the same exclusivity
        the batch executors use, so a reload never interleaves with an
        in-flight batch and no client request is dropped: batches simply
        queue behind the (millisecond-scale) per-worker patch.

        Workers that crash, wedge, or fail the patch are retired; the
        monitor respawns them from the already-updated parent state.
        Past the deadline any still-unswapped worker is retired too, so
        no worker keeps answering from the old index indefinitely.
        Returns a summary dict (``reloaded``/``retired``/``degraded``).
        """
        with self._lock:
            self._ir = ir
            self._index = index
            targets = set(self._workers)
        expected_generation = index.generation if index is not None else 0
        done: set[int] = set()
        degraded_applies = 0
        retired = 0
        deadline = time.monotonic() + (
            self.config.lease_timeout + 2 * self.config.hang_timeout
        )
        while True:
            with self._lock:
                remaining = {
                    wid for wid in targets if wid in self._workers
                } - done
            if not remaining:
                break
            if time.monotonic() >= deadline:
                with self._lock:
                    stragglers = [
                        worker
                        for wid, worker in self._workers.items()
                        if wid in remaining
                    ]
                for worker in stragglers:
                    self._retire(worker, "stale-after-reload")
                    retired += 1
                break
            try:
                worker = self._lease()
            except PoolUnavailable:
                continue
            if worker.worker_id not in remaining:
                # Freshly spawned (already on the new state) or already
                # swapped: hand it back and let a pending one come free.
                self._free.put(worker)
                time.sleep(0.001)
                continue
            try:
                worker.conn.send(("reload", expected_generation, journal))
                while True:
                    if not worker.conn.poll(self.config.hang_timeout):
                        raise TimeoutError("no reload ack")
                    message = worker.conn.recv()
                    if message[0] == "reloaded":
                        break
                    if message[0] == "reload-failed":
                        raise WorkerCrash(message[1])
                    # Stale frame (late pong / cancelled batch result).
            # TimeoutError IS an OSError (since 3.3): it must come first.
            except TimeoutError:
                self._retire(worker, "hung")
                retired += 1
            except (WorkerCrash, EOFError, BrokenPipeError, OSError):
                self._retire(worker, "reload-failed")
                retired += 1
            else:
                done.add(worker.worker_id)
                if message[2]:
                    degraded_applies += 1
                self._free.put(worker)
        self._publish_metrics()
        return {
            "reloaded": len(done),
            "retired": retired,
            "degraded": degraded_applies,
        }

    # -- retirement and respawn ---------------------------------------------

    def _retire(self, worker: _Worker, why: str) -> None:
        """Remove a worker from service and SIGKILL its process."""
        with self._lock:
            known = self._workers.pop(worker.worker_id, None)
        if known is None:
            return  # already retired by another path
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
        self.degradation.record(self.component, "pool-degraded", why)
        self._event("pool-degraded", why=why)
        # Restart-budget exhaustion is a forensic moment: the ring holds
        # the retirement sequence that burned the budget.
        self.flight.dump_incident(
            "pool-degraded", trigger={"kind": "pool-degraded", "why": why}
        )
        log.error("worker pool degraded to serial execution: %s", why)
        self._publish_metrics()

    def _monitor_loop(self) -> None:
        # stop() wakes the wait: a pool is stopped at the end of every
        # pooled table run, which must not sit out a heartbeat interval.
        while not self._stopping.wait(self.config.heartbeat_interval):
            try:
                self._respawn_missing()
                self._heartbeat_idle()
            except Exception:  # noqa: BLE001 - the monitor must survive
                log.exception("supervisor monitor iteration failed")
            self._publish_metrics()

    def _respawn_missing(self) -> None:
        if self.degraded:
            return
        with self._lock:
            deficit = self.config.workers - len(self._workers)
        for _ in range(deficit):
            if self.restarts >= self.config.restart_budget:
                self._degrade(
                    f"restart budget ({self.config.restart_budget}) exhausted"
                )
                return
            if self._consecutive_spawn_failures:
                delay = min(
                    self.config.backoff_base
                    * (2 ** (self._consecutive_spawn_failures - 1)),
                    self.config.backoff_max,
                )
                time.sleep(delay)
            if self._stopping.is_set():
                return
            self.restarts += 1
            with self._metrics_lock:
                self._counter_restarts.inc()
            try:
                self._admit(self._spawn_worker())
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

    def _heartbeat_idle(self) -> None:
        """Ping every idle worker; retire the ones that do not answer.

        Leasing from the free queue gives the monitor exclusive use of
        each pipe, so pings never interleave with batch frames.
        """
        idle: list[_Worker] = []
        while True:
            try:
                idle.append(self._free.get_nowait())
            except queue.Empty:
                break
        for worker in idle:
            with self._lock:
                live = worker.worker_id in self._workers
            if not live:
                continue
            if not worker.process.is_alive():
                self._retire(worker, "crashed")
                continue
            try:
                worker.conn.send(("ping", worker.worker_id))
                if not worker.conn.poll(self.config.heartbeat_timeout):
                    raise TimeoutError("no pong")
                worker.conn.recv()
            # TimeoutError IS an OSError (since 3.3), so it must come first
            # or every wedge would be misfiled as a crash.
            except TimeoutError:
                self._retire(worker, "hung")
            except (EOFError, BrokenPipeError, OSError):
                self._retire(worker, "crashed")
            else:
                self._free.put(worker)

    # -- introspection -------------------------------------------------------

    def worker_pids(self) -> list[int]:
        """PIDs of the live workers (chaos faults target these)."""
        with self._lock:
            return [worker.pid for worker in self._workers.values()]

    def state(self) -> dict:
        """The ``/healthz`` supervisor block."""
        with self._lock:
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
        with self._metrics_lock:
            self._gauge_live.set(float(snapshot["live"]))
            self._gauge_restarting.set(float(snapshot["restarting"]))
            self._gauge_degraded.set(1.0 if self.degraded else 0.0)
