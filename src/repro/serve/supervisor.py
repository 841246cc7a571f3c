"""The worker-pool supervisor: self-healing multi-process query execution.

One executor thread serializing the non-thread-safe Session was the
serve daemon's remaining bottleneck — and its remaining single point of
failure: a crashed or wedged evaluation stalled every client.  This
module adds the missing robustness layer, modeled on how the batch pool
(:mod:`repro.core.parallel`) already survives dying workers:

* **warm workers** — each worker process builds its own
  :class:`~repro.api.Session` from the parent's parsed IR and compiled
  index (shared copy-on-write under ``fork``, pickled once under
  ``spawn``), so it answers queries warm without ever recompiling.
* **supervision** — a monitor thread health-checks idle workers with
  heartbeat pings, SIGKILLs hung ones (a worker that stops answering
  mid-batch is caught by the per-batch ``hang_timeout``), and respawns
  crashed ones with exponential backoff under a bounded *restart
  budget*.  Budget exhausted ⇒ the pool degrades gracefully: the
  service falls back to its in-process single-thread path and records
  the event in the :class:`~repro.core.degradation.DegradationReport`
  and ``/healthz``.
* **crash isolation** — a dying worker fails only its in-flight batch,
  which is retried on another worker with bounded attempts; the
  service's serial fallback guarantees the clients still get verdicts.
* **circuit breaker** — dispatch is wrapped in a closed/open/half-open
  :class:`CircuitBreaker`, so a collapsing pool sheds to the serial
  path immediately instead of timing out every batch.
* **adaptive load shedding** — :class:`LatencyShedder` watches measured
  queue-wait latency CoDel-style (shed while the wait has been above
  ``target`` continuously for at least ``interval``) so the daemon
  answers 429/``%% BUSY`` *before* the bounded queue fills.

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
from dataclasses import dataclass, field

from repro.bgp.topology import AsRelationships
from repro.core.compiled import CompiledIndex
from repro.core.degradation import DegradationReport
from repro.core.verify import VerifyOptions
from repro.ir.model import Ir

__all__ = [
    "CircuitBreaker",
    "LatencyShedder",
    "PoolUnavailable",
    "SupervisorConfig",
    "WorkerCrash",
    "WorkerSupervisor",
]

log = logging.getLogger("repro.serve.supervisor")


class WorkerCrash(RuntimeError):
    """A worker died or hung while executing a batch."""


class PoolUnavailable(RuntimeError):
    """No healthy worker could be leased in time."""


@dataclass(frozen=True, slots=True)
class SupervisorConfig:
    """Knobs for the worker pool; defaults suit a local daemon.

    ``hang_timeout`` bounds one batch's execution in a worker — a worker
    that exceeds it is presumed wedged and SIGKILLed.  ``heartbeat_*``
    drive the idle-worker liveness probe.  ``restart_budget`` is the
    total number of respawns before the pool gives up and degrades to
    the in-process serial path; ``backoff_base``/``backoff_max`` shape
    the exponential respawn backoff after consecutive failures.
    ``batch_retries`` bounds how many times one batch is retried on
    another worker after a crash before falling back serially.
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
    breaker_failures: int = 3
    breaker_cooldown: float = 1.0
    start_method: str | None = None


class CircuitBreaker:
    """A closed/open/half-open breaker around pool dispatch.

    ``failures`` consecutive failures open the breaker; after
    ``cooldown`` seconds one probe is allowed through (half-open) — its
    success closes the breaker, its failure re-opens and re-arms the
    cooldown.  ``clock`` is injectable for deterministic tests.
    ``on_transition(old, new)`` is invoked outside the lock on every
    state change — the supervisor uses it to land breaker transitions in
    the flight recorder.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failures: int = 3,
        cooldown: float = 1.0,
        clock=time.monotonic,
        on_transition=None,
    ):
        self.failures = max(1, failures)
        self.cooldown = cooldown
        self._clock = clock
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self._probing = False

    def _notify(self, old: str, new: str) -> None:
        if old != new and self.on_transition is not None:
            try:
                self.on_transition(old, new)
            except Exception:  # noqa: BLE001 - observers never break dispatch
                log.exception("breaker on_transition callback failed")

    @property
    def state(self) -> str:
        with self._lock:
            # Surface the imminent half-open transition so health checks
            # don't report "open" forever on an idle daemon.
            if (
                self._state == self.OPEN
                and self._clock() - self._opened_at >= self.cooldown
            ):
                return self.HALF_OPEN
            return self._state

    def allow(self) -> bool:
        """Whether a dispatch may proceed right now."""
        old = new = None
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at >= self.cooldown:
                    old, new = self._state, self.HALF_OPEN
                    self._state = self.HALF_OPEN
                    self._probing = True
                else:
                    return False
            elif self._probing:
                # Half-open: exactly one probe in flight at a time.
                return False
            else:
                self._probing = True
                return True
        self._notify(old, new)
        return True

    def record_success(self) -> None:
        with self._lock:
            old = self._state
            self._consecutive = 0
            self._probing = False
            self._state = self.CLOSED
        self._notify(old, self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            old = self._state
            self._probing = False
            if self._state == self.HALF_OPEN:
                self._state = self.OPEN
                self._opened_at = self._clock()
            else:
                self._consecutive += 1
                if self._consecutive >= self.failures:
                    self._state = self.OPEN
                    self._opened_at = self._clock()
            new = self._state
        self._notify(old, new)


class LatencyShedder:
    """CoDel-style admission control on measured queue-wait latency.

    ``observe(wait)`` is called with each executed query's time spent
    queued; shedding turns on once the wait has been above ``target``
    continuously for at least ``interval`` seconds, and turns off on the
    first below-target observation.  ``should_shed()`` also expires
    shedding when no observation has arrived for ``interval`` — a shed
    queue goes quiet, and without the expiry nothing would ever be
    admitted to produce the below-target observation that clears it.
    """

    def __init__(
        self,
        target: float = 0.1,
        interval: float = 1.0,
        clock=time.monotonic,
    ):
        self.target = target
        self.interval = interval
        self._clock = clock
        self._lock = threading.Lock()
        self._above_since: float | None = None
        self._last_observation: float | None = None
        self._shedding = False

    @property
    def shedding(self) -> bool:
        return self._shedding

    def observe(self, wait_s: float) -> None:
        now = self._clock()
        with self._lock:
            self._last_observation = now
            if wait_s < self.target:
                self._above_since = None
                self._shedding = False
                return
            if self._above_since is None:
                self._above_since = now
            elif now - self._above_since >= self.interval:
                self._shedding = True

    def should_shed(self) -> bool:
        with self._lock:
            if not self._shedding:
                return False
            if (
                self._last_observation is None
                or self._clock() - self._last_observation > self.interval
            ):
                self._shedding = False
                self._above_since = None
                return False
            return True


def _worker_main(
    conn,
    worker_id: int,
    ir: Ir,
    relationships: AsRelationships,
    options: VerifyOptions | None,
    index: CompiledIndex | None,
) -> None:
    """The worker process body: one warm Session answering batch frames.

    Frames in: ``("batch", batch_id, items)`` where each item is
    ``(kind, prefix, as_path, collector, request_id)``, ``("ping",
    seq)``, ``("reload", expected_generation, journal)``, and
    ``("stop",)``.  Frames out: ``("ready", pid)`` once warm,
    ``("result", batch_id, outcomes, flight_lines)`` with per-item
    ``("ok", payload)`` or ``("err", message)``, ``("pong", seq)``, and
    ``("reloaded", generation, degraded)`` / ``("reload-failed",
    message)``.

    The worker keeps its own small :class:`~repro.obs.flight.FlightRecorder`
    and stamps a ``worker-execute`` event (carrying the request's
    correlation id, this worker's id/pid, and the per-query duration)
    for every item it runs; the pre-serialized event lines ride back in
    the result frame and the parent splices them into the daemon's ring,
    so one request id greps across process boundaries.

    A reload replays the journal onto the worker's own session
    (:meth:`repro.api.Session.apply_deltas` — the same deterministic
    patch the parent ran), so the swap ships kilobytes of delta down the
    pipe instead of re-pickling the whole index.  The generation check
    makes redundant reloads no-ops.
    """
    # Imported lazily: under spawn this module is re-imported in the
    # child, and repro.serve.core imports this module at its top level.
    from repro.api import Session
    from repro.core.parallel import reset_worker_observability
    from repro.obs.flight import FlightRecorder
    from repro.serve.core import report_as_dict

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    reset_worker_observability(False)
    session = Session(ir, relationships, options=options, index=index)
    session.warm()
    # A small local ring: drained into every result frame, so its
    # capacity only needs to cover one batch's worth of events.
    recorder = FlightRecorder(capacity=256)
    pid = os.getpid()
    recorder.record("worker-online", worker=worker_id, pid=pid)
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
            recorder.record(
                "worker-reloaded",
                worker=worker_id,
                pid=pid,
                generation=session.generation,
                hop_cache=session.last_delta_hop_cache,
            )
            conn.send(("reloaded", session.generation, bool(report)))
            continue
        batch_id, items = message[1], message[2]
        outcomes = []
        for query_kind, prefix, as_path, collector, request_id in items:
            item_start = time.monotonic()
            try:
                if query_kind == "explain":
                    report, events = session.explain(
                        prefix, as_path, collector=collector
                    )
                    payload = report_as_dict(report)
                    payload["events"] = events
                else:
                    report = session.verify_route(
                        prefix, as_path, collector=collector
                    )
                    payload = report_as_dict(report)
                outcomes.append(("ok", payload))
                item_outcome = "ok"
            except Exception as exc:  # noqa: BLE001 - per-query isolation
                outcomes.append(("err", str(exc)))
                item_outcome = "err"
            recorder.record(
                "worker-execute",
                request_id=request_id or None,
                worker=worker_id,
                pid=pid,
                endpoint=query_kind,
                outcome=item_outcome,
                ms=round((time.monotonic() - item_start) * 1000.0, 3),
            )
        try:
            conn.send(("result", batch_id, outcomes, recorder.drain_lines()))
        except (BrokenPipeError, OSError):
            return


@dataclass(slots=True)
class _Worker:
    """One live worker process and the parent's end of its pipe."""

    worker_id: int
    process: multiprocessing.Process
    conn: object
    pid: int
    started: float = field(default_factory=time.monotonic)


class WorkerSupervisor:
    """Owns the pool: spawn, lease, heartbeat, restart, degrade.

    ``execute``/``dispatch`` are called from the batcher's executor
    threads; the monitor thread runs heartbeats and respawns.  Every
    state transition lands in the supervisor's metrics (when a registry
    is given) and crashes/degradation in the ``degradation`` report.
    """

    def __init__(
        self,
        ir: Ir,
        relationships: AsRelationships,
        options: VerifyOptions | None,
        index: CompiledIndex | None,
        config: SupervisorConfig | None = None,
        *,
        registry=None,
        metrics_lock: threading.Lock | None = None,
        degradation: DegradationReport | None = None,
        flight=None,
    ):
        self.config = config or SupervisorConfig()
        if self.config.workers < 1:
            raise ValueError("SupervisorConfig.workers must be >= 1")
        self._ir = ir
        self._relationships = relationships
        self._options = options
        self._index = index
        start_method = self.config.start_method or (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._ctx = multiprocessing.get_context(start_method)
        self.degradation = (
            degradation if degradation is not None else DegradationReport()
        )
        if flight is None:
            from repro.obs.flight import NULL_FLIGHT

            flight = NULL_FLIGHT
        self.flight = flight
        self.breaker = CircuitBreaker(
            failures=self.config.breaker_failures,
            cooldown=self.config.breaker_cooldown,
            on_transition=self._on_breaker_transition,
        )
        self.degraded = False
        self._stopping = False
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
        if registry is not None:
            self._gauge_live = registry.gauge("serve_workers_live")
            self._gauge_restarting = registry.gauge("serve_workers_restarting")
            self._counter_restarts = registry.counter("serve_worker_restarts_total")
            self._gauge_breaker = registry.gauge("serve_breaker_state")
            self._gauge_degraded = registry.gauge("serve_degraded")
        else:
            self._gauge_live = self._gauge_restarting = None
            self._counter_restarts = self._gauge_breaker = None
            self._gauge_degraded = None

    def _on_breaker_transition(self, old: str, new: str) -> None:
        """Flight-record every breaker transition; dump the ring on open.

        Breaker-open is one of the incidents the flight recorder exists
        for — the ring at that moment holds the crashes/hangs that
        tripped it.  The dump itself is rate-limited per reason inside
        the recorder, so a flapping breaker costs one file per interval.
        """
        self.flight.record("breaker-transition", old=old, new=new)
        if new == CircuitBreaker.OPEN:
            self.flight.dump_incident(
                "breaker-open", trigger={"type": "breaker-transition", "old": old}
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
                self._note_restart_needed(f"startup spawn failed: {exc}")
        if not self._workers:
            self._degrade("no worker survived startup")
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            name="rpslyzer-serve-supervisor",
            daemon=True,
        )
        self._monitor.start()
        self._publish_metrics()
        return self

    def stop(self) -> None:
        """Kill every worker and stop the monitor thread."""
        self._stopping = True
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        # Drain the free queue so the monitor can't lease a dying worker.
        while True:
            try:
                self._free.get_nowait()
            except queue.Empty:
                break
        for worker in workers:
            self._terminate(worker)
        if self._monitor is not None:
            self._monitor.join(timeout=5)
            self._monitor = None
        self._publish_metrics()

    def _terminate(self, worker: _Worker) -> None:
        try:
            worker.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        worker.process.join(timeout=0.5)
        if worker.process.is_alive():
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):  # pragma: no cover
                pass
            worker.process.join(timeout=5)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

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
                worker_id,
                self._ir,
                self._relationships,
                self._options,
                self._index,
            ),
            name=f"rpslyzer-serve-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(self.config.spawn_timeout):
            process.kill()
            process.join(timeout=5)
            parent_conn.close()
            raise WorkerCrash(f"worker {worker_id} never reported ready")
        try:
            message = parent_conn.recv()
        except (EOFError, OSError) as exc:
            process.kill()
            process.join(timeout=5)
            parent_conn.close()
            raise WorkerCrash(f"worker {worker_id} died during warmup") from exc
        assert message[0] == "ready"
        return _Worker(worker_id, process, parent_conn, message[1])

    def _admit(self, worker: _Worker) -> None:
        with self._lock:
            self._workers[worker.worker_id] = worker
        self.flight.record(
            "worker-spawn", worker=worker.worker_id, pid=worker.pid
        )
        self._free.put(worker)
        self._consecutive_spawn_failures = 0

    # -- leasing and execution (batcher executor threads) -------------------

    def _lease(self) -> _Worker:
        deadline = time.monotonic() + self.config.lease_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise PoolUnavailable(
                    f"no worker free within {self.config.lease_timeout:g}s"
                )
            try:
                worker = self._free.get(timeout=remaining)
            except queue.Empty:
                raise PoolUnavailable(
                    f"no worker free within {self.config.lease_timeout:g}s"
                ) from None
            with self._lock:
                live = worker.worker_id in self._workers
            if live:
                return worker
            # A worker retired while sitting in the free queue: skip it.

    def execute(self, items: list) -> tuple[list, dict]:
        """Run one batch on a leased worker; raises on crash or hang.

        Returns ``(outcomes, timings)`` where ``timings`` holds the
        batch's ``dispatch_s`` (lease wait) and ``execute_s`` (pipe
        round-trip including verification) — the stage breakdown the
        telemetry attributes to every request in the batch.
        """
        lease_start = time.monotonic()
        worker = self._lease()
        dispatch_s = time.monotonic() - lease_start
        with self._lock:
            self._batch_seq += 1
            batch_id = self._batch_seq
        execute_start = time.monotonic()
        try:
            worker.conn.send(("batch", batch_id, items))
            while True:
                if not worker.conn.poll(self.config.hang_timeout):
                    raise TimeoutError(
                        f"no result within hang_timeout={self.config.hang_timeout:g}s"
                    )
                message = worker.conn.recv()
                if message[0] == "result" and message[1] == batch_id:
                    outcomes = message[2]
                    self.flight.absorb(message[3])
                    break
                # Stale frame (a late pong): ignore and keep reading.
        except (EOFError, BrokenPipeError, OSError, TimeoutError) as exc:
            why = "hung" if isinstance(exc, TimeoutError) else "crashed"
            self._retire(worker, why)
            raise WorkerCrash(
                f"worker {worker.worker_id} {why} mid-batch: {exc}"
            ) from exc
        self._free.put(worker)
        return outcomes, {
            "dispatch_s": dispatch_s,
            "execute_s": time.monotonic() - execute_start,
        }

    def dispatch(self, items: list) -> tuple[list, dict] | None:
        """Breaker-wrapped, bounded-retry execute.

        Returns ``(outcomes, timings)``, or None when the pool cannot
        serve this batch (breaker open, degraded, no worker available,
        retries exhausted) — the caller then falls back to its serial
        path, so no client request is ever lost to a dying worker.
        """
        if self.degraded or self._stopping:
            return None
        if not self.breaker.allow():
            return None
        failure: Exception | None = None
        for _ in range(self.config.batch_retries + 1):
            try:
                dispatched = self.execute(items)
            except PoolUnavailable as exc:
                self.breaker.record_failure()
                self._publish_metrics()
                failure = exc
                break
            except WorkerCrash as exc:
                self.breaker.record_failure()
                failure = exc
                continue
            else:
                self.breaker.record_success()
                self._publish_metrics()
                return dispatched
        log.warning("pool dispatch failed, falling back serially: %s", failure)
        self._publish_metrics()
        return None

    # -- async dispatch (the event-loop fast path) ---------------------------
    #
    # The thread-based execute() parks an executor thread on conn.poll()
    # per batch; every wakeup then has to win the GIL back from the busy
    # event loop, which under sustained load costs more than the batch
    # itself.  The async variant keeps all parent-side work on the loop
    # thread — send, await readability via add_reader, recv — so worker
    # processes run truly in parallel with zero thread churn.  Semantics
    # (lease exclusivity, breaker, retries, retirement) are identical.

    async def _lease_async(self) -> _Worker:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.lease_timeout
        while True:
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

    async def execute_async(self, items: list) -> tuple[list, dict]:
        """execute(), but awaiting the pipe on the event loop."""
        lease_start = time.monotonic()
        worker = await self._lease_async()
        dispatch_s = time.monotonic() - lease_start
        with self._lock:
            self._batch_seq += 1
            batch_id = self._batch_seq
        execute_start = time.monotonic()
        try:
            worker.conn.send(("batch", batch_id, items))
            while True:
                await self._readable(worker.conn, self.config.hang_timeout)
                message = worker.conn.recv()
                if message[0] == "result" and message[1] == batch_id:
                    outcomes = message[2]
                    self.flight.absorb(message[3])
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
        return outcomes, {
            "dispatch_s": dispatch_s,
            "execute_s": time.monotonic() - execute_start,
        }

    async def dispatch_async(self, items: list) -> tuple[list, dict] | None:
        """dispatch(), breaker and retries included, on the event loop."""
        if self.degraded or self._stopping:
            return None
        if not self.breaker.allow():
            return None
        failure: Exception | None = None
        for _ in range(self.config.batch_retries + 1):
            try:
                dispatched = await self.execute_async(items)
            except PoolUnavailable as exc:
                self.breaker.record_failure()
                self._publish_metrics()
                failure = exc
                break
            except WorkerCrash as exc:
                self.breaker.record_failure()
                failure = exc
                continue
            else:
                self.breaker.record_success()
                return dispatched
        log.warning("pool dispatch failed, falling back serially: %s", failure)
        self._publish_metrics()
        return None

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
        try:
            os.kill(worker.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):
            pass
        worker.process.join(timeout=5)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        self.degradation.record(
            "serve", f"worker-{why}", f"worker {worker.worker_id} (pid {worker.pid})"
        )
        self.flight.record(
            "worker-retired", worker=worker.worker_id, pid=worker.pid, why=why
        )
        log.warning(
            "retired worker %d (pid %d): %s", worker.worker_id, worker.pid, why
        )
        self._publish_metrics()

    def _note_restart_needed(self, why: str) -> None:
        self.degradation.record("serve", "worker-spawn-failed", why)

    def _degrade(self, why: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.degradation.record("serve", "pool-degraded", why)
        self.flight.record("pool-degraded", why=why)
        # Restart-budget exhaustion is a forensic moment: the ring holds
        # the retirement sequence that burned the budget.
        self.flight.dump_incident(
            "pool-degraded", trigger={"type": "pool-degraded", "why": why}
        )
        log.error("worker pool degraded to serial execution: %s", why)
        self._publish_metrics()

    def _monitor_loop(self) -> None:
        while not self._stopping:
            time.sleep(self.config.heartbeat_interval)
            if self._stopping:
                return
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
            if self._stopping:
                return
            self.restarts += 1
            if self._counter_restarts is not None:
                with self._metrics_lock:
                    self._counter_restarts.inc()
            try:
                self._admit(self._spawn_worker())
            except WorkerCrash as exc:
                self._consecutive_spawn_failures += 1
                self._note_restart_needed(str(exc))
                self.flight.record("worker-spawn-failed", error=str(exc)[:200])
            else:
                self.degradation.record("serve", "worker-restarted")
                self.flight.record(
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
            "breaker": self.breaker.state,
            "degraded": self.degraded,
        }

    def _publish_metrics(self) -> None:
        if self._gauge_live is None:
            return
        snapshot = self.state()
        breaker_code = {"closed": 0.0, "half-open": 1.0, "open": 2.0}
        with self._metrics_lock:
            self._gauge_live.set(float(snapshot["live"]))
            self._gauge_restarting.set(float(snapshot["restarting"]))
            self._gauge_breaker.set(breaker_code[snapshot["breaker"]])
            self._gauge_degraded.set(1.0 if self.degraded else 0.0)
