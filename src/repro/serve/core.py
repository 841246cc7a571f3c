"""The shared request core: deadlines, backpressure, batched execution.

Both front-ends (HTTP and the WHOIS line protocol) reduce their requests
to :class:`Query` values and await :meth:`VerifyService.submit`.  The
service owns admission control and execution semantics so the protocol
handlers stay thin:

* **admission** — a request is refused with :class:`BusyError` (HTTP
  429 / ``%% BUSY``) when its deadline cannot plausibly be met: the
  queries queued and in flight, times the last batch's seconds per
  query, divided by the execution slots, reach the request's own
  timeout (:meth:`VerifyService.admits`).  An empty queue always
  admits.  The queue is also bounded (``queue_size``), as a memory
  bound: nothing in the daemon buffers unboundedly.
* **per-request deadlines** — every query carries a wall deadline
  (client-supplied, validated positive and clamped to
  ``max_deadline``).  A query still queued when its deadline passes is
  never executed; the waiter gets a structured :class:`DeadlineExpired`
  (HTTP 504 / ``%% DEADLINE``) and the miss is counted.
* **natural batching** — a query leaves the queue the moment an
  execution slot is free (see :mod:`repro.serve.batcher`): a lone
  request on an idle service runs at once, and the arrivals that land
  while a batch executes form the next one.  The one timer on the path
  is the batcher's coalescing period, which only follows a batch of
  more than one query.
* **on-loop execution** — with ``workers=0`` (the default daemon) a
  batch is verified directly on the event loop: under the GIL a helper
  thread buys no parallelism, and the hand-off to it costs more CPU
  than the warm verification it wraps.  The loop is held for at most
  one batch (``batch_max`` queries) and regains control between
  batches.  The executor is kept for what genuinely blocks: a
  ``reload``'s session patch and pool sweep, the pool's serial
  fallback, and any batch while a chaos ``fault_hook`` is installed or
  a reload holds the session (:meth:`VerifyService._run_batch_async`).
* **supervised execution** — with ``workers > 0`` batches ship to a
  self-healing pool of warm worker processes
  (:class:`~repro.core.pool.WorkerSupervisor`); a batch the pool
  cannot serve (crashes, no live worker, degraded pool) falls back to
  the in-process serial path, so every admitted request still gets its
  verdict.

Serving metrics (reported into the session's registry, exposed at
``GET /metrics``): ``serve_request_seconds{endpoint=}`` latency
histograms, ``serve_queue_depth``,
``serve_queue_wait_seconds{outcome=}`` (recorded for executed *and*
shed/refused/expired traffic, so backpressure tuning sees the latency
of what it rejected), ``serve_stage_seconds{stage=}`` (the per-request
accept → queue → coalesce → dispatch → execute → respond breakdown, see
:mod:`repro.serve.telemetry`), ``serve_batch_size``,
``serve_deadline_miss_total``, ``serve_shed_total``,
``serve_requests_total{endpoint=,outcome=}``, and the supervisor's
worker gauges.

Every request additionally carries a correlation id (honoring a
client-supplied ``X-Request-Id``) that is echoed in the response,
stamped (``ids.request``) on its access-log line and on every event it
causes in the flight ring — including the events the pool workers record
in their own processes and the hop events of an ``/explain`` — so one id
greps the whole story of a request across the stack.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.api import Session
from repro.core.degradation import DegradationReport
from repro.irr.journal import Journal
from repro.core.report import RouteReport
from repro.net.prefix import Prefix, PrefixError
from repro.obs.events import (
    NULL_EVENTS,
    EventLog,
    clean_request_id,
    new_request_id,
)
from repro.core.pool import SupervisorConfig, WorkerSupervisor
from repro.serve.batcher import MicroBatcher, QueueFull
from repro.serve.telemetry import STAGES, RequestTelemetry

__all__ = [
    "BadRequestError",
    "BusyError",
    "DeadlineExpired",
    "Query",
    "ServeConfig",
    "ServeError",
    "VerifyService",
    "SERVE_BATCH_BUCKETS",
    "answer_query",
    "report_as_dict",
]

# Histogram bounds for batch sizes: 1..512, doubling.
SERVE_BATCH_BUCKETS: tuple[float, ...] = tuple(float(2**i) for i in range(10))

# Hard cap on AS-path length accepted over the wire; real paths top out
# in the dozens, so anything longer is abuse, not routing.
MAX_AS_PATH_LEN = 512

_BAD_DEADLINE = "'deadline_s' must be a finite positive number"


def _bad_deadline(value) -> bool:
    """Not a JSON number (``true`` is not one), or not in (0, inf): NaN included."""
    return type(value) not in (int, float) or not 0 < value < math.inf


class ServeError(Exception):
    """Base class for structured serving errors; ``code`` keys the JSON."""

    code = "error"


class BusyError(ServeError):
    """The service refuses admission (deadline infeasible, queue full, draining)."""

    code = "busy"


class DeadlineExpired(ServeError):
    """The request's deadline passed before a verdict was produced."""

    code = "deadline"


class BadRequestError(ServeError):
    """The request was malformed (bad prefix, bad path, bad JSON shape)."""

    code = "bad-request"


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Knobs for the resident service; defaults suit a local daemon.

    ``http_port``/``whois_port`` of 0 bind an ephemeral port (tests);
    ``None`` disables that front-end.  ``queue_size`` bounds admitted but
    unexecuted queries — a memory bound; admission itself follows the
    deadline (:meth:`VerifyService.admits`).  ``batch_max`` bounds how
    many queued queries one batch takes.  Deadlines are seconds of wall
    time; a request may ask for less than ``default_deadline`` but never
    more than ``max_deadline``.  ``drain_timeout`` bounds the graceful
    SIGTERM drain.

    ``workers`` > 0 attaches the self-healing multi-process pool (see
    :mod:`repro.core.pool`); 0 (the default) executes in-process,
    on the event loop.

    ``journal_path`` attaches the NRTM-style journal follower: the
    daemon polls the file every ``journal_poll`` seconds and hot-swaps
    any not-yet-absorbed entries into the live index (see
    :meth:`VerifyService.reload`).

    Telemetry: ``telemetry`` (on by default) enables request correlation
    ids, the per-stage latency histograms, and the access log;
    ``access_log`` is the JSONL access-log path (None disables the
    file); ``slow_ms`` > 0 promotes requests at or above that many
    milliseconds to the slow-query log (``<access_log>.slow``) and a
    ``slow-request`` event; ``flight_events`` sizes the always-on flight ring
    (0 disables it); ``incident_dir`` is where incident dumps land
    (default: none — incidents are marked in the ring, no file is written).
    """

    host: str = "127.0.0.1"
    http_port: int | None = 8080
    whois_port: int | None = None
    queue_size: int = 256
    batch_max: int = 64
    default_deadline: float = 5.0
    max_deadline: float = 30.0
    drain_timeout: float = 5.0
    workers: int = 0
    hang_timeout: float = 10.0
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 2.0
    restart_budget: int = 8
    start_method: str | None = None
    journal_path: str | None = None
    journal_poll: float = 2.0
    telemetry: bool = True
    access_log: str | None = None
    slow_ms: float = 0.0
    flight_events: int = 2048
    incident_dir: str | None = None


@dataclass(frozen=True, slots=True)
class Query:
    """One unit of work: verify or explain a ⟨prefix, AS-path⟩.

    ``request_id`` is the correlation id assigned by the front-end; it
    rides the query through the batcher and the worker pipe protocol so
    events recorded inside worker processes carry the same id the client
    saw in its response.
    """

    kind: str  # "verify" or "explain"
    prefix: Prefix | str  # from_payload keeps what it parsed
    as_path: tuple[int, ...]
    collector: str = "serve"
    deadline_s: float | None = None
    request_id: str = ""

    @staticmethod
    def from_payload(payload: dict, kind: str, request_id: str = "") -> "Query":
        """Validate a JSON request body into a query.

        Raises :class:`BadRequestError` with a human-readable message on
        any malformed field — the front-end turns it into a 400/``F``.
        Values are validated, never coerced: an ASN is a JSON integer
        (``true`` and ``64500.9`` are not), a deadline a finite positive
        number.
        """
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        prefix = payload.get("prefix")
        if not isinstance(prefix, str):
            raise BadRequestError("'prefix' must be a string")
        try:
            prefix = Prefix.parse(prefix)
        except PrefixError as exc:
            raise BadRequestError(f"bad prefix: {exc}") from exc
        raw_path = payload.get("as_path")
        if not isinstance(raw_path, (list, tuple)) or not raw_path:
            raise BadRequestError("'as_path' must be a non-empty list of ASNs")
        if len(raw_path) > MAX_AS_PATH_LEN:
            raise BadRequestError(f"as_path longer than {MAX_AS_PATH_LEN}")
        if any(type(asn) is not int for asn in raw_path):
            raise BadRequestError("'as_path' entries must be integers")
        if any(asn < 0 or asn > 0xFFFFFFFF for asn in raw_path):
            raise BadRequestError("'as_path' entries must be 32-bit ASNs")
        deadline = payload.get("deadline_s")
        if deadline is not None and _bad_deadline(deadline):
            raise BadRequestError(_BAD_DEADLINE)
        collector = payload.get("collector", "serve")
        if not isinstance(collector, str):
            raise BadRequestError("'collector' must be a string")
        return Query(
            kind=kind,
            prefix=prefix,
            as_path=tuple(raw_path),
            collector=collector[:64],
            deadline_s=deadline,
            request_id=request_id,
        )


def report_as_dict(report: RouteReport) -> dict:
    """A route report as stable JSON — the ``/verify`` response payload.

    ``text`` is the Appendix-C rendering, character-identical to what the
    batch pipeline prints for the same route; the structured fields are
    derived from the same hops.
    """
    entry = report.entry
    return {
        "prefix": str(entry.prefix),
        "as_path": list(entry.as_path),
        "collector": entry.collector,
        "ignored": report.ignored,
        "hops": [
            {
                "direction": hop.direction,
                "from_asn": hop.from_asn,
                "to_asn": hop.to_asn,
                "status": hop.status.label,
                "peer_matched": hop.peer_matched,
                "items": [str(item) for item in hop.items],
            }
            for hop in report.hops
        ],
        "text": str(report),
    }


def _json_bytes(value) -> bytes:
    """The one JSON encoding every response body uses: compact, keys sorted."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True).encode("utf-8")


def render_report(report: RouteReport) -> bytes:
    """The ``/verify`` body: ``_json_bytes(report_as_dict(report))``, byte for byte.

    :func:`report_as_dict` says what the payload *is*; this writes the
    same bytes without building it.  Only the route's own fields are
    encoded per request — each hop brings its two fragments, rendered once
    per :class:`~repro.core.report.HopReport` and kept on it
    (:meth:`~repro.core.report.HopReport.fragments`), and hop reports are
    shared through the hop cache, so a warm route is a join.
    """
    entry = report.entry
    prefix = str(entry.prefix)  # digits, dots, colons, hex: nothing to escape
    as_path = entry.as_path
    fragments = [hop.fragments() for hop in report.hops]
    if report.ignored is not None:
        ignored = json.dumps(report.ignored)
        text = json.dumps(f"Ignored({report.ignored}) {prefix}")[1:-1]
    else:
        ignored = "null"
        header = f"# {prefix} path {' '.join(map(str, as_path))}"
        text = "\\n".join([header, *[line for _, line in fragments]])
    return (
        f'{{"as_path":[{",".join(map(str, as_path))}]'
        f',"collector":{json.dumps(entry.collector)}'
        f',"hops":[{",".join([hop for hop, _ in fragments])}]'
        f',"ignored":{ignored}'
        f',"prefix":"{prefix}"'
        f',"text":"{text}"}}'
    ).encode("ascii")


def answer_query(
    session: Session,
    kind: str,
    prefix: Prefix | str,
    as_path: Sequence[int],
    collector: str,
    request_id: str = "",
) -> tuple[str, bytes, int] | tuple[str, str]:
    """Answer one query on ``session``: ``("ok", body, verdicts)`` or ``("err", message)``.

    The one body behind every served verdict — the in-process path runs
    it on the daemon's session, a pool worker on its own, and the answer
    is what crosses the worker pipe: ``body`` is the finished response
    (JSON bytes; the front-ends add only framing), ``verdicts`` its hop
    count for the access log.  ``request_id`` stamps the hop events of
    an ``explain``.  An exception is the query's answer, never the batch's.
    """
    try:
        if kind == "explain":
            report, events = session.explain(
                prefix, as_path, collector=collector, request_id=request_id
            )
            payload = report_as_dict(report)
            payload["events"] = events
            body = _json_bytes(payload)
        else:
            report = session.verify_route(prefix, as_path, collector=collector)
            body = render_report(report)
    except Exception as exc:  # noqa: BLE001 - per-query isolation
        return "err", str(exc)
    return "ok", body, len(report.hops)


def _as_outcomes(answers: Sequence[tuple]) -> list:
    """:func:`answer_query` answers as what a waiter receives."""
    return [
        answer[1:] if answer[0] == "ok" else BadRequestError(answer[1])
        for answer in answers
    ]


def _expire(future: asyncio.Future, timeout: float) -> None:
    """A request's deadline timer went off before its verdict arrived."""
    if not future.done():
        future.set_exception(
            DeadlineExpired(f"no verdict within the {timeout:g}s deadline")
        )


@dataclass(slots=True)
class _Pending:
    """A submitted query waiting for the batcher."""

    query: Query
    future: asyncio.Future
    deadline: float  # time.monotonic() value
    submitted: float = field(default_factory=time.monotonic)
    telemetry: RequestTelemetry | None = None


class VerifyService:
    """The request core shared by every front-end.

    Wraps a warm :class:`~repro.api.Session` (the session must carry AS
    relationships) behind a batched, deadline- and backpressure-aware
    ``submit``.  With ``workers=0`` batches execute on the event loop,
    one at a time; with ``workers>0`` they ship to the supervised worker
    pool (awaited on the loop, no thread parked per batch), with the
    in-process path on the executor as the fallback whenever the pool
    cannot serve a batch.  Every in-process execution and every hot
    swap holds ``_serial_lock`` (the hop cache is mutable and changes
    hands in the swap); readers take ``session.current`` once, unlocked.
    """

    def __init__(self, session: Session, config: ServeConfig | None = None):
        self.session = session
        self.config = config or ServeConfig()
        self.started_at = time.time()
        self.draining = False
        self.degradation = DegradationReport()
        self.supervisor: WorkerSupervisor | None = None
        # Chaos/test instrumentation: called with the batch's queries
        # before execution, always on an executor thread (hooks block).
        # Never set in production.
        self.fault_hook: Callable[[Sequence[Query]], None] | None = None
        # Serializes hot swaps so two concurrent reloads cannot interleave
        # their worker-pool sweeps.
        self._reload_lock = asyncio.Lock()
        registry = session.registry
        self._registry = registry
        # The registry is not thread-safe; with a pool attached both the
        # event loop and several executor threads record into it, so all
        # serving-path mutations go through this lock.
        self._metrics_lock = threading.Lock()
        # Serializes in-process verification and hot swaps (the hop cache
        # is mutable and a swap hands it over).  Executor threads block on
        # it; the event loop only ever try-acquires it (_run_batch_async)
        # and then re-enters it in _execute_serial, hence reentrant.
        self._serial_lock = threading.RLock()
        # Written on the loop thread only (submit, collect, stop).
        self._queue_depth = registry.gauge("serve_queue_depth")
        # The success path's instruments, bound once per endpoint so a
        # request does not pay two registry label lookups.
        self._ok_instruments = {
            kind: self._bind_ok_instruments(kind) for kind in ("verify", "explain")
        }
        self._batch_size = registry.histogram(
            "serve_batch_size", buckets=SERVE_BATCH_BUCKETS
        )
        # Queue wait is labeled by what happened to the request: executed
        # and expired observed at batch admission, shed/refused/deadline
        # at the refusal/expiry site — so backpressure tuning sees the
        # latency of rejected traffic, not only the survivors'.
        self._queue_wait = {
            outcome: registry.histogram(
                "serve_queue_wait_seconds", outcome=outcome
            )
            for outcome in ("executed", "expired", "shed", "refused", "deadline")
        }
        self._deadline_miss = registry.counter("serve_deadline_miss_total")
        self._shed_total = registry.counter("serve_shed_total")
        # -- request-scoped telemetry (ids, stage breakdown, flight ring) --
        if session.flight is not None:
            self.flight = session.flight
        elif self.config.flight_events > 0:
            self.flight = EventLog(
                self.config.flight_events, incident_dir=self.config.incident_dir
            )
            # Session-level access: session.flight_events() reads the
            # same ring the daemon records into, and session.explain()
            # splices an explained route's hop events into it.
            session.flight = self.flight
        else:
            self.flight = NULL_EVENTS
        self._stage_seconds = {
            stage: registry.histogram("serve_stage_seconds", stage=stage)
            for stage in STAGES
        }
        # The finish path observes all six stages for every request, so
        # the bound observe methods are pre-resolved in STAGES order
        # (matching RequestTelemetry.stage_values) and guarded by their
        # own lock: the shared _metrics_lock is contended by the batch
        # executor threads, and making each response wait on it there
        # is measurable.
        self._stage_observes = tuple(
            self._stage_seconds[stage].observe for stage in STAGES
        )
        self._stage_lock = threading.Lock()
        # The access log takes every finished request's line; the slow log
        # (``<access_log>.slow``) those at or above ``slow_ms``.
        access_log, slow_ms = self.config.access_log, self.config.slow_ms
        self._access_log = EventLog(path=access_log) if access_log else NULL_EVENTS
        self._slow_log = (
            EventLog(path=f"{access_log}.slow")
            if access_log and slow_ms > 0
            else NULL_EVENTS
        )
        # What the admission rule reads: the last completed batch's wall
        # seconds per query (0.0 before the first: nothing to predict from).
        self._query_seconds = 0.0
        self._batcher = MicroBatcher(
            self._run_batch_async,
            queue_size=self.config.queue_size,
            batch_max=self.config.batch_max,
            concurrency=max(1, self.config.workers),
            on_batch=self._observe_batch,
            on_collect=self._mark_collected,
            discard=self._discard_pending,
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "VerifyService":
        """Warm the session, spawn the worker pool, start the batcher."""
        current = self.session.warm().current
        if self.config.workers > 0:
            self.supervisor = WorkerSupervisor(
                current.ir,
                self.session.relationships,
                self.session.options,
                current.index,
                SupervisorConfig(
                    workers=self.config.workers,
                    hang_timeout=self.config.hang_timeout,
                    heartbeat_interval=self.config.heartbeat_interval,
                    heartbeat_timeout=self.config.heartbeat_timeout,
                    restart_budget=self.config.restart_budget,
                    start_method=self.config.start_method,
                ),
                registry=self._registry,
                metrics_lock=self._metrics_lock,
                degradation=self.degradation,
                flight=self.flight,
            )
            self.supervisor.start()
        await self._batcher.start()
        self._event("service-start", workers=self.config.workers)
        return self

    def begin_drain(self) -> None:
        """Refuse new submissions; queued work keeps executing."""
        if not self.draining:
            self._event("drain-begin", queued=self._batcher.qsize())
        self.draining = True

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait (bounded) for queued and in-flight work to finish."""
        self.begin_drain()
        drained = await self._batcher.drain(
            self.config.drain_timeout if timeout is None else timeout
        )
        self._event("drain-done", clean=drained)
        return drained

    async def stop(self) -> None:
        """Stop the batcher and the pool; still-queued waiters get BusyError."""
        self.draining = True
        await self._batcher.stop()
        self._queue_depth.set(0)
        if self.supervisor is not None:
            self.supervisor.stop()
        self._event("service-stop")
        self._access_log.close()
        self._slow_log.close()

    def _discard_pending(self, pending: "_Pending") -> None:
        """Fail a queued-but-never-executed waiter at shutdown."""
        if not pending.future.done():
            pending.future.set_exception(BusyError("shutting down"))
        self._finish_request(pending.telemetry, "refused")

    # -- submission --------------------------------------------------------

    def _outcome(self, kind: str, outcome: str):
        return self._registry.counter(
            "serve_requests_total", endpoint=kind, outcome=outcome
        )

    def _bind_ok_instruments(self, kind: str) -> tuple[Callable, Callable]:
        """``(observe latency, count ok)`` for one endpoint."""
        return (
            self._registry.histogram("serve_request_seconds", endpoint=kind).observe,
            self._outcome(kind, "ok").inc,
        )

    @property
    def degraded(self) -> bool:
        """Whether the worker pool has degraded to serial execution."""
        return self.supervisor is not None and self.supervisor.degraded

    def admits(self, timeout: float) -> bool:
        """The admission rule: can a request with ``timeout`` plausibly be met?

        An empty queue always admits.  Otherwise the request's wait is
        predicted as everything ahead of it plus itself — the queued
        queries and the batches in flight, counted whole although they
        have started — times the last completed batch's seconds per
        query, divided by the execution slots; the request is refused
        when that reaches its own timeout.
        """
        queued = self._batcher.qsize()
        if not queued:
            return True
        ahead = queued + self._batcher.inflight + 1
        slots = max(1, self.config.workers)
        return ahead * self._query_seconds / slots < timeout

    # -- request telemetry ---------------------------------------------------

    def _event(self, kind: str, request_id: str | None = None, **payload) -> None:
        """Record one serve event in the flight ring, under the live generation."""
        self.flight.record(
            kind, request=request_id, generation=self.session.generation, **payload
        )

    def new_telemetry(
        self, frontend: str, raw_id: str | None = None
    ) -> RequestTelemetry | None:
        """Open request-scoped telemetry for one front-end request.

        Honors a client-supplied id when it is a clean header token,
        generates a fresh one otherwise.  Returns None when telemetry is
        disabled — front-ends skip the id echo entirely in that case.
        """
        if not self.config.telemetry:
            return None
        request_id = clean_request_id(raw_id) or new_request_id()
        return RequestTelemetry(request_id, frontend)

    def finish_telemetry(
        self,
        telemetry: RequestTelemetry | None,
        outcome: str,
        verdicts: int = 0,
    ) -> None:
        """Close a request the front-end never submitted (parse errors)."""
        self._finish_request(telemetry, outcome, verdicts)

    def _finish_request(
        self,
        telemetry: RequestTelemetry | None,
        outcome: str,
        verdicts: int = 0,
    ) -> None:
        """One request is over: stage histograms, access log, flight event.

        Idempotent — the first closer (usually ``submit``) wins, so a
        front-end can finish defensively in its error paths without
        double-counting.
        """
        if telemetry is None or not telemetry.finish(outcome, verdicts):
            return
        values = telemetry.stage_values()
        with self._stage_lock:
            for observe, seconds in zip(self._stage_observes, values):
                observe(seconds)
        total_ms = sum(values) * 1000.0
        slow = self.config.slow_ms > 0 and total_ms >= self.config.slow_ms
        # One serialization serves every log: the access-log line IS the
        # flight ring's "request" event, spliced in pre-serialized — and
        # the stage breakdown just observed is reused, not recomputed.
        line = telemetry.line(self.session.generation, values)
        self._access_log.splice(line)
        self.flight.splice(line)
        if slow:
            self._slow_log.splice(line)
            self._slow_log.flush()  # slow lines are the ones someone is tailing
            self._event(
                "slow-request",
                telemetry.request_id,
                outcome=outcome,
                total_ms=round(total_ms, 3),
            )

    def _observe_queue_wait(self, outcome: str, wait_s: float) -> None:
        with self._metrics_lock:
            self._queue_wait[outcome].observe(wait_s)

    def _mark_collected(self, batch: Sequence["_Pending"]) -> None:
        """Batcher hook: a dispatcher pulled this batch off the queue."""
        self._queue_depth.set(self._batcher.qsize())
        for pending in batch:
            if pending.telemetry is not None:
                pending.telemetry.mark_collected()

    async def submit(
        self, query: Query, telemetry: RequestTelemetry | None = None
    ) -> bytes:
        """Run one query through the batched core; returns the response body.

        Raises :class:`BadRequestError` on an invalid deadline,
        :class:`BusyError` on backpressure (deadline infeasible, queue
        full, or draining) and :class:`DeadlineExpired` when the query's wall
        deadline passes first.  ``telemetry`` is the front-end's
        request-scoped record; direct callers may omit it (one is opened
        here, keyed by the query's id, so embedded use is attributable
        too).
        """
        if telemetry is None and self.config.telemetry:
            telemetry = RequestTelemetry(
                query.request_id or new_request_id(), "direct"
            )
        if telemetry is not None:
            telemetry.endpoint = query.kind
        if self.draining:
            with self._metrics_lock:
                self._outcome(query.kind, "busy").inc()
            if telemetry is not None:
                self._observe_queue_wait("refused", telemetry.queue_wait)
                self._finish_request(telemetry, "refused")
            raise BusyError("shutting down")
        if query.deadline_s is not None and _bad_deadline(query.deadline_s):
            # Zero/negative deadlines used to be clamped by min() into an
            # instant 504, and NaN survives min() to become the timer's
            # ``when``; they are a malformed request, not a timeout.
            with self._metrics_lock:
                self._outcome(query.kind, "bad-request").inc()
            self._finish_request(telemetry, "bad-request")
            raise BadRequestError(_BAD_DEADLINE)
        timeout = min(
            query.deadline_s
            if query.deadline_s is not None
            else self.config.default_deadline,
            self.config.max_deadline,
        )
        if not self.admits(timeout):
            with self._metrics_lock:
                self._shed_total.inc()
                self._outcome(query.kind, "busy").inc()
            if telemetry is not None:
                self._observe_queue_wait("shed", telemetry.queue_wait)
                self._event(
                    "request-shed",
                    telemetry.request_id,
                    endpoint=query.kind,
                )
                self._finish_request(telemetry, "shed")
            raise BusyError(f"shedding load: no verdict likely within {timeout:g}s")
        loop = asyncio.get_running_loop()
        if telemetry is not None:
            telemetry.mark_submitted()
        pending = _Pending(
            query,
            loop.create_future(),
            time.monotonic() + timeout,
            telemetry=telemetry,
        )
        try:
            self._batcher.submit_nowait(pending)
        except QueueFull:
            with self._metrics_lock:
                self._outcome(query.kind, "busy").inc()
            if telemetry is not None:
                self._observe_queue_wait("refused", telemetry.queue_wait)
                self._event(
                    "request-refused",
                    telemetry.request_id,
                    endpoint=query.kind,
                    why="queue-full",
                )
                self._finish_request(telemetry, "busy")
            raise BusyError(
                f"queue full ({self.config.queue_size} queries pending)"
            ) from None
        self._queue_depth.set(self._batcher.qsize())
        # The deadline is one timer handle: it fails the future, so the
        # batcher discards any late outcome instead of delivering into the
        # void, and a request that completes first cancels it.
        timer = loop.call_later(timeout, _expire, pending.future, timeout)
        try:
            body, verdicts = await pending.future
        except DeadlineExpired:
            with self._metrics_lock:
                self._deadline_miss.inc()
                self._outcome(query.kind, "deadline").inc()
            if telemetry is not None:
                self._observe_queue_wait("deadline", telemetry.queue_wait)
                self._event(
                    "request-deadline",
                    telemetry.request_id,
                    endpoint=query.kind,
                    timeout_s=timeout,
                )
                self._finish_request(telemetry, "deadline")
            raise
        except ServeError as exc:
            with self._metrics_lock:
                self._outcome(query.kind, exc.code).inc()
            if telemetry is not None:
                self._event(
                    "request-error",
                    telemetry.request_id,
                    endpoint=query.kind,
                    code=exc.code,
                )
                self._finish_request(telemetry, exc.code)
            raise
        except Exception as exc:
            with self._metrics_lock:
                self._outcome(query.kind, "error").inc()
            if telemetry is not None:
                self._event(
                    "request-error",
                    telemetry.request_id,
                    endpoint=query.kind,
                    code="error",
                    detail=str(exc)[:200],
                )
                self._finish_request(telemetry, "error")
            raise
        finally:
            timer.cancel()
        with self._metrics_lock:
            # The fallback serves a hand-built Query of some other kind.
            observe_latency, count_ok = self._ok_instruments.get(
                query.kind
            ) or self._bind_ok_instruments(query.kind)
            observe_latency(time.monotonic() - pending.submitted)
            count_ok()
        self._finish_request(telemetry, "ok", verdicts=verdicts)
        return body

    # -- execution (event loop, or the batcher's executor threads) -----------

    def _observe_batch(self, size: int, seconds: float) -> None:
        self._query_seconds = seconds / size
        with self._metrics_lock:
            self._batch_size.observe(size)

    def _run_batch(
        self,
        batch: Sequence[_Pending],
        fault_hook: Callable[[Sequence[Query]], None] | None = None,
    ) -> list:
        """Execute one coalesced batch synchronously, in-process.

        Returns an outcome per item; exceptions become the waiter's
        exception.  Queries whose deadline passed while queued are
        skipped (their waiters have already timed out, this just avoids
        wasted work).
        """
        if fault_hook is not None:
            fault_hook([pending.query for pending in batch])
        outcomes, live = self._admit_batch(batch)
        if live:
            for position, result in zip(live, self._execute_live(batch, live)):
                outcomes[position] = result
        return outcomes

    def _execute_live(self, batch: Sequence[_Pending], live: Sequence[int]) -> list:
        """A batch's live queries on the in-process path, timed."""
        if self.degraded:
            self._note_degraded()
        serial_start = time.monotonic()
        results = self._execute_serial([batch[position].query for position in live])
        self._apply_batch_timings(
            batch, live, {"execute_s": time.monotonic() - serial_start}
        )
        return results

    def _admit_batch(self, batch: Sequence[_Pending]) -> tuple[list, list[int]]:
        """Per-item bookkeeping shared by the sync and async batch paths:
        observe queue waits and skip expired items."""
        outcomes: list = [None] * len(batch)
        live: list[int] = []
        now = time.monotonic()
        for position, pending in enumerate(batch):
            wait = now - pending.submitted
            expired = pending.deadline <= now or pending.future.done()
            with self._metrics_lock:
                self._queue_wait["expired" if expired else "executed"].observe(
                    wait
                )
            if expired:
                outcomes[position] = DeadlineExpired("expired while queued")
                if pending.telemetry is not None:
                    self._event(
                        "request-expired",
                        pending.telemetry.request_id,
                        endpoint=pending.query.kind,
                        queued_s=round(wait, 6),
                    )
            else:
                if pending.telemetry is not None:
                    pending.telemetry.mark_admitted()
                live.append(position)
        return outcomes, live

    def _apply_batch_timings(
        self,
        batch: Sequence[_Pending],
        live: Sequence[int],
        timings: dict | None,
    ) -> None:
        """Attribute batch-level dispatch/execute durations to each live
        request — they coalesced precisely so they would share those costs."""
        if not timings:
            return
        dispatch_s = timings.get("dispatch_s")
        execute_s = timings.get("execute_s")
        for position in live:
            telemetry = batch[position].telemetry
            if telemetry is not None:
                telemetry.dispatch_s = dispatch_s
                telemetry.execute_s = execute_s

    async def _run_batch_async(self, batch: Sequence[_Pending]) -> list:
        """Where a batch runs — decided by observable state only.

        * no pool, no chaos hook, session free: right here on the event
          loop.  A batch is at most ``batch_max`` warm verifications;
          the thread hop it used to ride cost more than they do.
        * no pool, but a ``reload`` is patching the session: on the
          executor, where the batch queues behind the patch.  The loop
          never *blocks* on ``_serial_lock`` — it only try-acquires it.
        * no healthy pool, and a chaos ``fault_hook`` is installed or the
          pool has degraded to serial: on the executor (hooks sleep;
          degraded batches from several slots contend for the session).
        * a healthy pool: dispatched from the loop, awaiting the worker's
          pipe — after the chaos hook, if any, has run on the executor,
          and falling back to the executor for this batch's queries when
          the pool cannot serve them.
        """
        supervisor = self.supervisor
        fault_hook = self.fault_hook  # read once: tests set it from other threads
        if (
            supervisor is None
            and fault_hook is None
            and self._serial_lock.acquire(blocking=False)
        ):
            try:
                return self._run_batch(batch)
            finally:
                self._serial_lock.release()
        if supervisor is None or supervisor.degraded:
            return await self._batcher.run_blocking(
                self._run_batch, batch, fault_hook
            )
        if fault_hook is not None:
            await self._batcher.run_blocking(
                fault_hook, [pending.query for pending in batch]
            )
        outcomes, live = self._admit_batch(batch)
        if not live:
            return outcomes
        items = [
            (
                query.kind,
                query.prefix,
                query.as_path,
                query.collector,
                query.request_id,
            )
            for query in (batch[position].query for position in live)
        ]
        dispatched = await supervisor.dispatch(items)
        if dispatched is not None:
            batch_outcomes, lines, timings = dispatched
            self.flight.absorb(lines)
            self._apply_batch_timings(batch, live, timings)
            results = _as_outcomes(batch_outcomes)
        else:
            results = await self._batcher.run_blocking(
                self._execute_live, batch, live
            )
        for position, result in zip(live, results):
            outcomes[position] = result
        return outcomes

    def _note_degraded(self) -> None:
        # The supervisor records the budget-exhaustion event itself (the
        # degradation report is shared); this logs the first serial batch.
        if not self.degradation.by_kind().get("serve/degraded-to-serial"):
            self.degradation.record(
                "serve", "degraded-to-serial", "pool unavailable; serving in-process"
            )

    def _execute_serial(self, queries: Sequence[Query]) -> list:
        """The in-process path: the session under its serialization lock."""
        with self._serial_lock:
            session = self.session
            return _as_outcomes(
                [
                    answer_query(
                        session, q.kind, q.prefix, q.as_path, q.collector, q.request_id
                    )
                    for q in queries
                ]
            )

    # -- incremental ingestion (hot swap) ------------------------------------

    def _apply_journal_blocking(self, journal: Journal):
        """Patch the parent session under the serial lock (executor thread).

        Entries whose serial the index has already absorbed are filtered
        out first — that makes re-reading a growing journal file (the
        follower) and retrying a ``POST /reload`` idempotent instead of
        tripping the stale-serial degradation.  Returns ``(fresh,
        report)`` where ``report`` is ``None`` when nothing was applied.
        """
        with self._serial_lock:
            applied = self.session.serials
            fresh = Journal(
                entries=[
                    entry
                    for entry in journal.entries
                    if entry.serial > applied.get(entry.source, -1)
                ],
                issues=list(journal.issues),
            )
            if not fresh.entries and not fresh.issues:
                return fresh, None
            return fresh, self.session.apply_deltas(fresh)

    async def reload(self, journal: Journal) -> dict:
        """Hot-swap journal deltas into the live service; returns a summary.

        The parent session is patched first (off the event loop, under
        the serial lock: the in-process path's verifier hands its hop
        cache over), then every pool worker is swapped by the
        supervisor's lease-serialized reload, a coroutine on this loop —
        in-flight requests keep flowing throughout; at worst a batch is
        answered by a worker one generation behind, never dropped.
        """
        if self.draining:
            raise BusyError("shutting down")
        async with self._reload_lock:
            self._event("reload-begin", entries=len(journal.entries))
            try:
                fresh, report = await self._batcher.run_blocking(
                    self._apply_journal_blocking, journal
                )
            except Exception as exc:
                self._event("reload-abort", error=str(exc)[:200])
                raise
            current = self.session.current  # one state for every field below
            delta_apply_s, hop_cache = current.delta
            summary = {
                "applied": len(fresh.entries),
                "generation": current.number,
                "serials": current.serials,
                "degraded": bool(report),
                "delta_apply_s": delta_apply_s,
                # What this apply did to the hop cache (None: nothing applied).
                "hop_cache": hop_cache if report is not None else None,
            }
            if report:
                summary["degradation"] = report.as_dict()
            if report is None:
                self._event("reload-commit", applied=0)
                return summary
            if self.supervisor is not None:
                summary["pool"] = await self.supervisor.reload(
                    current.ir, current.index, fresh
                )
            self._event(
                "reload-commit",
                applied=len(fresh.entries),
                serials=current.serials,
                degraded=bool(report),
                hop_cache=hop_cache,
            )
            return summary

    # -- health ------------------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` payload: liveness plus headline counters."""
        current = self.session.current  # every index field from one generation
        if self.draining:
            status = "draining"
        elif self.degraded:
            status = "degraded"
        else:
            status = "ok"
        payload = {
            "status": status,
            "uptime_s": round(time.time() - self.started_at, 3),
            "queue_depth": self._batcher.qsize(),
            "queue_size": self.config.queue_size,
            "batches": self._batcher.batches,
            "queries": self._batcher.items,
            # The admission rule, asked for a default-deadline request.
            "shedding": not self.admits(
                min(self.config.default_deadline, self.config.max_deadline)
            ),
            "shed_total": self._shed_total.value,
            "index_digest": current.index.digest if current.index is not None else None,
            "index_generation": current.number,
            "journal_serials": current.serials,
            "last_delta_apply_s": current.delta[0],
            "last_delta_hop_cache": current.delta[1],
        }
        if self.flight.enabled:
            payload["flight"] = self.flight.stats()
        if self.supervisor is not None:
            payload["supervisor"] = self.supervisor.state()
        return payload
