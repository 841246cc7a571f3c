"""The event log: one envelope, one store, one reader.

Everything the system says about itself as a *sequence* — a served
request's stage breakdown, the worker pool's lifecycle, a sampled route's
decision provenance — is one kind of thing: a line of compact JSON

    {"ts": 1790583480.428104, "kind": "hop",
     "ids": {"request": ..., "route": ..., "worker": ..., "generation": ...},
     ...flat payload}

``ts`` is wall-clock seconds, ``kind`` names the event and ``ids`` holds
whichever of the four correlation ids apply: the served request's id, the
content-keyed route id (:func:`repro.obs.trace.route_trace_id`), the pid of
the pool worker that emitted the event and the index generation it was
emitted under.  This module alone knows how such a line is serialized,
buffered, shipped across a process boundary and read back; every
producer (``serve`` telemetry, the worker pool, the tracer) emits into an
:class:`EventLog` and every consumer (``GET /debug/flight``, ``rpslyzer
debug``, ``rpslyzer trace``, incident dumps) reads through
:meth:`EventLog.events` or :func:`read_events`.

An :class:`EventLog` holds *pre-serialized* lines — strings are invisible
to the cyclic GC, so neither a busy daemon's ring nor a bulk run's trace
grows the tracked heap — behind one lock, in a bounded ring
(``capacity``), an unbounded list (a worker's per-frame buffer, a
tracer's events) or an append-only file (``path``: the access and slow
logs).  A pool worker :meth:`~EventLog.drain`\\ s its log into every
result frame and the parent :meth:`~EventLog.absorb`\\ s the lines
unmodified, so one request id greps across processes.
:data:`NULL_EVENTS` is the shared do-nothing log: instrumented code never
branches on "is anybody listening".
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from typing import Callable, Iterable

__all__ = [
    "EVENT_FORMAT",
    "EventLog",
    "NULL_EVENTS",
    "clean_request_id",
    "filter_events",
    "new_request_id",
    "read_events",
]

EVENT_FORMAT = "rpslyzer-events/1"

# Client-supplied request ids are propagated verbatim only when they are
# plain header-safe tokens; anything else is replaced with a fresh id so
# log lines and WHOIS comments stay single-line and unambiguous.
_ID_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.:/+="
)
MAX_REQUEST_ID_LEN = 128

# Request ids are minted on the serve hot path, where uuid4's two
# microseconds of os.urandom per call are real money: a random 16-hex
# process prefix plus a 16-hex counter keeps the 32-hex shape and the
# per-process uniqueness at ~10x less cost.  (Forked workers inherit the
# prefix but never mint request ids — ids arrive with the batch items.)
_ID_PREFIX = uuid.uuid4().hex[:16]
_id_counter = itertools.count(int.from_bytes(os.urandom(4), "big"))


def new_request_id() -> str:
    """A fresh correlation id (32 hex chars, collision-safe in practice)."""
    return "%s%016x" % (_ID_PREFIX, next(_id_counter))


def clean_request_id(raw: str | None) -> str | None:
    """A client-supplied id, validated — or None when unusable.

    Accepts 1..``MAX_REQUEST_ID_LEN`` characters drawn from the
    URL/header-safe token alphabet; everything else (empty, overlong,
    embedded whitespace or quotes) is rejected so the caller generates a
    fresh id instead of propagating something unprintable.
    """
    if not raw:
        return None
    candidate = raw.strip()
    if not candidate or len(candidate) > MAX_REQUEST_ID_LEN:
        return None
    if not all(ch in _ID_SAFE for ch in candidate):
        return None
    return candidate


def filter_events(
    events: Iterable[dict],
    *,
    request: str | None = None,
    route: str | None = None,
    kinds=None,
    since: float | None = None,
    until: float | None = None,
    limit: int | None = None,
) -> list[dict]:
    """The events matching every given filter, in their given order.

    ``request``/``route`` match ``ids``; ``kinds`` is an iterable of event
    kinds; ``since``/``until`` bound the wall-clock ``ts``; ``limit``
    keeps the *newest* N matches (the interesting end of an incident).
    """
    wanted = frozenset(kinds) if kinds else None
    matched = []
    for event in events:
        ids = event.get("ids") or {}
        if request is not None and ids.get("request") != request:
            continue
        if route is not None and ids.get("route") != route:
            continue
        if wanted is not None and event.get("kind") not in wanted:
            continue
        ts = event.get("ts", 0.0)
        if since is not None and ts < since:
            continue
        if until is not None and ts > until:
            continue
        matched.append(event)
    if limit is not None and limit > 0:
        matched = matched[-limit:]
    return matched


def _decode(lines: Iterable[str]) -> Iterable[dict]:
    """The JSON objects among ``lines``; anything else is skipped — a
    process killed mid-write leaves a cut final line, never a fatal one."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            yield record


def read_events(path: str | Path) -> tuple[dict, list[dict]]:
    """Read an event file back: ``(header, events)``.

    Reads whatever an :class:`EventLog` wrote — an access log, a trace
    file, an incident dump — and tolerates what a dying writer leaves: a
    line cut anywhere, even inside a UTF-8 sequence, is dropped.  An
    incident dump starts with a header record (it has a ``format``);
    other files have none and ``header`` is ``{}``.  Raises ``ValueError``
    for a header of another format.
    """
    header: dict = {}
    with open(path, encoding="utf-8", errors="replace") as stream:
        events = list(_decode(stream))
    if events and "format" in events[0]:
        header = events.pop(0)
        if header["format"] != EVENT_FORMAT:
            raise ValueError(f"not an event log: format={header['format']!r}")
    return header, events


class EventLog:
    """A lock-guarded store of pre-serialized event lines.

    With ``path`` the log appends to that file (block-buffered: a per-line
    flush would cost the serve loop a syscall per request, so a crashing
    daemon may lose its final block — :meth:`flush` after a line someone
    is tailing) and is write-only; read it with :func:`read_events`.
    Otherwise lines are held in memory, the newest ``capacity`` of them
    (all, when None).  Recording is thread-safe — a daemon's ring is
    written from the event loop, executor threads and the pool's monitor
    thread.

    ``incident_dir`` is where :meth:`dump_incident` writes; without one an
    incident is only marked in the log, never written: a log nobody
    pointed at a directory must not litter the working directory.
    """

    enabled = True

    def __init__(
        self,
        capacity: int | None = None,
        *,
        path: str | Path | None = None,
        incident_dir: str | Path | None = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("EventLog capacity must be >= 1")
        self.capacity = capacity
        self.incident_dir = Path(incident_dir) if incident_dir else None
        self.incident_interval = 30.0  # seconds between dumps for one reason
        self._lock = threading.Lock()
        self._stream = None
        self._ring: deque[str] | None = None
        if path is not None:
            self._stream = open(path, "a", encoding="utf-8")  # noqa: SIM115
        else:
            self._ring = deque(maxlen=capacity)
        self.recorded = 0
        self.incidents = 0
        self._last_incident: dict[str, float] = {}

    # -- writing ------------------------------------------------------------

    def record(
        self,
        kind: str,
        *,
        request: str | None = None,
        route: str | None = None,
        worker: int | None = None,
        generation: int | None = None,
        **payload,
    ) -> None:
        """Record one event now; serialized here, outside the lock."""
        ids = {}
        if request:
            ids["request"] = request
        if route:
            ids["route"] = route
        if worker is not None:
            ids["worker"] = worker
        if generation is not None:
            ids["generation"] = generation
        event = {"ts": round(time.time(), 6), "kind": kind, "ids": ids, **payload}
        self.splice(
            json.dumps(event, separators=(",", ":"), sort_keys=True, default=str)
        )

    def splice(self, line: str) -> None:
        """Append one line a producer serialized itself — the hot path.

        A finished request's line is formatted by hand, once, and the same
        string goes to every log that wants it; each pays a lock and an
        append.
        """
        self._append((line,))

    def absorb(self, lines: Iterable) -> None:
        """Append finished lines as they are: a traced route's events, or
        another log's (a worker's result frame).

        Whatever is not an event line — the frame crossed a pipe — is
        skipped, not trusted.
        """
        self._append(
            [line for line in lines if isinstance(line, str) and line.startswith("{")]
        )

    def _append(self, lines) -> None:
        with self._lock:
            self.recorded += len(lines)
            if self._ring is not None:
                self._ring.extend(lines)
            elif self._stream is not None:  # a closed file log drops them
                self._stream.writelines(line + "\n" for line in lines)

    def drain(self) -> list[str]:
        """Pop every held line (worker side: ship with the result frame)."""
        with self._lock:
            lines = list(self._ring or ())
            if lines:
                self._ring.clear()
            return lines

    def flush(self) -> None:
        with self._lock:
            if self._stream is not None:
                self._stream.flush()

    def close(self) -> None:
        """Close a file-backed log; later lines are dropped."""
        with self._lock:
            stream, self._stream = self._stream, None
        if stream is not None:
            stream.close()

    # -- reading ------------------------------------------------------------

    def lines(self) -> list[str]:
        with self._lock:
            return list(self._ring or ())

    def events(self, **filters) -> list[dict]:
        """The held events decoded, oldest first (:func:`filter_events`)."""
        return filter_events(_decode(self.lines()), **filters)

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "events": len(self._ring or ()),
                "recorded": self.recorded,
                "incidents": self.incidents,
            }

    def write(
        self,
        path: str | Path,
        header: dict | None = None,
        key: Callable[[dict], tuple] | None = None,
    ) -> None:
        """Write the held lines to ``path`` as JSONL, after ``header`` if
        given, ordered by ``key(event)`` if given (stable otherwise)."""
        lines = self.lines()
        if key is not None:
            lines.sort(key=lambda line: key(json.loads(line)))
        with open(path, "w", encoding="utf-8") as stream:
            if header is not None:
                stream.write(json.dumps(header, sort_keys=True, default=str) + "\n")
            stream.writelines(line + "\n" for line in lines)

    # -- incident dumps ------------------------------------------------------

    def dump_incident(self, reason: str, trigger: dict | None = None) -> Path | None:
        """Dump the log to a timestamped incident file; returns its path.

        The first line is a header (``format``, ``reason``, ``ts``,
        ``pid`` and the ``trigger`` that caused the dump); the rest is the
        log, oldest first, ending with the ``incident-dump`` event recorded
        here.  Dumps for one reason are rate-limited to one per
        ``incident_interval`` seconds — a trigger repeating under sustained
        overload must not fill the disk — counted from the last dump that
        *was written*: without an ``incident_dir``, or when the write
        fails, the event still marks the incident, None is returned and
        the next attempt is not held back.
        """
        now = time.monotonic()
        with self._lock:
            last = self._last_incident.get(reason, -math.inf)
            if now - last < self.incident_interval:
                return None
            # Claimed under the lock, so concurrent triggers write one file;
            # handed back below if this attempt writes none.
            self._last_incident[reason] = now
        self.record("incident-dump", reason=reason)
        path = None
        if self.incident_dir is not None:
            stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
            path = self.incident_dir / f"flight-{stamp}-{reason}-{os.getpid()}.jsonl"
            header = {
                "format": EVENT_FORMAT,
                "reason": reason,
                "ts": round(time.time(), 6),
                "pid": os.getpid(),
                "trigger": trigger,
            }
            try:
                self.incident_dir.mkdir(parents=True, exist_ok=True)
                self.write(path, header)
            except OSError:  # the dump is best-effort; never take serving down
                path = None
        with self._lock:
            if path is not None:
                self.incidents += 1
            elif self._last_incident[reason] == now:
                self._last_incident[reason] = last
        return path


class _NullEventLog(EventLog):
    """The disabled log: every operation is a no-op."""

    enabled = False

    def record(self, kind, **fields):
        pass

    def _append(self, lines):
        pass

    def dump_incident(self, reason, trigger=None):
        return None


NULL_EVENTS = _NullEventLog()
