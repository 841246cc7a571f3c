"""The serve flight recorder: a bounded ring of lifecycle events.

The resident daemon (:mod:`repro.serve`) is self-healing — workers are
SIGKILLed and respawned, the breaker opens and closes, journals hot-swap
the index — and after an incident the *sequence* of those transitions is
the diagnosis.  Counters cannot reconstruct it.  A
:class:`FlightRecorder` keeps the last ``capacity`` lifecycle events in
memory at all times, cheap enough to stay on in production:

* events are serialized to compact JSON **at record time** and the ring
  holds only the resulting strings — the same off-the-tracked-heap trick
  as :mod:`repro.obs.trace`, so a busy daemon's ring never grows the
  cyclic-GC workload;
* the ring is a ``deque(maxlen=capacity)``: recording is O(1), old
  events fall off the back, and nothing ever flushes on the hot path;
* on an incident (breaker open, restart budget exhausted, SIGQUIT) the
  whole ring is dumped to a timestamped JSONL file whose first line is a
  header naming the trigger, rate-limited per reason so a flapping
  breaker cannot flood the disk;
* worker processes keep their own small recorder and ship the events of
  each batch back inside the result frame; :meth:`FlightRecorder.absorb`
  splices those pre-serialized lines into the parent ring unmodified.

Every event is ``{"seq", "ts", "type", ...}`` plus an optional ``"id"``
carrying the request correlation id (see docs/observability.md for the
schema).  :data:`NULL_FLIGHT` mirrors the null registry/tracer: a shared
do-nothing recorder, so instrumented code never branches on "is flight
recording enabled".
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "FLIGHT_FORMAT",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "clean_request_id",
    "get_flight_recorder",
    "new_request_id",
    "read_flight_events",
    "set_flight_recorder",
    "use_flight_recorder",
]

FLIGHT_FORMAT = "rpslyzer-flight/1"

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


class FlightRecorder:
    """An always-on bounded ring of serve lifecycle events.

    ``capacity`` bounds the ring; ``incident_dir`` is where incident
    dumps land — without one an incident is only marked in the ring
    (``incident-dump``), never written: a recorder nobody pointed at a
    directory must not litter the working directory.  Recording is
    thread-safe — events arrive from the event loop, batch executor
    threads, and the supervisor's monitor thread.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 2048,
        *,
        incident_dir: str | Path | None = None,
        incident_interval: float = 30.0,
    ):
        if capacity < 1:
            raise ValueError("FlightRecorder capacity must be >= 1")
        self.capacity = capacity
        self.incident_dir = Path(incident_dir) if incident_dir else None
        self.incident_interval = incident_interval
        self._ring: deque[str] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.recorded = 0
        self.absorbed = 0
        self.incidents = 0
        self._last_incident: dict[str, float] = {}

    # -- recording ----------------------------------------------------------

    def record(self, event_type: str, request_id: str | None = None, **fields) -> None:
        """Record one event; serialized immediately, held as a string."""
        event = {"ts": round(time.time(), 6), "type": event_type}
        if request_id:
            event["id"] = request_id
        if fields:
            event.update(fields)
        # Serialize outside the lock; only the seq stamp and append need it.
        line = json.dumps(event, separators=(",", ":"), sort_keys=True, default=str)
        with self._lock:
            self._seq += 1
            self.recorded += 1
            # Splice the seq in front without re-serializing the payload.
            self._ring.append('{"seq":%d,%s' % (self._seq, line[1:]))

    def splice(self, line: str) -> None:
        """Append one pre-serialized event line — the zero-JSON hot path.

        The serve core serializes each request's access-log line exactly
        once and splices the same string here, so a finished request
        costs the ring a lock and a deque append, nothing more.
        """
        with self._lock:
            self._ring.append(line)
            self.absorbed += 1

    def absorb(self, lines) -> None:
        """Splice pre-serialized event lines (a worker's batch) into the ring.

        Lines are appended as-is — workers stamp their own ``worker``/
        ``pid`` fields and their seq numbers are local to the worker —
        so absorption costs one deque append per line, no JSON work.
        """
        with self._lock:
            for line in lines:
                if isinstance(line, str) and line.startswith("{"):
                    self._ring.append(line)
                    self.absorbed += 1

    def drain_lines(self) -> list[str]:
        """Pop every buffered line (worker side: ship with the result frame)."""
        with self._lock:
            lines = list(self._ring)
            self._ring.clear()
            return lines

    # -- inspection ---------------------------------------------------------

    def snapshot_lines(self) -> list[str]:
        with self._lock:
            return list(self._ring)

    def events(
        self,
        *,
        request_id: str | None = None,
        types=None,
        since: float | None = None,
        until: float | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """Decoded ring events, oldest first, optionally filtered.

        ``types`` is an iterable of event type names; ``since``/``until``
        bound the wall-clock ``ts``; ``limit`` keeps the *newest* N
        matches (the interesting end of an incident).
        """
        wanted = frozenset(types) if types else None
        matched: list[dict] = []
        for line in self.snapshot_lines():
            try:
                event = json.loads(line)
            except ValueError:  # pragma: no cover - absorb() filters junk
                continue
            if request_id is not None and event.get("id") != request_id:
                continue
            if wanted is not None and event.get("type") not in wanted:
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

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "events": len(self._ring),
                "recorded": self.recorded,
                "absorbed": self.absorbed,
                "incidents": self.incidents,
            }

    # -- incident dumps ------------------------------------------------------

    def dump_incident(
        self, reason: str, trigger: dict | None = None
    ) -> Path | None:
        """Dump the ring to a timestamped incident file; returns its path.

        The first line is a header (``format``, ``reason``, ``ts``,
        ``pid``, and the ``trigger`` event that caused the dump); the
        rest is the ring, oldest first.  Dumps for the same reason are
        rate-limited to one per ``incident_interval`` seconds — a breaker
        flapping under sustained overload must not fill the disk —
        in which case None is returned.  With no ``incident_dir`` the
        ``incident-dump`` event still lands in the ring (readable via
        ``GET /debug/flight``) but no file is written and None is returned.
        """
        now = time.monotonic()
        with self._lock:
            last = self._last_incident.get(reason)
            if last is not None and now - last < self.incident_interval:
                return None
            self._last_incident[reason] = now
        self.record("incident-dump", reason=reason)
        directory = self.incident_dir
        if directory is None:
            return None
        try:
            directory.mkdir(parents=True, exist_ok=True)
            stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
            path = directory / f"flight-{stamp}-{reason}-{os.getpid()}.jsonl"
            header = {
                "format": FLIGHT_FORMAT,
                "reason": reason,
                "ts": round(time.time(), 6),
                "pid": os.getpid(),
                "trigger": trigger,
            }
            with open(path, "w", encoding="utf-8") as stream:
                stream.write(json.dumps(header, sort_keys=True, default=str) + "\n")
                for line in self.snapshot_lines():
                    stream.write(line + "\n")
        except OSError:  # the dump is best-effort; never take serving down
            return None
        with self._lock:
            self.incidents += 1
        return path


class NullFlightRecorder(FlightRecorder):
    """The disabled recorder: every operation is a no-op."""

    enabled = False

    def __init__(self):
        super().__init__(capacity=1)

    def record(self, event_type, request_id=None, **fields):
        pass

    def splice(self, line):
        pass

    def absorb(self, lines):
        pass

    def dump_incident(self, reason, trigger=None):
        return None


NULL_FLIGHT = NullFlightRecorder()

_current: FlightRecorder = NULL_FLIGHT


def get_flight_recorder() -> FlightRecorder:
    """The recorder instrumented serve code should report to right now."""
    return _current


def set_flight_recorder(recorder: FlightRecorder | None) -> FlightRecorder:
    """Install ``recorder`` (None restores the null one); returns the
    previously installed one so callers can restore it."""
    global _current
    previous = _current
    _current = recorder if recorder is not None else NULL_FLIGHT
    return previous


@contextmanager
def use_flight_recorder(recorder: FlightRecorder | None = None):
    """Temporarily install a recorder (a fresh one if none is given)."""
    if recorder is None:
        recorder = FlightRecorder()
    previous = set_flight_recorder(recorder)
    try:
        yield recorder
    finally:
        set_flight_recorder(previous)


def read_flight_events(path: str | Path) -> tuple[dict, list[dict]]:
    """Read an incident/flight dump back: ``(header, events)``.

    Tolerates a truncated final line (the process died mid-write) the
    way :func:`repro.obs.trace.read_trace_events` does; raises
    ``ValueError`` when the header is missing or of an unknown format.
    """
    header: dict | None = None
    events: list[dict] = []
    with open(path, encoding="utf-8") as stream:
        for raw in stream:
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # truncated tail from a dying process
            if header is None:
                header = record
                if header.get("format") != FLIGHT_FORMAT:
                    raise ValueError(
                        f"not a flight recording: format={header.get('format')!r}"
                    )
                continue
            events.append(record)
    if header is None:
        raise ValueError(f"empty flight recording: {path}")
    return header, events
