"""Decision-provenance tracing: who decided what, for sampled routes.

The paper's verdicts are *attributable* — every hop classification traces
back to an aut-num rule, a filter term, a relaxation tier, or a safelisted
relationship.  This module records that chain as ``route`` and ``hop``
events in an :class:`~repro.obs.events.EventLog` so a surprising verdict
can be explained after the fact (``rpslyzer explain``, ``rpslyzer trace``)
instead of re-running under a debugger.  It decides *what* is sampled and
builds the payloads; how an event is stored, shipped and read back is
:mod:`repro.obs.events`' business.

Sampling keeps the layer bounded on bulk runs:

* **head sampling** — a seeded, content-keyed 1-in-N decision per route
  (:func:`route_trace_id` hashes ⟨collector, peer, prefix, path⟩ with the
  seed, so serial and parallel runs sample the *same* routes);
* **tail sampling** — routes whose verdicts include a status in
  ``trace_statuses`` (default: ``unverified``) are always kept, decided
  after verification from the buffered hop reports.

Head-sampled routes emit every hop; tail-sampled routes emit only their
*evidence* hops (the ones whose status is in ``trace_statuses``) plus the
route event carrying the full verdict census — the hop that forced the
route to be kept is the explanation, and skipping the rest is what keeps
default-sampled tracing within a few percent of untraced wall time on
worlds where mismatches are common.

The deep filter-evaluation chain (every :class:`~repro.core.filter_match.
Eval` combinator step) is recorded only for head-sampled routes and only
on hop-cache misses; everything else in an event derives from the
immutable :class:`~repro.core.report.HopReport`, so tracing never changes
what verification computes.

Zero cost when disabled: the module-level default is :data:`NULL_TRACER`
(same trick as :class:`~repro.obs.metrics.NullRegistry`) and the verifier
hoists one ``is None`` check per route.

Multiprocess collection: a pool worker's tracer emits into the worker's
event log, whose lines ride back in the chunk's result frame; the parent
:meth:`Tracer.absorb`\\ s them when it accepts that result.  A chunk's
events therefore arrive exactly once — a killed worker's partial events
die with its chunk, and the retry (or the in-process fallback) emits the
same content-keyed events again.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.obs.events import EVENT_FORMAT, NULL_EVENTS, EventLog
from repro.obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.bgp.table import RouteEntry
    from repro.core.report import HopReport, RouteReport

__all__ = [
    "TraceConfig",
    "RouteTrace",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "route_trace_id",
    "event_sort_key",
    "canonical_events",
    "summarize_events",
]

# What legitimately differs between serial and parallel runs of the same
# table: when and in which process the event was emitted (``ts`` and every
# id but the content-keyed ones), from which chunk, under which span,
# whether the memo cache answered, and the deep chain (only collected on
# cache misses).  Everything else is a pure function of the route and its
# HopReports, so stripping these yields a run-invariant view.
_VOLATILE_FIELDS = frozenset({"ts", "ids", "chunk", "phase", "cached", "chain"})
_STABLE_IDS = ("request", "route")

# Bound of each string-conversion memo below; cleared wholesale when
# reached, mirroring the verifier's own hop-cache policy.
_MEMO_MAX = 1 << 16

# status -> label, built on first use: importing repro.core.status at
# module scope would cycle (core.verify imports this module).
_STATUS_LABELS: dict | None = None


def _status_labels() -> dict:
    global _STATUS_LABELS
    if _STATUS_LABELS is None:
        from repro.core.status import VerifyStatus

        _STATUS_LABELS = {status: status.label for status in VerifyStatus}
    return _STATUS_LABELS


@dataclass(frozen=True, slots=True)
class TraceConfig:
    """Sampling and bounding knobs for a :class:`Tracer`.

    ``sample_rate`` is the head-sampling rate (1-in-N; ``1`` traces every
    route); ``trace_statuses`` are hop status labels that force a route to
    be kept regardless of head sampling; ``deep`` additionally records the
    filter-evaluation path for head-sampled routes; ``max_events`` caps the
    total events a tracer will hold/emit (the rest are counted as dropped).
    """

    sample_rate: int = 128
    trace_statuses: frozenset[str] = frozenset({"unverified"})
    deep: bool = True
    max_events: int = 250_000
    seed: int = 0


# The id key's components recur heavily across a routing table — the same
# prefix from every collector/peer, the same AS path for every prefix an
# origin announces — so each conversion is memoized (bounded, content-
# keyed, therefore identical in every process).
_PREFIX_STRS: dict = {}
_PATH_STRS: dict = {}
_INT_STRS: dict = {}


def _prefix_str(prefix) -> str:
    text = _PREFIX_STRS.get(prefix)
    if text is None:
        if len(_PREFIX_STRS) >= _MEMO_MAX:
            _PREFIX_STRS.clear()
        _PREFIX_STRS[prefix] = text = str(prefix)
    return text


def _path_str(as_path: tuple) -> str:
    text = _PATH_STRS.get(as_path)
    if text is None:
        if len(_PATH_STRS) >= _MEMO_MAX:
            _PATH_STRS.clear()
        _PATH_STRS[as_path] = text = ",".join(map(str, as_path))
    return text


def _int_str(value: int) -> str:
    text = _INT_STRS.get(value)
    if text is None:
        if len(_INT_STRS) >= _MEMO_MAX:
            _INT_STRS.clear()
        _INT_STRS[value] = text = str(value)
    return text


def route_trace_id(entry: "RouteEntry", seed: int = 0) -> str:
    """A stable 64-bit id for one observed route (hex, 16 chars).

    Content-keyed (collector, peer, prefix, AS-path) plus the sampling
    seed — never process- or run-dependent — so every worker, the serial
    fallback, and a replay all agree on the id *and* on the head-sampling
    decision derived from it.
    """
    key = "|".join(
        (
            entry.collector,
            _int_str(entry.peer_asn),
            _prefix_str(entry.prefix),
            _path_str(entry.as_path),
            _int_str(seed),
        )
    )
    return hashlib.blake2b(key.encode("utf-8"), digest_size=8).hexdigest()


class RouteTrace:
    """Per-route trace state; hops are buffered for head samples only.

    Tail-sampled routes need no per-hop buffering: the keep/drop decision
    and the evidence hops both come straight from the immutable
    ``RouteReport`` at commit time, which is what makes tracing nearly
    free for the unsampled majority of routes.  ``wanted`` is the tail
    statuses (as :class:`~repro.core.status.VerifyStatus` members)
    snapshotted from the tracer's config.
    """

    __slots__ = ("trace_id", "head", "deep", "wanted", "hops")

    def __init__(
        self,
        trace_id: str,
        head: bool,
        deep: bool,
        wanted: frozenset = frozenset(),
    ):
        self.trace_id = trace_id
        self.head = head
        self.deep = deep
        self.wanted = wanted
        self.hops: list[tuple["HopReport", bool, tuple[str, ...]]] = []

    def add_hop(
        self,
        report: "HopReport",
        cached: bool,
        chain: list[str] | None,
    ) -> None:
        self.hops.append((report, cached, tuple(chain) if chain else ()))


# span, seq, the report's fragment, what a head sample captured live, and
# the route's envelope tail (which closes the object).
_HOP_LINE = '{"kind":"hop","span":"%s:%02d","seq":%d,%s%s%s'


class Tracer:
    """Collects decision-provenance events for sampled routes.

    Events go to ``log`` (a private in-memory :class:`EventLog` unless the
    caller shares one — a pool worker's tracer emits into the log its
    result frames drain).  ``ids`` are envelope ids stamped on every event
    next to the route's own: a worker's pid, the request and generation an
    ``/explain`` answers under.  ``chunk_id`` stamps the table chunk.
    """

    enabled = True

    def __init__(
        self,
        config: TraceConfig | None = None,
        *,
        log: EventLog | None = None,
        ids: dict | None = None,
    ):
        self.config = config if config is not None else TraceConfig()
        self.log = log if log is not None else EventLog()
        # The caller's ids as they continue an event's ``"ids":{"route":…``.
        self._ids_tail = "".join(
            ',"%s":%s' % (name, json.dumps(value))
            for name, value in (ids or {}).items()
            if value is not None
        )
        self.chunk_id: int | None = None
        self.emitted = 0
        self.dropped = 0
        self.sampled = {"head": 0, "verdict": 0}
        self._wanted: frozenset | None = None

    @property
    def events(self) -> list[dict]:
        """The log's events, decoded; each call returns a fresh list."""
        return self.log.events()

    # -- the verifier-facing surface ------------------------------------

    def route(self, entry: "RouteEntry") -> RouteTrace | None:
        """Start buffering one route; None means "do not trace this route".

        Returns a buffer whenever the route is head-sampled *or* tail
        sampling is configured (the keep/drop decision then waits for the
        verdicts in :meth:`commit`).
        """
        config = self.config
        wanted = self._wanted
        if wanted is None:
            labels = _status_labels()
            wanted = self._wanted = frozenset(
                status
                for status, label in labels.items()
                if label in config.trace_statuses
            )
        trace_id = route_trace_id(entry, config.seed)
        head = config.sample_rate <= 1 or int(trace_id, 16) % config.sample_rate == 0
        if not head and not wanted:
            return None
        return RouteTrace(trace_id, head, head and config.deep, wanted)

    def commit(self, trace: RouteTrace, report: "RouteReport") -> bool:
        """Emit the route if sampling keeps it; returns whether.

        Head samples emit every buffered hop (with cache/chain capture);
        tail samples are decided — and their evidence hops gathered —
        directly from the report's immutable hops, so the unsampled
        majority of routes pays one status scan here and nothing per hop
        during verification.
        """
        hops = report.hops
        wanted = trace.wanted
        head = trace.head
        if head:
            reason = "head"
        else:
            for hop in hops:
                if hop.status in wanted:
                    break
            else:
                return False
            reason = "verdict"
        self.sampled[reason] += 1
        trace_id = trace.trace_id
        entry = report.entry
        labels = _status_labels()
        counts: dict = {}
        for hop in hops:
            status = hop.status
            counts[status] = counts.get(status, 0) + 1
        # The envelope and the volatile stamps (chunk, active span path) are
        # the same for every event of the route: one fragment, spelled by
        # hand (ids are hex strings and integers) and appended to each.
        tail = ',"ids":{"route":"%s"%s},"ts":%.6f' % (trace_id, self._ids_tail, time.time())
        if self.chunk_id is not None:
            tail += ',"chunk":%d' % self.chunk_id
        phase = get_registry().spans.current_path()
        if phase:
            tail += ',"phase":' + json.dumps(phase)
        tail += "}"
        event = {
            "kind": "route",
            "sampled": reason,
            "collector": entry.collector,
            "peer": entry.peer_asn,
            "prefix": _prefix_str(entry.prefix),
            "as_path": list(entry.as_path),
            "verdicts": {labels[status]: n for status, n in sorted(counts.items())},
        }
        if report.ignored is not None:
            event["ignored"] = report.ignored
        lines = [_dumps(event)[:-1] + tail]
        # A hop line needs no dict and no dump: the report-derived body is a
        # fragment rendered once per report.  A head sample adds what it
        # captured live; a tail sample keeps only its evidence hops.
        if head:
            for seq, (hop, cached, chain) in enumerate(trace.hops):
                live = ',"cached":true' if cached else ',"cached":false'
                if chain:
                    live += ',"chain":' + _dumps(chain)
                lines.append(
                    _HOP_LINE % (trace_id, seq, seq, hop.trace_fragment(), live, tail)
                )
        else:
            for seq, hop in enumerate(hops):
                if hop.status in wanted:
                    lines.append(
                        _HOP_LINE % (trace_id, seq, seq, hop.trace_fragment(), "", tail)
                    )
        self.absorb(lines)
        return True

    def absorb(self, lines: list[str]) -> None:
        """Take finished event lines — a committed route's, or those of a
        chunk a pool worker traced — up to the ``max_events`` bound."""
        room = max(0, self.config.max_events - self.emitted)
        if len(lines) > room:
            self.dropped += len(lines) - room
            lines = lines[:room]
        self.emitted += len(lines)
        self.log.absorb(lines)

    def write(self, destination: str | Path) -> None:
        """Write the events as JSONL in stable order (:func:`event_sort_key`)."""
        self.log.write(destination, key=event_sort_key)

    def stats(self) -> dict:
        return {
            "format": EVENT_FORMAT,
            "events": self.emitted,
            "dropped": self.dropped,
            "sampled": dict(self.sampled),
            "sample_rate": self.config.sample_rate,
            "seed": self.config.seed,
        }


class NullTracer(Tracer):
    """The disabled tracer: never samples, never emits, never allocates."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(
            TraceConfig(sample_rate=0, trace_statuses=frozenset()), log=NULL_EVENTS
        )

    def route(self, entry: "RouteEntry") -> RouteTrace | None:
        return None

    def commit(self, trace: RouteTrace, report: "RouteReport") -> bool:
        return False


NULL_TRACER = NullTracer()

# Scoped per thread and per asyncio task, like the metrics registry
# (repro.obs.metrics says how a thread or task inherits it).
_current: ContextVar[Tracer] = ContextVar("repro_tracer", default=NULL_TRACER)


def get_tracer() -> Tracer:
    """The tracer instrumented code should report to right now."""
    return _current.get()


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` (None restores the null tracer) in the current
    context; returns the previously installed one so callers can restore it."""
    previous = _current.get()
    _current.set(tracer if tracer is not None else NULL_TRACER)
    return previous


@contextmanager
def use_tracer(tracer: Tracer | None = None):
    """Temporarily install a tracer (a fresh default one if none given);
    the context variable is reset by token on exit."""
    if tracer is None:
        tracer = Tracer()
    token = _current.set(tracer)
    try:
        yield tracer
    finally:
        _current.reset(token)


# -- event utilities ---------------------------------------------------------


def _dumps(event: dict) -> str:
    return json.dumps(event, separators=(",", ":"), sort_keys=True)


def event_sort_key(event: dict) -> tuple:
    """Stable output order: by route id, route before hops, then seq."""
    return (
        event["ids"].get("route") or "",
        0 if event.get("kind") == "route" else 1,
        event.get("seq", -1),
    )


def canonical_events(events: Iterable[dict]) -> list[dict]:
    """A run-invariant view: volatile fields stripped, stable order.

    Two runs of the same table with the same :class:`TraceConfig` — serial,
    parallel, or parallel with workers dying — canonicalize to the same
    list; the differential tests assert exactly that.
    """
    stripped = (
        {
            **{key: value for key, value in event.items() if key not in _VOLATILE_FIELDS},
            "ids": {key: event["ids"][key] for key in _STABLE_IDS if key in event["ids"]},
        }
        for event in events
    )
    return sorted(stripped, key=event_sort_key)


def summarize_events(events: Iterable[dict]) -> dict:
    """Aggregate a trace into the figures ``rpslyzer trace`` prints."""
    routes = 0
    hops = 0
    sampled: dict[str, int] = {}
    hop_status: dict[str, int] = {}
    evidence: dict[str, int] = {}
    workers: set = set()
    for event in events:
        kind = event.get("kind")
        if kind == "route":
            routes += 1
            reason = event.get("sampled", "?")
            sampled[reason] = sampled.get(reason, 0) + 1
        elif kind == "hop":
            hops += 1
            status = event.get("status", "?")
            hop_status[status] = hop_status.get(status, 0) + 1
            for item in event.get("items", ()):
                name = str(item).split("(", 1)[0]
                evidence[name] = evidence.get(name, 0) + 1
        worker = event.get("ids", {}).get("worker")
        if worker is not None:
            workers.add(worker)
    top_evidence = sorted(evidence.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    return {
        "routes": routes,
        "hops": hops,
        "sampled": sampled,
        "hop_status": hop_status,
        "top_evidence": top_evidence,
        "workers": len(workers),
    }
