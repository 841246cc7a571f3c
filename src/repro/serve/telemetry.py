"""Request-scoped serve telemetry: stage timings and the request event.

One :class:`RequestTelemetry` rides along with each request from the
front-end through the request core and back, collecting monotonic marks
at every hand-off.  The serve core turns the marks into the per-stage
latency breakdown (``serve_stage_seconds{stage=}`` histograms and the
``stages_ms`` block of each ``request`` event):

* ``accept``   — front-end receipt → enqueued on the service's queue
  (parse, validation, admission checks);
* ``queue``    — enqueued → pulled off the queue by a slot, which
  happens the moment an execution slot is free (a slot stays closed for
  the coalescing period after a batch of more than one item);
* ``coalesce`` — pulled → the batch it joined was admitted: nothing
  unless a chaos batch fault ran first, off the loop (the name is from
  when a timer sat here);
* ``dispatch`` — waiting for a pool worker lease;
* ``execute``  — the batch executing, wherever it ran (pipe round-trip
  + verification in a worker, or verification on the loop, including
  its wait for a session patch in flight);
  dispatch/execute are measured per *batch* and attributed to every
  request in it — the requests coalesced precisely so they would share
  those costs;
* ``respond``  — everything after execution: future delivery, response
  serialization bookkeeping.  Computed as the remainder of the total,
  so the stages always sum to the end-to-end latency.

A finished request is one ``request`` event (:meth:`RequestTelemetry.line`:
``{"ts", "kind", "ids", "frontend", "endpoint", "outcome", "verdicts",
"total_ms", "stages_ms"}``) that the serve core splices into the flight
ring, the access log and — at or above ``slow_ms`` — the slow-query log,
all :class:`~repro.obs.events.EventLog`\\ s, so tail latency is greppable
without replaying the main log.
"""

from __future__ import annotations

import json
import time

__all__ = ["RequestTelemetry", "STAGES"]

STAGES = ("accept", "queue", "coalesce", "dispatch", "execute", "respond")


class RequestTelemetry:
    """Per-request correlation id plus stage timing marks.

    Marks are ``time.monotonic()`` values; ``dispatch_s``/``execute_s``
    are explicit batch-level durations set by the execution path.  The
    object is mutated on the event loop only, so no lock is needed.
    """

    __slots__ = (
        "request_id",
        "frontend",
        "endpoint",
        "wall_start",
        "accepted",
        "submitted",
        "collected",
        "admitted",
        "finished",
        "dispatch_s",
        "execute_s",
        "outcome",
        "verdicts",
        "done",
    )

    def __init__(self, request_id: str, frontend: str, endpoint: str = ""):
        self.request_id = request_id
        self.frontend = frontend
        self.endpoint = endpoint
        self.wall_start = time.time()
        self.accepted = time.monotonic()
        self.submitted: float | None = None
        self.collected: float | None = None
        self.admitted: float | None = None
        self.finished: float | None = None
        self.dispatch_s: float | None = None
        self.execute_s: float | None = None
        self.outcome: str | None = None
        self.verdicts = 0
        self.done = False

    def mark_submitted(self) -> None:
        self.submitted = time.monotonic()

    def mark_collected(self) -> None:
        self.collected = time.monotonic()

    def mark_admitted(self) -> None:
        self.admitted = time.monotonic()

    @property
    def queue_wait(self) -> float:
        """Seconds spent between submission and now (refusals/expiries)."""
        origin = self.submitted if self.submitted is not None else self.accepted
        return max(0.0, time.monotonic() - origin)

    def finish(self, outcome: str, verdicts: int = 0) -> bool:
        """Close the request once; returns False on a repeat call."""
        if self.done:
            return False
        self.done = True
        self.finished = time.monotonic()
        self.outcome = outcome
        self.verdicts = verdicts
        return True

    def stage_values(self) -> tuple[float, float, float, float, float, float]:
        """Per-stage seconds in :data:`STAGES` order — the hot-path form.

        Stages a refused request never reached are 0.  ``respond`` is
        the remainder of the end-to-end latency after the measured
        stages, clamped at zero, so the breakdown always sums to the
        total the client saw.  A tuple of locals instead of a dict: the
        finish path runs this once per request and feeds the values to
        both the stage histograms and :meth:`line`.
        """
        end = self.finished if self.finished is not None else time.monotonic()
        total = end - self.accepted
        if total < 0.0:
            total = 0.0
        submitted, collected, admitted = self.submitted, self.collected, self.admitted
        accept = total if submitted is None else max(0.0, submitted - self.accepted)
        queue = (
            max(0.0, collected - submitted)
            if collected is not None and submitted is not None
            else 0.0
        )
        coalesce = 0.0
        if admitted is not None:
            origin = collected if collected is not None else submitted
            if origin is not None:
                coalesce = max(0.0, admitted - origin)
        dispatch = max(0.0, self.dispatch_s) if self.dispatch_s is not None else 0.0
        execute = max(0.0, self.execute_s) if self.execute_s is not None else 0.0
        respond = max(0.0, total - (accept + queue + coalesce + dispatch + execute))
        return (accept, queue, coalesce, dispatch, execute, respond)

    def stages(self) -> dict[str, float]:
        """Per-stage seconds keyed by stage name (:meth:`stage_values`)."""
        return dict(zip(STAGES, self.stage_values()))

    def line(self, generation: int, values: tuple | None = None) -> str:
        """The ``request`` event (the module docstring's schema), serialized.

        Hand-formatted instead of ``json.dumps``: the id is validated to
        the header-safe token alphabet, and frontend/outcome are
        server-chosen tokens, so only the client-controlled endpoint
        needs real JSON escaping.  One string serves every log it is
        spliced into, so a finished request serializes exactly once.
        ``generation`` is the index generation the request finished
        under.  The caller may pass the :meth:`stage_values` tuple it
        already computed for the histograms so the stage math runs once
        per request, not twice.
        """
        if values is None:
            values = self.stage_values()
        accept, queue, coalesce, dispatch, execute, respond = values
        endpoint = self.endpoint
        return (
            '{"ts":%.6f,"kind":"request","ids":{"request":"%s","generation":%d},'
            '"frontend":"%s","endpoint":%s,"outcome":"%s","verdicts":%d,'
            '"total_ms":%.3f,"stages_ms":{"accept":%.3f,"queue":%.3f,'
            '"coalesce":%.3f,"dispatch":%.3f,"execute":%.3f,"respond":%.3f}}'
            % (
                self.wall_start,
                self.request_id,
                generation,
                self.frontend,
                # Endpoints are almost always bare serve tokens
                # ("verify", "!v"); full JSON escaping only when not.
                '"%s"' % endpoint
                if endpoint.replace("!", "").replace("/", "").isalnum()
                else json.dumps(endpoint),
                self.outcome or "unknown",
                self.verdicts,
                # respond is the clamped remainder, so the stages sum to
                # the end-to-end total by construction.
                (accept + queue + coalesce + dispatch + execute + respond)
                * 1000.0,
                accept * 1000.0,
                queue * 1000.0,
                coalesce * 1000.0,
                dispatch * 1000.0,
                execute * 1000.0,
                respond * 1000.0,
            )
        )
