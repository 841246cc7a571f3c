"""``repro.serve`` — the resident verification service (``rpslyzer serve``).

The batch pipeline answers "does this route conform to registry policy?"
by paying process startup, IR load, and index adoption on every
invocation.  This package keeps all of that *resident*: a long-running
asyncio daemon loads the IR once through :func:`repro.api.open_session`,
adopts the digest-cached :class:`~repro.core.compiled.CompiledIndex`, and
answers verification queries warm over two front-ends:

* an HTTP/JSON endpoint — ``POST /verify``, ``POST /explain``,
  ``GET /healthz``, ``GET /metrics`` (Prometheus exposition text),
  ``GET /debug/flight`` (the flight ring's events);
* the WHOIS-style line protocol the IRRs themselves speak, extended with
  a ``!v <prefix> <asn> <asn>...`` verification command.

Both front-ends dispatch into one request core
(:class:`~repro.serve.core.VerifyService`, which owns the bounded queue,
the execution slots and all of their bookkeeping on the event loop): a
query runs the moment an execution slot is free — queries that arrive
while a batch executes are coalesced into the next one, and a client
that sends one request at a time never waits on a timer — on a warm
verifier, on the event loop itself when there is no worker pool; every request
carries a deadline and is admitted only while that deadline can
plausibly be met (otherwise HTTP 429 / ``%% BUSY``), the queue is
bounded, and SIGTERM drains in-flight work before exiting.  With
``ServeConfig(workers=N)`` the batches execute on a supervised pool of
warm worker processes (:mod:`repro.core.pool`, the one bulk
``verify_table`` uses): heartbeat health checks, SIGKILL + respawn of
hung/crashed workers under a restart budget, an immediate hand-back of
every batch while no worker is live, and graceful degradation to the
in-process serial path when the budget is spent.  See
``docs/serving.md``.

Every request is observable end to end (:mod:`repro.serve.telemetry`):
a correlation id (honouring a client ``X-Request-Id``) is threaded from
the front-end through the request core and into the worker processes, echoed
back on the response, and stamped on every log, metric, and flight event
the request touches; per-stage latency (accept → queue → coalesce →
dispatch → execute → respond) lands in ``serve_stage_seconds`` histograms
and an optional JSONL access log with slow-query promotion.  The flight
ring (an :class:`~repro.obs.events.EventLog`) keeps an always-on bounded
record of requests and lifecycle events (worker churn, reloads, sheds)
and dumps it to timestamped incident files on pool collapse and
SIGQUIT — inspect live via ``GET /debug/flight`` or offline via
``rpslyzer debug``.

Programmatic use::

    from repro import api
    from repro.obs import MetricsRegistry
    from repro.serve import ServeConfig, ServeDaemon

    session = api.open_session("dumps/", as_rel="as-rel.txt",
                               registry=MetricsRegistry())
    with ServeDaemon(session, ServeConfig(http_port=0)).start_in_thread() as handle:
        ...  # query http://127.0.0.1:<handle.http_port>/verify
"""

from repro.core.pool import SupervisorConfig, WorkerSupervisor
from repro.serve.core import (
    BadRequestError,
    BusyError,
    DeadlineExpired,
    Query,
    ServeConfig,
    ServeError,
    VerifyService,
    report_as_dict,
)
from repro.serve.daemon import ServeDaemon, ServeHandle

__all__ = [
    "BadRequestError",
    "BusyError",
    "DeadlineExpired",
    "Query",
    "ServeConfig",
    "ServeDaemon",
    "ServeError",
    "ServeHandle",
    "SupervisorConfig",
    "VerifyService",
    "WorkerSupervisor",
    "report_as_dict",
]
