"""The chaos harness: drive every mutator and fault, report degradation.

:func:`run_chaos` builds a seeded synthetic world, damages its dumps and
route table with every mutator in the catalogue, kills a verification
worker mid-run, puts a flaky proxy in front of the WHOIS front-end, shuts
it down with a slow client attached, and floods the resident serve daemon
past its queue bound — then asserts the pipeline's resilience contract
on each: **no crash, no hang, bounded memory, and a structured account
of what was lost**.  The
result is a :class:`ChaosReport`: pass/fail checks plus the aggregated
:class:`~repro.core.degradation.DegradationReport`.

Everything derives from one seed, so ``rpslyzer chaos --seed 42`` is a
deterministic regression gate (CI runs it as the ``chaos-smoke`` job).
"""

from __future__ import annotations

import gzip
import http.client
import json
import random
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import Session
from repro.bgp.routegen import collector_routes
from repro.bgp.table import parse_table_text, route_entry_lines
from repro.chaos.faults import (
    FlakyTcpProxy,
    HungWorker,
    KillServeWorker,
    KillWorkerChunk,
    SlowClient,
    hang_a_worker_at,
)
from repro.chaos.mutators import DUMP_MUTATORS, TABLE_MUTATORS
from repro.core.degradation import DegradationReport
from repro.faultplan import use_faults
from repro.irr.dump import parse_dump_file, parse_dump_text
from repro.irr.synth import build_world, default_config, tiny_config
from repro.irr.whois import whois_query
from repro.obs.trace import (
    TraceConfig,
    Tracer,
    canonical_events,
    route_trace_id,
    use_tracer,
)
from repro.rpsl.errors import ErrorKind
from repro.rpsl.lexer import LexLimits

__all__ = ["ChaosCheck", "ChaosReport", "run_chaos", "CHAOS_LIMITS"]

# Tight ingestion caps so the oversized mutator actually trips them (the
# production defaults allow 16 MB objects; chaos wants the drop path).
CHAOS_LIMITS = LexLimits(
    max_object_lines=2000, max_object_bytes=256 << 10, max_line_bytes=128 << 10
)


@dataclass(slots=True)
class ChaosCheck:
    """One assertion of the resilience contract."""

    name: str
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict:
        """JSON-able form of the check."""
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(slots=True)
class ChaosReport:
    """Everything one chaos run established."""

    seed: int
    preset: str
    checks: list[ChaosCheck] = field(default_factory=list)
    degradation: DegradationReport = field(default_factory=DegradationReport)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return all(check.ok for check in self.checks)

    def as_dict(self) -> dict:
        """JSON-able form of the whole run."""
        return {
            "seed": self.seed,
            "preset": self.preset,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
            "checks": [check.as_dict() for check in self.checks],
            "degradation": self.degradation.as_dict(),
        }

    def render(self) -> str:
        """A human-readable run summary."""
        lines = [
            f"chaos run: seed={self.seed} preset={self.preset} "
            f"checks={len(self.checks)} elapsed={self.elapsed_s:.1f}s"
        ]
        for check in self.checks:
            mark = "ok  " if check.ok else "FAIL"
            detail = f" — {check.detail}" if check.detail else ""
            lines.append(f"  {mark} {check.name}{detail}")
        lines.append(f"degradation ({len(self.degradation)} events):")
        for key, count in sorted(self.degradation.by_kind().items()):
            lines.append(f"  {key}: {count}")
        lines.append("result: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _rng_for(seed: int, name: str) -> random.Random:
    # str seeding hashes the bytes (PYTHONHASHSEED-independent), so every
    # mutator gets its own deterministic stream.
    return random.Random(f"{seed}:{name}")


def run_chaos(
    seed: int = 42,
    preset: str = "tiny",
    processes: int = 2,
    only: str | None = None,
) -> ChaosReport:
    """Run the fault-injection suite against a seeded world.

    ``only="serve-supervisor"`` runs just the serve worker-pool layer
    (SIGKILL and SIGSTOP faults under flood) — the CI ``chaos-serve``
    job; ``None`` runs everything.
    """
    started = time.monotonic()
    report = ChaosReport(seed=seed, preset=preset)
    check = report.checks.append

    config = tiny_config(seed) if preset == "tiny" else default_config(seed)
    world = build_world(config)
    if only == "serve-supervisor":
        entries = list(
            collector_routes(world.topology, world.announced, world.collectors)
        )
        report.degradation.merge(
            _serve_supervisor_layer(check, world.merged_ir(), world, entries)
        )
        report.elapsed_s = time.monotonic() - started
        return report
    if only is not None:
        raise ValueError(f"unknown chaos layer {only!r} (try 'serve-supervisor')")
    # The largest dump gives the mutators the most structure to damage.
    irr = max(world.irr_dumps, key=lambda name: len(world.irr_dumps[name]))
    clean_text = world.irr_dumps[irr]
    clean_ir, clean_errors = parse_dump_text(clean_text, source=irr, limits=CHAOS_LIMITS)
    clean_objects = sum(clean_ir.counts().values())

    with tempfile.TemporaryDirectory(prefix="rpslyzer-chaos-") as tmp:
        tmpdir = Path(tmp)

        # -- layer 1: ingestion under every dump mutator --------------------
        for name, mutator in DUMP_MUTATORS.items():
            damaged = mutator(_rng_for(seed, name), clean_text)
            path = tmpdir / f"{irr.lower()}-{name}.db"
            path.write_bytes(damaged)
            try:
                ir, errors = parse_dump_file(path, source=irr, limits=CHAOS_LIMITS)
            except Exception as exc:  # noqa: BLE001 - the contract under test
                check(ChaosCheck(f"ingest/{name}", False, f"raised {exc!r}"))
                continue
            kinds = errors.count_by_kind()
            for kind, count in kinds.items():
                report.degradation.record("ingest", kind.value, name, count)
            objects = sum(ir.counts().values())
            detail = f"{objects} objects, {len(errors)} issues"
            check(ChaosCheck(f"ingest/{name}", True, detail))
            if name == "truncate-mid-paragraph":
                check(
                    ChaosCheck(
                        "ingest/truncation-recorded",
                        ErrorKind.TRUNCATED in kinds,
                        "final partial paragraph dropped and recorded",
                    )
                )
            if name == "oversized-paragraph":
                check(
                    ChaosCheck(
                        "ingest/oversized-bounded-memory",
                        ErrorKind.OVERSIZED in kinds and objects <= clean_objects,
                        "over-cap object dropped without buffering it whole",
                    )
                )

        # -- gzip transparency ----------------------------------------------
        gz_path = tmpdir / f"{irr.lower()}.db.gz"
        with gzip.open(gz_path, "wt", encoding="utf-8") as stream:
            stream.write(clean_text)
        gz_ir, gz_errors = parse_dump_file(gz_path, source=irr, limits=CHAOS_LIMITS)
        check(
            ChaosCheck(
                "ingest/gzip-roundtrip",
                sum(gz_ir.counts().values()) == clean_objects
                and len(gz_errors) == len(clean_errors),
                f"{clean_objects} objects through .gz",
            )
        )
        garbage = tmpdir / "garbage.db.gz"
        garbage.write_bytes(b"\x1f\x8b" + bytes(_rng_for(seed, "gz").randrange(256) for _ in range(512)))
        _, bad_errors = parse_dump_file(garbage, limits=CHAOS_LIMITS)
        bad_kinds = bad_errors.count_by_kind()
        if ErrorKind.UNREADABLE_INPUT in bad_kinds:
            report.degradation.record("ingest", "unreadable-input", "garbage-gzip")
        check(
            ChaosCheck(
                "ingest/garbage-gzip",
                ErrorKind.UNREADABLE_INPUT in bad_kinds,
                "corrupt compressed stream recorded, not raised",
            )
        )

    # -- layer 1b: route-table corruption ------------------------------------
    entries = list(
        collector_routes(world.topology, world.announced, world.collectors)
    )
    table_text = "\n".join(route_entry_lines(entries)) + "\n"
    for name, mutator in TABLE_MUTATORS.items():
        damaged = mutator(_rng_for(seed, name), table_text)
        try:
            parsed = parse_table_text(damaged.decode("utf-8", errors="replace"))
            kept = sum(1 for _ in parsed)
        except Exception as exc:  # noqa: BLE001 - the contract under test
            check(ChaosCheck(f"table/{name}", False, f"raised {exc!r}"))
            continue
        if kept < len(entries):
            report.degradation.record(
                "table", "lines-dropped", name, len(entries) - kept
            )
        check(
            ChaosCheck(
                f"table/{name}",
                0 < kept <= len(entries),
                f"kept {kept}/{len(entries)} routes",
            )
        )

    # -- layer 2: verification with a worker killed, then one wedged, mid-run --
    # One session, one in-memory index, for every table pass and the WHOIS
    # layer below.
    session = Session(world.merged_ir(), world.topology, use_cache=False)
    baseline = session.verify_table(entries)
    chunk_size = max(1, len(entries) // 8)
    with use_faults(chunk=KillWorkerChunk(1)):
        chaotic = session.verify_table(
            entries, processes=processes, chunk_size=chunk_size
        )
    expected = baseline.summary()
    observed = chaotic.summary()
    expected.pop("degradation")
    observed.pop("degradation")
    check(
        ChaosCheck(
            "verify/worker-kill-exact-stats",
            observed == expected,
            f"{len(entries)} routes, chunk_size={chunk_size}, worker SIGKILLed",
        )
    )
    kinds = chaotic.degradation.by_kind()
    check(
        ChaosCheck(
            "verify/degradation-recorded",
            kinds.get("verify/worker-crashed", 0) >= 1
            and kinds.get("verify/chunk-serial-fallback", 0) >= 1,
            str(dict(sorted(kinds.items()))),
        )
    )
    report.degradation.merge(chaotic.degradation)
    # SIGSTOP reaches the worker from outside, once: the pool must notice
    # (the chunk's hang bound, or the heartbeat if the victim sat idle),
    # replace it, and still account for every route.
    wedged = session.verify_table(
        hang_a_worker_at(entries, chunk_size * 5 // 2),
        processes=processes,
        chunk_size=chunk_size,
    )
    observed = wedged.summary()
    observed.pop("degradation")
    kinds = wedged.degradation.by_kind()
    check(
        ChaosCheck(
            "verify/worker-hang-exact-stats",
            observed == expected and kinds.get("verify/worker-hung", 0) >= 1,
            f"worker SIGSTOPped mid-run; {dict(sorted(kinds.items()))}",
        )
    )
    report.degradation.merge(wedged.degradation)

    # -- layer 2b: decision traces survive worker death -----------------------
    # The same table traced serially and in parallel with a SIGKILLed worker
    # must canonicalize to the same events (a chunk's events ride its result
    # frame, so a killed worker's die with it and the retry emits them
    # again), and tail sampling must have kept every route with an
    # unverified hop.
    trace_config = TraceConfig(sample_rate=7, seed=seed)
    unverified_routes: set[str] = set()

    def note_unverified(route_report) -> None:
        if any(hop.status.label == "unverified" for hop in route_report.hops):
            unverified_routes.add(route_trace_id(route_report.entry, trace_config.seed))

    with use_tracer(Tracer(trace_config)) as serial_tracer:
        session.verify_table(entries, on_report=note_unverified)
    kill = use_faults(chunk=KillWorkerChunk(1))
    with use_tracer(Tracer(trace_config)) as chaos_tracer, kill:
        session.verify_table(entries, processes=processes, chunk_size=chunk_size)
    check(
        ChaosCheck(
            "trace/survives-worker-kill",
            canonical_events(serial_tracer.events)
            == canonical_events(chaos_tracer.events),
            f"{chaos_tracer.emitted} events, worker SIGKILLed mid-run",
        )
    )
    traced = {
        event["ids"]["route"]
        for event in chaos_tracer.events
        if event["kind"] == "route"
    }
    check(
        ChaosCheck(
            "trace/unverified-coverage",
            unverified_routes <= traced,
            f"{len(unverified_routes)} unverified route(s), all traced",
        )
    )

    # -- layer 3: WHOIS behind a flaky network --------------------------------
    ir = session.ir
    asn = min(ir.aut_nums)
    with session:
        handle = session.whois_server()
        with FlakyTcpProxy("127.0.0.1", handle.whois_port, failures=2) as proxy:
            try:
                answer = whois_query(
                    "127.0.0.1", proxy.port, f"AS{asn}", retries=4, backoff=0.02
                )
                ok = "aut-num" in answer
                detail = f"answered after {proxy.connections} connections"
            except OSError as exc:
                ok, detail = False, f"raised {exc!r}"
            if proxy.connections > 1:
                report.degradation.record(
                    "whois", "connection-retried", count=proxy.connections - 1
                )
            check(ChaosCheck("whois/retry-through-flaky-proxy", ok, detail))
        overlong = whois_query("127.0.0.1", handle.whois_port, "A" * 8192)
        check(
            ChaosCheck(
                "whois/query-line-cap",
                overlong.startswith("F query line too long"),
                "over-long query refused, connection dropped",
            )
        )

        # -- layer 3b: WHOIS shutdown with a slow client attached --------------
        # A client that connects and never completes a query decides
        # nothing about the daemon's exit: stop() returns inside its bound
        # and the server, not the client, closes the connection.
        with SlowClient("127.0.0.1", handle.whois_port, partial=b"AS") as slow:
            time.sleep(0.1)  # let the handler reach its read
            stop_started = time.monotonic()
            try:
                handle.stop(timeout=5)
                returned = True
            except TimeoutError:
                returned = False
            stop_s = time.monotonic() - stop_started
            closed = slow.reads_eof()
        check(
            ChaosCheck(
                "whois/slow-client-shutdown-bounded",
                returned and closed,
                f"stop() {'returned' if returned else 'timed out'} after "
                f"{stop_s:.2f}s, client {'read EOF' if closed else 'still connected'}",
            )
        )

    # -- layer 4: the resident serve daemon under flood ------------------------
    report.degradation.merge(_serve_layer(check, ir, world, entries))

    # -- layer 4b: the supervised worker pool under crash/hang faults ----------
    report.degradation.merge(_serve_supervisor_layer(check, ir, world, entries))

    report.elapsed_s = time.monotonic() - started
    return report


def _serve_layer(check, ir, world, entries) -> DegradationReport:
    """Flood the serve daemon past its queue bound; assert clean behavior.

    The contract: every request gets a definite answer — a verdict
    bit-identical to the batch path, or an explicit 429 under
    backpressure — and shutdown still drains.  Nothing hangs, nothing
    crashes, and the refused count is recorded as degradation.
    """
    from repro.serve import ServeConfig, ServeDaemon

    degradation = DegradationReport()
    session = Session(ir, world.topology, index=None, use_cache=False)
    entry = entries[0]
    expected = str(
        session.warm().verify_route(str(entry.prefix), entry.as_path, collector="serve")
    )
    body = json.dumps({"prefix": str(entry.prefix), "as_path": list(entry.as_path)})
    daemon = ServeDaemon(
        session,
        ServeConfig(http_port=0, queue_size=4, batch_max=2, default_deadline=30.0),
    )
    handle = daemon.start_in_thread()

    def post_verify() -> tuple[int, dict]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", handle.http_port, timeout=30
        )
        try:
            connection.request(
                "POST", "/verify", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    try:
        status, payload = post_verify()
        check(
            ChaosCheck(
                "serve/http-bit-identity",
                status == 200 and payload.get("text") == expected,
                "daemon verdict matches the batch rendering",
            )
        )
        # Make each batch slow so the bounded queue actually fills.
        slow = use_faults(batch=lambda queries: time.sleep(0.05))
        with slow, ThreadPoolExecutor(max_workers=32) as pool:
            outcomes = [f.result() for f in [pool.submit(post_verify) for _ in range(32)]]
        statuses = sorted({status for status, _ in outcomes})
        busy = sum(1 for status, _ in outcomes if status == 429)
        served = sum(1 for status, _ in outcomes if status == 200)
        if busy:
            degradation.record("serve", "request-busy", "flood", busy)
        check(
            ChaosCheck(
                "serve/flood-backpressure",
                set(statuses) <= {200, 429} and busy >= 1 and served >= 1,
                f"{served} served, {busy} refused busy, statuses={statuses}",
            )
        )
    finally:
        handle.stop()
    try:
        post_verify()
        stopped = False
    except OSError:
        stopped = True
    check(
        ChaosCheck(
            "serve/graceful-stop",
            stopped,
            "drained on stop; later connections refused",
        )
    )
    return degradation


def _serve_supervisor_layer(check, ir, world, entries) -> DegradationReport:
    """Crash and wedge the serve worker pool mid-flood; assert self-healing.

    The contract: SIGKILLing one worker costs only its in-flight batch
    (retried on another worker — every client still gets a verdict
    bit-identical to the batch path), the supervisor respawns a
    replacement and the restart is visible in the metrics and the
    degradation report; a SIGSTOPped worker is detected by heartbeat and
    replaced without operator intervention.
    """
    from repro.obs import MetricsRegistry
    from repro.serve import ServeConfig, ServeDaemon

    degradation = DegradationReport()
    # A private registry so the restart counter is visible at /metrics.
    session = Session(
        ir, world.topology, index=None, use_cache=False, registry=MetricsRegistry()
    )
    entry = entries[0]
    expected = str(
        session.warm().verify_route(str(entry.prefix), entry.as_path, collector="serve")
    )
    body = json.dumps({"prefix": str(entry.prefix), "as_path": list(entry.as_path)})
    daemon = ServeDaemon(
        session,
        ServeConfig(
            http_port=0,
            workers=2,
            queue_size=128,
            batch_max=4,
            default_deadline=30.0,
            hang_timeout=3.0,
            heartbeat_interval=0.1,
            heartbeat_timeout=1.0,
        ),
    )
    handle = daemon.start_in_thread()
    service = daemon.service
    supervisor = service.supervisor

    def http_get(path: str) -> tuple[int, str]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", handle.http_port, timeout=30
        )
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read().decode()
        finally:
            connection.close()

    def post_verify() -> tuple[int, dict]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", handle.http_port, timeout=30
        )
        try:
            connection.request(
                "POST", "/verify", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    try:
        status, payload = post_verify()
        check(
            ChaosCheck(
                "serve-pool/bit-identity",
                status == 200 and payload.get("text") == expected,
                "pool verdict matches the batch rendering",
            )
        )

        # SIGKILL one worker mid-flood.  The batch fault slows each batch
        # so the flood is still in flight when the kill lands and some
        # batch actually dies with its worker.
        victim = supervisor.worker_pids()[0]
        slow = use_faults(batch=lambda queries: time.sleep(0.02))
        with slow, ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(post_verify) for _ in range(48)]
            time.sleep(0.1)
            KillServeWorker()(victim)
            outcomes = [future.result() for future in futures]
        served = sum(1 for status, _ in outcomes if status == 200)
        identical = all(
            payload.get("text") == expected
            for status, payload in outcomes
            if status == 200
        )
        check(
            ChaosCheck(
                "serve-pool/kill-mid-flood-no-request-lost",
                served == len(outcomes) and identical,
                f"{served}/{len(outcomes)} served bit-identically, worker SIGKILLed",
            )
        )

        deadline = time.monotonic() + 15
        while (
            time.monotonic() < deadline
            and supervisor.state()["restarts_total"] < 1
        ):
            time.sleep(0.05)
        state = supervisor.state()
        kinds = service.degradation.by_kind()
        crashes = kinds.get("serve/worker-crashed", 0) + kinds.get(
            "serve/worker-hung", 0
        )
        check(
            ChaosCheck(
                "serve-pool/restart-recorded",
                state["restarts_total"] >= 1 and crashes >= 1,
                f"restarts={state['restarts_total']}, "
                f"degradation={dict(sorted(kinds.items()))}",
            )
        )
        _, metrics_text = http_get("/metrics")
        check(
            ChaosCheck(
                "serve-pool/restart-in-metrics",
                "serve_worker_restarts_total 1" in metrics_text
                or "serve_worker_restarts_total 2" in metrics_text,
                "restart counter exported at /metrics",
            )
        )

        # SIGSTOP a worker: the idle heartbeat must notice the silence
        # and replace it within interval + timeout (plus respawn time).
        victim = supervisor.worker_pids()[0]
        HungWorker()(victim)
        deadline = time.monotonic() + 15
        replaced = False
        while time.monotonic() < deadline:
            pids = supervisor.worker_pids()
            if victim not in pids and len(pids) == daemon.config.workers:
                replaced = True
                break
            time.sleep(0.05)
        check(
            ChaosCheck(
                "serve-pool/hung-worker-replaced",
                replaced,
                "SIGSTOPped worker detected by heartbeat and respawned",
            )
        )

        status, health_text = http_get("/healthz")
        health = json.loads(health_text)
        block = health.get("supervisor", {})
        check(
            ChaosCheck(
                "serve-pool/healthz-supervisor-state",
                status == 200
                and block.get("live") == daemon.config.workers
                and not block.get("degraded", True),
                f"supervisor block: {block}",
            )
        )
        degradation.merge(service.degradation)
    finally:
        handle.stop()
    return degradation
