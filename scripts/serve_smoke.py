#!/usr/bin/env python
"""CI smoke test for ``rpslyzer serve``: boot, query, drain, exit.

Synthesizes the tiny world, launches the daemon as a real subprocess
(both front-ends on ephemeral ports, telemetry on), and checks the
serving contract end to end:

1. the startup banner reports both ports and the IR digest;
2. ``GET /healthz`` answers ``ok`` with a bound queue and a live
   ``--workers 2`` supervisor pool;
3. ``POST /verify`` returns a verdict character-identical to the batch
   verifier for the same route, and echoes the client's
   ``X-Request-Id`` back on the response;
4. the WHOIS ``!v`` command returns the same rendering, IRRd-framed,
   with the ``%% id`` correlation comment;
5. ``GET /metrics`` shows exactly one index adoption (no per-request
   reload/recompile) and the served-request counters;
6. ``GET /debug/flight`` exposes the live flight ring, including the
   request event for the correlation id from step 3;
7. no timer paces a one-at-a-time client: after 50 sequential
   ``/verify`` on one keep-alive connection the ``queue`` and
   ``coalesce`` stages (admitted → executing) together average under
   0.5 ms and ``serve_queue_depth`` reads 0 — structural, so a batching
   delay that reaches lone requests fails here without any latency
   threshold on the request itself (the coalescing period only follows
   batches of more than one query: ``docs/serving.md``);
8. a hot swap moves every reader at once: the daemon booted on a
   cache-mmap'd index (``/proc/<pid>/maps`` lists the artifact);
   ``POST /reload`` of one tiny-world journal answers generation 1 with
   both pool workers swapped, ``/healthz`` reads ``index_generation`` 1
   with the journal's serials, and ``!g``, a plain lookup and ``!v`` all
   answer from generation 1 — after which the daemon no longer maps the
   artifact: generation 0 went with its last reader, nobody closed it;
9. SIGTERM — sent while an idle keep-alive HTTP connection and a WHOIS
   connection that sent half a line are still open — drains and the
   process exits 0 with no traceback on stderr, releasing its ports
   and closing both connections (each client reads EOF): no client
   decides when the daemon exits.  The ``--access-log`` file holds one
   schema-complete JSONL record per served request.

Exits non-zero with a diagnostic on the first violated check.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO / "src"))

from repro import api  # noqa: E402
from repro.bgp.routegen import collector_routes  # noqa: E402
from repro.irr.history import ChurnConfig, evolve_with_journal  # noqa: E402
from repro.irr.whois import WhoisEngine  # noqa: E402

ACCESS_FIELDS = {
    "ts",
    "kind",
    "ids",
    "frontend",
    "endpoint",
    "outcome",
    "verdicts",
    "total_ms",
    "stages_ms",
}
STAGES = {"accept", "queue", "coalesce", "dispatch", "execute", "respond"}


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def http_json(port: int, method: str, path: str, payload=None, headers=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        send_headers = {"Content-Type": "application/json"} if body else {}
        send_headers.update(headers or {})
        connection.request(method, path, body=body, headers=send_headers)
        response = connection.getresponse()
        return (
            response.status,
            {name.lower(): value for name, value in response.getheaders()},
            response.read(),
        )
    finally:
        connection.close()


def whois(port: int, query: str) -> str:
    with socket.create_connection(("127.0.0.1", port), timeout=15) as conn:
        conn.sendall(query.encode() + b"\n!q\n")
        chunks = []
        while True:
            data = conn.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks).decode().rstrip()


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    access_log = workdir / "access.jsonl"
    world = api.synthesize("tiny", seed=42)
    world.write_to_dir(workdir / "world")
    entry = next(
        iter(
            collector_routes(world.topology, world.announced, world.collectors)
        )
    )
    # use_cache=False: the smoke must not create ~/.cache/rpslyzer.
    with api.open_session(world, use_cache=False) as session:
        expected = str(
            session.verify_route(
                str(entry.prefix), entry.as_path, collector="serve"
            )
        )

    # Fill the daemon's index cache, so it boots on an mmap'd generation 0
    # (an explicit cache_dir: still nothing under ~/.cache/rpslyzer).
    with api.open_session(workdir / "world", cache_dir=workdir / "cache") as cached:
        artifact = api.index_cache_path(cached.digest, workdir / "cache")
        churned, journal = evolve_with_journal(cached.ir, ChurnConfig(seed=11))
        engines = WhoisEngine(cached.ir), WhoisEngine(churned)
    if not artifact.exists():
        fail(f"index cache not filled: {artifact}")

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--ir",
            str(workdir / "world"),
            "--as-rel",
            str(workdir / "world" / "as-rel.txt"),
            "--http-port",
            "0",
            "--whois-port",
            "0",
            "--cache-dir",
            str(workdir / "cache"),
            "--workers",
            "2",
            "--access-log",
            str(access_log),
            "--slow-ms",
            "30000",
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        # Its own process group, so a failed check can take the pool's
        # workers down with the daemon instead of orphaning them.
        start_new_session=True,
    )
    try:
        http_port = whois_port = None
        banner = []
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and (
            http_port is None or whois_port is None
        ):
            line = process.stderr.readline()
            if not line:
                break
            banner.append(line)
            matched = re.search(r"http on [\d.]+:(\d+)", line)
            if matched:
                http_port = int(matched.group(1))
            matched = re.search(r"whois on [\d.]+:(\d+)", line)
            if matched:
                whois_port = int(matched.group(1))
        if http_port is None or whois_port is None:
            fail(f"startup banner incomplete: {''.join(banner)!r}")
        print(f"serve-smoke: daemon up (http={http_port}, whois={whois_port})")

        status, _, body = http_json(http_port, "GET", "/healthz")
        health = json.loads(body)
        if status != 200 or health["status"] != "ok":
            fail(f"healthz: {status} {health}")
        if not health["index_digest"] or health["queue_size"] <= 0:
            fail(f"healthz shape: {health}")
        supervisor = health.get("supervisor")
        if not supervisor or supervisor["live"] != 2 or supervisor["degraded"]:
            fail(f"healthz supervisor block: {supervisor}")
        print("serve-smoke: supervisor pool up (2 live workers)")

        request_id = "smoke-cafe0123"
        payload = {"prefix": str(entry.prefix), "as_path": list(entry.as_path)}
        status, response_headers, body = http_json(
            http_port,
            "POST",
            "/verify",
            payload,
            headers={"X-Request-Id": request_id},
        )
        if status != 200:
            fail(f"POST /verify: {status} {body!r}")
        if response_headers.get("x-request-id") != request_id:
            fail(
                "X-Request-Id not echoed: "
                f"{response_headers.get('x-request-id')!r}"
            )
        verdict = json.loads(body)
        if verdict["text"] != expected:
            fail(
                "serve verdict diverges from batch verifier:\n"
                f"--- serve ---\n{verdict['text']}\n--- batch ---\n{expected}"
            )
        print(
            "serve-smoke: /verify bit-identical to the batch verifier, "
            "id echoed"
        )

        path = " ".join(str(asn) for asn in entry.as_path)

        def bang_verify() -> str:
            """The report text of ``!v`` for the probe route, unframed."""
            framed = whois(whois_port, f"!v {entry.prefix} {path}")
            id_match = re.match(r"%% id ([-A-Za-z0-9_.:/+=]+)\n", framed)
            if not id_match:
                fail(f"whois !v missing %% id comment: {framed!r}")
            framed = framed[id_match.end() :]
            if not framed.startswith("A"):
                fail(f"whois !v not framed: {framed!r}")
            return framed[framed.index("\n") + 1 :].rstrip("\nC").rstrip()

        unframed = bang_verify()
        if unframed != expected.rstrip():
            fail(f"whois !v diverges from batch verifier: {unframed!r}")
        print("serve-smoke: whois !v bit-identical to the batch verifier")

        status, _, body = http_json(http_port, "GET", "/metrics")
        text = body.decode()
        if status != 200:
            fail(f"GET /metrics: {status}")
        adoptions = sum(
            float(m.group(1))
            for m in re.finditer(r'^index_cache_total\{[^}]*\} (\d+)', text, re.M)
        )
        if adoptions != 1:
            fail(f"expected exactly one index adoption, saw {adoptions}")
        if "serve_requests_total" not in text:
            fail("serve_requests_total missing from /metrics")
        if "serve_stage_seconds" not in text:
            fail("serve_stage_seconds missing from /metrics")
        print("serve-smoke: metrics confirm one index adoption, warm serving")

        status, _, body = http_json(
            http_port, "GET", f"/debug/flight?id={request_id}"
        )
        if status != 200:
            fail(f"GET /debug/flight: {status}")
        flight = json.loads(body)
        if not flight.get("enabled") or flight["stats"]["events"] <= 0:
            fail(f"flight recorder not live: {flight.get('stats')}")
        kinds = {event["kind"] for event in flight["events"]}
        if "request" not in kinds:
            fail(
                f"no request event for id {request_id} in flight ring: "
                f"{sorted(kinds)}"
            )
        print("serve-smoke: flight ring carries the correlated request event")

        def waiting_totals() -> tuple[float, float, str]:
            """Seconds spent in the queue + coalesce stages, and how many requests."""
            text = http_json(http_port, "GET", "/metrics")[2].decode()
            label = r'serve_stage_seconds_%s\{stage="%s"\} (\S+)'
            return (
                sum(
                    float(re.search(label % ("sum", stage), text).group(1))
                    for stage in ("queue", "coalesce")
                ),
                float(re.search(label % ("count", "coalesce"), text).group(1)),
                text,
            )

        sum_before, count_before, _ = waiting_totals()
        connection = http.client.HTTPConnection("127.0.0.1", http_port, timeout=15)
        try:
            for _ in range(50):
                connection.request(
                    "POST",
                    "/verify",
                    body=json.dumps(payload),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                if response.status != 200 or not response.read():
                    fail(f"sequential /verify: {response.status}")
        finally:
            connection.close()
        sum_after, count_after, text = waiting_totals()
        if count_after - count_before < 50:
            fail(f"coalesce stage saw {count_after - count_before} of 50 requests")
        waiting_ms = (sum_after - sum_before) * 1e3 / (count_after - count_before)
        if waiting_ms >= 0.5:
            fail(f"a lone request waits {waiting_ms:.3f} ms to start executing: a timer?")
        depth = re.search(r"^serve_queue_depth (\S+)", text, re.M)
        if depth is None or float(depth.group(1)) != 0:
            fail(f"serve_queue_depth on an idle daemon: {depth and depth.group(1)}")
        print(
            f"serve-smoke: no timer paces a lone client (queue + coalesce mean "
            f"{waiting_ms:.3f} ms over 50 sequential requests, queue depth 0 once idle)"
        )

        maps = Path(f"/proc/{process.pid}/maps")

        def maps_artifact() -> bool | None:
            return artifact.name in maps.read_text() if maps.exists() else None

        if maps_artifact() is False:
            fail(f"daemon did not boot on the mmap'd cache artifact {artifact.name}")
        status, _, body = http_json(
            http_port, "POST", "/reload", {"journal": journal.to_jsonable()}
        )
        summary = json.loads(body)
        if status != 200 or summary["generation"] != 1 or summary["degraded"]:
            fail(f"POST /reload: {status} {summary}")
        if summary["applied"] != len(journal) or summary["pool"]["reloaded"] != 2:
            fail(f"reload summary: {summary}")
        health = json.loads(http_json(http_port, "GET", "/healthz")[2])
        if health["index_generation"] != 1 or health["journal_serials"] != journal.serials():
            fail(f"healthz after the reload: {health}")
        moved = False
        for asn in sorted({e.key[1] for e in journal if e.cls == "route"}):
            for query in (f"!gAS{asn}", f"AS{asn}"):
                old_answer, new_answer = (engine.answer(query) for engine in engines)
                answer = whois(whois_port, query)
                if answer != new_answer.rstrip():
                    fail(f"{query} not answered from generation 1: {answer[:200]!r}")
                moved = moved or old_answer != new_answer
        if not moved:
            fail("the journal moved no probed lookup: the check proves nothing")
        with api.open_session(churned, as_rel=world.topology, use_cache=False) as session:
            swapped = str(session.verify_route(str(entry.prefix), entry.as_path))
        unframed = bang_verify()
        if unframed != swapped.rstrip():
            fail(f"whois !v not answered from generation 1: {unframed!r}")
        deadline = time.monotonic() + 5
        while maps_artifact() and time.monotonic() < deadline:
            time.sleep(0.05)
        if maps_artifact():
            fail(f"generation 0's artifact {artifact.name} still mapped after the swap")
        print(
            "serve-smoke: hot swap to generation 1 — /healthz, !g, lookup and !v "
            "follow it, "
            + ("the old artifact is unmapped" if maps.exists() else "no procfs: maps unchecked")
        )

        idle_http = http.client.HTTPConnection("127.0.0.1", http_port, timeout=10)
        idle_http.request("GET", "/healthz")
        idle_http.getresponse().read()  # answered; the connection stays open
        silent_whois = socket.create_connection(("127.0.0.1", whois_port), timeout=10)
        silent_whois.sendall(b"AS")  # half a line, then nothing
        time.sleep(0.2)  # the daemon has read it: closing sends FIN, not RST
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
        if process.returncode != 0:
            fail(f"SIGTERM exit code {process.returncode}, want 0")
        for name, held in (("http", idle_http.sock), ("whois", silent_whois)):
            try:
                if held.recv(1) != b"":
                    fail(f"open {name} connection got data at shutdown, want EOF")
            except OSError as exc:
                fail(f"open {name} connection was not closed cleanly: {exc!r}")
            held.close()
        stderr_tail = process.stderr.read()
        if "Traceback" in stderr_tail:
            fail(f"daemon logged a traceback while stopping:\n{stderr_tail}")
        try:
            http_json(http_port, "GET", "/healthz")
        except OSError:
            pass
        else:
            fail("http port still accepting after drain")
        print(
            "serve-smoke: SIGTERM with two connections held open drained cleanly "
            "(exit 0, both closed by the server, ports released)"
        )

        if not access_log.exists():
            fail(f"access log never written: {access_log}")
        records = [
            json.loads(line)
            for line in access_log.read_text().splitlines()
            if line.strip()
        ]
        if not records:
            fail("access log is empty")
        for record in records:
            if not ACCESS_FIELDS <= set(record):
                fail(f"access record missing fields: {record}")
            if set(record["stages_ms"]) != STAGES:
                fail(f"access record stage keys: {record['stages_ms']}")
        if {record["ids"]["generation"] for record in records} != {0, 1}:
            fail("access records do not follow the generation across the reload")
        if not any(record["ids"]["request"] == request_id for record in records):
            fail(f"access log never saw request id {request_id}")
        print(
            f"serve-smoke: access log holds {len(records)} schema-complete "
            "records"
        )
        print("serve-smoke: OK")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()


if __name__ == "__main__":
    main()
