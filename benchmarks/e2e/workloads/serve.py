"""``serve``: the resident daemon under a closed loop, hop cache warm.

Set-up builds the standard world, exports its IR to JSON and boots
``python -m repro serve`` (default ``ServeConfig``, ephemeral ports) as a
separate process, timed up to the ready banner.  A seeded sample of table
routes is then sent three times:

1. one *warm-up* pass of every sample route over HTTP (the daemon's hop
   cache fills; its duration is reported, not hidden);
2. the *measured* pass: ``POST /verify`` of the same requests, cycling
   in one-second segments (a calibration sample between them) until the
   time budget is used — so the hop cache is 100 % hit and
   ``serve.*`` (HTTP parse, JSON, ``Query.from_payload``, the batcher
   window, ``report_as_dict``, telemetry) does nearly all the work while
   ``core.verify``'s miss path does nearly none: the mirror image of
   ``verify_table``;
3. WHOIS ``!v`` queries for the head of the sample.

Load model: **closed loop**, ``min(nproc, 2)`` keep-alive connections,
one client thread each; a client sends its next request only after the
previous response is complete, so ``req/s ~= connections / mean latency``.

Gates: every HTTP ``text`` and every WHOIS body equals ``str(report)``
from an in-process ``Session`` over the same IR; every status is 200 /
``A``-framed; the expected texts equal the pinned golden (seeds 42, 7).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

from repro import api
from repro.ir.json_io import dump_ir
from repro.serve.core import Query, ServeConfig, VerifyService, report_as_dict
from repro.serve.telemetry import STAGES

from harness import REPO_ROOT, Context, Measured, Outcome, median, run_rounds, texts_digest
from inputs import build_standard_world, sample_routes, table_routes
from tracing import percentile

CONNECTIONS = min(os.cpu_count() or 1, 2)
SEGMENT_S = 1.0  # one closed-loop burst between two calibration samples
READY_TIMEOUT_S = 120.0


# -- set-up: inputs and the daemon ---------------------------------------------


def set_up(ctx: Context) -> dict:
    world = build_standard_world(ctx.sizes)
    dumps = ctx.scratch / "dumps"
    world.write_to_dir(dumps)
    sample = sample_routes(table_routes(world, ctx.seed), ctx.seed, ctx.sizes.serve_sample)
    cache = ctx.scratch / "index-cache"
    session = api.open_session(dumps, as_rel=dumps / "as-rel.txt", cache_dir=cache)
    ir_json = ctx.scratch / "ir.json"
    dump_ir(session.ir, ir_json)

    command = [
        sys.executable, "-m", "repro", "serve",
        "--ir", str(ir_json), "--as-rel", str(dumps / "as-rel.txt"),
        "--http-port", "0", "--whois-port", "0",
        "--cache-dir", str(cache), "--incident-dir", str(ctx.scratch),
    ]
    if ctx.pool:
        command += ["--workers", "2"]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    banner_path = ctx.scratch / "daemon.stderr"
    with open(banner_path, "w", encoding="utf-8") as banner:
        daemon = subprocess.Popen(
            command, env=env, cwd=ctx.scratch, stdout=subprocess.DEVNULL, stderr=banner
        )
    inputs = {
        "dumps": dumps, "ir_json": ir_json, "session": session,
        "sample": sample, "daemon": daemon,
    }
    deadline = time.monotonic() + READY_TIMEOUT_S
    while True:
        text = banner_path.read_text(encoding="utf-8")
        if "serving IR" in text:
            break
        if daemon.poll() is not None or time.monotonic() > deadline:
            tear_down(inputs)
            raise RuntimeError(f"serve daemon did not come up: {text!r}")
        time.sleep(0.005)
    inputs["http_port"] = int(re.search(r"http on [\d.]+:(\d+)", text).group(1))
    inputs["whois_port"] = int(re.search(r"whois on [\d.]+:(\d+)", text).group(1))
    return inputs


def tear_down(inputs: dict) -> None:
    daemon = inputs["daemon"]
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    inputs["session"].close()
    shutil.rmtree(inputs["dumps"], ignore_errors=True)


# -- reading the daemon from outside --------------------------------------------


def _daemon_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
        fields = stream.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _daemon_peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _scrape(port: int) -> dict[str, float]:
    """``GET /metrics`` as ``{'name{labels}': value}``."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        reader = conn.makefile("rb")
        _status, body = _read_http_response(reader)
    samples = {}
    for line in body.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            samples[key] = float(value)
    return samples


# -- the closed-loop clients ------------------------------------------------------


def _read_http_response(reader) -> tuple[int, bytes]:
    status = int(reader.readline().split(b" ", 2)[1])
    length = 0
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return status, reader.read(length)


def _http_client(ctx: Context, port: int, requests, deadline: float | None, out: list) -> None:
    """One keep-alive connection; ``requests`` are ``(index, wire_bytes)``.

    Without a deadline every request is sent once; with one, the client
    cycles through its requests until the deadline passes.
    """
    tracer = ctx.tracer
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = conn.makefile("rb")
        with tracer.span("serve.client", "harness"):
            position = 0
            while True:
                if deadline is None:
                    if position == len(requests):
                        break
                elif time.perf_counter() >= deadline:
                    break
                index, wire = requests[position % len(requests)]
                position += 1
                with tracer.span("POST /verify", "serve", index) as timing:
                    conn.sendall(wire)
                    status, body = _read_http_response(reader)
                out.append((index, timing.seconds, status, body))


def _whois_client(ctx: Context, port: int, queries, out: list) -> None:
    tracer = ctx.tracer
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = conn.makefile("rb")
        with tracer.span("serve.client", "harness"):
            for index, wire in queries:
                with tracer.span("whois !v", "serve", index) as timing:
                    conn.sendall(wire)
                    line = reader.readline()
                    if line.startswith(b"%% id"):
                        line = reader.readline()
                    if line.startswith(b"A"):
                        body = reader.read(int(line[1:]))
                        framed = reader.readline() == b"C\n" and reader.readline() == b"\n"
                    else:  # F / %% BUSY / %% DEADLINE: runs to the blank line
                        body, framed = line, False
                        while line not in (b"\n", b""):
                            line = reader.readline()
                out.append((index, timing.seconds, 200 if framed else 0, body))


def _closed_loop(client, ctx: Context, port: int, work, *extra) -> tuple[list, float]:
    """Run one client thread per connection over a round-robin split of ``work``."""
    outs = [[] for _ in range(CONNECTIONS)]
    errors: list[BaseException] = []

    def guarded(*args) -> None:
        try:
            client(*args)
        except Exception as exc:  # noqa: BLE001 - re-raised on the main thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(ctx, port, work[k::CONNECTIONS], *extra, outs[k]))
        for k in range(CONNECTIONS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return [row for out in outs for row in out], wall


# -- serve.core kernels (traced runs): the pieces of a request, no sockets -------


def _per_call_us(function, arguments) -> float:
    started = time.perf_counter()
    for argument in arguments:
        function(argument)
    return (time.perf_counter() - started) * 1e6 / len(arguments)


async def _submit_all(ctx: Context, session, queries) -> None:
    """In-process ``VerifyService.submit`` under the same closed loop, no sockets."""
    config = ServeConfig(http_port=None, whois_port=None, incident_dir=str(ctx.scratch))
    service = await VerifyService(session, config).start()

    async def client(share):
        for query in share:
            await service.submit(query)

    try:
        await asyncio.gather(*(client(queries[k::CONNECTIONS]) for k in range(CONNECTIONS)))
    finally:
        await service.drain()
        await service.stop()


def _core_kernels(ctx: Context, inputs: dict, payloads: list[bytes]) -> dict:
    session = inputs["session"]
    sample = inputs["sample"]
    decoded = [json.loads(body) for body in payloads]
    queries = [Query.from_payload(payload, "verify") for payload in decoded]

    def verify(entry):
        return session.verify_route(str(entry.prefix), entry.as_path, collector="serve")

    reports = [verify(entry) for entry in sample]  # fills the in-process hop cache
    dicts = [report_as_dict(report) for report in reports]
    # Host-normalised CPU, to be subtracted from the daemon's (also
    # normalised) CPU per request; unrecorded, so not in the serve share.
    with ctx.tracer.paused(), ctx.timed("VerifyService.submit", "serve") as submits:
        asyncio.run(_submit_all(ctx, session, queries))
    return {
        "serve.json_decode_us": _per_call_us(json.loads, payloads),
        "serve.query_from_payload_us": _per_call_us(
            lambda payload: Query.from_payload(payload, "verify"), decoded
        ),
        "session.verify_route_us_warm": _per_call_us(verify, sample),
        "serve.report_as_dict_us": _per_call_us(report_as_dict, reports),
        # The encoding repro.serve.http answers with.
        "serve.json_encode_us": _per_call_us(
            lambda value: json.dumps(value, separators=(",", ":"), sort_keys=True).encode("utf-8"),
            dicts,
        ),
        "serve.submit_us": submits.cpu_normal_s * 1e6 / len(queries),
    }


# -- the measured section -----------------------------------------------------------


def measure(ctx: Context, inputs: dict, outcome: Outcome) -> Measured:
    sample = inputs["sample"]
    session = inputs["session"]
    pid = inputs["daemon"].pid
    http_port = inputs["http_port"]
    payloads = [
        json.dumps({"prefix": str(entry.prefix), "as_path": list(entry.as_path)}).encode()
        for entry in sample
    ]
    requests = [
        (
            index,
            b"POST /verify HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
        )
        for index, body in enumerate(payloads)
    ]
    whois = [
        (index, f"!v {entry.prefix} {' '.join(map(str, entry.as_path))}\n".encode())
        for index, entry in enumerate(sample[: ctx.sizes.whois_queries])
    ]

    # 1. warm-up pass: every request once, the daemon's hop cache fills.
    with ctx.tracer.paused():
        warmup, warmup_s = _closed_loop(_http_client, ctx, http_port, requests, None)

    # 2. the measured pass, in segments.
    def one_segment(number: int) -> dict:
        before = ctx.host.before()
        cpu_started = _daemon_cpu_seconds(pid)
        # Each segment starts elsewhere in the sample.
        turn = (number * 211) % len(requests)
        rows, wall_s = _closed_loop(
            _http_client, ctx, http_port, requests[turn:] + requests[:turn],
            time.perf_counter() + min(SEGMENT_S, ctx.seconds / 3),
        )
        cpu_s = _daemon_cpu_seconds(pid) - cpu_started
        factor = ctx.host.factor(before, ctx.host.sample())
        return {"rows": rows, "wall_s": wall_s, "cpu_normal_s": cpu_s * factor}

    before = _scrape(http_port)
    segments, reference = run_rounds(ctx, one_segment)
    after = _scrape(http_port)
    everything = segments + ([reference] if reference else [])
    measured = [row for segment in segments for row in segment["rows"]]
    # 3. WHOIS !v.
    whois_rows, _ = _closed_loop(_whois_client, ctx, inputs["whois_port"], whois)
    peak_rss = _daemon_peak_rss_mib(pid)

    # Gates: byte-identical to the in-process session, every status OK.
    expected = [
        str(session.verify_route(str(entry.prefix), entry.as_path, collector="serve"))
        for entry in sample
    ]
    first_body: dict[int, bytes] = {}
    wrong = 0
    for index, _latency, status, body in warmup:
        first_body[index] = body
        wrong += status != 200 or json.loads(body).get("text") != expected[index]
    outcome.ran(len(warmup), wrong, "warm-up HTTP responses")
    # Later passes must repeat the warm-up pass's (already checked) bytes.
    wrong = sum(
        status != 200 or body != first_body[index]
        for segment in everything
        for index, _latency, status, body in segment["rows"]
    )
    completed = sum(len(segment["rows"]) for segment in everything)
    outcome.ran(completed, wrong, "measured HTTP responses")
    wrong = sum(
        status != 200 or body.decode("utf-8").rstrip("\n") != expected[index]
        for index, _latency, status, body in whois_rows
    )
    outcome.ran(len(whois_rows), wrong, "WHOIS !v responses")

    latencies = [latency for _index, latency, _status, _body in measured]
    whois_latencies = [latency for _index, latency, _status, _body in whois_rows]
    end_to_end = {
        "work_per_s": completed / sum(segment["wall_s"] for segment in everything),
        "primary_op_ms": median(latencies) * 1e3,
        "secondary_op_ms": median(whois_latencies) * 1e3,
        "cpu_us_per_unit": sum(s["cpu_normal_s"] for s in everything) * 1e6 / completed,
        "peak_rss_mib": peak_rss,
    }

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    per_layer = {
        "serve.warmup_pass_s": warmup_s,
        "serve.warmup_latency_p50_ms": median(row[1] for row in warmup) * 1e3,
        "serve.http_latency_p95_ms": percentile(latencies, 0.95) * 1e3,
        "serve.http_latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "serve.http_latency_p999_ms": percentile(latencies, 0.999) * 1e3,
        "serve.whois_latency_p95_ms": percentile(whois_latencies, 0.95) * 1e3,
        "serve.batch_size_mean": delta("serve_batch_size_sum") / delta("serve_batch_size_count"),
    }
    for stage in STAGES:
        label = f'{{stage="{stage}"}}'
        per_layer[f"serve.stage.{stage}_ms_mean"] = (
            delta(f"serve_stage_seconds_sum{label}") * 1e3
            / delta(f"serve_stage_seconds_count{label}")
        )
    if ctx.traced:
        per_layer.update(_core_kernels(ctx, inputs, payloads))
        per_layer["serve.http_overhead_us"] = (
            end_to_end["cpu_us_per_unit"] - per_layer["serve.submit_us"]
        )
        per_layer["trace.overhead_ratio"] = median(latencies) / median(
            row[1] for row in reference["rows"]
        )
    counts = {
        "sample_routes": len(sample),
        "whois_queries": len(whois_rows),
        "expected_digest": texts_digest(expected),
    }
    ctx.golden(outcome, counts)
    detail = {
        "connections": CONNECTIONS,
        "workers": 2 if ctx.pool else 0,
        "segments": len(everything),
        "requests_measured": completed,
        "latency_p95_ms": per_layer["serve.http_latency_p95_ms"],
    }
    return Measured(end_to_end, per_layer, counts, detail)
