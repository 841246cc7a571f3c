"""P? — serve telemetry overhead: correlation ids + stage timings + flight.

PR 10's telemetry is *always on* by default — every request gets a
correlation id, six stage timestamps, labeled histogram observations, an
access-log line, and a flight-recorder event.  The contract is that all
of that stays cheap enough to never be switched off in production.

What is gated is the telemetry work *itself*, in absolute terms:
``telemetry_direct_us``, measured deterministically by driving the
production code path (``new_telemetry`` → stage marks →
``_finish_request`` with its histogram observes, access-log write, and
flight splice) in a tight loop, min-of-repeats like ``timeit``.  This is
the part a code change can regress, and it resolves to fractions of a
microsecond.  It lands in ``benchmarks/results/BENCH_serve_telemetry.json``
and is diffed against ``benchmarks/baselines.json`` by ``make
perf-regression``; the ceiling below only *fails* under
``RPSLYZER_PERF_STRICT``.

It used to be gated as a ratio against the request it rides on
(``1 + direct / request`` ≤ 1.05).  A ratio against code that is itself
being optimized punishes the optimization: when requests got cheaper
(285.8 → ~110 µs of CPU once batches stopped waiting on a timer and
hopping threads) the same ~6-10 µs of telemetry read as a *worse*
ratio.  The ratio is still computed and printed — against the
end-to-end CPU cost of one request through the real HTTP front-end
(raw keep-alive sockets POSTing ``/verify`` against a threaded
:class:`ServeDaemon` in its default config, minimum over several
floods) — but informationally.  Telemetry has no off switch since
1.23.0, so that request includes the telemetry it is compared with.  Differencing two end-to-end floods was never an
option: their run-to-run variance is routinely ±10-15% (this was tried,
extensively).  An on-flood also runs to *prove* the instrumented path is
live end-to-end (the ``X-Request-Id`` echo and the access log are
asserted on).

A red ``telemetry_direct_us`` on a busy host reads the same as a slower
telemetry path, so the end-to-end ledger's calibration kernel
(``benchmarks/e2e/harness.py``) runs just before and just after the
direct loop; its mean time and the ledger's host factor (reference ÷
observed: below 1 on a host running slower than the reference one) land
in a top-level ``"host"`` block beside ``"metrics"``, which neither the
ceiling nor ``check_perf_regression.py`` reads.
"""

import json
import os
import socket
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import RESULTS_DIR, emit

from repro import api
from repro.obs import MetricsRegistry
from repro.serve import ServeConfig
from repro.serve.core import VerifyService
from repro.serve.daemon import ServeDaemon

sys.path.append(str(Path(__file__).parent / "e2e"))
from harness import HostSpeed, calibration_kernel  # noqa: E402

STRICT = bool(os.environ.get("RPSLYZER_PERF_STRICT"))
N_QUERIES = 2000
CLIENTS = 8
BASELINE_FLOODS = 3
DIRECT_REPEATS = 7
DIRECT_BATCH = 5000
# benchmarks/baselines.json pins 10 µs with a 50 % band.
DIRECT_CEILING_US = 15.0

_metrics: dict[str, float] = {}
_host: dict[str, float] = {}


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Write the accumulated ratio metrics once the module finishes."""
    yield
    RESULTS_DIR.mkdir(exist_ok=True)
    document = {
        "bench": "serve_telemetry",
        "strict": STRICT,
        "metrics": dict(sorted(_metrics.items())),
        "host": _host,
    }
    path = RESULTS_DIR / "BENCH_serve_telemetry.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(
        f"\n=== BENCH_serve_telemetry ===\n"
        f"{json.dumps(document['metrics'], indent=2)}"
    )


def _request_bytes(body: bytes) -> bytes:
    return (
        b"POST /verify HTTP/1.1\r\n"
        b"Host: bench\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
    )


def _drive_connection(port: int, requests: list[bytes]) -> tuple[int, int]:
    """One keep-alive connection; returns (200s, X-Request-Id echoes)."""
    ok = echoed = 0
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        stream = sock.makefile("rb")
        for request in requests:
            sock.sendall(request)
            status_line = stream.readline()
            if status_line.split(b" ", 2)[1] == b"200":
                ok += 1
            length = 0
            while True:
                header = stream.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
                elif name.lower() == b"x-request-id":
                    echoed += 1
            if length:
                stream.read(length)
    return ok, echoed


def _flood(port: int, shards: list[list[bytes]]) -> tuple[float, float, int, int]:
    """Flood the daemon: (cpu_us/req, req/s, 200-count, id-echo-count)."""
    total = sum(len(shard) for shard in shards)
    with ThreadPoolExecutor(max_workers=len(shards)) as pool:
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        counts = list(
            pool.map(lambda shard: _drive_connection(port, shard), shards)
        )
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
    oks = sum(ok for ok, _ in counts)
    echoed = sum(e for _, e in counts)
    return cpu / total * 1e6, total / wall, oks, echoed


def _direct_cost_us(service: VerifyService) -> float:
    """Per-request µs of the full production telemetry path, min-of-repeats.

    Exercises exactly what one served request pays: id mint + record
    creation, the four stage marks, and ``_finish_request`` (stage
    histograms, pre-serialized line, access-log write, flight splice).
    """
    best = float("inf")
    for _ in range(DIRECT_REPEATS):
        started = time.process_time()
        for _ in range(DIRECT_BATCH):
            telemetry = service.new_telemetry("http", None)
            telemetry.endpoint = "verify"
            telemetry.mark_submitted()
            telemetry.mark_collected()
            telemetry.mark_admitted()
            telemetry.dispatch_s = 0.0002
            telemetry.execute_s = 0.004
            service._finish_request(telemetry, "ok", verdicts=5)
        best = min(best, (time.process_time() - started) / DIRECT_BATCH)
    return best * 1e6


def test_telemetry_overhead_under_ceiling(world, routes):
    bodies = [
        json.dumps(
            {"prefix": str(entry.prefix), "as_path": list(entry.as_path)}
        ).encode("utf-8")
        for entry in (routes[i % len(routes)] for i in range(N_QUERIES))
    ]
    requests = [_request_bytes(body) for body in bodies]
    shards = [requests[i::CLIENTS] for i in range(CLIENTS)]
    access_dir = Path(tempfile.mkdtemp(prefix="rpslyzer-bench-telemetry-"))
    base = dict(
        host="127.0.0.1",
        http_port=0,
        workers=0,
        queue_size=4096,
        default_deadline=120.0,
        max_deadline=120.0,
    )
    on_config = ServeConfig(
        **base,
        flight_events=2048,
        access_log=str(access_dir / "access.jsonl"),
        incident_dir=str(access_dir),
    )
    default_config = ServeConfig(**base)

    def flood_once(session, config: ServeConfig):
        with ServeDaemon(session, config).start_in_thread() as handle:
            return _flood(handle.http_port, shards)

    with api.open_session(
        world, registry=MetricsRegistry(), use_cache=False
    ) as session:
        session.warm()
        flood_once(session, default_config)  # warm the flood path
        # Denominator: end-to-end CPU per request, default config.
        baseline_cpus = []
        for _ in range(BASELINE_FLOODS):
            cpu_us, rate, oks, _ = flood_once(session, default_config)
            assert oks == N_QUERIES
            baseline_cpus.append((cpu_us, rate))
        request_cpu_us = min(cpu for cpu, _ in baseline_cpus)
        # Proof the instrumented path is live end-to-end: every response
        # echoes an id and every request reaches the access log.
        on_cpu_us, on_rate, oks, echoed = flood_once(session, on_config)
        assert oks == N_QUERIES
        assert echoed == N_QUERIES
        # Numerator: the telemetry work itself, deterministically.
        service = VerifyService(session, on_config)
        before = calibration_kernel()
        direct_us = _direct_cost_us(service)
        after = calibration_kernel()
        service._access_log.close()

    access_lines = (access_dir / "access.jsonl").read_text().count("\n")
    assert access_lines >= N_QUERIES

    ratio = 1.0 + direct_us / request_cpu_us
    _metrics["telemetry_overhead_ratio"] = round(ratio, 4)
    _metrics["telemetry_direct_us"] = round(direct_us, 3)
    _metrics["serve_request_cpu_us"] = round(request_cpu_us, 1)
    _host["calibration_s"] = round((before + after) / 2, 6)
    _host["factor"] = round(HostSpeed.factor(before, after), 4)
    best_rate = max(rate for _, rate in baseline_cpus)
    emit(
        "perf_serve_telemetry",
        f"queries: {N_QUERIES} over HTTP ({CLIENTS} keep-alive connections)\n"
        f"request cost (default config): {request_cpu_us:.1f} us cpu "
        f"(best {best_rate:.0f} req/s over {BASELINE_FLOODS} floods)\n"
        f"telemetry path (ids + stages + access log + flight): "
        f"{direct_us:.2f} us/request (ceiling {DIRECT_CEILING_US:g})\n"
        f"as a share of that request: {ratio:.4f} (informational)\n"
        f"host: calibration kernel {_host['calibration_s'] * 1e3:.1f} ms around "
        f"the telemetry loop, factor {_host['factor']:.3f} (informational)\n"
        f"end-to-end on-flood: {on_cpu_us:.1f} us cpu, {on_rate:.0f} req/s "
        f"(informational; flood-vs-flood differencing is noise-bound)",
    )
    assert direct_us > 0 and request_cpu_us > 0
    if STRICT:
        assert direct_us <= DIRECT_CEILING_US, (
            f"telemetry costs {direct_us:.1f} us per request "
            f"(ceiling {DIRECT_CEILING_US:g} us; the request itself: "
            f"{request_cpu_us:.1f} us)"
        )
