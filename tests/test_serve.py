"""Tests for the resident verification service (``rpslyzer serve``).

Covers both front-ends against an in-thread daemon, the service's
admission semantics (deadlines, backpressure, coalescing), bit-identity
with the batch pipeline, metrics-backed warm-latency evidence, and —
via subprocesses — the SIGTERM drain and a SIGKILL chaos check.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from chaos.faults import HungWorker
from repro import api
from repro.faultplan import use_faults
from repro.irr.whois import whois_query
from repro.obs import MetricsRegistry, parse_prometheus, read_events
from repro.serve import Query, ServeConfig, ServeDaemon, report_as_dict
from repro.serve.http import MAX_HEADER_BYTES


def _http(port: int, method: str, path: str, payload: dict | None = None):
    """One HTTP request; returns (status, parsed-JSON-body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None
    finally:
        connection.close()


def _http_full(
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    headers: dict | None = None,
):
    """Like :func:`_http` but also returns the response headers (lowered)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        sent = {"Content-Type": "application/json"} if body else {}
        sent.update(headers or {})
        connection.request(method, path, body=body, headers=sent)
        response = connection.getresponse()
        data = response.read()
        received = {name.lower(): value for name, value in response.getheaders()}
        if not data:
            return response.status, received, None
        try:
            parsed = json.loads(data)
        except json.JSONDecodeError:  # /metrics is Prometheus text
            parsed = data.decode("utf-8", errors="replace")
        return response.status, received, parsed
    finally:
        connection.close()


def _raw_http(port: int, request: bytes):
    """Send raw bytes; returns (status, lowered headers, body, server_closed)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall(request)
        reader = conn.makefile("rb")
        status = int(reader.readline().split(b" ", 2)[1])
        headers = {}
        for line in iter(reader.readline, b"\r\n"):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = reader.read(int(headers["content-length"]))
        return status, headers, json.loads(body), reader.read(1) == b""


def _verify_payload(entry, **extra) -> dict:
    payload = {"prefix": str(entry.prefix), "as_path": list(entry.as_path)}
    payload.update(extra)
    return payload


def _strip_id(response: str) -> str:
    """Peel the ``%% id <rid>`` comment every ``!v`` response leads with."""
    assert re.match(r"%% id [-A-Za-z0-9_.:/+=]{1,128}\n", response), response[:80]
    return response.split("\n", 1)[1]


def _journal_chain(ir, epochs: int, seed: int = 11):
    """``epochs`` chained churn steps from ``ir``: ``(snapshots, journals)``,
    ``snapshots[k + 1]`` being ``snapshots[k]`` with ``journals[k]`` applied."""
    from repro.irr.history import ChurnConfig, evolve_with_journal

    snapshots, journals, serial = [ir], [], 1
    for epoch in range(epochs):
        evolved, journal = evolve_with_journal(
            snapshots[-1], ChurnConfig(seed=seed), epoch=epoch, start_serial=serial
        )
        snapshots.append(evolved)
        journals.append(journal)
        serial = max(journal.serials().values(), default=serial) + 1
    return snapshots, journals


@pytest.fixture(scope="module")
def serve_session(tiny_world, tmp_path_factory):
    cache = tmp_path_factory.mktemp("serve-cache")
    with api.open_session(
        tiny_world, registry=MetricsRegistry(), cache_dir=cache
    ) as session:
        yield session


@pytest.fixture(scope="module")
def handle(serve_session):
    daemon = ServeDaemon(
        serve_session, ServeConfig(http_port=0, whois_port=0)
    )
    with daemon.start_in_thread() as running:
        yield running


class TestHttpFrontend:
    def test_healthz(self, handle, serve_session):
        status, body = _http(handle.http_port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["index_digest"] == serve_session.digest
        assert body["queue_size"] == 256

    def test_verify_round_trip(self, handle, tiny_routes):
        entry = tiny_routes[0]
        status, body = _http(
            handle.http_port, "POST", "/verify", _verify_payload(entry)
        )
        assert status == 200
        assert body["prefix"] == str(entry.prefix)
        assert body["as_path"] == list(entry.as_path)
        assert body["text"]
        assert all({"direction", "status", "items"} <= set(h) for h in body["hops"])

    def test_explain_round_trip(self, handle, tiny_routes):
        entry = tiny_routes[0]
        status, body = _http(
            handle.http_port, "POST", "/explain", _verify_payload(entry)
        )
        assert status == 200
        assert any(event["kind"] == "route" for event in body["events"])

    def test_bad_request(self, handle):
        status, body = _http(
            handle.http_port, "POST", "/verify", {"prefix": "not-a-prefix"}
        )
        assert status == 400
        assert body["error"] == "bad-request"

    def test_unknown_path_and_method(self, handle):
        status, body = _http(handle.http_port, "GET", "/nope")
        assert status == 404
        status, body = _http(handle.http_port, "GET", "/verify")
        assert status == 405

    def test_bit_identity_with_batch_verifier(
        self, handle, tiny_ir, tiny_world, tiny_routes
    ):
        """The serve verdicts must render character-identical to the batch
        pipeline's Appendix-C output for the same routes."""
        verifier = api.make_verifier(tiny_ir, tiny_world.topology)
        for entry in tiny_routes[:40]:
            expected = str(
                verifier.verify_route(
                    str(entry.prefix), entry.as_path, collector="serve"
                )
            )
            status, body = _http(
                handle.http_port, "POST", "/verify", _verify_payload(entry)
            )
            assert status == 200
            assert body["text"] == expected


class TestHttpEdgeCases:
    """Malformed framing is the client's fault (400), is answered, and the
    ``Connection`` header tells the truth about what the server does next."""

    def test_negative_content_length_is_bad_request(self, handle, caplog):
        with caplog.at_level("ERROR", logger="repro.serve.http"):
            status, headers, body, closed = _raw_http(
                handle.http_port,
                b"POST /verify HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n",
            )
        assert (status, body["detail"]) == (400, "bad Content-Length")
        # Where the body ends is unknown, so the connection cannot go on.
        assert headers["connection"] == "close" and closed
        assert not caplog.records  # a client error, not a logged 500

    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /" + b"a" * MAX_HEADER_BYTES + b" HTTP/1.1\r\nHost: t\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEADER_BYTES + b"\r\n\r\n",
        ],
        ids=["request-line", "header-line"],
    )
    def test_line_over_the_stream_limit_is_answered_400(
        self, handle, caplog, request_head
    ):
        with caplog.at_level("ERROR", logger="repro.serve.http"):
            status, headers, body, closed = _raw_http(handle.http_port, request_head)
        assert (status, body["detail"]) == (400, "headers too large")
        assert headers["connection"] == "close" and closed
        assert not caplog.records  # no "unhandled error on HTTP connection"

    def test_error_responses_say_what_the_server_does_next(self, handle):
        port = handle.http_port
        for request in (
            b"NONSENSE\r\n\r\n",  # malformed request line
            b"GET /nope HTTP/1.0\r\n\r\n",  # HTTP/1.0 request that fails
            b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
        ):
            status, headers, _, closed = _raw_http(port, request)
            assert status in (400, 404)
            assert headers["connection"] == "close" and closed, request
        # A failed request on a connection that stays up still says so —
        # and the connection really does serve the next request.
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            conn.sendall(b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
            reader = conn.makefile("rb")
            head = b"".join(iter(reader.readline, b"\r\n")).lower()
            assert head.startswith(b"http/1.1 404") and b"connection: keep-alive" in head
            reader.read(int(re.search(rb"content-length: (\d+)", head).group(1)))
            conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert reader.readline().startswith(b"HTTP/1.1 200")


class TestWhoisFrontend:
    def test_plain_lookup(self, handle, tiny_ir):
        asn = next(iter(tiny_ir.aut_nums))
        text = whois_query("127.0.0.1", handle.whois_port, f"AS{asn}")
        assert text.startswith("aut-num:")

    def test_bang_verify_matches_batch(
        self, handle, tiny_ir, tiny_world, tiny_routes
    ):
        entry = tiny_routes[0]
        verifier = api.make_verifier(tiny_ir, tiny_world.topology)
        expected = str(
            verifier.verify_route(str(entry.prefix), entry.as_path, collector="serve")
        )
        path = " ".join(str(asn) for asn in entry.as_path)
        framed = _strip_id(
            whois_query("127.0.0.1", handle.whois_port, f"!v {entry.prefix} {path}")
        )
        assert framed.startswith("A")
        payload = framed[framed.index("\n") + 1 :]
        assert payload.endswith("C")
        assert payload[: -len("\nC") or None].rstrip("\nC") == expected.rstrip()

    def test_bang_verify_bad_input(self, handle):
        response = _strip_id(
            whois_query("127.0.0.1", handle.whois_port, "!v nonsense")
        )
        assert response.startswith("F ")

    def test_unknown_set_lookups_leave_the_tables_as_they_were(self, serve_session):
        """A client asking for 5,000 distinct unknown sets gets 5,000 ``D``s
        and grows nothing: the front-end's engine (as ``serve/whois.py``
        builds it per lookup) reads the live generation and stores no
        answer."""
        from repro.irr.whois import WhoisEngine

        current = serve_session.current
        tables = (current.query, current.index)

        def sizes():
            return {
                (type(owner).__name__, name): len(value)
                for owner in tables
                for name in dir(owner)
                if not name.startswith("__")
                and isinstance(value := getattr(owner, name, None), dict)
            }

        before = sizes()
        answers = {
            WhoisEngine(current.ir, current.query).answer(f"!iAS-NOPE{n},1")
            for n in range(5000)
        }
        assert answers == {"D"}
        assert sizes() == before


class TestDeadlines:
    def test_deadline_expiry_is_structured(self, handle, tiny_routes):
        service = handle.daemon.service
        batches = service.health()["batches"]
        with use_faults(batch=lambda queries: time.sleep(0.4)):
            started = time.monotonic()
            status, body = _http(
                handle.http_port,
                "POST",
                "/verify",
                _verify_payload(tiny_routes[0], deadline_s=0.05),
            )
            elapsed = time.monotonic() - started
        assert status == 504
        assert body["error"] == "deadline"
        assert elapsed < 2  # answered at the deadline, not after the stall
        # The miss is counted on the session's registry.
        snapshot = handle.daemon.session.metrics_snapshot()
        misses = [
            counter
            for counter in snapshot["counters"]
            if counter["name"] == "serve_deadline_miss_total"
        ]
        assert misses and misses[0]["value"] >= 1
        # The stalled batch outlives the 504.  Let it finish, then answer
        # one ordinary request: admission reads the last batch's seconds
        # per query, and a 0.4 s stall landing in a later test on this
        # shared daemon made it shed part of that test's burst.
        waited = time.monotonic()
        while service.health()["batches"] == batches and time.monotonic() < waited + 5:
            time.sleep(0.01)
        status, _ = _http(
            handle.http_port, "POST", "/verify", _verify_payload(tiny_routes[0])
        )
        assert status == 200


class TestDeadlineValidation:
    def test_http_zero_deadline_is_bad_request(self, handle, tiny_routes):
        """Regression: deadline_s=0 used to be clamped by min() into an
        instant 504; it is a malformed request and must answer 400."""
        status, body = _http(
            handle.http_port,
            "POST",
            "/verify",
            _verify_payload(tiny_routes[0], deadline_s=0),
        )
        assert status == 400
        assert body["error"] == "bad-request"

    def test_submit_rejects_nonpositive_deadline_directly(
        self, serve_session, tiny_routes
    ):
        """A Query built in code (bypassing from_payload) must be refused
        by submit itself, not turned into an instant deadline miss."""
        from repro.serve import BadRequestError
        from repro.serve.core import VerifyService

        entry = tiny_routes[0]

        async def scenario():
            service = VerifyService(serve_session, ServeConfig())
            await service.start()
            try:
                query = Query(
                    kind="verify",
                    prefix=str(entry.prefix),
                    as_path=tuple(entry.as_path),
                    deadline_s=-1.0,
                )
                with pytest.raises(BadRequestError):
                    await service.submit(query)
            finally:
                await service.stop()

        asyncio.run(scenario())


class TestDrainPaths:
    def test_stop_is_idempotent(self, serve_session):
        """A second ``stop()``, or leaving the ``with`` block after an
        explicit one, returns: the daemon's loop is closed by then."""
        config = ServeConfig(http_port=0)
        handle = ServeDaemon(serve_session, config).start_in_thread()
        handle.stop()
        handle.stop()
        with ServeDaemon(serve_session, config).start_in_thread() as running:
            running.stop()
        assert not running._thread.is_alive()
        running.daemon.request_shutdown()  # and from no handle at all

    def test_drain_timeout_returns_false_and_waiters_get_busy(
        self, serve_session, tiny_routes
    ):
        """An expiring drain must report False, and the still-queued
        waiters must fail with BusyError at stop — never hang."""
        from repro.serve import BusyError
        from repro.serve.core import VerifyService

        query = Query.from_payload(_verify_payload(tiny_routes[0]), "verify")

        async def scenario():
            service = VerifyService(
                serve_session,
                ServeConfig(queue_size=64, batch_max=1, default_deadline=30.0),
            )
            await service.start()
            tasks = [
                asyncio.create_task(service.submit(query)) for _ in range(6)
            ]
            await asyncio.sleep(0.05)  # let them enqueue
            drained = await service.drain(timeout=0.05)
            assert drained is False  # queued work remained
            with pytest.raises(BusyError):
                await service.submit(query)  # draining refuses admission
            await service.stop()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            assert all(
                isinstance(result, (bytes, BusyError)) for result in results
            )
            assert any(isinstance(result, BusyError) for result in results)

        with use_faults(batch=lambda queries: time.sleep(0.2)):
            asyncio.run(scenario())

    def test_post_drain_submit_refused_on_both_frontends(
        self, tiny_world, tiny_routes
    ):
        with api.open_session(
            tiny_world, registry=MetricsRegistry(), use_cache=False
        ) as session:
            daemon = ServeDaemon(
                session, ServeConfig(http_port=0, whois_port=0)
            )
            with daemon.start_in_thread() as running:
                daemon.service.begin_drain()
                entry = tiny_routes[0]
                status, body = _http(
                    running.http_port, "POST", "/verify", _verify_payload(entry)
                )
                assert status == 429
                assert body["error"] == "busy"
                path = " ".join(str(asn) for asn in entry.as_path)
                response = whois_query(
                    "127.0.0.1",
                    running.whois_port,
                    f"!v {entry.prefix} {path}",
                )
                assert _strip_id(response).startswith("%% BUSY")


class TestConcurrency:
    def test_sustains_100_concurrent_requests(self, handle, tiny_routes):
        """≥100 in-flight requests, default queue: every one is answered."""
        entries = [tiny_routes[i % len(tiny_routes)] for i in range(150)]
        with ThreadPoolExecutor(max_workers=150) as pool:
            results = list(
                pool.map(
                    lambda entry: _http(
                        handle.http_port, "POST", "/verify", _verify_payload(entry)
                    ),
                    entries,
                )
            )
        statuses = [status for status, _ in results]
        assert statuses.count(200) == 150
        health = handle.daemon.service.health()
        # Micro-batching actually coalesced concurrent arrivals: strictly
        # fewer batches than executed queries.
        assert health["batches"] < health["queries"]

    def test_flood_backpressure_bounded_queue(self, tiny_world, tmp_path):
        """A tiny queue under slow batches refuses with 429, never
        buffers unboundedly, and still answers admitted requests."""
        with api.open_session(
            tiny_world, registry=MetricsRegistry(), use_cache=False
        ) as session:
            daemon = ServeDaemon(
                session,
                ServeConfig(
                    http_port=0, queue_size=4, batch_max=2, default_deadline=30.0
                ),
            )
            slow = use_faults(batch=lambda queries: time.sleep(0.05))
            with daemon.start_in_thread() as running, slow:
                route = {
                    "prefix": "0.0.0.0/0",
                    "as_path": [64500],
                }
                with ThreadPoolExecutor(max_workers=32) as pool:
                    results = list(
                        pool.map(
                            lambda _: _http(
                                running.http_port, "POST", "/verify", route
                            ),
                            range(32),
                        )
                    )
                statuses = [status for status, _ in results]
                assert set(statuses) <= {200, 429}
                assert statuses.count(429) >= 1
                assert statuses.count(200) >= 1
                busy_bodies = [
                    body for status, body in results if status == 429
                ]
                assert all(body["error"] == "busy" for body in busy_bodies)


def _histogram(registry, name: str, **labels) -> dict:
    return next(
        histogram
        for histogram in registry.snapshot()["histograms"]
        if histogram["name"] == name and histogram["labels"] == labels
    )


class TestNaturalBatching:
    """The dispatch rule: a query leaves the queue when an execution slot is
    free — no timer for one-at-a-time traffic, one coalescing period after
    a batch of several — and in-process batches run on the loop, one at a time."""

    @staticmethod
    def _queries(routes, **extra):
        return [Query.from_payload(_verify_payload(e, **extra), "verify") for e in routes]

    def test_lone_submit_on_idle_service_waits_for_nothing(
        self, tiny_world, tiny_routes
    ):
        from repro.serve.core import VerifyService
        from repro.serve.telemetry import RequestTelemetry

        (query,) = self._queries(tiny_routes[:1])

        async def scenario(session):
            # No flight ring either: nothing on the path waits for one.
            service = await VerifyService(session, ServeConfig(flight_events=0)).start()
            assert not service.flight.enabled
            try:
                waits = []
                for number in range(6):
                    telemetry = RequestTelemetry(f"lone-{number}", "direct")
                    await service.submit(query, telemetry)
                    stages = telemetry.stages()
                    waits.append(stages["queue"] + stages["coalesce"])
                return waits
            finally:
                await service.stop()

        with api.open_session(
            tiny_world, registry=MetricsRegistry(), use_cache=False
        ) as session:
            waits = asyncio.run(scenario(session))
            sizes = _histogram(session.registry, "serve_batch_size")
        # Structural, not a latency percentile: any pacing timer puts a
        # floor under *every* request, so the best of six would show it.
        assert min(waits) < 0.001, waits
        assert (sizes["count"], sizes["sum"]) == (6, 6)  # six batches of one

    @pytest.mark.parametrize("later, expected", [(2, [1, 5]), (8, [1, 8, 3])])
    def test_arrivals_during_a_held_batch_form_the_next_batch(
        self, serve_session, tiny_routes, later, expected
    ):
        """Everything that lands while a batch executes — however spread out
        — is one next batch of min(N, batch_max), not one batch per burst."""
        from repro.serve.core import VerifyService

        queries = self._queries(tiny_routes[: 4 + later])
        release = threading.Event()
        seen: list[int] = []

        def hold_first_batch(batch) -> None:
            seen.append(len(batch))
            if len(seen) == 1:
                assert release.wait(10)

        async def scenario():
            service = await VerifyService(
                serve_session, ServeConfig(batch_max=8)
            ).start()
            try:
                tasks = [asyncio.create_task(service.submit(queries[0]))]
                while not seen:
                    await asyncio.sleep(0.001)
                tasks += [asyncio.create_task(service.submit(q)) for q in queries[1:4]]
                await asyncio.sleep(0.02)  # far longer than any coalescing window
                tasks += [asyncio.create_task(service.submit(q)) for q in queries[4:]]
                await asyncio.sleep(0.02)
                release.set()
                return await asyncio.gather(*tasks)
            finally:
                release.set()
                await service.stop()

        with use_faults(batch=hold_first_batch):
            results = asyncio.run(scenario())
        assert len(results) == len(queries) and all(json.loads(r)["text"] for r in results)
        assert seen == expected

    def test_backlog_holds_the_loop_for_one_batch_at_a_time(
        self, tiny_world, tiny_routes
    ):
        """A queue_size-deep backlog of cold queries on the loop path:
        /healthz gets its answer between batches, not after the backlog."""
        from repro.serve.core import VerifyService
        from repro.serve.http import HttpFrontend

        queries = self._queries(tiny_routes[:256])

        async def scenario(session):
            service = await VerifyService(
                session, ServeConfig(queue_size=256, batch_max=16)
            ).start()
            frontend = await HttpFrontend(service, "127.0.0.1", 0).start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", frontend.port)
                writer.write(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                tasks = [asyncio.create_task(service.submit(q)) for q in queries]
                response = await asyncio.wait_for(reader.read(), 30)
                writer.close()
                results = await asyncio.gather(*tasks)
                return json.loads(response.split(b"\r\n\r\n", 1)[1]), results
            finally:
                await frontend.close()
                await service.stop()

        with api.open_session(
            tiny_world, registry=MetricsRegistry(), use_cache=False
        ) as session:
            health, results = asyncio.run(scenario(session))
        assert len(results) == 256 and all(json.loads(r)["text"] for r in results)
        # The health snapshot was taken mid-backlog: verdicts still queued.
        assert health["queue_depth"] > 0, health
        assert health["queries"] < 256

    def test_reload_under_flood_never_blocks_the_loop(self, tiny_world, tiny_routes):
        """workers=0: while a reload patches the session (on its own
        thread, holding the session lock) the loop keeps answering;
        batches that land meanwhile await the lock on the loop; nothing is dropped and
        every verdict comes from exactly the old or the new index.  WHOIS
        lookups only read: they are answered *during* the patch, from the
        generation it has not yet replaced — they take no lock."""
        from repro.irr.history import ChurnConfig, evolve_with_journal
        from repro.irr.whois import WhoisEngine

        routes = tiny_routes[:24]
        session = api.open_session(
            tiny_world,
            as_rel=tiny_world.topology,
            registry=MetricsRegistry(),
            use_cache=False,
        )
        churned, journal = evolve_with_journal(session.ir, ChurnConfig(seed=13))

        def texts(ir) -> list[str]:
            verifier = api.make_verifier(ir, tiny_world.topology)
            return [
                str(verifier.verify_route(str(e.prefix), e.as_path, collector="serve"))
                for e in routes
            ]

        allowed = [set(pair) for pair in zip(texts(session.ir), texts(churned))]
        asn = next(entry.key[1] for entry in journal if entry.cls == "route")
        lookups = (f"!gAS{asn}", f"AS{asn}", f"-i origin AS{asn}")
        engine = WhoisEngine(session.ir)
        old_answers = [engine.answer(query) for query in lookups]
        patching, patched = threading.Event(), threading.Event()
        apply_deltas = session.apply_deltas

        def slow_apply(fresh):
            patching.set()
            time.sleep(0.5)
            try:
                return apply_deltas(fresh)
            finally:
                patched.set()

        session.apply_deltas = slow_apply
        outcomes: list = []
        stop = threading.Event()

        def client(port: int, offset: int) -> None:
            position = offset
            while not stop.is_set():
                position = (position + 1) % len(routes)
                status, body = _http(
                    port,
                    "POST",
                    "/verify",
                    _verify_payload(routes[position], deadline_s=25),
                )
                outcomes.append((position, status, body))

        try:
            config = ServeConfig(http_port=0, whois_port=0)
            with ServeDaemon(session, config).start_in_thread() as handle:
                threads = [
                    threading.Thread(target=client, args=(handle.http_port, k))
                    for k in range(4)
                ]
                for thread in threads:
                    thread.start()
                reload_result: list = []
                reloader = threading.Thread(
                    target=lambda: reload_result.append(
                        _http(
                            handle.http_port,
                            "POST",
                            "/reload",
                            {"journal": journal.to_jsonable()},
                        )
                    )
                )
                reloader.start()
                assert patching.wait(30)
                status, health = _http(handle.http_port, "GET", "/healthz")
                answered_during_patch = not patched.is_set()
                looked_up = [
                    whois_query("127.0.0.1", handle.whois_port, q) for q in lookups
                ]
                looked_up_during_patch = not patched.is_set()
                reloader.join(30)
                time.sleep(0.1)  # the flood goes on over the new generation
                stop.set()
                for thread in threads:
                    thread.join(30)
                assert not reloader.is_alive()
                assert not any(thread.is_alive() for thread in threads)
        finally:
            stop.set()
            session.close()
        assert status == 200 and answered_during_patch
        assert looked_up_during_patch and looked_up == old_answers
        assert health["index_generation"] == 0 and health["journal_serials"] == {}
        assert reload_result[0][0] == 200 and reload_result[0][1]["generation"] == 1
        assert len(outcomes) > 20
        assert {status for _, status, _ in outcomes} == {200}
        strays = [p for p, _, body in outcomes if body["text"] not in allowed[p]]
        assert not strays

    def test_query_expired_while_queued_is_skipped_not_executed(
        self, serve_session, tiny_routes, monkeypatch
    ):
        from repro.serve import DeadlineExpired
        from repro.serve.core import VerifyService

        (blocker,) = self._queries(tiny_routes[:1])
        (doomed,) = self._queries(tiny_routes[1:2], deadline_s=0.05)
        executed: list[str] = []
        verify_route = serve_session.verify_route

        def spy(prefix, as_path, **kwargs):
            executed.append(prefix)
            return verify_route(prefix, as_path, **kwargs)

        monkeypatch.setattr(serve_session, "verify_route", spy)
        misses = serve_session.registry.counter("serve_deadline_miss_total")

        async def scenario():
            service = await VerifyService(
                serve_session, ServeConfig(batch_max=1)
            ).start()
            try:
                first = asyncio.create_task(service.submit(blocker))
                await asyncio.sleep(0.01)  # the blocker's batch holds the slot
                with pytest.raises(DeadlineExpired):
                    await service.submit(doomed)
                await first
                await service.drain(5)  # the doomed query's batch has run
            finally:
                await service.stop()

        before = misses.value
        with use_faults(batch=lambda batch: time.sleep(0.2)):
            asyncio.run(scenario())
        assert misses.value == before + 1
        assert executed == [blocker.prefix]

    def test_coalescing_period_follows_only_coalesced_batches(
        self, serve_session, tiny_routes
    ):
        """The one timer on the path: a slot that ran a batch of more than
        one query stays closed until COALESCE_PERIOD_S after that batch was
        collected; a batch of one, or one longer than the period, does not
        delay the next.  A batch's collection and its queries' finish are
        read off their telemetry; the slow batch is held by a batch fault
        that sleeps when it sees three queries."""
        from repro.serve.core import COALESCE_PERIOD_S, VerifyService
        from repro.serve.telemetry import RequestTelemetry

        queries = self._queries(tiny_routes[:3])
        batches: list[list[RequestTelemetry]] = []

        def hold_the_batch_of_three(batch) -> None:
            if len(batch) == 3:
                time.sleep(3 * COALESCE_PERIOD_S)

        async def scenario() -> list[int]:
            service = await VerifyService(serve_session, ServeConfig()).start()
            counts = []

            async def burst(size: int) -> None:
                records = [RequestTelemetry(f"burst-{size}", "direct") for _ in range(size)]
                await asyncio.gather(
                    *(service.submit(q, t) for q, t in zip(queries, records))
                )
                batches.append(records)
                counts.append(service.batches)

            try:
                for size in (1, 1, 2, 1, 3, 1):
                    if size == 3:
                        # Installed for this burst only: the others run on
                        # the loop, so a batch of one takes next to nothing.
                        with use_faults(batch=hold_the_batch_of_three):
                            await burst(size)
                    else:
                        await burst(size)
            finally:
                await service.stop()
            return counts

        gaps: dict[str, list[float]] = {"lone": [], "coalesced": [], "slow": []}
        for _ in range(5):
            batches.clear()
            assert asyncio.run(scenario()) == [1, 2, 3, 4, 5, 6]  # a batch per burst
            collected = [min(t.collected for t in b) for b in batches]
            finished = [max(t.finished for t in b) for b in batches]
            gaps["lone"].append(collected[1] - collected[0])
            gaps["coalesced"].append(collected[3] - collected[2])
            gaps["slow"].append(collected[5] - finished[4])
        # Lower bounds hold on every run; "at once" is the best of five.
        assert min(gaps["coalesced"]) >= COALESCE_PERIOD_S * 0.99, gaps
        assert min(gaps["lone"]) < COALESCE_PERIOD_S / 2, gaps
        assert min(gaps["slow"]) < COALESCE_PERIOD_S / 2, gaps

    def test_batch_window_is_gone(self):
        with pytest.raises(TypeError):
            ServeConfig(batch_window=0.002)

    @pytest.mark.parametrize("config", ["ServeConfig", "SupervisorConfig"])
    @pytest.mark.parametrize(
        "mechanism, knob",
        [
            ("shed", "target"),
            ("shed", "interval"),
            ("breaker", "failures"),
            ("breaker", "cooldown"),
        ],
    )
    def test_shedder_and_breaker_knobs_are_gone(self, config, mechanism, knob):
        """One admission rule and one pool-health rule; neither has a knob."""
        import repro.serve

        with pytest.raises(TypeError):
            getattr(repro.serve, config)(**{f"{mechanism}_{knob}": 1})

    def test_queue_depth_gauge_reads_zero_when_idle(self, handle, tiny_routes):
        for entry in tiny_routes[:3]:
            assert _http(handle.http_port, "POST", "/verify", _verify_payload(entry))[0] == 200
        gauges = handle.daemon.session.metrics_snapshot()["gauges"]
        (depth,) = [g["value"] for g in gauges if g["name"] == "serve_queue_depth"]
        assert handle.daemon.service.health()["queue_depth"] == 0
        assert depth == 0


class TestWarmLatencyMetrics:
    def test_no_reload_or_recompile_per_request(self, handle, tiny_routes):
        """The acceptance check for warm serving: after many queries the
        index was adopted exactly once (one cache event at startup), while
        the request counters kept growing — every request was answered
        from the resident index, never a reload/recompile."""
        for entry in tiny_routes[:10]:
            status, _ = _http(
                handle.http_port, "POST", "/verify", _verify_payload(entry)
            )
            assert status == 200
        connection = http.client.HTTPConnection(
            "127.0.0.1", handle.http_port, timeout=10
        )
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            assert response.status == 200
            text = response.read().decode()
        finally:
            connection.close()
        parsed = parse_prometheus(text)
        cache_total = sum(
            counter["value"]
            for counter in parsed["counters"]
            if counter["name"] == "index_cache_total"
        )
        assert cache_total == 1
        served = sum(
            counter["value"]
            for counter in parsed["counters"]
            if counter["name"] == "serve_requests_total"
            and counter["labels"].get("outcome") == "ok"
        )
        assert served >= 10
        assert any(
            histogram["name"] == "serve_request_seconds"
            for histogram in parsed["histograms"]
        )


class TestRequestIds:
    def test_client_id_is_echoed_everywhere(self, handle, tiny_routes):
        """One correlation id greps the whole story: response header,
        flight-recorder request event, and the access-log record."""
        rid = "test-correlation-0001"
        status, headers, body = _http_full(
            handle.http_port,
            "POST",
            "/verify",
            _verify_payload(tiny_routes[0]),
            headers={"X-Request-Id": rid},
        )
        assert status == 200
        assert headers["x-request-id"] == rid
        events = handle.daemon.service.flight.events(request=rid)
        assert any(event["kind"] == "request" for event in events)
        request_event = next(e for e in events if e["kind"] == "request")
        assert request_event["outcome"] == "ok"
        assert request_event["frontend"] == "http"
        assert request_event["endpoint"] == "verify"

    def test_missing_id_gets_generated(self, handle):
        status, headers, _ = _http_full(handle.http_port, "GET", "/healthz")
        assert status == 200
        assert re.fullmatch(r"[0-9a-f]{32}", headers["x-request-id"])

    def test_dirty_id_is_replaced_not_propagated(self, handle):
        status, headers, _ = _http_full(
            handle.http_port,
            "GET",
            "/healthz",
            headers={"X-Request-Id": "has spaces and\ttabs"},
        )
        assert status == 200
        assert re.fullmatch(r"[0-9a-f]{32}", headers["x-request-id"])

    def test_error_responses_carry_the_id(self, handle):
        rid = "bad-req-42"
        status, headers, body = _http_full(
            handle.http_port,
            "POST",
            "/verify",
            {"prefix": "not-a-prefix"},
            headers={"X-Request-Id": rid},
        )
        assert status == 400
        assert headers["x-request-id"] == rid
        assert body["error"] == "bad-request"

    def test_whois_id_lands_in_the_flight_ring(self, handle, tiny_routes):
        entry = tiny_routes[0]
        path = " ".join(str(asn) for asn in entry.as_path)
        response = whois_query(
            "127.0.0.1", handle.whois_port, f"!v {entry.prefix} {path}"
        )
        rid = response.split("\n", 1)[0].split()[-1]
        events = handle.daemon.service.flight.events(request=rid)
        request_event = next(e for e in events if e["kind"] == "request")
        assert request_event["frontend"] == "whois"
        assert request_event["outcome"] == "ok"


class TestServeTelemetry:
    def test_metrics_content_type_is_prometheus(self, handle):
        from repro.obs import PROMETHEUS_CONTENT_TYPE

        status, headers, _ = _http_full(handle.http_port, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE

    def test_json_endpoints_send_application_json(self, handle, tiny_routes):
        for status_expected, method, path, payload in (
            (200, "GET", "/healthz", None),
            (200, "POST", "/verify", _verify_payload(tiny_routes[0])),
            (404, "GET", "/nope", None),
        ):
            status, headers, _ = _http_full(
                handle.http_port, method, path, payload
            )
            assert status == status_expected
            assert headers["content-type"].startswith("application/json")

    def test_debug_flight_endpoint(self, handle, tiny_routes):
        rid = "debug-flight-probe"
        _http_full(
            handle.http_port,
            "POST",
            "/verify",
            _verify_payload(tiny_routes[0]),
            headers={"X-Request-Id": rid},
        )
        status, headers, body = _http_full(
            handle.http_port, "GET", f"/debug/flight?id={rid}"
        )
        assert status == 200
        assert body["enabled"] is True
        assert body["stats"]["capacity"] > 0
        assert all(event["ids"]["request"] == rid for event in body["events"])
        assert any(event["kind"] == "request" for event in body["events"])
        # type + limit filters
        status, _, body = _http_full(
            handle.http_port, "GET", "/debug/flight?type=request&limit=3"
        )
        assert status == 200
        assert len(body["events"]) <= 3
        assert all(event["kind"] == "request" for event in body["events"])
        # malformed numbers are a client error, not a 500
        status, _, body = _http_full(
            handle.http_port, "GET", "/debug/flight?limit=banana"
        )
        assert status == 400

    def test_stage_and_queue_wait_histograms(self, handle, tiny_routes):
        for entry in tiny_routes[:5]:
            _http(handle.http_port, "POST", "/verify", _verify_payload(entry))
        status, _, _ = _http_full(handle.http_port, "GET", "/healthz")
        assert status == 200
        connection = http.client.HTTPConnection(
            "127.0.0.1", handle.http_port, timeout=10
        )
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode()
        finally:
            connection.close()
        parsed = parse_prometheus(text)
        stages_seen = {
            histogram["labels"].get("stage")
            for histogram in parsed["histograms"]
            if histogram["name"] == "serve_stage_seconds"
        }
        assert {"accept", "queue", "coalesce", "execute", "respond"} <= stages_seen
        wait_outcomes = {
            histogram["labels"].get("outcome")
            for histogram in parsed["histograms"]
            if histogram["name"] == "serve_queue_wait_seconds"
        }
        assert "executed" in wait_outcomes

    def test_access_log_schema_and_slow_promotion(
        self, tiny_world, tiny_routes, tmp_path
    ):
        """Every request writes one JSONL access-log record matching the
        documented schema; with a tiny --slow-ms everything is also
        promoted to the slow log."""
        access = tmp_path / "access.jsonl"
        with api.open_session(
            tiny_world, registry=MetricsRegistry(), use_cache=False
        ) as session:
            daemon = ServeDaemon(
                session,
                ServeConfig(
                    http_port=0,
                    access_log=str(access),
                    slow_ms=0.0001,
                    incident_dir=str(tmp_path),
                ),
            )
            with daemon.start_in_thread() as running:
                rid = "access-log-probe"
                status, headers, _ = _http_full(
                    running.http_port,
                    "POST",
                    "/verify",
                    _verify_payload(tiny_routes[0]),
                    headers={"X-Request-Id": rid},
                )
                assert status == 200
        _, records = read_events(access)
        assert records, "access log is empty"
        record = next(r for r in records if r["ids"]["request"] == rid)
        assert {
            "ts", "kind", "ids", "frontend", "endpoint", "outcome", "verdicts",
            "total_ms", "stages_ms",
        } == set(record)
        assert record["kind"] == "request"
        assert record["ids"] == {"request": rid, "generation": 0}
        assert record["frontend"] == "http"
        assert record["endpoint"] == "verify"
        assert record["outcome"] == "ok"
        assert record["verdicts"] >= 1
        assert set(record["stages_ms"]) == {
            "accept", "queue", "coalesce", "dispatch", "execute", "respond",
        }
        assert record["total_ms"] > 0
        slow = access.with_name(access.name + ".slow")
        assert record in read_events(slow)[1]

    def test_worker_pool_stamps_request_id_in_worker_process(
        self, tiny_world, tiny_routes, tmp_path
    ):
        """The acceptance criterion: the correlation id must reach events
        recorded *inside* the worker process and ride back to the
        parent's flight ring."""
        with api.open_session(
            tiny_world, registry=MetricsRegistry(), use_cache=False
        ) as session:
            daemon = ServeDaemon(
                session,
                ServeConfig(
                    http_port=0, workers=1, incident_dir=str(tmp_path)
                ),
            )
            with daemon.start_in_thread() as running:
                rid = "worker-side-probe"
                status, headers, _ = _http_full(
                    running.http_port,
                    "POST",
                    "/verify",
                    _verify_payload(tiny_routes[0]),
                    headers={"X-Request-Id": rid},
                )
                assert status == 200
                assert headers["x-request-id"] == rid
                events = daemon.service.flight.events(request=rid)
                executes = [
                    e for e in events if e["kind"] == "worker-execute"
                ]
                assert executes, f"no worker-execute event for {rid}: {events}"
                assert all(e["ids"]["worker"] != os.getpid() for e in executes)
                assert executes[0]["outcome"] == "ok"

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_id_finds_the_stages_the_generation_and_the_matched_rules(
        self, workers, tiny_world, tiny_routes, tmp_path
    ):
        """One log, one query: after a hot swap every event carries the new
        generation, and an ``/explain`` request's id finds its stage
        breakdown *and* its per-hop decision events — recorded in a pool
        worker or in-process alike."""
        access = tmp_path / "access.jsonl"
        probe = _verify_payload(tiny_routes[0])
        with api.open_session(
            tiny_world, registry=MetricsRegistry(), use_cache=False
        ) as session:
            _, (journal,) = _journal_chain(session.ir, 1)
            config = ServeConfig(http_port=0, workers=workers, access_log=str(access))
            with ServeDaemon(session, config).start_in_thread() as running:
                port = running.http_port
                assert _http(port, "POST", "/verify", probe)[0] == 200
                status, summary = _http(
                    port, "POST", "/reload", {"journal": journal.to_jsonable()}
                )
                assert status == 200 and summary["generation"] == 1
                rid = "explain-probe"
                status, _, explained = _http_full(
                    port, "POST", "/explain", probe, headers={"X-Request-Id": rid}
                )
                assert status == 200
                _, _, flight = _http_full(port, "GET", f"/debug/flight?id={rid}")
                _, _, executes = _http_full(
                    port, "GET", "/debug/flight?type=worker-execute"
                )
        events = flight["events"]
        assert all(
            event["ids"]["request"] == rid and event["ids"]["generation"] == 1
            for event in events
        )
        by_kind: dict[str, list] = {}
        for event in events:
            by_kind.setdefault(event["kind"], []).append(event)
        (request,) = by_kind["request"]
        assert request["endpoint"] == "explain" and request["outcome"] == "ok"
        assert len(by_kind["route"]) == 1
        # The ring holds exactly the events the response itself carried.
        assert by_kind["route"] + by_kind["hop"] == explained["events"]
        assert len(by_kind["hop"]) == len(explained["hops"])
        assert any("rule" in hop for hop in by_kind["hop"])
        assert len(by_kind.get("worker-execute", ())) == (1 if workers else 0)
        generations = [e["ids"]["generation"] for e in executes["events"]]
        assert generations == ([0, 1] if workers else [])
        # The access log: the same request line, and the generation moving.
        _, lines = read_events(access)
        assert request in lines
        by_endpoint = {line["endpoint"]: line["ids"]["generation"] for line in lines}
        assert by_endpoint["verify"] == 0 and by_endpoint["explain"] == 1


class TestQueryValidation:
    def test_payload_round_trip(self):
        query = Query.from_payload(
            {"prefix": "10.0.0.0/24", "as_path": [1, 2, 3], "deadline_s": 2},
            "verify",
        )
        assert query.as_path == (1, 2, 3)
        assert query.deadline_s == 2.0

    @pytest.mark.parametrize(
        "payload",
        [
            {"as_path": [1]},
            {"prefix": "10.0.0.0/24"},
            {"prefix": "10.0.0.0/24", "as_path": []},
            {"prefix": "10.0.0.0/24", "as_path": ["x"]},
            {"prefix": "10.0.0.0/24", "as_path": [1], "deadline_s": -1},
            {"prefix": "banana", "as_path": [1]},
            {"prefix": "10.0.0.0/24", "as_path": [2**40]},
        ],
    )
    def test_rejects_malformed(self, payload):
        from repro.serve import BadRequestError

        with pytest.raises(BadRequestError):
            Query.from_payload(payload, "verify")

    def test_report_as_dict_text_matches_str(self, tiny_verifier, tiny_routes):
        report = tiny_verifier.verify_entry(tiny_routes[0])
        assert report_as_dict(report)["text"] == str(report)


def _spawn_serve(tiny_world_dir: Path, extra: list[str] | None = None):
    """Launch ``rpslyzer serve`` as a subprocess; returns (proc, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--ir",
            str(tiny_world_dir),
            "--as-rel",
            str(tiny_world_dir / "as-rel.txt"),
            "--http-port",
            "0",
            "--no-index-cache",
            *(extra or []),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    port = None
    deadline = time.monotonic() + 60
    banner = []
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if not line:
            break
        banner.append(line)
        matched = re.search(r"http on 127\.0\.0\.1:(\d+)", line)
        if matched:
            port = int(matched.group(1))
            break
    if port is None:
        process.kill()
        raise AssertionError(f"no http banner from serve: {''.join(banner)!r}")
    return process, port


class TestReload:
    """POST /reload and the hot-swap path (incremental ingestion)."""

    @pytest.fixture()
    def reload_handle(self, tiny_world):
        """A private daemon per test: reloads mutate the session."""
        from repro.irr.history import ChurnConfig, evolve_with_journal

        session = api.open_session(
            tiny_world,
            as_rel=tiny_world.topology,
            registry=MetricsRegistry(),
            use_cache=False,
        )
        daemon = ServeDaemon(session, ServeConfig(http_port=0, workers=2))
        try:
            with daemon.start_in_thread() as running:
                yield running, session, ChurnConfig, evolve_with_journal
        finally:
            session.close()

    def test_reload_advances_generation(self, reload_handle):
        handle, session, ChurnConfig, evolve_with_journal = reload_handle
        _, journal = evolve_with_journal(session.ir, ChurnConfig(seed=11))
        status, body = _http(handle.http_port, "GET", "/healthz")
        assert body["index_generation"] == 0 and body["journal_serials"] == {}
        status, summary = _http(
            handle.http_port, "POST", "/reload", {"journal": journal.to_jsonable()}
        )
        assert status == 200
        assert summary["applied"] == len(journal)
        assert summary["generation"] == 1
        assert not summary["degraded"]
        assert summary["pool"]["reloaded"] == 2
        assert summary["pool"]["retired"] == 0
        status, body = _http(handle.http_port, "GET", "/healthz")
        assert body["index_generation"] == 1
        assert body["journal_serials"] == journal.serials()
        assert body["last_delta_apply_s"] > 0

    def test_worker_reloaded_events_arrive_with_the_reload(self, reload_handle):
        """Each swapped worker's ``worker-reloaded`` event lands in the
        flight ring with its reload's answer — not with the worker's next
        batch, which a worker retired first never sends."""
        handle, session, ChurnConfig, evolve_with_journal = reload_handle
        _, journal = evolve_with_journal(session.ir, ChurnConfig(seed=11))
        status, summary = _http(
            handle.http_port, "POST", "/reload", {"journal": journal.to_jsonable()}
        )
        assert status == 200 and summary["pool"]["reloaded"] == 2
        service = handle.daemon.service
        events = service.flight.events(kinds=["worker-reloaded"])  # no /verify yet
        assert len(events) == 2
        assert [event["ids"]["generation"] for event in events] == [1, 1]
        assert {event["ids"]["worker"] for event in events} == set(
            service.supervisor.worker_pids()
        )

    def test_reload_past_a_wedged_worker(self, tiny_world, tiny_routes):
        """A SIGSTOPped worker cannot take the reload: it is retired, a
        replacement warms on the new generation, and every request after
        the swap is answered from generation 1."""
        from repro.irr.history import ChurnConfig, evolve_with_journal

        session = api.open_session(
            tiny_world, as_rel=tiny_world.topology, use_cache=False
        )
        _, journal = evolve_with_journal(session.ir, ChurnConfig(seed=11))
        config = ServeConfig(
            http_port=0,
            workers=2,
            hang_timeout=1.0,
            heartbeat_interval=0.1,
            heartbeat_timeout=0.5,
        )
        try:
            with ServeDaemon(session, config).start_in_thread() as handle:
                supervisor = handle.daemon.service.supervisor
                wedged = supervisor.worker_pids()[0]
                HungWorker()(wedged)
                status, summary = _http(
                    handle.http_port,
                    "POST",
                    "/reload",
                    {"journal": journal.to_jsonable()},
                )
                assert status == 200 and summary["generation"] == 1
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline and (
                    len(pids := supervisor.worker_pids()) < 2 or wedged in pids
                ):
                    time.sleep(0.05)
                pids = supervisor.worker_pids()
                assert len(pids) == 2 and wedged not in pids
                rids = [f"wedged-{n}" for n in range(12)]
                with ThreadPoolExecutor(max_workers=4) as clients:
                    statuses = list(
                        clients.map(
                            lambda rid: _http_full(
                                handle.http_port,
                                "POST",
                                "/verify",
                                _verify_payload(tiny_routes[0]),
                                headers={"X-Request-Id": rid},
                            )[0],
                            rids,
                        )
                    )
                assert statuses == [200] * len(rids)
                executes = handle.daemon.service.flight.events(
                    kinds=["worker-execute"]
                )
                assert {event["ids"]["request"] for event in executes} == set(rids)
                assert {event["ids"]["generation"] for event in executes} == {1}
        finally:
            session.close()

    def test_reload_is_idempotent(self, reload_handle):
        handle, session, ChurnConfig, evolve_with_journal = reload_handle
        _, journal = evolve_with_journal(session.ir, ChurnConfig(seed=11))
        payload = {"journal": journal.to_jsonable()}
        _http(handle.http_port, "POST", "/reload", payload)
        status, summary = _http(handle.http_port, "POST", "/reload", payload)
        assert status == 200
        assert summary["applied"] == 0
        assert summary["generation"] == 1  # no spurious recompile

    def test_reload_rejects_garbage(self, reload_handle, tmp_path):
        from repro.irr.journal import save_journal

        handle, session, ChurnConfig, evolve_with_journal = reload_handle
        status, body = _http(handle.http_port, "POST", "/reload", {"nope": 1})
        assert status == 400
        status, body = _http(
            handle.http_port, "POST", "/reload", {"journal": {"format": "x"}}
        )
        assert status == 400
        # The daemon reads no file a client names, not even a valid journal:
        # the operator's --journal follower is how a file is fed.
        _, journal = evolve_with_journal(session.ir, ChurnConfig(seed=11))
        save_journal(journal, tmp_path / "feed.jsonl")
        for path in (tmp_path / "feed.jsonl", "/does/not/exist.jsonl"):
            status, body = _http(
                handle.http_port, "POST", "/reload", {"journal_path": str(path)}
            )
            assert status == 400
        assert session.generation == 0
        status, _ = _http(handle.http_port, "GET", "/reload")
        assert status == 405

    def test_hot_swap_under_flood_drops_nothing(self, reload_handle, tiny_routes):
        """Chaos: flood /verify while /reload swaps the pool.  Every
        in-flight request must get a verdict — zero drops, zero errors."""
        handle, session, ChurnConfig, evolve_with_journal = reload_handle
        _, journal = evolve_with_journal(session.ir, ChurnConfig(seed=13))
        entry = tiny_routes[0]
        payload = _verify_payload(entry, deadline_s=25)
        outcomes: list = []
        lock = threading.Lock()
        stop = threading.Event()

        def _client() -> None:
            while not stop.is_set():
                try:
                    status, _body = _http(
                        handle.http_port, "POST", "/verify", payload
                    )
                except (OSError, http.client.HTTPException) as exc:
                    status = type(exc).__name__
                with lock:
                    outcomes.append(status)

        threads = [threading.Thread(target=_client) for _ in range(6)]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.2)  # flood established before the swap
            status, summary = _http(
                handle.http_port,
                "POST",
                "/reload",
                {"journal": journal.to_jsonable()},
            )
            assert status == 200
            assert summary["generation"] == 1
            time.sleep(0.2)  # flood continues over the swapped pool
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) > 20
        assert set(outcomes) == {200}, f"non-200 under swap: {set(outcomes)}"
        # Nothing was retired: the swap leased workers between batches.
        status, body = _http(handle.http_port, "GET", "/healthz")
        assert body["supervisor"]["live"] == 2
        assert body["index_generation"] == 1

    def test_whois_lookups_follow_the_live_generation(self, tiny_world, tmp_path):
        """Regression: the WHOIS front-end used to snapshot the IR at start,
        so after a hot swap ``!v`` answered from generation N+1 and every
        lookup from generation N.  Every answer must be the engine's over
        the session's *current* IR — here over an mmap-backed index, whose
        old generation is unmapped by the swap."""
        from repro.irr.history import ChurnConfig, evolve_with_journal
        from repro.irr.whois import WhoisEngine

        api.open_session(tiny_world, cache_dir=tmp_path).close()  # fill the cache
        session = api.open_session(
            tiny_world, registry=MetricsRegistry(), cache_dir=tmp_path
        )
        _, journal = evolve_with_journal(session.ir, ChurnConfig(seed=11))
        asn = next(entry.key[1] for entry in journal if entry.cls == "route")
        queries = (f"!gAS{asn}", f"AS{asn}", f"-i origin AS{asn}")
        daemon = ServeDaemon(session, ServeConfig(http_port=0, whois_port=0))

        def served() -> list[str]:
            return [whois_query("127.0.0.1", handle.whois_port, q) for q in queries]

        def expected() -> list[str]:
            engine = WhoisEngine(session.ir)
            return [engine.answer(query) for query in queries]

        try:
            with daemon.start_in_thread() as handle:
                assert session.index.resource is not None  # adopted from disk
                before = served()
                assert before == expected()
                status, summary = _http(
                    handle.http_port,
                    "POST",
                    "/reload",
                    {"journal": journal.to_jsonable()},
                )
                assert status == 200 and summary["generation"] == 1
                after = served()
                assert after == expected()
                assert after[0] != before[0] and after[2] != before[2]
        finally:
            session.close()

    def test_failed_apply_leaves_the_old_generation_serving(
        self, tiny_world, tiny_routes, monkeypatch
    ):
        """Regression: an exception inside the swap used to leave the
        session half-advanced — ``/reload`` answered 500 but ``/healthz``
        showed the new generation, and the retry filtered every entry as
        already absorbed (``applied: 0``, no pool sweep)."""
        session = api.open_session(
            tiny_world, registry=MetricsRegistry(), use_cache=False
        )
        _, (journal,) = _journal_chain(session.ir, 1)
        payload = {"journal": journal.to_jsonable()}
        probe = _verify_payload(tiny_routes[0])
        adopt = api.Verifier.adopt_hop_cache
        failures: list = []

        def fail_once(*args):
            if not failures:
                failures.append(args)
                raise RuntimeError("injected")
            return adopt(*args)

        monkeypatch.setattr(api.Verifier, "adopt_hop_cache", fail_once)
        try:
            with ServeDaemon(session, ServeConfig(http_port=0)).start_in_thread() as handle:
                _, verdict = _http(handle.http_port, "POST", "/verify", probe)
                status, _ = _http(handle.http_port, "POST", "/reload", payload)
                assert status == 500 and failures
                _, health = _http(handle.http_port, "GET", "/healthz")
                assert health["index_generation"] == 0
                assert health["journal_serials"] == {}
                assert health["index_digest"] == session.digest
                assert _http(handle.http_port, "POST", "/verify", probe)[1] == verdict
                status, summary = _http(handle.http_port, "POST", "/reload", payload)
                assert status == 200 and summary["applied"] == len(journal)
                assert summary["generation"] == 1 and not summary["degraded"]
                kinds = [event["kind"] for event in session.flight_events()]
                assert kinds.count("reload-abort") == 1
                assert kinds.count("reload-commit") == 1
        finally:
            session.close()

    def test_health_is_read_from_one_generation(self, tiny_world):
        """``/healthz`` during a reload loop: generation, serials and digest
        always describe the same generation (they used to be separate reads
        of a session that moved between them)."""
        session = api.open_session(
            tiny_world, registry=MetricsRegistry(), use_cache=False
        )
        _, journals = _journal_chain(session.ir, 6)
        observed: list[dict] = []
        stop = threading.Event()
        try:
            with ServeDaemon(session, ServeConfig(http_port=0)).start_in_thread() as handle:
                service = handle.daemon.service

                def describe(current) -> tuple:
                    return current.number, current.serials, current.digest

                def poll_http() -> None:
                    while not stop.is_set():
                        observed.append(_http(handle.http_port, "GET", "/healthz")[1])

                def poll_direct() -> None:
                    while not stop.is_set():
                        observed.append(service.health())

                pollers = [threading.Thread(target=poll_http)] + [
                    threading.Thread(target=poll_direct) for _ in range(2)
                ]
                states = [describe(session.current)]
                for poller in pollers:
                    poller.start()
                try:
                    for journal in journals:
                        status, summary = _http(
                            handle.http_port,
                            "POST",
                            "/reload",
                            {"journal": journal.to_jsonable()},
                        )
                        assert status == 200 and not summary["degraded"]
                        states.append(describe(session.current))
                        # The summary is one generation's too.
                        assert (summary["generation"], summary["serials"]) == states[-1][:2]
                finally:
                    stop.set()
                    for poller in pollers:
                        poller.join(30)
                assert not any(poller.is_alive() for poller in pollers)
        finally:
            stop.set()
            session.close()
        assert [number for number, _, _ in states] == list(range(7))
        by_number = {number: (serials, digest) for number, serials, digest in states}
        assert len(observed) > 20
        torn = [
            health
            for health in observed
            if (health["journal_serials"], health["index_digest"])
            != by_number[health["index_generation"]]
        ]
        assert not torn, torn[:3]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
    def test_readers_hammer_a_reload_loop_over_an_mmap_backed_index(
        self, tiny_world, tiny_routes, tmp_path, caplog
    ):
        """The lock-free read stays consistent: plain lookups, ``!g``, ``!v``
        and ``POST /verify`` from threads while five chained journals are
        swapped in over an mmap-backed generation 0.  Every answer is one
        generation's (never an IR beside another generation's trie, never a
        released plane), no client sees the generations go backwards, and
        the old mapping's descriptor is gone after the last swap."""
        from repro.irr.whois import WhoisEngine

        def fd_count() -> int:
            return len(os.listdir("/proc/self/fd"))

        api.open_session(tiny_world, cache_dir=tmp_path).close()  # fill the cache
        session = api.open_session(
            tiny_world, registry=MetricsRegistry(), cache_dir=tmp_path
        )
        snapshots, journals = _journal_chain(session.ir, 5)
        asn = next(entry.key[1] for entry in journals[0] if entry.cls == "route")
        set_name = next(iter(session.ir.as_sets))
        lookups = (f"!gAS{asn}", f"AS{asn}", f"-i origin AS{asn}", f"!i{set_name},1")
        engines = [WhoisEngine(ir) for ir in snapshots]
        lookup_answers = {
            query: [engine.answer(query) for engine in engines] for query in lookups
        }
        routes = tiny_routes[:6]
        verifiers = [api.make_verifier(ir, tiny_world.topology) for ir in snapshots]
        verdict_texts = [
            [str(verifier.verify_route(str(e.prefix), e.as_path)) for verifier in verifiers]
            for e in routes
        ]
        stop = threading.Event()
        problems: list = []

        def follow(history: list[str], answer: str, low: int, what) -> int:
            """The earliest generation ≥ ``low`` that gives ``answer``."""
            for number in range(low, len(history)):
                if history[number] == answer:
                    return number
            problems.append((what, low, answer[:200]))
            return low

        def look_up(port: int) -> None:
            low = dict.fromkeys(lookups, 0)
            while not stop.is_set():
                for query in lookups:
                    answer = whois_query("127.0.0.1", port, query)
                    low[query] = follow(lookup_answers[query], answer, low[query], query)

        def bang_verify(port: int) -> None:
            low = dict.fromkeys(range(len(routes)), 0)
            while not stop.is_set():
                for position, entry in enumerate(routes):
                    path = " ".join(map(str, entry.as_path))
                    framed = _strip_id(
                        whois_query("127.0.0.1", port, f"!v {entry.prefix} {path}")
                    )
                    text = framed[framed.index("\n") + 1 : -2]
                    low[position] = follow(
                        verdict_texts[position], text, low[position], ("!v", position)
                    )

        def post_verify(port: int) -> None:
            low = dict.fromkeys(range(len(routes)), 0)
            while not stop.is_set():
                for position, entry in enumerate(routes):
                    status, body = _http(port, "POST", "/verify", _verify_payload(entry))
                    if status != 200:
                        problems.append(("/verify", status, body))
                        continue
                    low[position] = follow(
                        verdict_texts[position],
                        body["text"],
                        low[position],
                        ("/verify", position),
                    )

        def read_current() -> None:
            while not stop.is_set():
                current = session.current
                if not (
                    current.query.ir is current.ir
                    and current.verifier.ir is current.ir
                    and current.query.routes is current.index.route_trie
                    and current.digest == current.index.digest
                ):
                    problems.append(("mixed generation", current.number))

        def guarded(target, *args):
            def run() -> None:
                try:
                    target(*args)
                except Exception as exc:  # noqa: BLE001 - collected
                    problems.append((target.__name__, repr(exc)))

            return threading.Thread(target=run)

        daemon = ServeDaemon(session, ServeConfig(http_port=0, whois_port=0))
        try:
            with daemon.start_in_thread() as handle, caplog.at_level("WARNING"):
                assert session.index.resource is not None  # adopted from disk
                threads = [
                    guarded(look_up, handle.whois_port),
                    guarded(bang_verify, handle.whois_port),
                    guarded(post_verify, handle.http_port),
                    guarded(read_current),
                ]
                base = fd_count()  # listeners and the mapping, no client yet
                for thread in threads:
                    thread.start()
                try:
                    for number, journal in enumerate(journals, start=1):
                        time.sleep(0.05)
                        status, summary = _http(
                            handle.http_port,
                            "POST",
                            "/reload",
                            {"journal": journal.to_jsonable()},
                        )
                        assert status == 200 and summary["generation"] == number
                        assert not summary["degraded"]
                    time.sleep(0.05)
                finally:
                    stop.set()
                    for thread in threads:
                        thread.join(30)
                assert not any(thread.is_alive() for thread in threads)
                assert session.index.resource is None  # the patched index is heap-backed
                deadline = time.monotonic() + 5  # the last handlers close their sockets
                while fd_count() > base - 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert fd_count() == base - 1, "generation 0's mapping outlived its readers"
        finally:
            stop.set()
            session.close()
        assert not problems, problems[:5]
        assert not [r for r in caplog.records if r.levelname in ("ERROR", "CRITICAL")]
        # The generations really differed under the readers' feet.
        assert len(set(lookup_answers[lookups[0]])) > 1

    def test_journal_follower_applies_from_disk(self, tiny_world, tmp_path):
        from repro.irr.history import ChurnConfig, evolve_with_journal
        from repro.irr.journal import save_journal

        path = tmp_path / "feed.jsonl"
        session = api.open_session(
            tiny_world,
            as_rel=tiny_world.topology,
            registry=MetricsRegistry(),
            use_cache=False,
        )
        daemon = ServeDaemon(
            session,
            ServeConfig(
                http_port=0,
                journal_path=str(path),
                journal_poll=0.1,
            ),
        )
        try:
            with daemon.start_in_thread() as handle:
                _, journal = evolve_with_journal(session.ir, ChurnConfig(seed=19))
                save_journal(journal, path)
                deadline = time.monotonic() + 30
                generation = 0
                while time.monotonic() < deadline:
                    _, body = _http(handle.http_port, "GET", "/healthz")
                    generation = body["index_generation"]
                    if generation:
                        break
                    time.sleep(0.1)
                assert generation == 1
                assert body["journal_serials"] == journal.serials()
        finally:
            session.close()

    def test_journal_follower_retries_failed_reload(self, tiny_world, tmp_path):
        """Regression: a transient reload failure must be retried on the
        next poll even though the journal file itself never changes —
        the follower may only remember a signature it fully absorbed."""
        from types import SimpleNamespace

        from repro.irr.history import ChurnConfig, evolve_with_journal
        from repro.irr.journal import save_journal

        path = tmp_path / "feed.jsonl"
        _, journal = evolve_with_journal(tiny_world.merged_ir(), ChurnConfig(seed=19))
        save_journal(journal, path)
        calls: list[int] = []

        async def main() -> None:
            applied = asyncio.Event()

            async def reload(journal) -> dict:
                calls.append(len(calls))
                if len(calls) == 1:
                    raise RuntimeError("transient backend failure")
                applied.set()
                return {"applied": len(journal), "generation": 1, "degraded": False}

            stub = SimpleNamespace(
                config=SimpleNamespace(journal_path=str(path), journal_poll=0.01),
                service=SimpleNamespace(reload=reload),
            )
            follower = asyncio.create_task(ServeDaemon._follow_journal(stub))
            try:
                await asyncio.wait_for(applied.wait(), timeout=30)
            finally:
                follower.cancel()
                try:
                    await follower
                except asyncio.CancelledError:
                    pass

        asyncio.run(main())
        assert len(calls) >= 2

    def test_journal_follower_survives_bytes_that_are_not_utf8(
        self, tiny_world, tmp_path
    ):
        """A journal line that is not UTF-8 used to end the follower task
        for good; it is one more corrupt line now (the apply degrades to a
        full recompile), and the next good file is applied."""
        from types import SimpleNamespace

        from repro.irr.history import ChurnConfig, evolve_with_journal
        from repro.irr.journal import save_journal

        path = tmp_path / "feed.jsonl"
        _, journal = evolve_with_journal(tiny_world.merged_ir(), ChurnConfig(seed=19))
        save_journal(journal, path)
        good = path.read_bytes()
        header, _, rest = good.partition(b"\n")
        path.write_bytes(header + b"\n\xff\xfe\n" + rest)
        received = []

        async def main() -> None:
            clean = asyncio.Event()

            async def reload(journal) -> dict:
                received.append(journal)
                if not journal.issues:
                    clean.set()
                return {"applied": len(journal), "generation": 1, "degraded": False}

            stub = SimpleNamespace(
                config=SimpleNamespace(journal_path=str(path), journal_poll=0.01),
                service=SimpleNamespace(reload=reload),
            )
            follower = asyncio.create_task(ServeDaemon._follow_journal(stub))
            deadline = time.monotonic() + 30
            try:
                while not received and not follower.done():
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.01)
                path.write_bytes(good)
                while not clean.is_set() and not follower.done():
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.01)
                assert not follower.done(), follower.exception()
            finally:
                follower.cancel()
                try:
                    await follower
                except (asyncio.CancelledError, Exception):  # noqa: BLE001 - what killed it
                    pass

        asyncio.run(main())
        assert received[0].issues and len(received[0]) == len(journal)
        assert not received[-1].issues and len(received[-1]) == len(journal)


@pytest.mark.slow
class TestBoundedShutdown:
    """No client decides when the daemon stops: a connection that is not
    owed a response is closed by the server, and ``stop()`` returns."""

    @pytest.fixture()
    def running(self, serve_session):
        daemon = ServeDaemon(serve_session, ServeConfig(http_port=0, whois_port=0))
        handle = daemon.start_in_thread()
        yield handle
        if handle._thread.is_alive():  # the test failed before stopping it
            handle.stop()

    @staticmethod
    def _assert_stopped_cleanly(running, ports, client: socket.socket, caplog):
        with caplog.at_level("ERROR", logger="asyncio"):
            running.stop(timeout=5)  # raises TimeoutError if a client held it
            client.settimeout(5)
            assert client.recv(1) == b""  # the server closed it: EOF, not a reset
        for port in ports:
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=0.5)
        assert not [r for r in caplog.records if r.name == "asyncio"]
        # Its "rpslyzer-serve" thread is gone, and no connection has a thread.
        assert not running._thread.is_alive()
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("whois-handler-")
        ]

    def test_idle_keep_alive_http_connection_does_not_hold_stop(
        self, running, caplog
    ):
        connection = http.client.HTTPConnection(
            "127.0.0.1", running.http_port, timeout=5
        )
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            assert response.getheader("connection") == "keep-alive"
            ports = (running.http_port, running.whois_port)
            self._assert_stopped_cleanly(running, ports, connection.sock, caplog)
        finally:
            connection.close()

    def test_whois_client_stalled_mid_line_does_not_hold_stop(
        self, running, caplog
    ):
        from chaos.faults import SlowClient

        ports = (running.http_port, running.whois_port)
        with SlowClient("127.0.0.1", running.whois_port, partial=b"AS") as slow:
            time.sleep(0.1)  # let the handler reach its read
            self._assert_stopped_cleanly(running, ports, slow._sock, caplog)

    def test_response_in_flight_at_shutdown_is_completed(
        self, running, tiny_routes
    ):
        """The other half of the rule: a connection that *is* owed a
        response keeps it — the query admitted before shutdown is answered
        in full, told ``Connection: close``, and then closed."""
        entry = tiny_routes[0]
        answers: list = []
        client = threading.Thread(
            target=lambda: answers.append(
                _http_full(
                    running.http_port, "POST", "/verify", _verify_payload(entry)
                )
            )
        )
        with use_faults(batch=lambda queries: time.sleep(0.3)):
            client.start()
            time.sleep(0.1)  # the request is executing
            running.stop(timeout=5)
            client.join(timeout=5)
        assert not client.is_alive()
        status, headers, body = answers[0]
        assert status == 200 and body["prefix"] == str(entry.prefix)
        assert headers["connection"] == "close"


class TestDaemonLifecycle:
    def test_sigterm_drains_and_exits_clean(self, tiny_world_dir, tiny_routes):
        process, port = _spawn_serve(tiny_world_dir)
        try:
            entry = tiny_routes[0]
            status, body = _http(port, "POST", "/verify", _verify_payload(entry))
            assert status == 200
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
            assert process.returncode == 0
            # The port is released: connecting now must fail.
            with pytest.raises(OSError):
                _http(port, "GET", "/healthz")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    def test_sigkill_mid_flood_fails_clients_cleanly(
        self, tiny_world_dir, tiny_routes
    ):
        """Chaos: SIGKILL the daemon while clients are in flight.  Every
        client must fail fast with a clean connection error — no hangs,
        no garbage responses."""
        process, port = _spawn_serve(tiny_world_dir)
        entry = tiny_routes[0]
        outcomes: list[object] = []
        lock = threading.Lock()

        def _client() -> None:
            try:
                status, _ = _http(port, "POST", "/verify", _verify_payload(entry))
                result: object = status
            except (OSError, http.client.HTTPException) as exc:
                result = type(exc).__name__
            with lock:
                outcomes.append(result)

        try:
            threads = [threading.Thread(target=_client) for _ in range(12)]
            for thread in threads:
                thread.start()
            process.kill()  # SIGKILL: no drain, no goodbye
            process.wait(timeout=10)
            for thread in threads:
                thread.join(timeout=15)
            assert not any(thread.is_alive() for thread in threads)
            # Each client either got a verdict before the kill or a clean
            # connection-level failure; nothing hung or mis-parsed.
            assert len(outcomes) == 12
            assert all(
                outcome == 200 or isinstance(outcome, str) for outcome in outcomes
            )
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
