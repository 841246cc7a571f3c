"""Tests for the supervised worker pool (``repro.core.pool``) under serve.

Its other caller, the pooled table pass, is ``tests/test_parallel.py``.
Unit-tests the circuit breaker and the latency shedder against a fake
clock, then exercises the supervised pool end to end: differential
bit-identity with the in-process path, crash isolation under SIGKILL,
heartbeat replacement of a SIGSTOPped worker, and graceful degradation
to serial execution once the restart budget is exhausted.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api
from repro.chaos import HungWorker, KillServeWorker
from repro.obs import MetricsRegistry
from repro.serve import (
    CircuitBreaker,
    LatencyShedder,
    ServeConfig,
    ServeDaemon,
    SupervisorConfig,
    WorkerSupervisor,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failures=3, cooldown=1.0, clock=clock)
        assert breaker.state == CircuitBreaker.CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failures=3, cooldown=1.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_allows_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failures=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # second caller waits for the verdict

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failures=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_rearms_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failures=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()  # a fresh probe after the new cooldown


class TestLatencyShedder:
    def test_sheds_after_sustained_overload(self):
        clock = FakeClock()
        shedder = LatencyShedder(target=0.1, interval=1.0, clock=clock)
        shedder.observe(0.5)
        assert not shedder.should_shed()  # one bad sample is not overload
        clock.advance(1.0)
        shedder.observe(0.5)
        assert shedder.should_shed()

    def test_below_target_observation_clears(self):
        clock = FakeClock()
        shedder = LatencyShedder(target=0.1, interval=1.0, clock=clock)
        shedder.observe(0.5)
        clock.advance(1.0)
        shedder.observe(0.5)
        assert shedder.should_shed()
        shedder.observe(0.01)
        assert not shedder.should_shed()

    def test_shedding_expires_without_observations(self):
        """A shed queue goes quiet; without expiry nothing would ever be
        admitted to produce the below-target sample that clears it."""
        clock = FakeClock()
        shedder = LatencyShedder(target=0.1, interval=1.0, clock=clock)
        shedder.observe(0.5)
        clock.advance(1.0)
        shedder.observe(0.5)
        assert shedder.should_shed()
        clock.advance(1.5)  # no observations for > interval
        assert not shedder.should_shed()


def _http(port: int, method: str, path: str, payload: dict | None = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None
    finally:
        connection.close()


def _payload(entry) -> dict:
    return {"prefix": str(entry.prefix), "as_path": list(entry.as_path)}


@pytest.fixture(scope="module")
def pool_session(tiny_world):
    with api.open_session(
        tiny_world, registry=MetricsRegistry(), use_cache=False
    ) as session:
        yield session


@pytest.fixture(scope="module")
def pool_handle(pool_session):
    daemon = ServeDaemon(
        pool_session,
        ServeConfig(
            http_port=0,
            workers=2,
            heartbeat_interval=0.1,
            heartbeat_timeout=0.5,
            hang_timeout=5.0,
            shed_target=0.0,
        ),
    )
    with daemon.start_in_thread() as running:
        yield running


@pytest.mark.slow
class TestSupervisedPool:
    def test_healthz_supervisor_block(self, pool_handle):
        status, body = _http(pool_handle.http_port, "GET", "/healthz")
        assert status == 200
        block = body["supervisor"]
        assert block["workers"] == 2
        assert block["live"] == 2
        assert block["breaker"] == "closed"
        assert block["degraded"] is False
        assert block["restart_budget_remaining"] > 0

    def test_pool_verdicts_bit_identical_to_serial(
        self, pool_handle, pool_session, tiny_routes
    ):
        """The differential check: every pooled verdict renders
        character-identical to the in-process path for the same route."""
        for entry in tiny_routes[:25]:
            expected = str(
                pool_session.verify_route(
                    str(entry.prefix), entry.as_path, collector="serve"
                )
            )
            status, body = _http(
                pool_handle.http_port, "POST", "/verify", _payload(entry)
            )
            assert status == 200
            assert body["text"] == expected

    def test_sigkill_mid_flood_loses_no_request(self, pool_handle, tiny_routes):
        """Crash isolation: SIGKILL one worker while a flood is in flight.
        Only its batch is retried; every client still gets a verdict."""
        service = pool_handle.daemon.service
        supervisor = service.supervisor
        restarts_before = supervisor.state()["restarts_total"]
        victim = supervisor.worker_pids()[0]
        entries = [tiny_routes[i % len(tiny_routes)] for i in range(40)]
        service.fault_hook = lambda queries: time.sleep(0.02)
        try:
            with ThreadPoolExecutor(max_workers=16) as executor:
                futures = [
                    executor.submit(
                        _http,
                        pool_handle.http_port,
                        "POST",
                        "/verify",
                        _payload(entry),
                    )
                    for entry in entries
                ]
                time.sleep(0.1)
                KillServeWorker()(victim)
                results = [future.result() for future in futures]
        finally:
            service.fault_hook = None
        assert [status for status, _ in results].count(200) == len(entries)
        # restarts_total bumps when the budget is drawn, *before* the
        # replacement finishes forking; wait for the post-spawn
        # worker-restarted event so both asserts see a settled state.
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and (
            supervisor.state()["restarts_total"] <= restarts_before
            or not service.degradation.by_kind().get("serve/worker-restarted")
        ):
            time.sleep(0.05)
        assert supervisor.state()["restarts_total"] > restarts_before
        kinds = service.degradation.by_kind()
        assert kinds.get("serve/worker-crashed", 0) >= 1
        assert kinds.get("serve/worker-restarted", 0) >= 1

    def test_hung_worker_replaced_by_heartbeat(self, pool_handle):
        supervisor = pool_handle.daemon.service.supervisor
        # Wait for the pool to be back at full strength first (earlier
        # tests may have killed a worker).
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and len(supervisor.worker_pids()) < 2:
            time.sleep(0.05)
        victim = supervisor.worker_pids()[0]
        HungWorker()(victim)
        deadline = time.monotonic() + 15
        replaced = False
        while time.monotonic() < deadline:
            pids = supervisor.worker_pids()
            if victim not in pids and len(pids) == 2:
                replaced = True
                break
            time.sleep(0.05)
        assert replaced
        kinds = pool_handle.daemon.service.degradation.by_kind()
        assert kinds.get("serve/worker-hung", 0) >= 1


@pytest.mark.slow
class TestGracefulDegradation:
    def test_budget_exhaustion_degrades_to_serial(self, pool_session, tiny_routes):
        """Kill workers past the restart budget: the pool degrades, the
        daemon keeps answering serially, and /healthz reports 503."""
        daemon = ServeDaemon(
            pool_session,
            ServeConfig(
                http_port=0,
                workers=1,
                restart_budget=0,
                heartbeat_interval=0.05,
                heartbeat_timeout=0.5,
                shed_target=0.0,
            ),
        )
        with daemon.start_in_thread() as running:
            supervisor = daemon.service.supervisor
            KillServeWorker()(supervisor.worker_pids()[0])
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline and not supervisor.degraded:
                time.sleep(0.05)
            assert supervisor.degraded
            # Still answering — serially, through the same session.
            entry = tiny_routes[0]
            expected = str(
                pool_session.verify_route(
                    str(entry.prefix), entry.as_path, collector="serve"
                )
            )
            status, body = _http(
                running.http_port, "POST", "/verify", _payload(entry)
            )
            assert status == 200
            assert body["text"] == expected
            status, health = _http(running.http_port, "GET", "/healthz")
            assert status == 503
            assert health["status"] == "degraded"
            assert health["supervisor"]["degraded"] is True
            assert health["supervisor"]["restart_budget_remaining"] == 0
            kinds = daemon.service.degradation.by_kind()
            assert kinds.get("serve/pool-degraded", 0) == 1
            assert kinds.get("serve/degraded-to-serial", 0) >= 1


class TestStopSweepsAfterTheMonitor:
    def test_a_worker_admitted_during_stop_is_reaped(self, pool_session, monkeypatch):
        """stop() landing while the monitor is inside ``_spawn_worker``:
        the replacement it then admits must not outlive the pool."""
        pool_session.warm()
        supervisor = WorkerSupervisor(
            pool_session.ir,
            pool_session.relationships,
            None,
            pool_session.index,
            SupervisorConfig(workers=1, heartbeat_interval=0.05),
        ).start()
        respawning = threading.Event()
        spawn = supervisor._spawn_worker
        respawned = []

        def slow_spawn():
            respawning.set()
            time.sleep(0.5)  # stands in for the seconds a ``spawn`` start takes
            worker = spawn()
            respawned.append(worker.pid)
            return worker

        monkeypatch.setattr(supervisor, "_spawn_worker", slow_spawn)
        try:
            KillServeWorker()(supervisor.worker_pids()[0])
            assert respawning.wait(timeout=15)
        finally:
            supervisor.stop()
        assert len(respawned) == 1  # the monitor finished the spawn it had begun
        assert supervisor.worker_pids() == []
        with pytest.raises(ProcessLookupError):
            os.kill(respawned[0], 0)


class TestAdaptiveShedding:
    def test_sustained_overload_sheds_with_busy(self, pool_session, tiny_routes):
        """With a microscopic wait target and a slow executor, a flood
        must trip the shedder: some requests answer 429 before the queue
        fills, and the shed is counted in health()."""
        daemon = ServeDaemon(
            pool_session,
            ServeConfig(
                http_port=0,
                workers=0,
                queue_size=512,
                batch_max=2,
                default_deadline=30.0,
                shed_target=1e-6,
                shed_interval=0.02,
            ),
        )
        with daemon.start_in_thread() as running:
            daemon.service.fault_hook = lambda queries: time.sleep(0.03)
            try:
                entry = tiny_routes[0]
                with ThreadPoolExecutor(max_workers=24) as executor:
                    results = list(
                        executor.map(
                            lambda _: _http(
                                running.http_port,
                                "POST",
                                "/verify",
                                _payload(entry),
                            ),
                            range(60),
                        )
                    )
            finally:
                daemon.service.fault_hook = None
            statuses = [status for status, _ in results]
            assert set(statuses) <= {200, 429}
            assert statuses.count(200) >= 1
            assert statuses.count(429) >= 1
            health = daemon.service.health()
            assert health["shed_total"] >= 1


@pytest.fixture
def fresh_session(tiny_world):
    """A function-scoped session: the service attaches its flight
    ring to the session, so a shared one would leak ring contents
    and incident rate-limits between daemons."""
    with api.open_session(
        tiny_world, registry=MetricsRegistry(), use_cache=False
    ) as session:
        yield session


@pytest.mark.slow
class TestFlightUnderChaos:
    """The flight ring must reconstruct worker churn coherently — the
    event *sequence* after a chaos action is the diagnosis."""

    def _wait_for(self, predicate, timeout=15.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.05)
        return predicate()

    def test_sigkill_mid_flood_ring_sequence(self, fresh_session, tiny_routes):
        """SIGKILL a worker mid-flood: the ring must show its spawn, a
        retirement (crashed), and the replacement's respawn — in order."""
        daemon = ServeDaemon(
            fresh_session,
            ServeConfig(
                http_port=0,
                workers=2,
                heartbeat_interval=0.1,
                heartbeat_timeout=0.5,
                shed_target=0.0,
            ),
        )
        with daemon.start_in_thread() as running:
            service = daemon.service
            supervisor = service.supervisor
            victim = supervisor.worker_pids()[0]
            service.fault_hook = lambda queries: time.sleep(0.02)
            try:
                entries = [tiny_routes[i % len(tiny_routes)] for i in range(30)]
                with ThreadPoolExecutor(max_workers=12) as executor:
                    futures = [
                        executor.submit(
                            _http, running.http_port, "POST", "/verify",
                            _payload(entry),
                        )
                        for entry in entries
                    ]
                    time.sleep(0.1)
                    KillServeWorker()(victim)
                    results = [future.result() for future in futures]
            finally:
                service.fault_hook = None
            assert [status for status, _ in results].count(200) == len(entries)
            assert self._wait_for(
                lambda: service.flight.events(kinds=("worker-respawn",))
            )
            events = service.flight.events()
            order = [
                (event["kind"], event["ids"].get("worker"))
                for event in events
                if event["kind"] in
                ("worker-spawn", "worker-retired", "worker-respawn")
            ]
            spawn_at = order.index(("worker-spawn", victim))
            retired = next(
                event for event in events
                if event["kind"] == "worker-retired"
                and event["ids"]["worker"] == victim
            )
            assert retired["why"] == "crashed"
            retired_at = order.index(("worker-retired", victim))
            respawn_at = max(
                i for i, (kind, _) in enumerate(order) if kind == "worker-respawn"
            )
            assert spawn_at < retired_at < respawn_at
            # the respawned replacement is itself admitted to the ring
            spawned_pids = [pid for kind, pid in order if kind == "worker-spawn"]
            assert len(spawned_pids) >= 3  # 2 initial + >= 1 replacement

    def test_sigstop_heartbeat_replacement_ring_sequence(self, fresh_session):
        """A SIGSTOPped worker misses heartbeats: the ring must show
        retirement with why=hung followed by the replacement spawn."""
        daemon = ServeDaemon(
            fresh_session,
            ServeConfig(
                http_port=0,
                workers=1,
                heartbeat_interval=0.1,
                heartbeat_timeout=0.5,
                shed_target=0.0,
            ),
        )
        with daemon.start_in_thread():
            service = daemon.service
            supervisor = service.supervisor
            victim = supervisor.worker_pids()[0]
            HungWorker()(victim)
            assert self._wait_for(
                lambda: (pids := supervisor.worker_pids())
                and victim not in pids
            )
            assert self._wait_for(
                lambda: service.flight.events(kinds=("worker-respawn",))
            )
            events = service.flight.events(
                kinds=("worker-spawn", "worker-retired", "worker-respawn")
            )
            retired = next(
                event for event in events
                if event["kind"] == "worker-retired"
                and event["ids"]["worker"] == victim
            )
            assert retired["why"] == "hung"
            retired_at = events.index(retired)
            kinds_after = [event["kind"] for event in events[retired_at + 1 :]]
            assert "worker-respawn" in kinds_after
            assert "worker-spawn" in kinds_after  # the replacement admitted

    def test_incident_dump_mid_flood_parses_with_trigger(
        self, fresh_session, tiny_routes, tmp_path
    ):
        """Exhausting the restart budget mid-flood dumps the ring; the
        dump must parse and carry the triggering event."""
        from repro.obs import read_events

        daemon = ServeDaemon(
            fresh_session,
            ServeConfig(
                http_port=0,
                workers=1,
                restart_budget=0,
                heartbeat_interval=0.05,
                heartbeat_timeout=0.5,
                shed_target=0.0,
                incident_dir=str(tmp_path),
            ),
        )
        with daemon.start_in_thread() as running:
            service = daemon.service
            supervisor = service.supervisor
            victim = supervisor.worker_pids()[0]
            service.fault_hook = lambda queries: time.sleep(0.02)
            try:
                entries = [tiny_routes[i % len(tiny_routes)] for i in range(20)]
                with ThreadPoolExecutor(max_workers=8) as executor:
                    futures = [
                        executor.submit(
                            _http, running.http_port, "POST", "/verify",
                            _payload(entry),
                        )
                        for entry in entries
                    ]
                    time.sleep(0.05)
                    KillServeWorker()(victim)
                    results = [future.result() for future in futures]
            finally:
                service.fault_hook = None
            # With a zero budget the pool cannot heal: requests caught
            # behind the dead worker's lease window may miss their
            # deadline.  The contract here is the incident dump, not
            # zero loss — every answer must still be structured.
            statuses = [status for status, _ in results]
            assert set(statuses) <= {200, 429, 504}
            assert statuses.count(200) >= 1
            assert self._wait_for(lambda: supervisor.degraded)
            assert self._wait_for(
                lambda: list(tmp_path.glob("flight-*-pool-degraded-*.jsonl"))
            )
        dump = next(tmp_path.glob("flight-*-pool-degraded-*.jsonl"))
        header, events = read_events(dump)
        assert header["reason"] == "pool-degraded"
        assert header["trigger"]["kind"] == "pool-degraded"
        kinds = [event["kind"] for event in events]
        assert "worker-retired" in kinds
        assert "pool-degraded" in kinds
        # the ring reconstructs the kill -> degrade chain in order
        assert kinds.index("worker-retired") < kinds.index("pool-degraded")
