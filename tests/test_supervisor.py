"""Tests for the supervised worker pool (``repro.core.pool``) under serve.

Its other caller, the pooled table pass, is ``tests/test_parallel.py``.
Tests the service's two overload rules — admission by deadline
feasibility and the pool's hand-back when no worker can come — then
exercises the supervised pool end to end: differential bit-identity with
the in-process path, crash isolation under SIGKILL, heartbeat
replacement of a SIGSTOPped worker, and graceful degradation to serial
execution once the restart budget is exhausted.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro import api
from repro.chaos import HungWorker, KillServeWorker
from repro.core import pool
from repro.obs import MetricsRegistry
from repro.serve import (
    BusyError,
    Query,
    ServeConfig,
    ServeDaemon,
    SupervisorConfig,
    VerifyService,
    WorkerSupervisor,
)


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


def _queries(entries, **extra) -> list[Query]:
    return [Query.from_payload({**_payload(e), **extra}, "verify") for e in entries]


@pytest.fixture(scope="module")
def pool_session(tiny_world):
    with api.open_session(
        tiny_world, registry=MetricsRegistry(), use_cache=False
    ) as session:
        yield session


def _serve(session, scenario, **config):
    """Run ``scenario(service)`` against a started in-process service."""

    async def main():
        service = await VerifyService(session, ServeConfig(**config)).start()
        try:
            return await scenario(service)
        finally:
            await service.stop()

    return asyncio.run(main())


async def _held(service, queries, probe):
    """Submit ``queries`` with the first batch held in flight; returns what
    ``await probe()`` says while it is held, then every query's outcome."""
    entered, release = threading.Event(), threading.Event()

    def hold(batch) -> None:
        entered.set()
        release.wait(10)

    service.fault_hook = hold
    try:
        tasks = [asyncio.create_task(service.submit(query)) for query in queries]
        while not entered.is_set():
            await asyncio.sleep(0.001)
        seen = await probe()
    finally:
        release.set()
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    service.fault_hook = None
    return seen, outcomes


class TestAdmissionRule:
    """Refuse when (queued + in flight + the request) × the last batch's
    seconds per query ÷ slots reaches the request's own timeout."""

    def test_empty_queue_admits_right_after_a_stall(self, pool_session, tiny_routes):
        (stall,) = _queries(tiny_routes[:1])
        (quick,) = _queries(tiny_routes[1:2], deadline_s=0.05)

        async def scenario(service):
            service.fault_hook = lambda batch: time.sleep(0.4)
            await service.submit(stall)  # the last batch: 0.4 s a query
            service.fault_hook = None
            admitted, shedding = service.admits(0.05), service.health()["shedding"]
            return admitted, shedding, await service.submit(quick)

        admitted, shedding, body = _serve(pool_session, scenario, batch_max=1)
        assert admitted and not shedding
        assert json.loads(body)["text"]

    def test_deep_queue_refuses(self, pool_session, tiny_routes):
        queries = _queries(tiny_routes[:12])

        async def scenario(service):
            async def shedding():
                return service.health()["shedding"]

            service.fault_hook = lambda batch: time.sleep(0.05)
            await service.submit(queries[0])  # the last batch: >= 0.05 s a query
            return await _held(service, queries[1:], shedding)

        shedding, outcomes = _serve(
            pool_session, scenario, batch_max=1, default_deadline=0.5
        )
        assert shedding
        refused = [o for o in outcomes if isinstance(o, BusyError)]
        # At 0.05 s a query a 0.5 s deadline fits at most nine ahead.
        assert 1 <= len(refused) <= len(outcomes) - 1
        assert all(isinstance(o, (bytes, BusyError)) for o in outcomes), outcomes

    def test_short_deadline_is_refused_before_the_default(
        self, pool_session, tiny_routes
    ):
        queued = _queries(tiny_routes[:3])  # default deadline: 5 s
        (short,) = _queries(tiny_routes[3:4], deadline_s=0.1)

        async def scenario(service):
            async def probe():
                # One held in flight, two queued: four queries' worth ahead.
                with pytest.raises(BusyError):
                    await service.submit(short)
                return service.admits(5.0)

            service.fault_hook = lambda batch: time.sleep(0.05)
            await service.submit(queued[0])  # the last batch: >= 0.05 s a query
            return await _held(service, queued, probe)

        default_admitted, outcomes = _serve(pool_session, scenario, batch_max=1)
        assert default_admitted
        assert all(isinstance(o, bytes) for o in outcomes), outcomes

    def test_one_fast_batch_clears_a_stall(self, pool_session, tiny_routes):
        queries = _queries(tiny_routes[:4])

        async def scenario(service):
            async def admits():
                return service.admits(0.5)

            service.fault_hook = lambda batch: time.sleep(0.4)
            await service.submit(queries[0])  # the stall
            stalled, _ = await _held(service, queries[1:], admits)
            service.fault_hook = lambda batch: time.sleep(0.4)
            await service.submit(queries[0])  # the stall again
            service.fault_hook = None
            await service.submit(queries[0])  # one fast batch
            cleared, _ = await _held(service, queries[1:], admits)
            return stalled, cleared

        assert _serve(pool_session, scenario, batch_max=1) == (False, True)


class TestAdmissionUnderFlood:
    def test_flood_answers_429_before_any_deadline_is_missed(
        self, pool_session, tiny_routes
    ):
        """A flood against a slow executor and a short deadline: what the
        service cannot answer in time it refuses at the door — never a
        504 for a request it admitted."""
        daemon = ServeDaemon(
            pool_session,
            ServeConfig(http_port=0, batch_max=1, default_deadline=1.5),
        )
        entry = tiny_routes[0]
        with daemon.start_in_thread() as running:

            def verify(_=None) -> tuple[int, dict]:
                return _http(running.http_port, "POST", "/verify", _payload(entry))

            daemon.service.fault_hook = lambda queries: time.sleep(0.2)
            try:
                # One request first: the service learns what a batch costs.
                assert verify()[0] == 200
                with ThreadPoolExecutor(max_workers=40) as executor:
                    results = list(executor.map(verify, range(40)))
            finally:
                daemon.service.fault_hook = None
            statuses = [status for status, _ in results]
            assert statuses.count(504) == 0, statuses
            assert set(statuses) == {200, 429}, statuses
            assert daemon.service.health()["shed_total"] >= statuses.count(429)


class TestPoolHealthRule:
    """A failing pool is one whose workers keep dying: while none is live
    the pool hands batches back at once; the respawn backoff is the
    cooldown and the next admitted worker is the probe."""

    ITEMS = [("verify", "10.0.0.0/24", (64500,), "serve", "")]

    @staticmethod
    def _unstarted(pool_session, **config) -> WorkerSupervisor:
        pool_session.warm()
        return WorkerSupervisor(
            pool_session.ir,
            pool_session.relationships,
            None,
            pool_session.index,
            SupervisorConfig(workers=1, **config),
        )

    @staticmethod
    def _timed_dispatch(supervisor) -> tuple[object, float]:
        started = time.monotonic()
        dispatched = asyncio.run(supervisor.dispatch(TestPoolHealthRule.ITEMS))
        return dispatched, time.monotonic() - started

    def test_no_live_worker_hands_back_at_once(self, pool_session):
        supervisor = self._unstarted(pool_session, lease_timeout=5.0)
        dispatched, seconds = self._timed_dispatch(supervisor)
        assert dispatched is None and seconds < 0.5

    def test_degraded_or_stopping_pool_hands_back_at_once(self, pool_session):
        for stop in (lambda s: s._degrade("test"), lambda s: s._stopping.set()):
            supervisor = self._unstarted(pool_session, lease_timeout=5.0)
            # A live worker that never comes free: only the rule can answer.
            supervisor._workers[0] = pool._Worker(0, None, None, 0)
            stop(supervisor)
            dispatched, seconds = self._timed_dispatch(supervisor)
            assert dispatched is None and seconds < 0.5
        # Whereas a live but busy worker is worth waiting a lease for.
        supervisor = self._unstarted(pool_session, lease_timeout=0.3)
        supervisor._workers[0] = pool._Worker(0, None, None, 0)
        dispatched, seconds = self._timed_dispatch(supervisor)
        assert dispatched is None and seconds >= 0.3

    def _respawn_delays(self, supervisor, monkeypatch, spawns) -> list[float]:
        """Run one monitor respawn pass per outcome in ``spawns`` (True: the
        worker comes up); returns the backoff each pass slept first."""
        delays: list[float] = []
        clock = SimpleNamespace(sleep=delays.append, monotonic=time.monotonic)
        monkeypatch.setattr(pool, "time", clock)  # this module's clock only
        outcomes = iter(spawns)

        def spawn():
            if next(outcomes):
                return pool._Worker(supervisor._next_id, None, None, 0)
            raise pool.WorkerCrash("no")

        monkeypatch.setattr(supervisor, "_spawn_worker", spawn)
        for _ in spawns:
            supervisor._workers.clear()  # the worker died again
            before = len(delays)
            supervisor._respawn_missing()
            if len(delays) == before:
                delays.append(0.0)
        return delays

    def test_respawn_backoff_doubles_per_consecutive_spawn_failure(
        self, pool_session, monkeypatch
    ):
        supervisor = self._unstarted(pool_session, backoff_base=0.05, backoff_max=0.3)
        delays = self._respawn_delays(supervisor, monkeypatch, [False] * 5)
        assert delays == [0.0, 0.05, 0.1, 0.2, 0.3]

    def test_a_successful_spawn_resets_the_backoff(self, pool_session, monkeypatch):
        supervisor = self._unstarted(pool_session, backoff_base=0.05)
        delays = self._respawn_delays(
            supervisor, monkeypatch, [False, False, True, False]
        )
        assert delays == [0.0, 0.05, 0.1, 0.0]

    def test_the_next_admitted_worker_serves(self, pool_session):
        """No half-open state: once the respawned worker is admitted, the
        very next batch goes to it."""
        supervisor = self._unstarted(pool_session, heartbeat_interval=0.05).start()
        try:
            victim = supervisor.worker_pids()[0]
            KillServeWorker()(victim)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline and (
                (pids := supervisor.worker_pids()) == [] or victim in pids
            ):
                time.sleep(0.02)
            dispatched, _ = self._timed_dispatch(supervisor)
        finally:
            supervisor.stop()
        assert dispatched is not None
        (answer,) = dispatched[0]
        assert answer[0] == "ok"


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
        assert "breaker" not in block
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
                incident_dir=str(tmp_path),
            ),
        )

        def timed_verify(entry) -> tuple[int, float]:
            started = time.monotonic()
            status, _ = _http(running.http_port, "POST", "/verify", _payload(entry))
            return status, time.monotonic() - started

        with daemon.start_in_thread() as running:
            service = daemon.service
            supervisor = service.supervisor
            victim = supervisor.worker_pids()[0]
            service.fault_hook = lambda queries: time.sleep(0.02)
            try:
                entries = [tiny_routes[i % len(tiny_routes)] for i in range(20)]
                with ThreadPoolExecutor(max_workers=8) as executor:
                    futures = [executor.submit(timed_verify, entry) for entry in entries]
                    time.sleep(0.05)
                    KillServeWorker()(victim)
                    results = [future.result() for future in futures]
            finally:
                service.fault_hook = None
            # With a zero budget the pool cannot heal, and with its one
            # worker dead it has nothing to lease: every batch from the
            # kill on is handed back at once and answered serially —
            # none waits out a lease window for a worker that cannot come.
            assert [status for status, _ in results] == [200] * len(entries)
            assert max(seconds for _, seconds in results) < 1.0, results
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
