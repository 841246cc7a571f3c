"""One request core: every batch route is admitted and timed on the loop.

``VerifyService`` runs a batch on one of several routes — on the event
loop, behind an installed chaos batch fault, after a reload's session
patch, on a worker pool, or in-process when the pool is degraded.
Whichever it takes, the answer and the bookkeeping must be the same, every
``serve_*`` instrument must be written on the loop thread, and every
in-process verdict must be produced there.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from chaos.faults import KillServeWorker
from repro import api
from repro.faultplan import use_faults
from repro.irr.history import ChurnConfig, evolve_with_journal
from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.serve import Query, ServeConfig
from repro.serve.core import VerifyService, render_report
from repro.serve.telemetry import STAGES

ROUTES = ("loop", "fault", "reload", "pool")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("serve-core-cache")


@pytest.fixture()
def session(tiny_world, cache_dir):
    with api.open_session(
        tiny_world, registry=MetricsRegistry(), cache_dir=cache_dir
    ) as opened:
        yield opened


async def _submit_on(session, route: str, query: Query) -> tuple[bytes, VerifyService]:
    """Submit ``query`` to a fresh service whose batch takes ``route``."""
    workers = 1 if route in ("pool", "degraded") else 0
    service = await VerifyService(session, ServeConfig(workers=workers)).start()
    try:
        if route == "degraded":
            service.supervisor._degrade("test")
        if route not in ("reload", "cancelled-reload"):
            return await service.submit(query), service
        # The reload's patch holds the session until the batch has left
        # the queue: the batch waits on the loop for the patch to finish,
        # also when the reload is cancelled meanwhile (as the journal
        # follower is at shutdown) — the patch thread still runs.
        _, journal = evolve_with_journal(session.ir, ChurnConfig(seed=13))
        patching, release = threading.Event(), threading.Event()
        apply_deltas = session.apply_deltas

        def held_apply(fresh):
            patching.set()
            assert release.wait(10)
            return apply_deltas(fresh)

        session.apply_deltas = held_apply
        try:
            reload = asyncio.create_task(service.reload(journal))
            while not patching.is_set():
                await asyncio.sleep(0.001)
            if route == "cancelled-reload":
                reload.cancel()
            request = asyncio.create_task(service.submit(query))
            while not (service.inflight or request.done()):
                await asyncio.sleep(0.001)
            await asyncio.sleep(0.02)
            assert not request.done(), "a verdict while the patch holds the session"
            release.set()
            if route == "reload":
                assert (await reload)["generation"] == 1
            return await request, service
        finally:
            release.set()
            del session.apply_deltas
    finally:
        await service.stop()


def _query(entry) -> Query:
    payload = {"prefix": str(entry.prefix), "as_path": list(entry.as_path)}
    return Query.from_payload(payload, "verify")


def _run(session, route: str, query: Query) -> tuple[bytes, VerifyService]:
    if route == "fault":
        with use_faults(batch=lambda queries: None):
            return asyncio.run(_submit_on(session, route, query))
    return asyncio.run(_submit_on(session, route, query))


@pytest.mark.parametrize("route", ROUTES)
def test_the_loop_writes_every_serve_instrument(session, tiny_routes, route, monkeypatch):
    """No ``serve_*`` histogram or counter is written off the event loop,
    whichever route the batch took."""
    writes: list[tuple[str, str]] = []
    observe, inc = Histogram.observe, Counter.inc

    def record(instrument) -> None:
        if instrument.name.startswith("serve_"):
            writes.append((instrument.name, threading.current_thread().name))

    def spied_observe(self, value):
        record(self)
        observe(self, value)

    def spied_inc(self, amount=1):
        record(self)
        inc(self, amount)

    # Before the service exists: it binds its instruments' methods once.
    monkeypatch.setattr(Histogram, "observe", spied_observe)
    monkeypatch.setattr(Counter, "inc", spied_inc)
    _run(session, route, _query(tiny_routes[0]))
    loop_thread = threading.current_thread().name  # asyncio.run's loop ran here
    names = {name for name, _ in writes}
    assert {"serve_queue_wait_seconds", "serve_batch_size"} <= names, names
    assert {thread for _, thread in writes} == {loop_thread}, writes


def test_a_respawning_pool_writes_every_serve_instrument_on_the_loop(
    session, tiny_routes, monkeypatch
):
    """The pool's own ``serve_*`` counter and gauges — restarts, live,
    restarting, degraded — are written on the loop too, through a worker's
    SIGKILL and its respawn."""
    writes: list[tuple[str, str]] = []

    def spy(method):
        def spied(self, *args):
            if self.name.startswith("serve_"):
                writes.append((self.name, threading.current_thread().name))
            method(self, *args)

        return spied

    for cls, name in ((Histogram, "observe"), (Counter, "inc"), (Gauge, "set")):
        monkeypatch.setattr(cls, name, spy(getattr(cls, name)))

    async def scenario() -> int:
        config = ServeConfig(workers=1, heartbeat_interval=0.05)
        service = await VerifyService(session, config).start()
        supervisor = service.supervisor
        try:
            await service.submit(_query(tiny_routes[0]))
            victim = supervisor.worker_pids()[0]
            KillServeWorker()(victim)
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline and (
                not supervisor.restarts or victim in supervisor.worker_pids()
                or not supervisor.worker_pids()
            ):
                await asyncio.sleep(0.02)
            await service.submit(_query(tiny_routes[1]))
            return supervisor.restarts
        finally:
            await service.stop()

    assert asyncio.run(scenario()) >= 1
    loop_thread = threading.current_thread().name
    names = {name for name, _ in writes}
    assert {
        "serve_worker_restarts_total", "serve_workers_live",
        "serve_workers_restarting", "serve_degraded", "serve_batch_size",
    } <= names, names
    assert {thread for _, thread in writes} == {loop_thread}, writes


@pytest.mark.parametrize("route", ["loop", "fault", "reload", "degraded"])
def test_every_in_process_verdict_runs_on_the_loop(
    session, tiny_routes, route, monkeypatch
):
    """No pool, a batch fault, a patch in flight or a degraded pool: the
    verdict is produced on the loop's thread, never a helper thread."""
    from repro.serve import core

    callers: list[str] = []
    answer_query = core.answer_query

    def spied(*args):
        callers.append(threading.current_thread().name)
        return answer_query(*args)

    monkeypatch.setattr(core, "answer_query", spied)
    _run(session, route, _query(tiny_routes[0]))
    assert callers == [threading.current_thread().name]  # asyncio.run's loop


@pytest.mark.parametrize("route", ROUTES + ("degraded", "cancelled-reload"))
def test_every_route_takes_one_batch_path(session, tiny_routes, route):
    """Same body bytes, one ``ok`` request event with the whole stage
    breakdown, one executed queue-wait observation — on every route."""
    entry = tiny_routes[0]
    executed = session.registry.histogram(
        "serve_queue_wait_seconds", outcome="executed"
    )
    before = executed.count
    body, service = _run(session, route, _query(entry))
    expected = session.verify_route(str(entry.prefix), entry.as_path, collector="serve")
    assert body == render_report(expected)
    (request,) = service.flight.events(kinds=["request"])
    assert request["outcome"] == "ok"
    assert set(request["stages_ms"]) == set(STAGES)
    assert executed.count == before + 1
    if route == "degraded":
        assert service.degradation.by_kind().get("serve/degraded-to-serial") == 1
