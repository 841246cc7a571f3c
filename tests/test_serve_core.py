"""One request core: every batch route is admitted and timed on the loop.

``VerifyService`` runs a batch on one of several routes — on the event
loop, on the executor behind an installed chaos batch fault or a reload
holding the session, on a worker pool, or in-process when the pool is
degraded.  Whichever it takes, the answer and the bookkeeping must be the
same, and every ``serve_*`` instrument must be written on the loop thread.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import api
from repro.chaos import use_faults
from repro.irr.history import ChurnConfig, evolve_with_journal
from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter, Histogram
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
        if route != "reload":
            return await service.submit(query), service
        # The reload's patch holds the session (and the one executor
        # thread) until the batch has left the queue: the batch cannot take
        # the session on the loop and queues behind the patch.
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
            request = asyncio.create_task(service.submit(query))
            while not service.inflight:
                await asyncio.sleep(0.001)
            release.set()
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


@pytest.mark.parametrize("route", ROUTES + ("degraded",))
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
