"""The installed metrics registry belongs to one thread or asyncio task.

A ``Session`` with its own registry enters it for every operation.  The
serve daemon verifies on its loop while a reload patches the same session
on ``asyncio.to_thread``; with one process-wide registry the verifier's
scope could end in the middle of the patch's, so the patch reported into
the null registry and the session's registry stayed installed after both
scopes had closed.  Each test below forces that interleaving: the verifier
enters its scope first, the patch enters its own, the verifier leaves,
and only then does the patch run.
"""

import asyncio
import http.client
import json
import threading

import pytest

import repro.api as api
from repro.api import Session
from repro.core.verify import Verifier
from repro.irr.history import ChurnConfig, evolve_with_journal
from repro.obs import NULL_REGISTRY, MetricsRegistry, get_registry, use_registry
from repro.serve import ServeConfig, ServeDaemon

WAIT_S = 30


class Interleaving:
    """Hooks that hold a verification and a patch inside their scopes."""

    def __init__(self, monkeypatch):
        self.verifying = threading.Event()
        self.patching = threading.Event()
        self.verified = threading.Event()
        self.seen: dict = {}
        verify_route = Verifier.verify_route
        apply_journal_to_ir = api.apply_journal_to_ir
        patch_index = api._patch_index

        def held_verify(verifier, *args, **kwargs):
            self.verifying.set()
            assert self.patching.wait(WAIT_S)
            return verify_route(verifier, *args, **kwargs)

        def spied_apply(*args, **kwargs):
            self.seen["apply_journal_to_ir"] = get_registry()
            return apply_journal_to_ir(*args, **kwargs)

        def held_patch(*args, **kwargs):
            self.patching.set()
            assert self.verified.wait(WAIT_S)
            self.seen["patch_index"] = get_registry()
            return patch_index(*args, **kwargs)

        monkeypatch.setattr(Verifier, "verify_route", held_verify)
        monkeypatch.setattr(api, "apply_journal_to_ir", spied_apply)
        monkeypatch.setattr(api, "_patch_index", held_patch)

    def patch(self, session, journal):
        assert self.verifying.wait(WAIT_S)
        return session.apply_deltas(journal)

    def verify(self, session, route):
        report = session.verify_route(str(route.prefix), (64500, route.origin))
        self.verified.set()
        return report


@pytest.fixture
def race(tiny_ir, tiny_world, monkeypatch):
    registry = MetricsRegistry()
    session = Session(tiny_ir, tiny_world.topology, use_cache=False, registry=registry)
    session.warm()
    _, journal = evolve_with_journal(session.ir, ChurnConfig(seed=3), epoch=0, start_serial=1)
    route = session.ir.route_objects[0]
    yield Interleaving(monkeypatch), session, journal, route, registry
    session.close()


def _assert_scoped(interleaving, registry):
    assert get_registry() is NULL_REGISTRY  # nothing leaked out of either scope
    assert interleaving.seen == {"apply_journal_to_ir": registry, "patch_index": registry}
    spans = {span["path"] for span in registry.snapshot()["spans"]}
    assert "compile/patch" in spans
    assert registry.counter("delta_apply_total", result="patched").value == 1


def test_a_patch_thread_keeps_its_registry(race):
    interleaving, session, journal, route, registry = race
    outcome = {}
    patcher = threading.Thread(
        target=lambda: outcome.setdefault("report", interleaving.patch(session, journal))
    )
    patcher.start()
    try:
        assert interleaving.verify(session, route).hops
    finally:
        interleaving.verified.set()
        patcher.join(WAIT_S)
    assert not outcome["report"]
    _assert_scoped(interleaving, registry)


def test_a_reload_task_keeps_its_registry(race):
    """The daemon's shape: the loop verifies while a reload task awaits
    the patch on ``asyncio.to_thread``."""
    interleaving, session, journal, route, registry = race

    async def reload():
        return await asyncio.to_thread(interleaving.patch, session, journal)

    async def verify():
        await asyncio.sleep(0)
        return interleaving.verify(session, route)

    async def main():
        try:
            return await asyncio.gather(reload(), verify())
        finally:
            interleaving.verified.set()

    report, verdict = asyncio.run(main())
    assert not report and verdict.hops
    _assert_scoped(interleaving, registry)


def test_tasks_keep_their_scopes_across_awaits():
    first, second = MetricsRegistry(), MetricsRegistry()
    entered, left = asyncio.Event(), asyncio.Event()
    seen = []

    async def outer():
        with use_registry(first):
            await entered.wait()
        left.set()

    async def inner():
        with use_registry(second):
            entered.set()
            await left.wait()
            seen.append(get_registry())
        seen.append(get_registry())

    async def main():
        await asyncio.gather(outer(), inner())

    asyncio.run(main())
    assert seen == [second, NULL_REGISTRY]
    assert get_registry() is NULL_REGISTRY


def test_a_threaded_daemon_reports_to_its_starters_registry(tiny_ir, tiny_world):
    route = tiny_ir.route_objects[0]
    body = json.dumps({"prefix": str(route.prefix), "as_path": [64500, route.origin]})
    with Session(tiny_ir, tiny_world.topology, use_cache=False) as session:
        with use_registry() as registry:
            daemon = ServeDaemon(session, ServeConfig(http_port=0))
            with daemon.start_in_thread() as handle:
                connection = http.client.HTTPConnection(
                    "127.0.0.1", handle.http_port, timeout=WAIT_S
                )
                try:
                    connection.request(
                        "POST", "/verify", body, {"Content-Type": "application/json"}
                    )
                    assert connection.getresponse().status == 200
                finally:
                    connection.close()
    names = {record["name"] for record in registry.snapshot()["counters"]}
    assert "serve_requests_total" in names
