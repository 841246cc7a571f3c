"""The installed tracer belongs to one thread or asyncio task.

``Session.verify_table`` installs the session's tracer for its pass, and
``Session.explain`` installs a deep tracer of its own for one replay.  The
serve daemon runs both at once: an ``/explain`` on its loop while a table
pass runs elsewhere.  With one process-wide tracer, the scope that closed
first restored what the other had displaced: the replay saw no tracer at
all, and the session's tracer stayed installed after both scopes had
closed.  The tests below force that interleaving, as
``tests/test_registry_scope.py`` does for the metrics registry.
"""

import asyncio
import threading

from repro import api
from repro.core.verify import Verifier
from repro.obs import MetricsRegistry
from repro.obs.trace import NULL_TRACER, TraceConfig, Tracer, get_tracer, use_tracer

WAIT_S = 30


def test_a_replay_keeps_its_tracer_while_a_pass_closes_its_own(
    tiny_ir, tiny_world, tiny_routes, monkeypatch
):
    """A table pass enters the session's tracer, a replay on another thread
    enters its own, the pass leaves, and only then does the replay make
    its pass view."""
    session = api.open_session(
        tiny_ir, as_rel=tiny_world.topology, use_cache=False,
        registry=MetricsRegistry(), trace=TraceConfig(sample_rate=1),
    )
    session_tracer = session.tracer
    table_entered, replay_entered, table_done = (threading.Event() for _ in range(3))
    seen = {}
    for_pass = Verifier.for_pass

    def held_for_pass(verifier):
        if threading.current_thread().name == "table":
            table_entered.set()
            assert replay_entered.wait(WAIT_S)
        else:
            replay_entered.set()
            assert table_done.wait(WAIT_S)
        seen[threading.current_thread().name] = get_tracer()
        return for_pass(verifier)

    monkeypatch.setattr(Verifier, "for_pass", held_for_pass)
    entry = tiny_routes[0]
    outcome = {}

    def table():
        session.verify_table(tiny_routes[:50])
        table_done.set()

    def replay():
        assert table_entered.wait(WAIT_S)
        outcome["explain"] = session.explain(str(entry.prefix), entry.as_path)

    threads = [threading.Thread(target=table, name="table"),
               threading.Thread(target=replay, name="replay")]
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            thread.join(WAIT_S)
        session.close()
    assert not any(thread.is_alive() for thread in threads)
    assert seen["table"] is session_tracer
    replay_tracer = seen["replay"]
    assert replay_tracer.enabled and replay_tracer is not session_tracer
    report, events = outcome["explain"]
    hops = [event for event in events if event["kind"] == "hop"]
    assert len(hops) == len(report.hops) > 0
    assert get_tracer() is NULL_TRACER  # nothing leaked out of either scope


def test_a_thread_keeps_its_tracer_when_another_leaves_first():
    first, second = Tracer(), Tracer()
    entered, left, done = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def inner():
        with use_tracer(second):
            entered.set()
            assert left.wait(WAIT_S)
            seen.append(get_tracer())
        seen.append(get_tracer())
        done.set()

    thread = threading.Thread(target=inner)
    try:
        with use_tracer(first):
            thread.start()
            assert entered.wait(WAIT_S)
            assert get_tracer() is first
    finally:
        left.set()
    assert done.wait(WAIT_S)
    thread.join(WAIT_S)
    assert seen == [second, NULL_TRACER]
    assert get_tracer() is NULL_TRACER


def test_tasks_keep_their_tracers_across_awaits():
    first, second = Tracer(), Tracer()
    entered, left = asyncio.Event(), asyncio.Event()
    seen = []

    async def outer():
        with use_tracer(first):
            await entered.wait()
        left.set()

    async def inner():
        with use_tracer(second):
            entered.set()
            await left.wait()
            seen.append(get_tracer())
        seen.append(get_tracer())

    async def main():
        await asyncio.gather(outer(), inner())

    asyncio.run(main())
    assert seen == [second, NULL_TRACER]
    assert get_tracer() is NULL_TRACER


def test_a_thread_to_thread_call_sees_its_callers_tracer():
    """``asyncio.to_thread`` copies the context, so work handed to a thread
    reports to the tracer of the task that handed it over."""
    tracer = Tracer()

    async def main():
        with use_tracer(tracer):
            return await asyncio.to_thread(get_tracer)

    assert asyncio.run(main()) is tracer
    assert get_tracer() is NULL_TRACER
