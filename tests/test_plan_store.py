"""The generation's plan store: table passes borrow it, never rebuild it.

``Session.verify_table``, ``Session.explain`` and the pool's in-process
fallback verify on a pass view of the generation's warm verifier
(``Verifier.for_pass``).  The view shares the rule plans, the interned
reports and the only-provider memo, and has a cold hop cache of its own.
Every pass must still answer exactly what a fresh verifier answers.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.verify import VerifyOptions
from repro.irr.history import ChurnConfig, evolve_with_journal
from repro.obs import MetricsRegistry

_NIGHTLY = os.environ.get("HYPOTHESIS_PROFILE") == "nightly"
_PROPERTY_EXAMPLES = 40 if _NIGHTLY else 5
_PROPERTY_ROUTES = 1000 if _NIGHTLY else 250

# Rule churn high enough that every journal rewrites some aut-num.
_RULE_CHURN = dict(rule_removal=0.2, rule_addition=0.3)


def _counter(registry: MetricsRegistry, name: str, **labels) -> int:
    return sum(
        record["value"]
        for record in registry.snapshot()["counters"]
        if record["name"] == name and record["labels"] == labels
    )


def _open(ir, world, **kwargs):
    return api.open_session(
        ir, as_rel=world.topology, use_cache=False, registry=MetricsRegistry(), **kwargs
    )


def _pass(session, routes) -> list:
    reports: list = []
    session.verify_table(routes, on_report=reports.append)
    return reports


def _fresh(session, routes, index=None) -> list:
    verifier = api.make_verifier(
        session.ir, session.relationships, session.options, index=index
    )
    return [verifier.verify_entry(entry) for entry in routes]


def _stores(verifier) -> tuple[dict, dict, dict]:
    return verifier._rule_plans, verifier._reports, verifier.special._only_provider_cache


def test_second_pass_builds_no_plan_and_starts_its_hop_cache_cold(
    tiny_ir, tiny_world, tiny_routes
):
    with _open(tiny_ir, tiny_world) as session:
        registry = session.registry
        counts = []
        for _ in range(2):
            before = (
                _counter(registry, "verify_rule_plans_total", result="built"),
                _counter(registry, "verify_hop_cache_total", result="miss"),
                _counter(registry, "verify_hop_cache_total", result="hit"),
            )
            session.verify_table(tiny_routes)
            after = (
                _counter(registry, "verify_rule_plans_total", result="built"),
                _counter(registry, "verify_hop_cache_total", result="miss"),
                _counter(registry, "verify_hop_cache_total", result="hit"),
            )
            counts.append(tuple(b - a for a, b in zip(before, after)))
        (built, misses, hits), (built_again, misses_again, hits_again) = counts
        assert built > 0 and built_again == 0
        # Each pass misses as often as the first: the hop cache is the pass's.
        assert (misses_again, hits_again) == (misses, hits) and misses > 0
        assert len(session.verifier._rule_plans) == built
        assert session.verifier._hop_cache == {}  # no pass wrote to it


def test_a_pass_view_is_a_whole_verifier(tiny_ir, tiny_world):
    """The view has every attribute a verifier has, shares the
    generation's stores and owns its hop cache and filter evaluator."""
    with _open(tiny_ir, tiny_world) as session:
        verifier = session.verifier
        view = verifier.for_pass()
        fresh = api.make_verifier(session.ir, session.relationships, session.options)
        assert type(view) is type(verifier)
        assert set(vars(view)) == set(vars(fresh))
        for name in ("query", "special", "_rule_plans", "_reports"):
            assert getattr(view, name) is getattr(verifier, name)
        for name in ("filters", "_hop_cache"):
            assert getattr(view, name) is not getattr(verifier, name)


def test_pass_reports_equal_a_fresh_verifier_cold_warm_and_after_apply(
    tiny_ir, tiny_world, tiny_routes
):
    routes = tiny_routes[:600]
    with _open(tiny_ir, tiny_world) as session:
        assert _pass(session, routes) == _fresh(session, routes)  # cold plans
        for entry in tiny_routes[600:900]:
            session.verify_route(str(entry.prefix), entry.as_path)
        assert _pass(session, routes) == _fresh(session, routes)  # warmed by routes
        old = session.verifier

        _, journal = evolve_with_journal(
            session.ir, ChurnConfig(seed=3, **_RULE_CHURN)
        )
        assert any(entry.cls == "aut-num" for entry in journal.entries)
        assert not session.apply_deltas(journal)
        assert session.verifier is not old
        assert all(store == {} for store in _stores(session.verifier))
        fresh = _fresh(session, routes, index=api.compile_index(session.ir))
        assert _pass(session, routes) == fresh
        assert _pass(session, routes) == fresh  # and on the new generation's plans
        assert old._rule_plans is not session.verifier._rule_plans


def test_hop_cache_size_zero_keeps_nothing(tiny_ir, tiny_world, tiny_routes):
    routes = tiny_routes[:400]
    options = VerifyOptions(hop_cache_size=0)
    with _open(tiny_ir, tiny_world, options=options) as session:
        registry = session.registry
        built = []
        for _ in range(2):
            before = _counter(registry, "verify_rule_plans_total", result="built")
            assert _pass(session, routes) == _fresh(session, routes)
            built.append(_counter(registry, "verify_rule_plans_total", result="built") - before)
        verifier = session.verifier
        assert verifier._rule_plans == {} and verifier._reports == {}
        assert verifier._hop_cache == {}
        assert built[0] == built[1] > 0  # every check built its plan again


def test_concurrent_passes_share_a_small_store(tiny_ir, tiny_world, tiny_routes):
    """Three table passes and a run of replays on four threads over one
    generation whose stores are cleared every few dozen checks: each pass
    still equals a fresh verifier and each replay its lone run.  A view
    that shared its hop cache, or its filter evaluator's trace sink, would
    not."""
    routes = tiny_routes[:900]
    picks = random.Random(5).sample(tiny_routes, 20)
    options = VerifyOptions(hop_cache_size=32)
    results: dict[str, list] = {}
    with api.open_session(
        tiny_ir, as_rel=tiny_world.topology, use_cache=False, options=options
    ) as session:
        expected = _fresh(session, routes)
        alone = [_explained(session, entry) for entry in picks]

        def run(name: str) -> None:
            if name == "explain":
                results[name] = [_explained(session, entry) for entry in picks * 5]
            else:
                results[name] = _pass(session, routes)

        names = ["pass-0", "pass-1", "pass-2", "explain"]
        threads = [threading.Thread(target=run, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == sorted(names)
    assert results.pop("explain") == alone * 5
    assert all(reports == expected for reports in results.values())


def _explained(session, entry) -> str:
    _, events = session.explain(str(entry.prefix), entry.as_path)
    return json.dumps([{k: v for k, v in e.items() if k != "ts"} for e in events])


def test_explain_events_do_not_depend_on_warm_plans(tiny_ir, tiny_world, tiny_routes):
    picks = random.Random(7).sample(tiny_routes, 20)
    with _open(tiny_ir, tiny_world) as session:
        cold = [_explained(session, entry) for entry in picks]
        assert session.verifier._rule_plans  # the replays built plans
        session.verify_table(tiny_routes)
        warm = [_explained(session, entry) for entry in picks]
    assert warm == cold
    with _open(tiny_ir, tiny_world) as session:
        session.verify_table(tiny_routes)  # warm before the first replay
        assert [_explained(session, entry) for entry in picks] == cold


@pytest.fixture(scope="module")
def sample(tiny_routes):
    return random.Random(11).sample(tiny_routes, _PROPERTY_ROUTES)


@settings(max_examples=_PROPERTY_EXAMPLES, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    epochs=st.integers(min_value=1, max_value=3),
)
def test_shared_plan_pass_agrees_with_a_fresh_verifier(
    tiny_ir, tiny_world, sample, seed, epochs
):
    """Over chained journals, every pass on shared plans — the first on a
    generation and the ones after it — equals a fresh verifier's."""
    with _open(tiny_ir, tiny_world) as session:
        serial = 1
        for epoch in range(epochs):
            first = _pass(session, sample)
            assert _pass(session, sample) == first == _fresh(session, sample)
            _, journal = evolve_with_journal(
                session.ir, ChurnConfig(seed=seed + epoch, **_RULE_CHURN),
                start_serial=serial,
            )
            if not journal.entries:
                continue
            serial = max(journal.serials().values()) + 1
            session.apply_deltas(journal)
        fresh = _fresh(session, sample, index=api.compile_index(session.ir))
        assert _pass(session, sample) == fresh
