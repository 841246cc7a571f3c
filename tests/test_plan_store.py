"""The generation's plan store: table passes borrow it, never rebuild it.

``Session.verify_table``, ``Session.explain`` and the pool's in-process
fallback verify on a pass view of the generation's warm verifier
(``Verifier.for_pass``).  The view shares the rule plans, the interned
reports and the only-provider memo, and has a cold hop cache of its own.
Every pass must still answer exactly what a fresh verifier answers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core import verify as verify_module
from repro.core.verify import VerifyOptions
from repro.irr.history import ChurnConfig, evolve_with_journal
from repro.irr.journal import journal_between
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
    counted = (
        ("verify_rule_plans_total", "built"),
        ("verify_rule_plans_total", "hit"),
        ("verify_rule_plans_total", "verdict"),
        ("verify_hop_cache_total", "miss"),
        ("verify_hop_cache_total", "hit"),
    )
    with _open(tiny_ir, tiny_world) as session:
        registry = session.registry
        counts = []
        for _ in range(2):
            before = [_counter(registry, name, result=result) for name, result in counted]
            session.verify_table(tiny_routes)
            after = [_counter(registry, name, result=result) for name, result in counted]
            counts.append(tuple(b - a for a, b in zip(before, after)))
        first, again = counts
        built, plan_hits, verdicts, misses, hits = first
        built_again, plan_hits_again, verdicts_again, misses_again, hits_again = again
        assert built > 0 and built_again == 0
        assert built + plan_hits == misses and plan_hits_again == misses_again > 0
        # Each pass hits as often as the first: the hop cache is the pass's.
        assert hits_again == hits
        assert verdicts_again + hits_again + misses_again == verdicts + hits + misses
        # A verdict plan is built on its first check's miss and answers every
        # later check of its key, in this pass and the next, before the cache.
        plans = session.verifier._rule_plans
        verdict_plans = sum(plan.verdict is not None for plan in plans.values())
        assert misses - misses_again == verdicts_again - verdicts == verdict_plans > 0
        assert len(plans) == built
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
        # Empty but for the verdict plans the journal left standing, which
        # are the old generation's own objects.
        plans, reports, only_provider = _stores(session.verifier)
        assert reports == {} and only_provider == {}
        assert plans and all(plan.verdict is not None for plan in plans.values())
        assert all(old._rule_plans[key] is plan for key, plan in plans.items())
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


# -- verdict plans carried across journals ---------------------------------------
#
# A plan that is a verdict reads only ``ir.aut_nums[s]``, so
# ``adopt_hop_cache`` carries it unless clause 1 of the invalidation rule
# reaches it ("What a delta invalidates" in docs/incremental.md).  Each
# epoch below chains three journals: the churn of ``evolve_with_journal``;
# one that creates an aut-num, deletes one and strips one of its imports;
# and one that gives those imports back, after passes have built the
# stripped AS's import verdicts.  The last is an imports-only rewrite, the
# case only the ``import_subjects`` half of clause 1 catches.

_SIZES = (0, 3, VerifyOptions().hop_cache_size)


def _subject(key: tuple) -> int:
    direction, from_asn, to_asn, _ = key
    return to_asn if direction == "import" else from_asn


def _with_aut_nums(ir, changes: dict):
    """A copy of ``ir`` whose aut-num table has ``changes`` applied: an
    ``AutNum`` replaces or adds one, ``None`` deletes one."""
    aut_nums = dict(ir.aut_nums)
    for asn, aut_num in changes.items():
        if aut_num is None:
            del aut_nums[asn]
        else:
            aut_nums[asn] = aut_num
    return dataclasses.replace(ir, aut_nums=aut_nums)


def _scripted_edits(session, sample, rng):
    """⟨the edited IR, the stripped AS and its imports⟩ for the next journal.

    The created and the deleted AS are subjects of verdict plans the
    generation holds; the stripped AS is an import subject of the sample
    with rules in both directions, so its import verdicts get built once
    its imports are gone.
    """
    ir = session.ir
    aut_nums = ir.aut_nums
    verdicts = {
        _subject(key)
        for key, plan in session.verifier._rule_plans.items()
        if plan.verdict is not None
    }
    template = next(a for a in aut_nums.values() if a.imports and a.exports)
    created = rng.choice(sorted(verdicts - aut_nums.keys()))
    deleted = rng.choice(sorted(verdicts & aut_nums.keys()))
    importers = sorted(
        {
            asn
            for entry in sample
            for asn in entry.deprepended_path()[:-1]
            if asn in aut_nums and aut_nums[asn].imports and aut_nums[asn].exports
        }
        - {deleted}
    )
    stripped = rng.choice(importers)
    edited = _with_aut_nums(ir, {
        created: dataclasses.replace(template, asn=created, as_name=f"AS{created}-NEW"),
        deleted: None,
        stripped: dataclasses.replace(aut_nums[stripped], imports=[]),
    })
    return edited, stripped, aut_nums[stripped].imports


def _apply(sessions, journal) -> None:
    for session in sessions:
        assert not session.apply_deltas(journal)  # the patch path, never a recompile


def _disagreements(sessions, sample) -> list[str]:
    """Where the generation each session just adopted differs from a fresh
    verifier's: a carried plan, a table pass, the pooled pass."""
    found = []
    index = api.compile_index(sessions[0].ir)
    for session in sessions:
        fresh = api.make_verifier(
            session.ir, session.relationships, session.options, index=index
        )
        size = session.options.hop_cache_size
        # Right after the apply, the store holds only what was carried.
        for key, plan in session.verifier._rule_plans.copy().items():
            if plan != fresh._build_plan(*key):
                found.append(f"size {size}: carried plan {key}")
        if _pass(session, sample) != [fresh.verify_entry(entry) for entry in sample]:
            found.append(f"size {size}: table pass")
    session = sessions[-1]
    serial = session.verify_table(sample)
    pooled = session.verify_table(sample, processes=2, chunk_size=len(sample) // 3)
    if (pooled._tally, pooled.summary()) != (serial._tally, serial.summary()):
        found.append("pooled pass")
    return found


def _carry_epochs(tiny_ir, tiny_world, sample, seed, epochs) -> list[str]:
    """Chain ``epochs`` × 3 journals over one session per cache size;
    returns every disagreement seen after any apply."""
    rng = random.Random(seed)
    sessions = [
        _open(tiny_ir, tiny_world, options=VerifyOptions(hop_cache_size=size))
        for size in _SIZES
    ]
    found: list[str] = []
    try:
        serial = 1
        for epoch in range(epochs):
            for session in sessions:
                _pass(session, sample)  # plans to carry, at every size
            driver = sessions[-1]
            _, churn = evolve_with_journal(
                driver.ir, ChurnConfig(seed=seed + epoch, **_RULE_CHURN), start_serial=serial
            )
            if churn.entries:
                serial = max(churn.serials().values()) + 1
                _apply(sessions, churn)
                found += _disagreements(sessions, sample)
            edited, stripped, imports = _scripted_edits(driver, sample, rng)
            scripted = journal_between(driver.ir, edited, start_serial=serial)
            serial = max(scripted.serials().values()) + 1
            _apply(sessions, scripted)
            found += _disagreements(sessions, sample)
            import_verdicts = [
                key
                for key, plan in driver.verifier._rule_plans.items()
                if key[0] == "import" and key[2] == stripped and plan.verdict is not None
            ]
            assert import_verdicts  # the passes built what the next journal reaches
            restored = _with_aut_nums(driver.ir, {
                stripped: dataclasses.replace(driver.ir.aut_nums[stripped], imports=imports)
            })
            restore = journal_between(driver.ir, restored, start_serial=serial)
            serial = max(restore.serials().values()) + 1
            _apply(sessions, restore)
            assert driver.index.effects.import_subjects == {stripped}
            found += _disagreements(sessions, sample)
    finally:
        for session in sessions:
            session.close()
    return found


@settings(max_examples=_PROPERTY_EXAMPLES, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    epochs=st.integers(min_value=1, max_value=2),
)
def test_carried_verdict_plans_agree_with_a_fresh_verifier(
    tiny_ir, tiny_world, sample, seed, epochs
):
    """After every apply of chained journals — churn, an aut-num created,
    one deleted, one whose imports alone are rewritten — each carried plan
    is the plan a fresh verifier builds, every cache size's table pass is
    a fresh verifier's, and the pooled pass is the serial one."""
    assert _carry_epochs(tiny_ir, tiny_world, sample, seed, epochs) == []


def test_the_carry_rule_needs_its_import_clause(tiny_ir, tiny_world, sample, monkeypatch):
    """Without the ``import_subjects`` half of clause 1, an imports-only
    rewrite leaves a stale "no import rules" verdict standing."""

    carried_verdicts = verify_module._carried_verdicts

    def without_import_clause(plans, effects):
        return carried_verdicts(plans, dataclasses.replace(effects, import_subjects=frozenset()))

    monkeypatch.setattr(verify_module, "_carried_verdicts", without_import_clause)
    found = _carry_epochs(tiny_ir, tiny_world, sample, seed=0, epochs=1)
    assert found and all("size 0" not in problem for problem in found)

