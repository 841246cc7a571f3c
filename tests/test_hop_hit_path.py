"""What a repeated hop costs: one probe to verify, one join to serve.

Four gates on the hit path, none of them a timer:

* the route loop counts exactly the verdicts the per-hop ``check`` counted
  before (pinned on the commit that still built a ``MatchContext`` per
  hop), and how its checks split between verdict plans and the hop cache;
* operation counters — a warm route builds no ``MatchContext``, a miss
  builds one only when its rule plan has rules to run, and a
  route whose hops were all rendered before calls no ``__str__``; a
  journal's invalidated hop is rendered afresh, a carried one is not; a
  pass and its fold hash no ``Prefix`` and no ``Enum``, and make one
  report object per verdict value;
* the served bytes are ``report_as_dict``'s, whatever the report holds,
  in process and over both front-ends with and without a worker pool;
* the memo slot is not part of a ``HopReport``'s value.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import pickle
from contextlib import nullcontext
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.bgp.table import RouteEntry
from repro.core import verify as verify_module
from repro.core.report import HopReport, ItemKind, ReportItem, RouteReport
from repro.core.status import VerifyStatus
from repro.core.verify import Verifier, VerifyOptions
from repro.irr.journal import journal_between
from repro.irr.whois import whois_query
from repro.net.prefix import Prefix
from repro.obs import MetricsRegistry, use_registry
from repro.obs.trace import TraceConfig, Tracer, use_tracer
from repro.serve import ServeConfig, ServeDaemon, report_as_dict
from repro.serve.core import _json_bytes, render_report
from repro.stats.verification import VerificationStats

from test_incremental_index import _NO_RELATIONSHIPS, _PATH, _as_ir, _world

# -- counter parity ------------------------------------------------------------

# The first 400 tiny-world routes verified twice by one Verifier.  Whatever
# the cache size: 3,796 hop checks, these statuses, 2 ignored routes
# (captured at 225bd25, the parent of the probe-before-build change).
_STATUSES = {
    "relaxed": 46, "safelisted": 176, "unrecorded": 1444,
    "unverified": 718, "verified": 1412,
}
_CHECKS = 3796
# How those checks split between the rule plans and the hop cache, pinned
# since plans that are verdicts answer ahead of the hop cache.  With a
# cache, verdicts + hits + misses = checks and built + plan hits = misses;
# at 0 nothing is kept, so nothing is counted but builds and timings.
# The default size's flags digest does begin "deadbee": the flag bytes,
# written to a file, hash to deadbee2366e068045c7ab69… under sha256sum too.
_PINNED = {
    # hop_cache_size: plan verdicts, hits, misses, evictions,
    # verify_hop_seconds count, plans built, plan hits,
    # traced hops answered by the cache, sha of flags
    0: (0, 0, 0, 0, 3796, 3796, 0, 0, "e027a818822760e0"),
    3: (80, 0, 3716, 1238, 3716, 3562, 154, 0, "e027a818822760e0"),
    1 << 20: (1400, 1763, 633, 0, 633, 104, 529, 587, "deadbee2366e0680"),
}


def _counter(snapshot: dict, name: str, **labels) -> int:
    return sum(
        c["value"]
        for c in snapshot["counters"]
        if c["name"] == name and c["labels"] == labels
    )


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("size", sorted(_PINNED))
def test_check_counts_what_it_counted_before(tiny_ir, tiny_world, tiny_routes, size, traced):
    verdicts, hits, misses, evictions, timed, built, plan_hits, cached, flags_sha = (
        _PINNED[size]
    )
    if size:
        assert verdicts + hits + misses == _CHECKS and built + plan_hits == misses
    registry = MetricsRegistry()
    tracer = Tracer(TraceConfig(sample_rate=1, deep=True))
    with use_registry(registry), use_tracer(tracer) if traced else nullcontext():
        verifier = Verifier(
            tiny_ir, tiny_world.topology, VerifyOptions(hop_cache_size=size)
        )
        for _ in range(2):
            for entry in tiny_routes[:400]:
                verifier.verify_entry(entry)
    assert (
        verifier.plan_verdicts,
        verifier.hop_cache_hits,
        verifier.hop_cache_misses,
        verifier.hop_cache_evictions,
    ) == (verdicts, hits, misses, evictions)
    snapshot = registry.snapshot()
    assert _counter(snapshot, "verify_hop_cache_total", result="hit") == hits
    assert _counter(snapshot, "verify_hop_cache_total", result="miss") == misses
    assert _counter(snapshot, "verify_hop_cache_evictions_total") == evictions
    assert _counter(snapshot, "verify_rule_plans_total", result="built") == built
    assert _counter(snapshot, "verify_rule_plans_total", result="hit") == plan_hits
    assert _counter(snapshot, "verify_rule_plans_total", result="verdict") == verdicts
    assert {
        status: _counter(snapshot, "verify_hops_total", status=status)
        for status in _STATUSES
    } == _STATUSES
    assert _counter(snapshot, "verify_routes_total") == 800
    (latency,) = [
        h for h in snapshot["histograms"] if h["name"] == "verify_hop_seconds"
    ]
    assert latency["count"] == timed
    if traced:
        flags = [event["cached"] for event in tracer.events if "cached" in event]
        # The pins are the first pass's; the second emits the same hops
        # again (an event log records what happened, twice if it did).
        assert len(flags) == 2 * 1898
        flags = flags[:1898]
        assert sum(flags) == cached
        assert hashlib.sha256(bytes(flags)).hexdigest()[:16] == flags_sha


# -- operation counters ----------------------------------------------------------


class _Calls:
    """Count calls to ``owner.name`` for the length of a test."""

    def __init__(self, monkeypatch, owner, name):
        original = getattr(owner, name)
        self.count = 0

        def counting(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)


def test_a_warm_route_builds_no_match_context(tiny_ir, tiny_world, tiny_routes, monkeypatch):
    contexts = _Calls(monkeypatch, verify_module, "MatchContext")
    verifier = Verifier(tiny_ir, tiny_world.topology)
    entry = next(e for e in tiny_routes if len(e.deprepended_path()) > 2)
    first = verifier.verify_route(entry.prefix, entry.as_path)
    # Cold: one per miss whose plan leaves something to evaluate; a plan that
    # is a verdict (no aut-num, no rules) answers without one.
    version = entry.prefix.version
    evaluated = sum(
        verifier._rule_plans[hop.direction, hop.from_asn, hop.to_asn, version].verdict is None
        for hop in first.hops
    )
    assert contexts.count == evaluated and 0 < evaluated < len(first.hops)
    contexts.count = 0
    assert verifier.verify_route(entry.prefix, entry.as_path) == first
    assert contexts.count == 0
    # Without a cache there is nothing to probe: every check builds one.
    uncached = Verifier(
        tiny_ir, tiny_world.topology, VerifyOptions(hop_cache_size=0)
    )
    uncached.verify_route(entry.prefix, entry.as_path)
    uncached.verify_route(entry.prefix, entry.as_path)
    assert contexts.count == 2 * evaluated


def test_a_context_is_built_only_for_a_plan_with_rules_to_run(
    tiny_ir, tiny_world, tiny_routes, monkeypatch
):
    """A plan that is itself the verdict (no aut-num, no rules of that
    direction) answers every route alike and reads no context."""
    contexts = _Calls(monkeypatch, verify_module, "MatchContext")
    to_run = []
    plan_for = Verifier._plan_for
    check_uncached = Verifier._check_uncached

    def looking_up(self, *key):
        plan = plan_for(self, *key)
        to_run.append(plan.verdict is None)
        return plan

    def checking(self, *args):
        probed = args[-1]  # the plan verify_entry's probe found, if any
        if probed is not None:
            to_run.append(probed.verdict is None)
        return check_uncached(self, *args)

    monkeypatch.setattr(Verifier, "_plan_for", looking_up)
    monkeypatch.setattr(Verifier, "_check_uncached", checking)
    for size in (1 << 20, 3, 0):
        verifier = Verifier(
            tiny_ir, tiny_world.topology, VerifyOptions(hop_cache_size=size)
        )
        contexts.count, to_run[:] = 0, []
        hops = sum(len(verifier.verify_entry(e).hops) for e in tiny_routes[:400])
        misses = verifier.hop_cache_misses if size else hops
        assert len(to_run) == misses  # one plan, probed or looked up, per miss
        assert contexts.count == sum(to_run) and 0 < sum(to_run) < misses
        # A verdict plan the probe found answers without a miss.
        assert verifier.plan_verdicts + verifier.hop_cache_hits + misses == hops
    # No aut-num anywhere: every miss is answered by its plan, no context at all.
    bare = Verifier(_as_ir("route: 10.31.0.0/16\norigin: AS3001\n"), _NO_RELATIONSHIPS)
    contexts.count, to_run[:] = 0, []
    report = bare.verify_route("10.31.0.0/16", _PATH)
    assert [hop.status for hop in report.hops] == [VerifyStatus.UNRECORDED] * 4
    assert (contexts.count, to_run) == (0, [False] * 4)


def test_a_pass_and_its_fold_hash_no_prefix_and_no_enum(
    tiny_ir, tiny_world, tiny_routes, monkeypatch
):
    """The hop-cache key holds the prefix as ints, and every enum a tally
    key or an interned report holds hashes by identity: nothing per hop
    runs a Python-level ``__hash__`` of either kind."""
    verifier = Verifier(tiny_ir, tiny_world.topology)  # compiling is not the pass
    prefix_hashes = _Calls(monkeypatch, Prefix, "__hash__")
    enum_hashes = _Calls(monkeypatch, Enum, "__hash__")
    stats = VerificationStats()
    for _ in range(2):  # cold, then warm
        for entry in tiny_routes:
            stats.add_report(verifier.verify_entry(entry))
    summary = stats.summary()
    assert stats.unrecorded_breakdown() and stats.special_breakdown()
    assert verifier.hop_cache_hits > verifier.hop_cache_misses > 0
    assert summary["hops"] == (
        verifier.plan_verdicts + verifier.hop_cache_misses + verifier.hop_cache_hits
    )
    assert (prefix_hashes.count, enum_hashes.count) == (0, 0)


def test_one_report_object_per_verdict_value(tiny_ir, tiny_world, tiny_routes):
    """Equal verdicts are one interned object, so its tally key and its
    renderings are worked out once per value, not once per miss."""
    verifier = Verifier(tiny_ir, tiny_world.topology)
    hops = [hop for entry in tiny_routes for hop in verifier.verify_entry(entry).hops]
    objects = {id(hop): hop for hop in hops}
    assert len(objects) == len(set(objects.values())) < verifier.hop_cache_misses


def test_rendered_hops_are_joined_not_rendered_again(
    tiny_ir, tiny_world, tiny_routes, monkeypatch
):
    hop_strs = _Calls(monkeypatch, HopReport, "__str__")
    item_strs = _Calls(monkeypatch, ReportItem, "__str__")
    verifier = Verifier(tiny_ir, tiny_world.topology)
    reports = [verifier.verify_entry(entry) for entry in tiny_routes[:200]]
    bodies = [render_report(report) for report in reports]
    distinct = {id(hop) for report in reports for hop in report.hops}
    assert hop_strs.count == len(distinct)  # once per report object, not per use
    assert item_strs.count > 0
    hop_strs.count = item_strs.count = 0
    # The same routes verified again share every hop report with the first pass.
    again = [verifier.verify_entry(entry) for entry in tiny_routes[:200]]
    assert [render_report(report) for report in again] == bodies
    assert (hop_strs.count, item_strs.count) == (0, 0)


def test_a_delta_invalidates_a_hops_rendering_with_its_verdict(monkeypatch):
    """Rendered fragments ride on the hop report, so "What a delta
    invalidates" covers them: AS2001's import rules are rewritten, its
    import check is dropped and rendered afresh; the three carried checks
    keep the very strings they had."""
    route = "\nroute: 10.31.0.0/16\norigin: AS3001\n"
    before, after = _as_ir(_world("AS9") + route), _as_ir(_world("AS3001") + route)
    prefix = "10.31.0.0/16"
    with api.open_session(before, as_rel=_NO_RELATIONSHIPS, use_cache=False) as session:
        stale = session.verify_route(prefix, _PATH)
        render_report(stale)
        hop_strs = _Calls(monkeypatch, HopReport, "__str__")
        assert not session.apply_deltas(journal_between(before, after))
        assert session.last_delta_hop_cache["carried"] == 3
        fresh = session.verify_route(prefix, _PATH)
        body = render_report(fresh)
    assert hop_strs.count == 1  # the re-checked hop; the carried three are joined
    assert body == _json_bytes(report_as_dict(fresh))
    changed = [
        (old, new) for old, new in zip(stale.hops, fresh.hops) if old is not new
    ]
    assert [(new.direction, new.to_asn) for _, new in changed] == [("import", 2001)]
    assert changed[0][0].fragments() != changed[0][1].fragments()
    carried = [new for old, new in zip(stale.hops, fresh.hops) if old is new]
    assert len(carried) == 3 and all(hop._fragments is not None for hop in carried)


# -- the renderer against its specification ---------------------------------------

_NAMES = st.text(
    alphabet=st.sampled_from('AS-:az09 "\\/\'\n\té中\U0001f600\x00\x7f{}[],'),
    max_size=24,
)
_ASNS = st.integers(min_value=0, max_value=0xFFFFFFFF)
_ITEMS = st.builds(
    ReportItem,
    kind=st.sampled_from(ItemKind),
    asn=st.none() | _ASNS,
    name=st.none() | _NAMES,
    op=st.none() | st.sampled_from(["NoOp", "^+", "^-", "^24", "^24-32"]),
)
_HOPS = st.builds(
    HopReport,
    direction=st.sampled_from(["import", "export"]),
    from_asn=_ASNS,
    to_asn=_ASNS,
    status=st.sampled_from(VerifyStatus),
    items=st.lists(_ITEMS, max_size=6).map(tuple),
    peer_matched=st.booleans(),
    rule_index=st.none() | st.integers(min_value=0, max_value=40),
    rule_source=st.none() | _NAMES,
)
_PREFIXES = st.builds(
    lambda network, length: Prefix(4, (network >> (32 - length)) << (32 - length), length),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
) | st.builds(
    lambda network, length: Prefix(6, (network >> (128 - length)) << (128 - length), length),
    st.integers(min_value=0, max_value=2**128 - 1),
    st.integers(min_value=0, max_value=128),
)
_ENTRIES = st.builds(
    lambda collector, prefix, path: RouteEntry(collector, path[0], prefix, path),
    _NAMES,
    _PREFIXES,
    st.lists(_ASNS, min_size=1, max_size=64).map(tuple),
)
_REPORTS = st.builds(
    RouteReport,
    entry=_ENTRIES,
    hops=st.lists(_HOPS, max_size=12),
    ignored=st.none() | st.sampled_from(["as-set-path", "single-as"]) | _NAMES,
)


class TestRendererMatchesItsSpecification:
    @settings(max_examples=300, deadline=None)
    @given(report=_REPORTS)
    def test_body_and_text_are_the_specifications(self, report):
        body = render_report(report)
        assert body == json.dumps(
            report_as_dict(report), separators=(",", ":"), sort_keys=True
        ).encode()
        assert json.loads(body)["text"] == str(report)
        assert render_report(report) == body  # from the memo this time

    def test_every_item_kind_renders_as_specified(self):
        entry = RouteEntry("rrc00", 64500, Prefix.parse("2001:db8::/32"), (64500, 174))
        hops = [
            HopReport(
                "export", 174, 64500, VerifyStatus.UNVERIFIED,
                (ReportItem(kind, 174, 'AS-"Q\\U\u00e9"', "^+"), ReportItem(kind)),
            )
            for kind in ItemKind
        ]
        for report in (RouteReport(entry, hops), RouteReport(entry, [], "as-set-path")):
            assert render_report(report) == _json_bytes(report_as_dict(report))

    @settings(max_examples=100, deadline=None)
    @given(hop=_HOPS)
    def test_the_memo_is_not_part_of_a_hop_reports_value(self, hop):
        twin = HopReport(
            hop.direction, hop.from_asn, hop.to_asn, hop.status, hop.items,
            hop.peer_matched, hop.rule_index, hop.rule_source,
        )
        rendered = hop.fragments()
        assert twin._fragments is None and hop._fragments is rendered
        shared = {}
        key = hop.tally_key(shared)
        assert twin._tally_key is None and hop._tally_key is key
        assert shared == {key: key} and hop.tally_key({}) is key
        assert hop == twin and hash(hop) == hash(twin)
        assert repr(hop) == repr(twin) and "_fragments" not in repr(hop)
        assert "_tally_key" not in repr(hop)
        for copy in (pickle.loads(pickle.dumps(hop)), pickle.loads(pickle.dumps(twin))):
            assert copy == hop and hash(copy) == hash(hop)
            assert copy.fragments() == rendered
            assert copy.tally_key({}) == key
        # An equal report takes the tuple the table already holds, not a new one.
        assert twin.tally_key(shared) is key
        for memo in (rendered, key):
            with pytest.raises(TypeError):
                HopReport(
                    hop.direction, hop.from_asn, hop.to_asn, hop.status, hop.items,
                    hop.peer_matched, hop.rule_index, hop.rule_source, memo,
                )


# -- the same bytes over both front-ends, with and without a pool --------------------


def _post_raw(port: int, path: str, payload: dict) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(
            "POST", path, body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@pytest.fixture(scope="module", params=[0, 2], ids=["workers-0", "workers-2"])
def daemon(request, tiny_world, tmp_path_factory):
    with api.open_session(
        tiny_world, registry=MetricsRegistry(), cache_dir=tmp_path_factory.mktemp("cache")
    ) as session:
        config = ServeConfig(http_port=0, whois_port=0, workers=request.param)
        with ServeDaemon(session, config).start_in_thread() as handle:
            yield handle


class TestServedBytes:
    def test_http_and_whois_answer_the_specifications_bytes(
        self, daemon, tiny_ir, tiny_world, tiny_routes
    ):
        verifier = api.make_verifier(tiny_ir, tiny_world.topology)
        routes = tiny_routes[:60] + [e for e in tiny_routes if e.prefix.version == 6][:10]
        for _ in range(2):  # cold, then every hop from the cache and the memo
            for entry in routes:
                payload = {"prefix": str(entry.prefix), "as_path": list(entry.as_path)}
                expected = verifier.verify_route(
                    entry.prefix, entry.as_path, collector="serve"
                )
                status, body = _post_raw(daemon.http_port, "/verify", payload)
                assert status == 200
                assert body == _json_bytes(report_as_dict(expected))
        for entry in routes[:20]:
            path = " ".join(map(str, entry.as_path))
            answer = whois_query(
                "127.0.0.1", daemon.whois_port, f"!v {entry.prefix} {path}"
            )
            text = str(verifier.verify_route(entry.prefix, entry.as_path, collector="whois"))
            _id, frame, served = answer.split("\n", 2)
            assert frame == f"A{len(text.encode()) + 1}"
            assert served == text + "\nC"

    def test_explain_still_answers_the_dict(self, daemon, tiny_routes):
        entry = tiny_routes[0]
        payload = {"prefix": str(entry.prefix), "as_path": list(entry.as_path)}
        status, body = _post_raw(daemon.http_port, "/explain", payload)
        assert status == 200
        answer = json.loads(body)
        assert answer["events"] and answer["text"].startswith(f"# {entry.prefix} path")
        assert body == _json_bytes(answer)

    @pytest.mark.parametrize(
        "field, value, detail",
        [
            ("as_path", [True, 64500.9, "174"], "'as_path' entries must be integers"),
            ("as_path", [True], "'as_path' entries must be integers"),
            ("as_path", [64500.0, 174], "'as_path' entries must be integers"),
            ("as_path", ["174"], "'as_path' entries must be integers"),
            ("as_path", [-1], "'as_path' entries must be 32-bit ASNs"),
            ("deadline_s", float("nan"), "'deadline_s' must be a finite positive number"),
            ("deadline_s", float("inf"), "'deadline_s' must be a finite positive number"),
            ("deadline_s", True, "'deadline_s' must be a finite positive number"),
            ("deadline_s", "2", "'deadline_s' must be a finite positive number"),
            ("deadline_s", 0, "'deadline_s' must be a finite positive number"),
        ],
    )
    def test_http_validates_and_never_coerces(self, daemon, field, value, detail):
        payload = {"prefix": "10.0.0.0/24", "as_path": [64500, 174], field: value}
        assert json.loads(json.dumps(payload)).keys() == payload.keys()  # NaN travels
        status, body = _post_raw(daemon.http_port, "/verify", payload)
        assert (status, json.loads(body)) == (400, {"error": "bad-request", "detail": detail})

    @pytest.mark.parametrize("path", ["true 174", "64500.9 174", "174 1e3", "174 -1", "AS174 nan"])
    def test_whois_refuses_what_is_not_an_asn(self, daemon, path):
        answer = whois_query("127.0.0.1", daemon.whois_port, f"!v 10.0.0.0/24 {path}")
        assert answer.split("\n", 1)[1].startswith("F invalid AS path: ")

    def test_a_valid_integer_deadline_is_served(self, daemon, tiny_routes):
        entry = tiny_routes[0]
        payload = {
            "prefix": str(entry.prefix), "as_path": list(entry.as_path), "deadline_s": 2,
        }
        assert _post_raw(daemon.http_port, "/verify", payload)[0] == 200
