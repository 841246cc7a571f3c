"""Differential tests for incremental index patching.

The contract under test: for any journal, ``patch_index`` must produce an
index that answers every query exactly like a from-scratch
``compile_index`` over the patched IR — structurally (byref tables, trie
contents) and behaviorally (verdict bit-identity under serial, parallel,
and fault-injected execution).  DEL-heavy journals drive the hash-plane
tombstone/rebuild machinery through the same oracle.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from chaos.faults import KillServeWorker, KillWorkerChunk
from prefix_oracle import NaiveRouteIndex
from set_oracle import index_mismatches

from repro import api
from repro.bgp.routegen import collector_routes
from repro.bgp.topology import AsRelationships
from repro.core.compiled import (
    _collect_references,
    _Referenced,
    compile_index,
    ir_digest,
    patch_index,
)
from repro.core.prefixtrie import RouteTrieBuilder
from repro.core.report import ItemKind
from repro.core.verify import Verifier, VerifyOptions
from repro.faultplan import use_faults
from repro.ir.model import (
    AsSet,
    AutNum,
    FilterSet,
    PeeringSet,
    RouteObject,
    RouteSet,
    RouteSetMemberName,
)
from repro.irr.dump import parse_dump_text
from repro.irr.history import ChurnConfig, evolve_with_journal
from repro.irr.history import _clone as _clone_ir
from repro.irr.journal import (
    Journal,
    JournalEntry,
    apply_journal_to_ir,
    journal_between,
)
from repro.net.prefix import Prefix, RangeOp, RangeOpKind
from repro.obs import MetricsRegistry, use_registry
from repro.rpsl.filter import parse_filter_text
from repro.rpsl.names import NameKind
from repro.rpsl.peering import parse_peering_text
from repro.rpsl.policy import parse_policy
from repro.serve import ServeConfig, ServeDaemon


@pytest.fixture(scope="module")
def seed_ir(tiny_world):
    return tiny_world.merged_ir()


def _exact_map(trie) -> dict:
    return {key: origins for key, origins in trie.iter_exact()}


def _assert_equivalent(patched, fresh) -> None:
    """Structural equivalence between a patched and a fresh index."""
    assert _exact_map(patched.route_trie) == _exact_map(fresh.route_trie)
    assert patched.as_set_byref == fresh.as_set_byref
    assert {k: tuple(v) for k, v in patched.route_set_byref.items()} == {
        k: tuple(v) for k, v in fresh.route_set_byref.items()
    }
    # Fresh caches are re-resolved from scratch; every entry must agree
    # with the patched index's cache (the patched cache may hold extra
    # stale-but-correct entries for names nothing references any more).
    for name, resolution in fresh.as_sets.items():
        assert patched.as_sets[name] == resolution, name
    assert set(fresh.peering_sets) <= set(patched.peering_sets)


_POINT_OPS = (
    RangeOp(RangeOpKind.NONE),
    RangeOp(RangeOpKind.MINUS),
    RangeOp(RangeOpKind.PLUS),
    RangeOp(RangeOpKind.EXACT, 20, 20),
    RangeOp(RangeOpKind.RANGE, 18, 44),
)


def _with_host_bits(prefix: Prefix, rng: random.Random) -> Prefix:
    """Another spelling of the same prefix: random bits below its length."""
    host = prefix.max_length - prefix.length
    return Prefix(prefix.version, prefix.network | rng.getrandbits(host), prefix.length)


class TestTriePointOps:
    """Point mutation against the dict oracle rebuilt over the live set.

    Matching and enumeration read one structure, so every checkpoint
    compares both — in both families, probing pairs that are live, pairs
    that are not, and their more-specifics.
    """

    def _pairs(self, count: int, rng: random.Random) -> list:
        # Few distinct top bits and a wide length range: nested ancestors,
        # shared mask buckets and multi-origin prefixes are all common.
        prefixes: list = []
        pairs = set()
        while len(pairs) < count:
            if prefixes and rng.random() < 0.3:
                prefix = rng.choice(prefixes)
            else:
                version = rng.choice((4, 6))
                maxlen = 32 if version == 4 else 128
                length = rng.randrange(12, 25) if version == 4 else rng.randrange(20, 49)
                network = rng.getrandbits(length) & ~(0b111111 << (length - 6))
                prefix = Prefix(version, network << (maxlen - length), length)
                prefixes.append(prefix)
            pairs.add((prefix, rng.randrange(1, 40)))
        return sorted(pairs)

    def _check(self, trie, live, probes) -> None:
        oracle = NaiveRouteIndex()
        for prefix, origin in live:
            oracle.add(prefix, origin)
        assert _exact_map(trie) == dict(oracle.iter_exact())
        assert list(trie.origins()) == list(oracle.origins())
        assert trie.stats()["prefixes"] == oracle.stats()["prefixes"]
        for prefix, origin in probes:
            assert trie.origin_keys(origin) == oracle.origin_keys(origin)
            members = frozenset((origin, origin + 1))
            for length in (prefix.length, min(prefix.length + 3, prefix.max_length)):
                key = (prefix.version, prefix.network, length)
                assert sorted(
                    (pl, sorted(o)) for pl, o in trie.covering_origins(*key)
                ) == sorted((pl, sorted(o)) for pl, o in oracle.covering_origins(*key))
                for op in _POINT_OPS:
                    assert trie.match_origin(origin, *key, op) == oracle.match_origin(
                        origin, *key, op
                    ), (key, origin, op)
                    assert trie.match_any(*key, op) == oracle.match_any(*key, op)
                    assert trie.match_members(members, *key, op) == oracle.match_members(
                        members, *key, op
                    )

    def test_differential_against_rebuilt_oracle(self):
        """Random insert/remove churn must match a from-scratch build."""
        rng = random.Random(1234)
        pairs = self._pairs(300, rng)
        builder = RouteTrieBuilder()
        live = set(pairs[::2])
        for prefix, origin in live:
            builder.add(prefix, origin)
        trie = builder.build().thaw()
        self._check(trie, live, pairs)
        for step in range(400):
            prefix, origin = rng.choice(pairs)
            if (prefix, origin) in live:
                assert trie.remove_route(prefix, origin)
                live.discard((prefix, origin))
            else:
                assert trie.insert_route(prefix, origin)
                live.add((prefix, origin))
            if step % 100 == 99:
                self._check(trie, live, rng.sample(pairs, 100))
        self._check(trie, live, pairs)

    def test_delete_heavy_churn_triggers_rebuild(self):
        """Tombstone pile-up forces plane rebuilds; answers stay exact."""
        rng = random.Random(7)
        pairs = self._pairs(400, rng)
        rng.shuffle(pairs)
        builder = RouteTrieBuilder()
        for prefix, origin in pairs:
            builder.add(prefix, origin)
        trie = builder.build().thaw()
        sizes = {trie._fam4.hbits}
        survivors = set(pairs)
        for step, (prefix, origin) in enumerate(pairs[:360]):  # delete 90%
            assert trie.remove_route(prefix, origin)
            survivors.discard((prefix, origin))
            sizes.add(trie._fam4.hbits)
            if step % 90 == 89:
                self._check(trie, survivors, rng.sample(pairs, 100))
        assert len(sizes) > 1, "the plane never shrank: no rebuild was exercised"
        assert trie._fam4.tomb <= trie._fam4.live

    def test_insert_heavy_growth_from_an_empty_family(self):
        """No planes at all, then one pair at a time through every
        load-factor rebuild — and across the 16-prefix line where the
        IPv4 length masks first appear."""
        rng = random.Random(99)
        pairs = self._pairs(500, rng)
        rng.shuffle(pairs)
        trie = RouteTrieBuilder().build().thaw()
        assert trie._fam4.hval is None and trie._fam6.hval is None
        self._check(trie, set(), pairs[:20])
        live = set()
        sizes = {4: set(), 6: set()}
        for step, (prefix, origin) in enumerate(pairs):
            assert trie.insert_route(prefix, origin)
            live.add((prefix, origin))
            fam = trie._fam4 if prefix.version == 4 else trie._fam6
            sizes[prefix.version].add(fam.hbits)
            if fam is trie._fam4 and fam.live < 16:
                assert fam.lenmask is None
            if step < 40 or step % 100 == 99:
                self._check(trie, live, rng.sample(pairs, 25))
        assert trie._fam4.lenmask is not None and trie._fam6.lenmask is None
        assert len(sizes[4]) >= 4 and len(sizes[6]) >= 4, sizes
        self._check(trie, live, pairs)

    def test_host_bit_spellings_name_one_prefix(self):
        """The same prefix spelled with host bits set (PR 9's desync
        class) must reach the same slot on insert, remove and probe."""
        rng = random.Random(5)
        pairs = self._pairs(120, rng)
        builder = RouteTrieBuilder()
        live = set(pairs[:40])
        for prefix, origin in live:
            builder.add(_with_host_bits(prefix, rng), origin)
        trie = builder.build().thaw()
        self._check(trie, live, pairs)
        for prefix, origin in pairs[:80]:
            spelled = _with_host_bits(prefix, rng)
            if (prefix, origin) in live:
                assert not trie.insert_route(spelled, origin)
                assert trie.remove_route(spelled, origin)
                assert not trie.remove_route(prefix, origin)
                live.discard((prefix, origin))
            else:
                assert not trie.remove_route(spelled, origin)
                assert trie.insert_route(spelled, origin)
                assert not trie.insert_route(prefix, origin)
                live.add((prefix, origin))
            declared = frozenset(o for p, o in live if p == prefix)
            key = (spelled.version, spelled.network, spelled.length)
            assert trie.exact_origins(*key) == declared
            assert trie.has_exact(*key) == bool(declared)
        self._check(trie, live, [(_with_host_bits(p, rng), o) for p, o in pairs])

    def test_point_ops_are_idempotent(self):
        builder = RouteTrieBuilder()
        prefix = Prefix(4, 10 << 24, 16)
        builder.add(prefix, 64500)
        trie = builder.build().thaw()
        assert not trie.insert_route(prefix, 64500)  # already present
        assert trie.insert_route(prefix, 64501)
        assert trie.remove_route(prefix, 64501)
        assert not trie.remove_route(prefix, 64501)  # already gone
        assert not trie.remove_route(Prefix(4, 11 << 24, 16), 64500)

    def test_thaw_leaves_the_original_untouched(self):
        builder = RouteTrieBuilder()
        prefix = Prefix(4, 10 << 24, 16)
        builder.add(prefix, 64500)
        original = builder.build()
        before = _exact_map(original)
        thawed = original.thaw()
        thawed.insert_route(Prefix(4, 12 << 24, 20), 64999)
        assert _exact_map(original) == before
        assert len(_exact_map(thawed)) == len(before) + 1


class TestPatchIndex:
    def test_chained_epochs_match_fresh_compiles(self, seed_ir):
        ir = seed_ir
        index = compile_index(ir, digest=ir_digest(ir))
        serial = 1
        for epoch in range(3):
            evolved, journal = evolve_with_journal(
                ir, ChurnConfig(seed=31), epoch=epoch, start_serial=serial
            )
            new_ir, report = apply_journal_to_ir(ir, journal)
            assert not report
            patched = patch_index(index, ir, new_ir, journal)
            fresh = compile_index(new_ir, digest=ir_digest(new_ir))
            _assert_equivalent(patched, fresh)
            assert patched.generation == epoch + 1
            for source, last in journal.serials().items():
                assert patched.serials[source] == last
            ir, index = new_ir, patched
            serial = max(journal.serials().values(), default=serial) + 1

    def test_chained_epochs_match_the_set_oracle(self, tiny_world, seed_ir):
        """After each journal the patched set tables equal the independent
        fixpoint reference on that epoch's IR, for every name it records or
        references; all-class churn brings in by-reference members and
        route-sets nested under operators, which the tiny world lacks."""
        table = list(
            collector_routes(
                tiny_world.topology, tiny_world.announced, tiny_world.collectors
            )
        )[:150]
        churn = _AllClassChurn(random.Random(5), table)
        ir, index, serial = seed_ir, compile_index(seed_ir), 1
        for _ in range(4):
            journal = journal_between(ir, churn.evolve(ir, 30), start_serial=serial)
            new_ir, report = apply_journal_to_ir(ir, journal)
            assert not report
            index = patch_index(index, ir, new_ir, journal)
            refs = _collect_references(new_ir)
            assert index_mismatches(new_ir, index, refs.as_sets, refs.route_sets) == []
            ir, serial = new_ir, max(journal.serials().values(), default=serial) + 1

    def test_digest_chains_deterministically(self, seed_ir):
        index = compile_index(seed_ir, digest=ir_digest(seed_ir))
        _, journal = evolve_with_journal(seed_ir, ChurnConfig(seed=31))
        new_ir, _ = apply_journal_to_ir(seed_ir, journal)
        once = patch_index(index, seed_ir, new_ir, journal)
        twice = patch_index(index, seed_ir, new_ir, journal)
        assert once.digest == twice.digest
        assert once.digest != index.digest

    def test_non_canonical_key_spellings_patch_correctly(self, seed_ir):
        """Regression: journal keys with host bits set are valid
        (Prefix.parse masks them) and replay cleanly, so the fast path
        runs — the trie mutations must match them to the canonical
        route instead of silently deleting / failing to insert it."""
        import ipaddress

        from repro.ir.model import RouteObject

        def _host_bit_spelling(prefix: Prefix) -> str:
            return f"{ipaddress.ip_address(prefix.network + 1)}/{prefix.length}"

        route = next(
            r
            for r in seed_ir.route_objects
            if r.prefix.version == 4 and r.prefix.length < 31
        )
        added = RouteObject(
            prefix=Prefix.parse("198.51.100.0/24"),
            origin=route.origin,
            source=route.source,
        )
        assert not any(
            r.prefix == added.prefix and r.origin == added.origin
            for r in seed_ir.route_objects
        )
        source = route.source or ""
        journal = Journal(
            entries=[
                JournalEntry(
                    serial=1,
                    action="MOD",
                    cls="route",
                    key=(_host_bit_spelling(route.prefix), route.origin, route.source),
                    obj=route,
                    source=source,
                ),
                JournalEntry(
                    serial=2,
                    action="ADD",
                    cls="route",
                    key=(_host_bit_spelling(added.prefix), added.origin, added.source),
                    obj=added,
                    source=source,
                ),
            ]
        )
        new_ir, report = apply_journal_to_ir(seed_ir, journal)
        assert not report  # valid spellings replay cleanly: fast path runs
        index = compile_index(seed_ir, digest=ir_digest(seed_ir))
        patched = patch_index(index, seed_ir, new_ir, journal)
        fresh = compile_index(new_ir, digest=ir_digest(new_ir))
        _assert_equivalent(patched, fresh)

    def test_unpatchable_key_raises_loudly(self, seed_ir):
        """A key patch_index cannot parse must raise, never guess —
        callers reach this path only with a clean replay report."""
        index = compile_index(seed_ir, digest=ir_digest(seed_ir))
        bogus = Journal(
            entries=[
                JournalEntry(
                    serial=1,
                    action="DEL",
                    cls="route",
                    key=("not-a-prefix/xx", 64500, ""),
                    source="",
                )
            ]
        )
        with pytest.raises(ValueError):
            patch_index(index, seed_ir, seed_ir, bogus)

    def test_del_heavy_journal_matches_fresh_compile(self, seed_ir):
        """Deleting most of the table exercises plane rebuilds inside
        patch_index's trie path; equivalence must survive them."""
        rng = random.Random(99)
        doomed = rng.sample(
            seed_ir.route_objects, int(len(seed_ir.route_objects) * 0.8)
        )
        serials: dict[str, int] = {}
        entries = []
        seen = set()
        for route in doomed:
            key = (str(route.prefix), route.origin, route.source)
            if key in seen:
                continue
            seen.add(key)
            source = route.source or ""
            serials[source] = serials.get(source, 0) + 1
            entries.append(
                JournalEntry(
                    serial=serials[source],
                    action="DEL",
                    cls="route",
                    key=key,
                    source=source,
                )
            )
        journal = Journal(entries=entries)
        new_ir, report = apply_journal_to_ir(seed_ir, journal)
        assert not report
        index = compile_index(seed_ir, digest=ir_digest(seed_ir))
        patched = patch_index(index, seed_ir, new_ir, journal)
        fresh = compile_index(new_ir, digest=ir_digest(new_ir))
        _assert_equivalent(patched, fresh)

    def test_unlowerable_regex_entering_and_leaving_is_recounted(self):
        """``skipped_regexes`` counts distinct un-lowerable nodes IR-wide:
        a second aut-num naming the same regex adds nothing, and the
        count only falls when the *last* reference goes — which the
        changed objects alone cannot tell, hence the whole-IR recount."""
        plain = "\naut-num: AS{n}\nimport: from AS9 accept ANY\n"
        huge = "\naut-num: AS{n}\nimport: from AS9 accept <AS7{{99999999999}}>\n"
        worlds = [
            plain.format(n=1) + plain.format(n=2),
            huge.format(n=1) + plain.format(n=2),
            huge.format(n=1) + huge.format(n=2),
            plain.format(n=1) + huge.format(n=2),
            plain.format(n=1) + plain.format(n=2),
        ]
        ir = _as_ir(worlds[0])
        index = compile_index(ir)
        counts = [index.skipped_regexes]
        for world in worlds[1:]:
            journal = journal_between(ir, _as_ir(world))
            new_ir, report = apply_journal_to_ir(ir, journal)
            assert not report
            index = patch_index(index, ir, new_ir, journal)
            fresh = compile_index(new_ir)
            _assert_equivalent(index, fresh)
            assert index.skipped_regexes == fresh.skipped_regexes
            counts.append(index.skipped_regexes)
            ir = new_ir
        assert counts == [0, 1, 1, 1, 0]


class TestVerdictIdentity:
    @pytest.fixture(scope="class")
    def evolved_state(self, tiny_world, seed_ir):
        """A patched session and a from-scratch session over the same IR."""
        session = api.open_session(
            seed_ir, as_rel=tiny_world.topology, use_cache=False
        )
        serial = 1
        for epoch in range(2):
            _, journal = evolve_with_journal(
                session.ir, ChurnConfig(seed=67), epoch=epoch, start_serial=serial
            )
            report = session.apply_deltas(journal)
            assert not report
            serial = max(journal.serials().values(), default=serial) + 1
        fresh = api.open_session(
            session.ir, as_rel=tiny_world.topology, use_cache=False
        )
        yield session, fresh
        fresh.close()
        session.close()

    @pytest.fixture(scope="class")
    def table(self, tiny_world):
        return list(
            collector_routes(
                tiny_world.topology, tiny_world.announced, tiny_world.collectors
            )
        )[:300]

    @staticmethod
    def _summary(stats):
        return (
            stats.routes_total,
            dict(stats.hop_totals),
            dict(stats.route_single_status),
            dict(stats.first_hop_statuses),
            stats.unverified_hops,
        )

    def test_serial_table_identity(self, evolved_state, table):
        patched, fresh = evolved_state
        assert self._summary(
            patched.verify_table(table, processes=1)
        ) == self._summary(fresh.verify_table(table, processes=1))

    def test_parallel_table_identity(self, evolved_state, table):
        patched, fresh = evolved_state
        assert self._summary(
            patched.verify_table(table, processes=2, chunk_size=50)
        ) == self._summary(fresh.verify_table(table, processes=1))

    def test_identity_under_worker_kill(self, evolved_state, table):
        """A killed worker chunk re-runs serially; verdicts stay identical."""
        patched, fresh = evolved_state
        with use_faults(chunk=KillWorkerChunk(chunk_index=1)):
            stats = patched.verify_table(table, processes=2, chunk_size=50)
        assert self._summary(stats) == self._summary(
            fresh.verify_table(table, processes=1)
        )

    def test_per_route_report_identity(self, evolved_state, table):
        patched, fresh = evolved_state
        for entry in table[:60]:
            left = patched.verify_route(
                str(entry.prefix), entry.as_path, collector="diff"
            )
            right = fresh.verify_route(
                str(entry.prefix), entry.as_path, collector="diff"
            )
            assert str(left) == str(right)


# -- the hop cache across apply_deltas --------------------------------------
#
# ``Session.apply_deltas`` hands the warm verifier's hop cache to its
# replacement minus what the journal can reach ("What a delta invalidates",
# docs/incremental.md).  A stale carried verdict is a fast wrong answer, so
# the safety net is differential: whatever the warm session says after an
# apply must equal — as dataclasses, not as strings — what a verifier over
# an independent from-scratch ``compile_index`` of the same IR says.

_NO_RELATIONSHIPS = AsRelationships.from_as_rel_text("")

# One three-AS line: AS3001 originates, AS2001 transits, AS1001 is the
# collector peer; the regression cases vary AS2001's import rule.
_PATH = (1001, 2001, 3001)


def _world(
    accept="ANY",
    peering="AS3001",
    *,
    collector_accept="ANY",
    export_peering="AS1001",
    origin_tail="",
    mp=False,
):
    imports, exports = (
        ("mp-import: afi any.unicast", "mp-export: afi any.unicast")
        if mp
        else ("import:", "export:")
    )
    return (
        f"\naut-num: AS1001\n{imports} from AS2001 accept {collector_accept}\n"
        f"\naut-num: AS2001\n{imports} from {peering} accept {accept}\n"
        f"{exports} to {export_peering} announce ANY\n"
        f"\naut-num: AS3001\n{exports} to AS2001 announce ANY\n{origin_tail}"
    )


def _fresh_reports(session, probes):
    verifier = api.make_verifier(
        session.ir, session.relationships, index=compile_index(session.ir)
    )
    return [
        verifier.verify_route(prefix, path, collector="session")
        for prefix, path in probes
    ]


def _warm_reports(session, probes):
    return [session.verify_route(prefix, path) for prefix, path in probes]


@contextmanager
def _effects_without(*fields):
    """Delete one clause of the rule: adopt with those effects fields blank."""
    original = Verifier.adopt_hop_cache

    def sabotaged(self, previous, effects):
        if effects is not None:
            effects = dataclasses.replace(
                effects, **dict.fromkeys(fields, frozenset())
            )
        return original(self, previous, effects)

    Verifier.adopt_hop_cache = sabotaged
    try:
        yield
    finally:
        Verifier.adopt_hop_cache = original


@contextmanager
def _graph_without(*, cls=None, kind=None, regex_tokens=False):
    """Delete one edge family of the reference graph.

    ``cls``: objects of that class mention nothing; ``kind``: nobody's
    mentions of that node kind count; ``regex_tokens``: as-set tokens
    inside AS-path regexes are not collected.
    """
    add_object, nodes = _Referenced.add_object, _Referenced.nodes

    def cut_add_object(self, object_cls, obj):
        if object_cls != cls:
            add_object(self, object_cls, obj)

    def cut_nodes(self):
        if regex_tokens:
            self.regex_as_sets = set()
        return {node for node in nodes(self) if node[0] != kind}

    _Referenced.add_object, _Referenced.nodes = cut_add_object, cut_nodes
    try:
        yield
    finally:
        _Referenced.add_object, _Referenced.nodes = add_object, nodes


def _as_ir(world):
    return parse_dump_text(world, "TEST")[0] if isinstance(world, str) else world


def _carry_case(
    before, after, probes, *, journal=None, sabotage=None, as_rel=_NO_RELATIONSHIPS
):
    """Warm a session on ``probes``, apply the delta, compare with fresh.

    ``before``/``after`` are dump texts (or IRs); the journal defaults to
    the difference between them.  Returns ``(before, warm, fresh, effects,
    carry)``: the pre-apply reports, the warm session's and a from-scratch
    compile's post-apply reports, the patch's effects and the carry summary.
    """
    old_ir = _as_ir(before)
    if journal is None:
        journal = journal_between(old_ir, _as_ir(after))
    with api.open_session(old_ir, as_rel=as_rel, use_cache=False) as session:
        reports = _warm_reports(session, probes)
        with sabotage if sabotage is not None else nullcontext():
            report = session.apply_deltas(journal)
        assert not report, report.as_dict()
        warm = _warm_reports(session, probes)
        fresh = _fresh_reports(session, probes)
        return reports, warm, fresh, session.index.effects, session.last_delta_hop_cache


def _assert_clause(before_world, after_world, probes, sabotages, **case):
    """The regression contract for one clause of the invalidation rule:
    the journal changes the probe's verdict, the warm session follows it,
    and with the clause deleted (each sabotage) it would not have."""
    before, warm, fresh, effects, carry = _carry_case(
        before_world, after_world, probes, **case
    )
    assert before != fresh, "the journal must change the probed verdict"
    assert warm == fresh
    for sabotage in sabotages:
        _, stale, fresh, _, _ = _carry_case(
            before_world, after_world, probes, sabotage=sabotage, **case
        )
        assert stale != fresh, "deleting the clause must serve a stale verdict"
    return effects, carry


def _hop(reports, direction, subject):
    """The one hop report of ``subject``'s ``direction`` check."""
    (hop,) = [
        hop
        for hop in reports[0].hops
        if hop.direction == direction
        and (hop.to_asn if direction == "import" else hop.from_asn) == subject
    ]
    return hop


class TestWhatADeltaInvalidates:
    """One named regression per clause of the rule, each shown to fail
    (a stale verdict is served) when its clause is deleted."""

    PROBE = [("10.31.0.0/16", _PATH)]
    ROUTE = "\nroute: 10.31.0.0/16\norigin: AS3001\n"
    ELSEWHERE = "\nroute: 10.99.0.0/16\norigin: AS3001\n"
    # The probed prefix registered by an AS that is not on the probed path.
    ROUTE_BY_77 = "\nroute: 10.31.0.0/16\norigin: AS77\n"
    AS_M = "\nas-set: AS-M\nmembers: {m}\n"

    # -- clause 1: the aut-num itself ------------------------------------

    def test_aut_num_import_change_keeps_its_export_verdicts(self):
        """Only AS2001's import rules are rewritten: an export check reads
        the object's exports, bad rules and source — nothing that moved."""
        effects, carry = _assert_clause(
            _world("AS9") + self.ROUTE,
            _world("AS3001") + self.ROUTE,
            self.PROBE,
            [_effects_without("import_subjects")],
        )
        assert effects.import_subjects == {2001} and not effects.subjects
        assert not effects.prefixes and not effects.flipped_origins
        # AS2001's export check and the checks of AS1001 / AS3001 stayed warm.
        assert carry["carried"] == 3 and carry["invalidated"]["subject"] == 1

    def test_aut_num_export_change_invalidates_both_directions(self):
        effects, carry = _assert_clause(
            _world(export_peering="AS1001") + self.ROUTE,
            _world(export_peering="AS9") + self.ROUTE,
            self.PROBE,
            [_effects_without("subjects")],
        )
        assert effects.subjects == {2001} and not effects.import_subjects
        assert carry["carried"] == 2 and carry["invalidated"]["subject"] == 2

    def test_an_export_rewrite_reaches_import_verdicts_through_only_provider(self):
        """Why a rewritten export side is not import-preserving: the
        only-provider safelist of an *import* check reads the peerings of
        both directions.  AS2001 documented only its provider AS1001, so
        its customer's routes were safelisted under that rule; naming the
        customer in a new export ends that."""
        as_rel = AsRelationships.from_as_rel_text("1001|2001|-1\n2001|3001|-1\n")
        before_world = _world(peering="AS1001") + self.ROUTE
        after_world = before_world.replace(
            "to AS1001 announce ANY\n",
            "to AS1001 announce ANY\nexport: to AS3001 announce ANY\n",
        )
        effects, _ = _assert_clause(
            before_world,
            after_world,
            self.PROBE,
            [_effects_without("subjects")],
            as_rel=as_rel,
        )
        assert effects.subjects == {2001}
        before, _, fresh, _, _ = _carry_case(
            before_world, after_world, self.PROBE, as_rel=as_rel
        )
        kinds = [
            {item.kind for item in _hop(reports, "import", 2001).items}
            for reports in (before, fresh)
        ]
        assert ItemKind.SPEC_CUSTOMER_ONLY_PROVIDER_POLICIES in kinds[0]
        assert ItemKind.SPEC_CUSTOMER_ONLY_PROVIDER_POLICIES not in kinds[1]

    # -- clause 2: names the rules can reach ------------------------------

    def test_nested_as_set_member(self):
        sets = "\nas-set: AS-TOP\nmembers: AS-M\n" + self.AS_M
        effects, _ = _assert_clause(
            _world("AS-TOP") + self.ROUTE + sets.format(m="AS9"),
            _world("AS-TOP") + self.ROUTE + sets.format(m="AS3001"),
            self.PROBE,
            [_effects_without("member_subjects"), _graph_without(cls="as-set")],
        )
        assert effects.member_subjects == {2001} and not effects.subjects
        assert effects.member_asns == {9, 3001}

    def test_route_set_reached_only_through_a_lazy_as_set_member(self):
        """``ResolvedRouteSet`` keeps AS_SET members lazy, so the change
        never dirties the route-set's own resolution — only this edge
        links the cached verdict to it."""
        sets = "\nroute-set: RS-X\nmembers: AS-M\n" + self.AS_M
        effects, _ = _assert_clause(
            _world("RS-X") + self.ROUTE + sets.format(m="AS9"),
            _world("RS-X") + self.ROUTE + sets.format(m="AS3001"),
            self.PROBE,
            [_effects_without("member_subjects"), _graph_without(cls="route-set")],
        )
        assert effects.member_subjects == {2001} and not effects.subjects

    def test_nested_route_set_member(self):
        sets = (
            "\nroute-set: RS-TOP\nmembers: RS-X\n"
            "\nroute-set: RS-X\nmembers: {m}\n"
        )
        effects, _ = _assert_clause(
            _world("RS-TOP") + self.ROUTE + sets.format(m="10.99.0.0/16"),
            _world("RS-TOP") + self.ROUTE + sets.format(m="10.31.0.0/16"),
            self.PROBE,
            [_effects_without("subjects"), _graph_without(cls="route-set")],
        )
        assert effects.subjects == {2001}

    def test_filter_set_to_filter_set_to_as_set(self):
        sets = (
            "\nfilter-set: FLTR-A\nfilter: FLTR-B\n"
            "\nfilter-set: FLTR-B\nfilter: AS-M\n" + self.AS_M
        )
        effects, _ = _assert_clause(
            _world("FLTR-A") + self.ROUTE + sets.format(m="AS9"),
            _world("FLTR-A") + self.ROUTE + sets.format(m="AS3001"),
            self.PROBE,
            [
                _effects_without("member_subjects"),
                _graph_without(cls="filter-set"),
                _graph_without(kind="filter-set"),
            ],
        )
        assert effects.member_subjects == {2001} and not effects.subjects

    def test_filter_set_edit(self):
        sets = "\nfilter-set: FLTR-A\nfilter: {f}\n"
        effects, _ = _assert_clause(
            _world("FLTR-A") + self.ROUTE + sets.format(f="AS9"),
            _world("FLTR-A") + self.ROUTE + sets.format(f="AS3001"),
            self.PROBE,
            [_effects_without("subjects"), _graph_without(kind="filter-set")],
        )
        assert effects.subjects == {2001}

    def test_as_set_reached_only_through_a_regex_token(self):
        effects, _ = _assert_clause(
            _world("<^AS-M+$>") + self.ROUTE + self.AS_M.format(m="AS9"),
            _world("<^AS-M+$>") + self.ROUTE + self.AS_M.format(m="AS3001"),
            self.PROBE,
            [_effects_without("member_subjects"), _graph_without(regex_tokens=True)],
        )
        assert effects.member_subjects == {2001} and not effects.subjects

    def test_peering_set_edit(self):
        sets = "\npeering-set: PRNG-P\npeering: {p}\n"
        effects, _ = _assert_clause(
            _world(peering="PRNG-P") + self.ROUTE + sets.format(p="AS9"),
            _world(peering="PRNG-P") + self.ROUTE + sets.format(p="AS3001"),
            self.PROBE,
            [_effects_without("subjects"), _graph_without(kind="peering-set")],
        )
        assert effects.subjects == {2001}

    def test_peering_set_to_peering_set_to_as_set(self):
        sets = (
            "\npeering-set: PRNG-P\npeering: PRNG-Q\n"
            "\npeering-set: PRNG-Q\npeering: AS-M\n" + self.AS_M
        )
        effects, _ = _assert_clause(
            _world(peering="PRNG-P") + self.ROUTE + sets.format(m="AS9"),
            _world(peering="PRNG-P") + self.ROUTE + sets.format(m="AS3001"),
            self.PROBE,
            [_effects_without("member_subjects"), _graph_without(cls="peering-set")],
        )
        assert effects.member_subjects == {2001} and not effects.subjects

    def test_peering_as_set(self):
        effects, _ = _assert_clause(
            _world(peering="AS-M") + self.ROUTE + self.AS_M.format(m="AS9"),
            _world(peering="AS-M") + self.ROUTE + self.AS_M.format(m="AS3001"),
            self.PROBE,
            [_effects_without("member_subjects")],
        )
        assert effects.member_subjects == {2001} and not effects.subjects

    def test_mnt_by_change_flips_by_reference_membership(self):
        """The journal rewrites AS3001 (its maintainer now satisfies
        AS-M's mbrs-by-ref); the stale verdict belongs to AS2001, which
        the journal never names — only the member-of seed reaches it."""
        sets = "\nas-set: AS-M\nmbrs-by-ref: MNT-GOOD\n"
        tail = "member-of: AS-M\nmnt-by: {m}\n"
        effects, _ = _assert_clause(
            _world("AS-M", origin_tail=tail.format(m="MNT-BAD")) + self.ROUTE + sets,
            _world("AS-M", origin_tail=tail.format(m="MNT-GOOD")) + self.ROUTE + sets,
            self.PROBE,
            [_effects_without("member_subjects")],
        )
        assert effects.member_subjects == {2001} and effects.member_asns == {3001}
        # AS3001 itself was rewritten, but nothing an export check reads moved.
        assert effects.import_subjects == {3001} and not effects.subjects

    def test_mbrs_by_ref_change_flips_by_reference_membership(self):
        world = _world("AS-M", origin_tail="member-of: AS-M\nmnt-by: MNT-GOOD\n")
        sets = "\nas-set: AS-M\nmbrs-by-ref: {m}\n"
        effects, _ = _assert_clause(
            world + self.ROUTE + sets.format(m="MNT-OTHER"),
            world + self.ROUTE + sets.format(m="MNT-GOOD"),
            self.PROBE,
            [_effects_without("member_subjects")],
        )
        assert effects.member_subjects == {2001} and effects.member_asns == {3001}

    # -- clause 2, narrowed: an as-set that only regrouped its members -----
    #
    # Every reader of a flattened as-set asks "is AS x a member" — for x
    # the origin of a route object at or above P, an AS on the path, or
    # the hop's remote endpoint.  Each case below lets exactly one of the
    # three link the changed member to the cached verdict.

    @pytest.mark.parametrize(
        "accept, registered",
        [("AS-M", "10.31.0.0/16"), ("AS-M^+", "10.0.0.0/8")],
    )
    def test_regrouped_member_registered_the_prefix_or_a_cover(self, accept, registered):
        """AS77 joins AS-M: not on the path, not an endpoint — but it
        registered the probed prefix (or a less-specific of it)."""
        route = f"\nroute: {registered}\norigin: AS77\n"
        effects, carry = _assert_clause(
            _world(accept) + route + self.AS_M.format(m="AS9"),
            _world(accept) + route + self.AS_M.format(m="AS9, AS77"),
            self.PROBE,
            [_effects_without("member_subjects"), _effects_without("member_asns")],
        )
        assert effects.member_asns == {77} and effects.member_subjects == {2001}
        assert carry["invalidated"]["subject"] == 2

    def test_regrouped_member_is_on_the_path(self):
        """AS3001 joins AS-M, which AS1001 names in a path regex: AS3001
        is neither endpoint of AS1001's hop and registered nothing."""
        regex = "<^AS2001 AS-M$>"
        effects, carry = _assert_clause(
            _world(collector_accept=regex) + self.ROUTE_BY_77 + self.AS_M.format(m="AS9"),
            _world(collector_accept=regex)
            + self.ROUTE_BY_77
            + self.AS_M.format(m="AS9, AS3001"),
            self.PROBE,
            [_effects_without("member_subjects"), _effects_without("member_asns")],
        )
        assert effects.member_asns == {3001} and effects.member_subjects == {1001}
        assert carry["carried"] == 3 and carry["invalidated"]["subject"] == 1

    def test_regrouped_member_is_the_remote_endpoint(self):
        """AS1001 joins the as-set AS2001 exports to: the importer is not
        on the sub-path an export check sees."""
        effects, carry = _assert_clause(
            _world(export_peering="AS-M") + self.ROUTE_BY_77 + self.AS_M.format(m="AS9"),
            _world(export_peering="AS-M")
            + self.ROUTE_BY_77
            + self.AS_M.format(m="AS9, AS1001"),
            self.PROBE,
            [_effects_without("member_subjects"), _effects_without("member_asns")],
        )
        assert effects.member_asns == {1001} and effects.member_subjects == {2001}
        # AS2001's import check has AS3001 for its remote end: it stays.
        assert carry["carried"] == 3 and carry["invalidated"]["subject"] == 1

    def test_regrouped_members_elsewhere_keep_the_cache(self):
        """The converse: AS-M's members change, but none of them is an
        endpoint, on the path, or an origin at or above the prefix."""
        before, warm, fresh, effects, carry = _carry_case(
            _world("AS-M") + self.ROUTE + self.AS_M.format(m="AS3001, AS9"),
            _world("AS-M") + self.ROUTE + self.AS_M.format(m="AS3001, AS8, AS7"),
            self.PROBE,
        )
        assert before == warm == fresh
        assert effects.member_subjects == {2001} and effects.member_asns == {7, 8, 9}
        assert carry["carried"] == 4

    def test_as_set_whose_closure_does_not_move_reaches_nobody(self):
        """AS-M gains AS3001, which AS-TOP — the set AS2001 names — lists
        directly anyway: AS-TOP is re-resolved to the same closure."""
        sets = "\nas-set: AS-TOP\nmembers: AS-M, AS3001\n" + self.AS_M
        before, warm, fresh, effects, carry = _carry_case(
            _world("AS-TOP") + self.ROUTE + sets.format(m="AS9"),
            _world("AS-TOP") + self.ROUTE + sets.format(m="AS9, AS3001"),
            self.PROBE,
        )
        assert before == warm == fresh
        assert not effects.subjects and not effects.member_subjects
        assert carry["carried"] == 4

    def test_as_set_that_moved_beyond_its_members_reaches_every_verdict(self):
        """AS-M gains a member *set* nobody recorded: its closure's member
        ASNs are what they were, but every failed match now reports the
        unrecorded name — on checks none of the member tests would pick."""
        effects, _ = _assert_clause(
            _world("AS-M") + self.ROUTE_BY_77 + self.AS_M.format(m="AS9"),
            _world("AS-M") + self.ROUTE_BY_77 + self.AS_M.format(m="AS9, AS-GONE"),
            self.PROBE,
            [_effects_without("subjects")],
        )
        assert effects.subjects == {2001} and not effects.member_asns

    # -- clause 3: covering prefixes ---------------------------------------

    def test_less_specific_route_add_covers_a_cached_more_specific(self):
        effects, carry = _assert_clause(
            _world("AS3001^+") + self.ELSEWHERE,
            _world("AS3001^+") + self.ELSEWHERE + self.ROUTE,
            [("10.31.5.0/24", _PATH)],
            [_effects_without("prefixes")],
        )
        assert effects.prefixes == {Prefix.parse("10.31.0.0/16")}
        assert not effects.subjects and not effects.flipped_origins
        assert carry["invalidated"]["prefix"] == 4

    def test_less_specific_route6_add_covers_a_cached_ipv6_more_specific(self):
        """The sweep reads the cache key's ``(version, network, length)``
        ints: an IPv6 cover is matched on the IPv6 family's bits."""
        world = _world("AS3001^+", mp=True) + self.ELSEWHERE
        effects, carry = _assert_clause(
            world,
            world + "\nroute6: 2001:db8::/32\norigin: AS3001\n",
            [("2001:db8:5::/48", _PATH)],
            [_effects_without("prefixes")],
        )
        assert effects.prefixes == {Prefix.parse("2001:db8::/32")}
        assert not effects.subjects and not effects.flipped_origins
        assert carry["invalidated"]["prefix"] == 4

    def test_ipv4_and_ipv6_prefixes_of_equal_bits_do_not_share_an_entry(self):
        """``0.0.0.0/16`` and ``::/16`` are both network 0, length 16: the
        family is part of the key, so neither answers for the other."""
        verifier = Verifier(_as_ir(_world()), _NO_RELATIONSHIPS)  # IPv4 rules only
        v4 = verifier.verify_route("0.0.0.0/16", _PATH)
        v6 = verifier.verify_route("::/16", _PATH)
        assert verifier.hop_cache_hits == 0 and len(verifier._hop_cache) == 8
        assert [hop.status for hop in v4.hops] != [hop.status for hop in v6.hops]
        assert verifier.verify_route("::/16", _PATH) == v6
        assert verifier.hop_cache_hits == 4

    def test_route_add_that_covers_nothing_cached_keeps_the_cache(self):
        """The converse: a touched prefix that does not cover *P* (a
        more-specific, a sibling) invalidates nothing."""
        before, warm, fresh, effects, carry = _carry_case(
            _world("AS3001") + self.ROUTE,
            _world("AS3001")
            + self.ROUTE
            + "\nroute: 10.31.5.0/24\norigin: AS3001\n"
            + "\nroute: 10.32.0.0/16\norigin: AS3001\n",
            self.PROBE,
        )
        assert before == warm == fresh
        assert len(effects.prefixes) == 2
        assert carry == {
            "carried": 4,
            "invalidated": {"subject": 0, "prefix": 0, "origin-flip": 0, "full": 0},
        }

    # -- clause 4: an origin's first / last route --------------------------

    def test_del_of_an_origins_last_route_flips_its_as_n_atoms(self):
        """AS3001's only route goes: every ``AS3001`` filter atom now
        reads "no routes at all" (UNRECORDED_AS_ROUTES appears) — also
        for a prefix the deleted route never covered, on a hop AS3001 is
        not an endpoint of (AS1001's import from AS2001)."""
        world = _world(collector_accept="AS3001")
        probe = [("10.77.0.0/16", (1001, 2001))]
        effects, carry = _assert_clause(
            world + self.ROUTE,
            world,
            probe,
            [_effects_without("subjects"), _graph_without(kind="origin")],
        )
        assert effects.flipped_origins == {3001} and effects.subjects == {1001}
        # AS2001's export check names no AS3001 atom: it stayed warm.
        assert carry["carried"] == 1 and carry["invalidated"]["subject"] == 1
        fresh = _carry_case(world + self.ROUTE, world, probe)[2]
        assert ItemKind.UNRECORDED_AS_ROUTES in {
            item.kind for item in _hop(fresh, "import", 1001).items
        }

    def test_flipped_origin_named_inside_a_filter_set(self):
        world = _world(collector_accept="FLTR-A") + "\nfilter-set: FLTR-A\nfilter: AS3001\n"
        effects, _ = _assert_clause(
            world + self.ROUTE,
            world,
            [("10.77.0.0/16", (1001, 2001))],
            [_effects_without("subjects"), _graph_without(cls="filter-set")],
        )
        assert effects.subjects == {1001}

    def test_an_origins_first_route_flips_peeras(self):
        """``PeerAS`` names no AS in the AST: no reference edge could
        link the flipped origin to the verdict, only the hop itself —
        the atom reads the remote endpoint's routes."""
        effects, carry = _assert_clause(
            _world("PeerAS"),
            _world("PeerAS") + self.ROUTE,
            [("10.77.0.0/16", _PATH)],
            [_effects_without("flipped_origins")],
        )
        assert effects.flipped_origins == {3001} and not effects.subjects
        # Only the hop AS3001 is an endpoint of goes; AS2001 → AS1001 stays.
        assert carry["carried"] == 2 and carry["invalidated"]["origin-flip"] == 2

    # -- member-of seeds and key spellings -----------------------------------

    def test_route_mod_that_only_changes_member_of(self):
        """The trie does not move (no prefix effect): only the member-of
        seed — new side on the way in, old side on the way out — links
        the route-set's by-reference membership to the cached verdict."""
        world = _world("RS-X") + "\nroute-set: RS-X\nmbrs-by-ref: ANY\n"
        plain = self.ROUTE
        joined = self.ROUTE + "member-of: RS-X\n"
        for before_route, after_route in ((plain, joined), (joined, plain)):
            effects, _ = _assert_clause(
                world + before_route,
                world + after_route,
                self.PROBE,
                [_effects_without("subjects")],
            )
            assert effects.subjects == {2001} and not effects.prefixes

    def test_route_del_retires_its_old_side_member_of(self):
        """A DEL entry carries no object: the membership it ends is only
        on the old side.  The pair stays registered by another source, so
        the trie — and the prefix clause — does not move."""
        world = _world("RS-X") + "\nroute-set: RS-X\nmbrs-by-ref: ANY\n"
        after = _as_ir(world + self.ROUTE)
        before = _as_ir(world + self.ROUTE)
        before.route_objects.append(
            RouteObject(
                prefix=Prefix.parse("10.31.0.0/16"),
                origin=3001,
                member_of=["RS-X"],
                source="OTHER",
            )
        )
        effects, _ = _assert_clause(
            before, after, self.PROBE, [_effects_without("subjects")]
        )
        assert effects.subjects == {2001} and not effects.prefixes

    @pytest.mark.parametrize(
        "canonical, spelled",
        [
            ("10.31.0.0/16", "10.31.0.1/16"),  # host bits set
            ("2001:db8::/32", "2001:0DB8:0:0:0:0:0:0/32"),  # alternate v6 form
        ],
    )
    def test_non_canonical_route_key_spellings(self, canonical, spelled):
        """PR 9's review-found desync class, now for the cache: the
        journal spells the route key non-canonically; the covering test
        must run on the parsed prefix, not the wire string."""
        prefix = Prefix.parse(canonical)
        more_specific = str(Prefix(prefix.version, prefix.network, prefix.length + 8))
        keyword = "route6" if prefix.version == 6 else "route"
        listed = (
            _world("AS3001^+", mp=True)
            + self.ELSEWHERE
            + f"\n{keyword}: {canonical}\norigin: AS3001\n"
        )
        source = next(
            r.source for r in _as_ir(listed).route_objects if r.prefix == prefix
        )
        journal = Journal(
            entries=[
                JournalEntry(
                    serial=1,
                    action="DEL",
                    cls="route",
                    key=(spelled, 3001, source),
                    source=source,
                )
            ]
        )
        effects, _ = _assert_clause(
            listed,
            None,
            [(more_specific, _PATH)],
            [_effects_without("prefixes")],
            journal=journal,
        )
        assert effects.prefixes == {prefix}


# -- the differential property suite ------------------------------------------


class _AllClassChurn:
    """Seeded churn over all six journal classes × ADD/DEL/MOD.

    ``evolve_with_journal`` only rewrites aut-nums, as-sets and routes;
    this generator also creates, edits and deletes route-, filter- and
    peering-sets from small name pools and keeps rewriting the rules of
    ASes on the probed paths to reference them, so that chains like
    ``FLTR-T0 → FLTR-T1 → AS-T2`` or ``RS-T1 → AS-T0`` form, break and
    re-form across epochs.  Route churn includes less-specifics of probed
    prefixes, duplicate registrations, by-reference membership and the
    first/last route of an origin.  Edits concentrate on a few *focus*
    hops and their endpoint ASes, so that independent edits keep meeting
    in the same verdicts instead of spreading thin over the world.
    """

    AS_SETS = ("AS-T0", "AS-T1", "AS-T2")
    ROUTE_SETS = ("RS-T0", "RS-T1")
    FILTER_SETS = ("FLTR-T0", "FLTR-T1", "FLTR-T2")
    PEERING_SETS = ("PRNG-T0", "PRNG-T1")
    MAINTAINERS = ("MNT-T0", "MNT-T1")

    def __init__(self, rng: random.Random, table):
        self.rng = rng
        self.hops = sorted(
            {
                (path[i + 1], path[i])
                for entry in table
                if entry.as_set is None
                for path in [entry.deprepended_path()]
                for i in range(len(path) - 1)
            }
        )
        self.asns = sorted({asn for hop in self.hops for asn in hop})
        self.prefixes = sorted({entry.prefix for entry in table})
        self.focus_hops = rng.sample(self.hops, k=min(3, len(self.hops)))
        self.focus_asns = sorted({asn for hop in self.focus_hops for asn in hop})

    # -- vocabulary ------------------------------------------------------

    def _as_set(self):
        return self.rng.choice(self.AS_SETS)

    def _asn(self):
        pool = self.focus_asns if self.rng.random() < 0.6 else self.asns
        return self.rng.choice(pool)

    def _filter_text(self, depth=0):
        rng = self.rng
        atoms = (
            lambda: "ANY",
            lambda: f"AS{self._asn()}",
            lambda: f"AS{self._asn()}^+",
            lambda: "PeerAS",
            self._as_set,
            lambda: rng.choice(self.ROUTE_SETS),
            lambda: rng.choice(self.ROUTE_SETS) + "^+",
            lambda: rng.choice(self.FILTER_SETS),
            lambda: f"<^{self._as_set()}+$>",
            lambda: f"<^AS{self._asn()} {self._as_set()}*$>",
            lambda: f"<[{self._as_set()} AS{self._asn()}]$>",
            lambda: "{ " + str(rng.choice(self.prefixes).supernet(8)) + "^+ }",
        )
        text = rng.choice(atoms[1:] if depth else atoms)()
        if depth < 2 and rng.random() < 0.3:
            joiner = rng.choice((" OR ", " AND ", " AND NOT "))
            return f"({text}{joiner}{self._filter_text(depth + 1)})"
        return text

    def _peering_text(self, remote):
        rng = self.rng
        return rng.choice(
            (
                f"AS{remote}",
                f"AS{remote}",
                "AS-ANY",
                self._as_set(),
                rng.choice(self.PEERING_SETS),
                f"{self._as_set()} EXCEPT AS{self._asn()}",
            )
        )

    # -- one epoch -------------------------------------------------------

    def evolve(self, ir, operations: int):
        """A deep copy of ``ir`` with ``operations`` random edits applied."""
        evolved = _clone_ir(ir)
        menu = (
            self._route_add, self._route_add, self._route_del, self._route_mod,
            self._rule_add, self._rule_add, self._rule_del, self._aut_num_attrs,
            self._aut_num_del, self._as_set_edit, self._as_set_edit,
            self._route_set_edit, self._filter_set_edit, self._peering_set_edit,
        )
        for _ in range(operations):
            self.rng.choice(menu)(evolved)
        return evolved

    def _route_add(self, ir):
        rng = self.rng
        base = rng.choice(self.prefixes)
        shape = rng.randrange(4)
        if shape == 0:  # a less-specific covering a probed prefix
            prefix = base.supernet(max(8, base.length - rng.randint(1, 6)))
        elif shape == 1:  # the probed prefix itself (maybe another origin)
            prefix = base
        elif shape == 2:  # a more-specific under it
            prefix = Prefix(
                base.version, base.network, min(base.length + 2, base.max_length)
            )
        else:
            prefix = Prefix(4, rng.randrange(1, 200) << 24 | rng.randrange(256) << 16, 16)
        origin = self._asn()
        source = rng.choice(("RIPE", "RADB"))
        if any(
            (r.prefix, r.origin, r.source) == (prefix, origin, source)
            for r in ir.route_objects
        ):
            return
        ir.route_objects.append(
            RouteObject(
                prefix=prefix,
                origin=origin,
                member_of=[rng.choice(self.ROUTE_SETS)] if rng.random() < 0.3 else [],
                mnt_by=[rng.choice(self.MAINTAINERS)],
                source=source,
            )
        )

    def _route_del(self, ir):
        rng = self.rng
        if not ir.route_objects:
            return
        if rng.random() < 0.3:  # an origin loses every route: has_origin flips
            origin = self._asn()
            ir.route_objects = [r for r in ir.route_objects if r.origin != origin]
        else:
            ir.route_objects.pop(rng.randrange(len(ir.route_objects)))

    def _route_mod(self, ir):
        rng = self.rng
        if not ir.route_objects:
            return
        route = rng.choice(ir.route_objects)
        if rng.random() < 0.5:
            route.member_of = [] if route.member_of else [rng.choice(self.ROUTE_SETS)]
        else:
            route.mnt_by = [rng.choice(self.MAINTAINERS)]

    def _subject(self, ir):
        """(direction, subject, remote) of a hop on a probed path."""
        pool = self.focus_hops if self.rng.random() < 0.6 else self.hops
        exporter, importer = self.rng.choice(pool)
        if self.rng.random() < 0.5:
            return "import", importer, exporter
        return "export", exporter, importer

    def _rule_add(self, ir):
        direction, subject, remote = self._subject(ir)
        verb, accept = ("from", "accept") if direction == "import" else ("to", "announce")
        rule = parse_policy(
            direction,
            f"{verb} {self._peering_text(remote)} {accept} {self._filter_text()}",
        )
        aut_num = ir.aut_nums.get(subject)
        if aut_num is None:
            aut_num = ir.aut_nums[subject] = AutNum(
                asn=subject, mnt_by=[self.rng.choice(self.MAINTAINERS)], source="RIPE"
            )
        rules = aut_num.imports if direction == "import" else aut_num.exports
        rules.insert(self.rng.randrange(len(rules) + 1), rule)

    def _rule_del(self, ir):
        direction, subject, _ = self._subject(ir)
        aut_num = ir.aut_nums.get(subject)
        if aut_num is None:
            return
        rules = aut_num.imports if direction == "import" else aut_num.exports
        if rules:
            rules.pop(self.rng.randrange(len(rules)))

    def _aut_num_attrs(self, ir):
        aut_num = ir.aut_nums.get(self._asn())
        if aut_num is None:
            return
        if self.rng.random() < 0.5:
            aut_num.member_of = [] if aut_num.member_of else [self._as_set()]
        else:
            aut_num.mnt_by = [self.rng.choice(self.MAINTAINERS)]

    def _aut_num_del(self, ir):
        if self.rng.random() < 0.3:
            ir.aut_nums.pop(self._asn(), None)

    def _mbrs_by_ref(self):
        return self.rng.choice(([], ["ANY"], [self.rng.choice(self.MAINTAINERS)]))

    def _as_set_edit(self, ir):
        rng = self.rng
        name = self._as_set() if rng.random() < 0.7 else rng.choice(sorted(ir.as_sets))
        as_set = ir.as_sets.get(name)
        if as_set is None:
            ir.as_sets[name] = AsSet(
                name=name,
                members_asn=rng.sample(self.asns, k=min(2, len(self.asns))),
                members_set=[self._as_set()] if rng.random() < 0.5 else [],
                mbrs_by_ref=self._mbrs_by_ref(),
                source="RIPE",
            )
            return
        action = rng.randrange(6)
        if action == 0 and name in self.AS_SETS:
            del ir.as_sets[name]
        elif action == 1 and as_set.members_asn:
            as_set.members_asn.pop(rng.randrange(len(as_set.members_asn)))
        elif action == 2:
            as_set.members_set = (
                [] if as_set.members_set and rng.random() < 0.5
                else [*as_set.members_set, self._as_set()]
            )
        elif action == 3:
            as_set.mbrs_by_ref = self._mbrs_by_ref()
        else:
            as_set.members_asn.append(self._asn())

    def _route_set_edit(self, ir):
        rng = self.rng
        name = rng.choice(self.ROUTE_SETS)
        if name in ir.route_sets and rng.random() < 0.25:
            del ir.route_sets[name]
            return
        members = []
        for _ in range(rng.randrange(3)):
            kind = rng.randrange(3)
            op = RangeOp.parse("^+") if rng.random() < 0.5 else RangeOp()
            if kind == 0:
                members.append(RouteSetMemberName(self._as_set(), NameKind.AS_SET, op))
            elif kind == 1:
                members.append(
                    RouteSetMemberName(rng.choice(self.ROUTE_SETS), NameKind.ROUTE_SET, op)
                )
            else:
                members.append(
                    RouteSetMemberName(f"AS{self._asn()}", NameKind.ASN, op)
                )
        ir.route_sets[name] = RouteSet(
            name=name,
            prefix_members=[
                (rng.choice(self.prefixes), RangeOp()) for _ in range(rng.randrange(3))
            ],
            name_members=members,
            mbrs_by_ref=self._mbrs_by_ref(),
            source="RIPE",
        )

    def _filter_set_edit(self, ir):
        name = self.rng.choice(self.FILTER_SETS)
        if name in ir.filter_sets and self.rng.random() < 0.25:
            del ir.filter_sets[name]
            return
        ir.filter_sets[name] = FilterSet(
            name=name, filter=parse_filter_text(self._filter_text()), source="RIPE"
        )

    def _peering_set_edit(self, ir):
        rng = self.rng
        name = rng.choice(self.PEERING_SETS)
        if name in ir.peering_sets and rng.random() < 0.25:
            del ir.peering_sets[name]
            return
        ir.peering_sets[name] = PeeringSet(
            name=name,
            peerings=[
                parse_peering_text(self._peering_text(self._asn()))
                for _ in range(rng.randint(1, 2))
            ],
            source="RIPE",
        )


_NIGHTLY = os.environ.get("HYPOTHESIS_PROFILE") == "nightly"
_CARRY_EPOCHS = 10 if _NIGHTLY else 4
_CARRY_ROUTES = 1200 if _NIGHTLY else 150
_CARRY_EXAMPLES = 40 if _NIGHTLY else 5


def _spared(cached, kept, effects) -> dict:
    """Entries each narrowed clause let live where its plain form would
    not have: verdicts of a regrouped as-set's dependents, export
    verdicts of an imports-only rewrite, everything an origin flip left."""
    spared = dict.fromkeys(("member", "import-only", "origin-flip"), 0)
    if effects is None:
        return spared
    for key in cached:
        if key not in kept:
            continue
        subject = key[2] if key[0] == "import" else key[1]
        spared["member"] += subject in effects.member_subjects
        spared["import-only"] += subject in effects.import_subjects
        spared["origin-flip"] += bool(effects.flipped_origins)
    return spared


class TestHopCacheCarryDifferential:
    """Chained all-class journals: after *every* apply, each working-set
    ``RouteReport`` of the warm session equals (dataclass equality) the
    report of a verifier over a from-scratch ``compile_index``."""

    @pytest.fixture(scope="class")
    def table(self, tiny_world):
        routes = list(
            collector_routes(
                tiny_world.topology, tiny_world.announced, tiny_world.collectors
            )
        )
        random.Random(5).shuffle(routes)
        return routes[:_CARRY_ROUTES]

    def _chain(self, tiny_world, seed_ir, table, seed, *, options=None, degrade=()):
        """Run the chain; returns ``{epoch: carry summary}`` (an epoch
        whose churn happened to change nothing applies nothing)."""
        rng = random.Random(seed)
        churn = _AllClassChurn(rng, table)
        probes = [(str(entry.prefix), entry.as_path) for entry in table]
        carries = {}
        serial = 1
        with api.open_session(
            seed_ir, as_rel=tiny_world.topology, use_cache=False, options=options
        ) as session:
            for epoch in range(_CARRY_EPOCHS):
                _warm_reports(session, probes)  # fill the cache this apply sweeps
                evolved = churn.evolve(session.ir, 30 if epoch == 0 else rng.randint(1, 12))
                journal = journal_between(session.ir, evolved, start_serial=serial)
                if not journal.entries:
                    continue
                serial = max(journal.serials().values()) + 1
                if epoch in degrade:
                    # A corrupt line skipped at load time: the replay is
                    # still exact, but the apply must recompile in full.
                    journal.issues.append("line 9: not JSON")
                cached = list(session.verifier._hop_cache)
                report = session.apply_deltas(journal)
                assert bool(report) == (epoch in degrade), report.as_dict()
                kept = session.verifier._hop_cache
                assert _warm_reports(session, probes) == _fresh_reports(session, probes)
                carries[epoch] = dict(
                    session.last_delta_hop_cache,
                    spared=_spared(cached, kept, session.index.effects),
                )
        return carries

    @settings(max_examples=_CARRY_EXAMPLES, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_warm_session_matches_fresh_compile(self, tiny_world, seed_ir, table, seed):
        carries = self._chain(tiny_world, seed_ir, table, seed)
        assert all(carry["invalidated"]["full"] == 0 for carry in carries.values())

    def test_the_cache_really_is_carried(self, tiny_world, seed_ir, table):
        """Guards the suite itself: were nothing carried, the property
        above would hold vacuously."""
        carries = [
            carry
            for seed in (1, 2, 3)
            for carry in self._chain(tiny_world, seed_ir, table, seed).values()
        ]
        assert sum(carry["carried"] for carry in carries) > 0
        for reason in ("subject", "prefix", "origin-flip"):
            assert sum(carry["invalidated"][reason] for carry in carries) > 0
        # ... nor the narrowed clauses exercised only where they drop.
        for clause in ("member", "import-only", "origin-flip"):
            assert sum(carry["spared"][clause] for carry in carries) > 0

    @settings(max_examples=max(2, _CARRY_EXAMPLES // 2), deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_holds_with_the_hop_cache_disabled(self, tiny_world, seed_ir, table, seed):
        carries = self._chain(
            tiny_world, seed_ir, table, seed, options=VerifyOptions(hop_cache_size=0)
        )
        assert all(carry["carried"] == 0 for carry in carries.values())

    @settings(max_examples=max(2, _CARRY_EXAMPLES // 2), deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_holds_through_the_full_recompile_branch(
        self, tiny_world, seed_ir, table, seed
    ):
        """Degraded applies carry nothing (reason ``full``); the patches
        chained after them start from a graph-less index and must
        rebuild it."""
        degrade = (1, 2)
        carries = self._chain(tiny_world, seed_ir, table, seed, degrade=degrade)
        for epoch in degrade:
            if epoch in carries:
                assert carries[epoch]["carried"] == 0


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


@pytest.mark.slow
class TestHopCacheCarryInTheServePool:
    """``VerifyService.reload`` patches the parent session and replays the
    journal in every pool worker, each carrying its own hop cache; a
    worker SIGKILLed around the reload is respawned from the parent's
    state.  Whoever answers, the verdict is a fresh compile's."""

    def test_worker_replay_and_respawn_serve_fresh_verdicts(self, tiny_world, seed_ir):
        table = list(
            collector_routes(
                tiny_world.topology, tiny_world.announced, tiny_world.collectors
            )
        )[:40]
        probes = [(str(entry.prefix), entry.as_path) for entry in table]
        rng = random.Random(77)
        churn = _AllClassChurn(rng, table)
        session = api.open_session(
            seed_ir,
            as_rel=tiny_world.topology,
            registry=MetricsRegistry(),
            use_cache=False,
        )
        daemon = ServeDaemon(
            session,
            ServeConfig(
                http_port=0,
                workers=2,
                heartbeat_interval=0.1,
                heartbeat_timeout=0.5,
            ),
        )

        def served(port):
            texts = []
            for prefix, path in probes:
                status, body = _http(
                    port, "POST", "/verify", {"prefix": prefix, "as_path": list(path)}
                )
                assert status == 200, body
                texts.append(body["text"])
            return texts

        serial = 1
        try:
            with daemon.start_in_thread() as handle:
                supervisor = handle.daemon.service.supervisor
                for epoch in range(4):
                    served(handle.http_port)  # warm every worker's cache
                    evolved = churn.evolve(session.ir, 30 if epoch == 0 else 8)
                    journal = journal_between(session.ir, evolved, start_serial=serial)
                    serial = max(journal.serials().values()) + 1
                    if epoch == 1:  # the reload finds a worker freshly dead
                        KillServeWorker()(supervisor.worker_pids()[0])
                    status, summary = _http(
                        handle.http_port,
                        "POST",
                        "/reload",
                        {"journal": journal.to_jsonable()},
                    )
                    assert status == 200 and not summary["degraded"], summary
                    assert summary["hop_cache"]["invalidated"]["full"] == 0
                    if epoch == 2:  # ... and the answers come from a respawn
                        KillServeWorker()(supervisor.worker_pids()[0])
                    fresh = [str(report) for report in _fresh_reports(session, probes)]
                    assert served(handle.http_port) == fresh
                _, health = _http(handle.http_port, "GET", "/healthz")
                assert health["last_delta_hop_cache"] == session.last_delta_hop_cache
                commits = [
                    event
                    for event in session.flight_events(kinds=["reload-commit"])
                    if event.get("applied")
                ]
                assert len(commits) == 4
                assert all("carried" in event["hop_cache"] for event in commits)
        finally:
            session.close()


class TestCarryTelemetry:
    """"Why was the pass after this reload slow" must be answerable from
    the metrics alone: per-reason invalidation counters, the carried
    gauge, and one writer per delta gauge."""

    def _applied(self, tiny_world, seed_ir):
        registry = MetricsRegistry()
        table = list(
            collector_routes(
                tiny_world.topology, tiny_world.announced, tiny_world.collectors
            )
        )[:80]
        session = api.open_session(
            seed_ir, as_rel=tiny_world.topology, registry=registry, use_cache=False
        )
        _warm_reports(session, [(str(e.prefix), e.as_path) for e in table])
        _, journal = evolve_with_journal(session.ir, ChurnConfig(seed=3))
        assert not session.apply_deltas(journal)
        return session, registry

    def test_counters_gauge_and_summary(self, tiny_world, seed_ir, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import build_manifest, cache_summary, write_manifest

        session, registry = self._applied(tiny_world, seed_ir)
        with session:
            carry = session.last_delta_hop_cache
            assert carry["carried"] > 0 and carry["invalidated"]["subject"] > 0
            snapshot = registry.snapshot()
            gauges = {
                record["name"]: record["value"]
                for record in snapshot["gauges"]
                if not record.get("labels")
            }
            assert gauges["verify_hop_cache_carried"] == carry["carried"]
            # One writer per gauge: exactly what the session measured.
            assert gauges["delta_apply_seconds"] == session.last_delta_seconds
            assert gauges["index_generation"] == 1
            manifest = build_manifest("run", registry)
        caches = cache_summary(manifest, cache_dir=tmp_path)
        assert caches["hop_cache_carried"] == carry["carried"]
        assert caches["hop_cache_invalidated"] == carry["invalidated"]
        path = tmp_path / "run.json"
        write_manifest(path, manifest)
        assert main(["metrics", str(path), "--cache-dir", str(tmp_path)]) == 0
        assert f"hop cache carried {carry['carried']}, invalidated" in capsys.readouterr().err

    def test_patch_index_alone_writes_no_delta_gauges(self, seed_ir):
        """``Session.apply_deltas`` owns ``delta_apply_seconds`` and
        ``index_generation``; the patch underneath it used to set both
        too, only to be overwritten."""
        registry = MetricsRegistry()
        _, journal = evolve_with_journal(seed_ir, ChurnConfig(seed=31))
        new_ir, _ = apply_journal_to_ir(seed_ir, journal)
        with use_registry(registry):
            patch_index(compile_index(seed_ir), seed_ir, new_ir, journal)
        names = {record["name"] for record in registry.snapshot()["gauges"]}
        assert not names & {"delta_apply_seconds", "index_generation"}
