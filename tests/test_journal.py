"""Tests for NRTM-style journals (:mod:`repro.irr.journal`).

Covers the delta format (roundtrip, digests, serials), the replay
property — applying the journal of an epoch of churn reproduces the
evolved snapshot exactly — and the degradation contract: corrupt,
out-of-order, or replayed journals degrade loudly instead of producing
a wrong IR.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.ir.model import RouteObject
from repro.irr.history import ChurnConfig, diff_irs, evolve_with_journal
from repro.irr.journal import (
    JOURNAL_FORMAT,
    Journal,
    JournalEntry,
    JournalError,
    apply_journal_to_ir,
    journal_between,
    load_journal,
    save_journal,
)
from repro.net.prefix import Prefix


@pytest.fixture(scope="module")
def seed_ir(tiny_world):
    return tiny_world.merged_ir()


def _route_keys(ir) -> set:
    return {(str(r.prefix), r.origin, r.source) for r in ir.route_objects}


def _assert_same_ir(left, right) -> None:
    """Object-for-object equality via the repo's own diff primitive.

    Identity is keyed: duplicate declarations of the same
    ⟨prefix, origin, source⟩ collapse to one journal object (the format's
    documented contract — real registries hold byte-identical duplicate
    route objects), so multiplicity of identical copies is below object
    identity and deliberately not compared.
    """
    assert diff_irs(left, right).summary() == {
        "added": 0,
        "removed": 0,
        "modified": 0,
    }
    assert _route_keys(left) == _route_keys(right)


class TestJournalFormat:
    def test_churn_emits_a_journal(self, seed_ir):
        evolved, journal = evolve_with_journal(seed_ir, ChurnConfig(seed=5))
        assert len(journal) > 0
        # Serials are sequential from start_serial and strictly increasing
        # per source.
        serials = [entry.serial for entry in journal]
        assert serials == sorted(serials)
        assert serials[0] == 1
        last: dict[str, int] = {}
        for entry in journal:
            assert entry.serial > last.get(entry.source, 0)
            last[entry.source] = entry.serial
        assert journal.serials() == last

    def test_roundtrip_through_disk(self, seed_ir, tmp_path):
        _, journal = evolve_with_journal(seed_ir, ChurnConfig(seed=5))
        path = tmp_path / "deltas.jsonl"
        save_journal(journal, path)
        loaded = load_journal(path)
        assert not loaded.issues
        assert loaded.digest() == journal.digest()
        assert [e.key for e in loaded] == [e.key for e in journal]

    def test_roundtrip_through_jsonable(self, seed_ir):
        _, journal = evolve_with_journal(seed_ir, ChurnConfig(seed=5))
        loaded = Journal.from_jsonable(journal.to_jsonable())
        assert not loaded.issues
        assert loaded.digest() == journal.digest()

    def test_bad_header_is_fatal(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(JournalError):
            load_journal(path)
        with pytest.raises(JournalError):
            load_journal(io.StringIO(""))

    def test_corrupt_lines_become_issues(self, seed_ir, tmp_path):
        _, journal = evolve_with_journal(seed_ir, ChurnConfig(seed=5))
        path = tmp_path / "torn.jsonl"
        save_journal(journal, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # tear one entry
        lines.append('{"action": "EXPLODE", "cls": "route", "key": 1, "serial": 9}')
        path.write_text("\n".join(lines) + "\n")
        loaded = load_journal(path)
        assert len(loaded.issues) == 2
        assert len(loaded.entries) == len(journal) - 1
        # Issues poison the replay: the report is non-empty even though
        # every surviving entry applied cleanly.
        _, report = apply_journal_to_ir(seed_ir, loaded)
        assert "journal/corrupt-entry" in report.by_kind()

    def test_bytes_that_are_not_utf8(self, seed_ir, tmp_path):
        """An entry line that is not UTF-8 is one more corrupt line; a header
        that is not is a journal that cannot be framed."""
        _, journal = evolve_with_journal(seed_ir, ChurnConfig(seed=5))
        path = tmp_path / "binary.jsonl"
        save_journal(journal, path)
        header, _, rest = path.read_bytes().partition(b"\n")
        path.write_bytes(header + b"\n\xff\xfe\n" + rest)
        loaded = load_journal(path)
        assert len(loaded.issues) == 1 and loaded.issues[0].startswith("line 2:")
        assert loaded.digest() == journal.digest()
        _, report = apply_journal_to_ir(seed_ir, loaded)
        assert "journal/corrupt-entry" in report.by_kind()
        path.write_bytes(b"\xff\xfe" + header + b"\n" + rest)
        with pytest.raises(JournalError):
            load_journal(path)


class TestReplay:
    def test_single_epoch_replay(self, seed_ir):
        evolved, journal = evolve_with_journal(seed_ir, ChurnConfig(seed=5))
        replayed, report = apply_journal_to_ir(seed_ir, journal)
        assert not report
        _assert_same_ir(evolved, replayed)
        # The input IR is never mutated.
        assert diff_irs(seed_ir, evolved).count("added") > 0

    @settings(max_examples=8, deadline=None)
    @given(
        churn_seed=st.integers(min_value=0, max_value=10_000),
        epochs=st.integers(min_value=1, max_value=3),
    )
    def test_replay_property(self, seed_ir, churn_seed, epochs):
        """apply_journal ∘ seed == evolve_ir for any churn seed, chained."""
        config = ChurnConfig(seed=churn_seed)
        current = seed_ir
        replayed = seed_ir
        serial = 1
        for epoch in range(epochs):
            evolved, journal = evolve_with_journal(
                current, config, epoch=epoch, start_serial=serial
            )
            replayed, report = apply_journal_to_ir(replayed, journal)
            assert not report
            _assert_same_ir(evolved, replayed)
            current = evolved
            serial = max(journal.serials().values(), default=serial) + 1

    def test_journal_between_is_exact(self, seed_ir):
        evolved, _ = evolve_with_journal(seed_ir, ChurnConfig(seed=17))
        journal = journal_between(seed_ir, evolved, start_serial=100)
        replayed, report = apply_journal_to_ir(seed_ir, journal)
        assert not report
        _assert_same_ir(evolved, replayed)
        assert min(e.serial for e in journal) == 100


class TestDegradation:
    def _route_entry(self, ir, serial, action, **overrides):
        route = ir.route_objects[0]
        key = (str(route.prefix), route.origin, route.source)
        defaults = dict(
            serial=serial,
            action=action,
            cls="route",
            key=key,
            obj=route if action in ("ADD", "MOD") else None,
            source=route.source or "",
        )
        defaults.update(overrides)
        return JournalEntry(**defaults)

    def test_out_of_order_serials_degrade(self, seed_ir):
        entries = [
            self._route_entry(seed_ir, 5, "MOD"),
            self._route_entry(seed_ir, 5, "MOD"),
            self._route_entry(seed_ir, 3, "MOD"),
        ]
        _, report = apply_journal_to_ir(seed_ir, Journal(entries=entries))
        kinds = report.by_kind()
        assert "journal/out-of-order-serial" in kinds
        assert "journal/duplicate-serial" in kinds

    def test_missing_target_degrades(self, seed_ir):
        gone = JournalEntry(
            serial=1,
            action="DEL",
            cls="route",
            key=("203.0.113.0/24", 64999, "NOPE"),
        )
        patched, report = apply_journal_to_ir(seed_ir, Journal(entries=[gone]))
        assert "journal/missing-target" in report.by_kind()
        assert len(patched.route_objects) == len(seed_ir.route_objects)

    def test_duplicate_add_degrades_but_replaces(self, seed_ir):
        dup = self._route_entry(seed_ir, 1, "ADD")
        patched, report = apply_journal_to_ir(seed_ir, Journal(entries=[dup]))
        assert "journal/duplicate-add" in report.by_kind()
        # Replace semantics: the table holds exactly one copy afterwards.
        assert len(patched.route_objects) == len(seed_ir.route_objects)

    def test_missing_payload_degrades(self, seed_ir):
        hollow = self._route_entry(seed_ir, 1, "ADD", obj=None)
        _, report = apply_journal_to_ir(seed_ir, Journal(entries=[hollow]))
        assert "journal/missing-payload" in report.by_kind()

    def test_key_mismatch_degrades(self, seed_ir):
        """An entry whose key names a different route than its payload
        must degrade: the index layer patches the trie by *entry* keys,
        so applying such an entry incrementally would desync them."""
        route = seed_ir.route_objects[0]
        lying = self._route_entry(
            seed_ir, 1, "ADD", key=("203.0.113.0/24", 64999, route.source)
        )
        _, report = apply_journal_to_ir(seed_ir, Journal(entries=[lying]))
        assert "journal/key-mismatch" in report.by_kind()

    def test_wrong_arity_key_degrades(self, seed_ir):
        route = seed_ir.route_objects[0]
        truncated = self._route_entry(
            seed_ir, 1, "MOD", key=(str(route.prefix), route.origin)
        )
        _, report = apply_journal_to_ir(seed_ir, Journal(entries=[truncated]))
        assert "journal/key-mismatch" in report.by_kind()

    def test_wrong_arity_key_recompiles_in_session(self, tiny_world):
        """Regression: a truncated route key must fall back to the full
        recompile instead of crashing the incremental patch path."""
        with api.open_session(
            tiny_world, as_rel=tiny_world.topology, use_cache=False
        ) as session:
            route = session.ir.route_objects[0]
            journal = Journal(
                entries=[
                    JournalEntry(
                        serial=1,
                        action="MOD",
                        cls="route",
                        key=(str(route.prefix), route.origin),
                        obj=route,
                        source=route.source or "",
                    )
                ]
            )
            report = session.apply_deltas(journal)
            assert "journal/key-mismatch" in report.by_kind()
            assert session.generation == 1

    def test_stale_serials_degrade_in_session(self, tiny_world):
        """Replaying an absorbed journal through a live session degrades
        to a full recompile — and still answers correctly."""
        with api.open_session(
            tiny_world, as_rel=tiny_world.topology, use_cache=False
        ) as session:
            _, journal = evolve_with_journal(
                session.ir, ChurnConfig(seed=23), start_serial=1
            )
            first = session.apply_deltas(journal)
            assert not first
            assert session.generation == 1
            # A MOD of a live object replays cleanly at the IR level, so
            # only the session's serial-continuity check can catch that
            # its serial was already absorbed.
            route = session.ir.route_objects[0]
            stale = Journal(
                entries=[
                    JournalEntry(
                        serial=1,
                        action="MOD",
                        cls="route",
                        key=(str(route.prefix), route.origin, route.source),
                        obj=route,
                        source=route.source or "",
                    )
                ]
            )
            assert session.serials.get(route.source or "", 0) >= 1
            replay = session.apply_deltas(stale)
            kinds = replay.by_kind()
            assert any(key.endswith("stale-serial") for key in kinds)
            # The degraded path recompiled from scratch but still advanced
            # the lineage and kept the session answerable.
            assert session.generation == 2
            route = session.ir.route_objects[0]
            report = session.verify_route(
                str(route.prefix), (64500, route.origin)
            )
            assert report.hops


class TestApiSurface:
    def test_journal_entry_jsonable_shape(self, seed_ir):
        _, journal = evolve_with_journal(seed_ir, ChurnConfig(seed=9))
        doc = journal.to_jsonable()
        assert doc["format"] == JOURNAL_FORMAT
        text = json.dumps(doc)  # must be plain JSON all the way down
        assert json.loads(text)["entries"]

    def test_route_objects_decode_to_route_objects(self, seed_ir):
        _, journal = evolve_with_journal(seed_ir, ChurnConfig(seed=9))
        adds = [e for e in journal if e.cls == "route" and e.action == "ADD"]
        assert adds
        rebuilt = JournalEntry.from_jsonable(adds[0].to_jsonable())
        assert isinstance(rebuilt.obj, RouteObject)
        assert isinstance(rebuilt.obj.prefix, Prefix)
        assert rebuilt.key == adds[0].key
