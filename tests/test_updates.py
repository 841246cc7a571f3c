"""Tests for BGP update streams and the verification of announcements."""

import pytest

from repro.bgp.table import RouteEntry
from repro.bgp.updates import (
    UpdateEntry,
    parse_update_text,
    synthesize_updates,
)
from repro.net.prefix import Prefix


def announce(prefix="10.0.0.0/16", path=(1, 2), ts=100):
    return UpdateEntry(ts, "A", "rrc00", path[0], Prefix.parse(prefix), tuple(path))


def withdraw(prefix="10.0.0.0/16", peer=1, ts=200):
    return UpdateEntry(ts, "W", "rrc00", peer, Prefix.parse(prefix))


class TestUpdateFormat:
    def test_announce_roundtrip(self):
        update = announce()
        (parsed,) = list(parse_update_text(update.to_line()))
        assert parsed == update

    def test_withdraw_roundtrip(self):
        update = withdraw()
        (parsed,) = list(parse_update_text(update.to_line()))
        assert parsed == update
        assert parsed.as_path == ()

    def test_malformed_skipped(self):
        text = "junk\nBGP4MP|x|A|c|1|10.0.0.0/8|1 2|IGP\nTABLE_DUMP2|1|B|c|1|10.0.0.0/8|1|IGP\n"
        assert list(parse_update_text(text)) == []

    def test_withdraw_has_no_route_entry(self):
        with pytest.raises(ValueError):
            withdraw().to_route_entry()

    def test_announce_to_route_entry(self):
        entry = announce().to_route_entry()
        assert isinstance(entry, RouteEntry)
        assert entry.as_path == (1, 2)


class TestSynthesize:
    def table(self):
        return [
            RouteEntry("rrc00", 1, Prefix.parse(f"10.{i}.0.0/16"), (1, 2, 3))
            for i in range(100)
        ]

    def test_flaps_generate_pairs(self):
        updates = synthesize_updates(
            self.table(), flap_probability=1.0, path_change_probability=0.0
        )
        kinds = [update.kind for update in updates]
        assert kinds.count("W") == 100
        assert kinds.count("A") == 100

    def test_timestamp_ordered(self):
        updates = synthesize_updates(self.table(), flap_probability=0.5)
        stamps = [update.timestamp for update in updates]
        assert stamps == sorted(stamps)

    def test_path_changes_reannounce_different_path(self):
        updates = synthesize_updates(
            self.table(), flap_probability=0.0, path_change_probability=1.0
        )
        assert updates
        for update in updates:
            assert update.kind == "A"
            assert update.as_path != (1, 2, 3)

    def test_deterministic(self):
        left = synthesize_updates(self.table(), seed=3)
        right = synthesize_updates(self.table(), seed=3)
        assert left == right


class TestVerifyAnnouncement:
    def test_announcement_verification_matches_table(self, tiny_verifier, tiny_routes):
        entry = next(e for e in tiny_routes if e.as_set is None and len(e.as_path) > 2)
        table_report = tiny_verifier.verify_entry(entry)
        update = UpdateEntry(
            1, "A", entry.collector, entry.peer_asn, entry.prefix, entry.as_path
        )
        stream_report = tiny_verifier.verify_entry(update.to_route_entry())
        assert [h.status for h in stream_report.hops] == [
            h.status for h in table_report.hops
        ]
