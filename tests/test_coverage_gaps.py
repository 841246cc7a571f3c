"""Targeted tests for less-traveled branches across the engine."""

import pytest

from repro import api
from repro.bgp.topology import AsRelationships
from repro.core.compiled import compile_index
from repro.core.query import QueryEngine
from repro.core.verify import Verifier, VerifyOptions
from repro.core.status import VerifyStatus
from repro.irr.dump import parse_dump_text
from repro.irr.whois import WhoisEngine, whois_query
from repro.net.prefix import Prefix, RangeOp
from repro.stats.usage import rules_per_group


class TestQueryCorners:
    def test_as_set_with_any_member_matches_any_registered(self):
        ir, _ = parse_dump_text(
            "as-set: AS-W\nmembers: ANY\n\nroute: 10.0.0.0/8\norigin: AS1\n", "T"
        )
        engine = QueryEngine(ir, compile_index(ir))
        assert engine.as_set_route_match("AS-W", Prefix.parse("10.0.0.0/8"), RangeOp())
        assert engine.as_set_route_match(
            "AS-W", Prefix.parse("10.1.0.0/16"), RangeOp.parse("^+")
        )
        assert not engine.as_set_route_match(
            "AS-W", Prefix.parse("192.0.2.0/24"), RangeOp()
        )

    def test_empty_as_set_never_matches(self):
        ir, _ = parse_dump_text(
            "as-set: AS-E\n\nroute: 10.0.0.0/8\norigin: AS1\n", "T"
        )
        engine = QueryEngine(ir, compile_index(ir))
        assert not engine.as_set_route_match("AS-E", Prefix.parse("10.0.0.0/8"), RangeOp())

    def test_route_set_with_as_set_member(self):
        ir, _ = parse_dump_text(
            "route-set: RS-M\nmembers: AS-K^+\n\n"
            "as-set: AS-K\nmembers: AS1\n\n"
            "route: 10.0.0.0/8\norigin: AS1\n",
            "T",
        )
        engine = QueryEngine(ir, compile_index(ir))
        assert engine.route_set_match("RS-M", Prefix.parse("10.7.0.0/16"), RangeOp())


class TestVerifierCorners:
    DUMP = """
aut-num: AS10
import:  from AS20 accept ANY
export:  to AS20 announce ANY
"""

    def make(self, **options) -> Verifier:
        ir, _ = parse_dump_text(self.DUMP, "T")
        return Verifier(
            ir, AsRelationships.from_as_rel_text("20|10|-1\n"),
            VerifyOptions(**options),
        )

    def test_cache_disabled(self):
        verifier = self.make(hop_cache_size=0)
        for _ in range(3):
            report = verifier.verify_route("10.0.0.0/16", (20, 10))
            assert report.hops
        assert verifier.hop_cache_hits == 0
        assert not verifier._hop_cache

    def test_tiny_cache_evicts_but_stays_correct(self):
        verifier = self.make(hop_cache_size=2)
        results = []
        for octet in range(8):
            prefix = f"10.{octet}.0.0/16"
            results.append(str(verifier.verify_route(prefix, (20, 10))))
        # run again in reverse: answers identical despite evictions
        for octet in reversed(range(8)):
            prefix = f"10.{octet}.0.0/16"
            assert str(verifier.verify_route(prefix, (20, 10))) == results[octet]
        assert len(verifier._hop_cache) <= 2

    def test_two_as_path_subpath_is_whole(self):
        verifier = self.make()
        report = verifier.verify_route("10.0.0.0/16", (20, 10))
        # AS10's export verifies; AS20 has no aut-num object.
        assert [h.status for h in report.hops] == [
            VerifyStatus.VERIFIED, VerifyStatus.UNRECORDED
        ]


class TestWhoisCorners:
    @pytest.fixture(scope="class")
    def engine(self):
        ir, _ = parse_dump_text(
            "aut-num: AS1\nimport: from AS2 accept ANY\n\n"
            "route: 10.0.0.0/8\norigin: AS1\n",
            "T",
        )
        return WhoisEngine(ir)

    def test_empty_query(self, engine):
        assert engine.lookup("") is None

    def test_invalid_prefix_query(self, engine):
        assert engine.lookup("10.0.0.0/99") is None

    def test_invalid_origin_query(self, engine):
        assert engine.lookup("-i origin ASXY") is None
        assert engine.bang("!gNOTANAS").startswith("F ")

    def test_quit_commands_return_empty(self, engine):
        assert engine.bang("!q") == ""
        assert engine.bang("!e") == ""

    def test_server_handles_garbage_then_valid(self, engine):
        with api.open_session(engine.ir, use_cache=False) as session:
            with session.whois_server() as server:
                port = server.whois_port
                garbage = whois_query("127.0.0.1", port, "\x00\xff nonsense")
                assert "No entries found" in garbage
                ok = whois_query("127.0.0.1", port, "AS1")
                assert ok.startswith("aut-num:")


class TestFig1Annotations:
    def test_rules_per_group(self):
        ir, _ = parse_dump_text(
            "aut-num: AS1\nimport: from AS2 accept ANY\n\naut-num: AS2\n", "T"
        )
        counts = rules_per_group(ir, {1, 2, 3})
        assert counts == {1: 1, 2: 0, 3: 0}

    def test_tier1_variance_in_tiny_world(self, tiny_ir, tiny_world):
        counts = rules_per_group(tiny_ir, tiny_world.topology.tier1)
        assert len(counts) == tiny_world.config.n_tier1
