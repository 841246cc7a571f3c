"""Tests for IR rendering and the WHOIS dialect, engine, client and server."""

import pytest

from repro import api
from repro.ir.render import render_ir, render_object
from repro.irr.dump import parse_dump_text
from repro.irr.whois import WhoisEngine, whois_query

DUMP = """
aut-num:    AS2914
as-name:    NTT
import:     from AS1 action pref = 10; accept AS-ONE
export:     to AS1 announce ANY
mnt-by:     MAINT-NTT

as-set:     AS-ONE
members:    AS1, AS-NESTED
mbrs-by-ref: ANY

as-set:     AS-NESTED
members:    AS5

route-set:  RS-STATIC
members:    192.0.2.0/24^+, AS1

route:      10.1.0.0/16
origin:     AS1
mnt-by:     M1

route6:     2001:db8::/32
origin:     AS1

peering-set: PRNG-P
peering:    AS7 192.0.2.9

filter-set: FLTR-F
filter:     AS1 AND NOT {0.0.0.0/0}
"""


@pytest.fixture(scope="module")
def ir():
    parsed, errors = parse_dump_text(DUMP, "TEST")
    assert not errors.issues
    return parsed


class TestRendering:
    def test_roundtrip_whole_ir(self, ir):
        text = render_ir(ir)
        reparsed, errors = parse_dump_text(text, "TEST")
        assert not errors.issues
        assert reparsed.counts() == ir.counts()
        assert render_ir(reparsed) == text

    def test_aut_num_rule_preserved(self, ir):
        text = render_ir(ir)
        reparsed, _ = parse_dump_text(text, "TEST")
        assert reparsed.aut_nums[2914].imports == ir.aut_nums[2914].imports

    def test_route6_class(self, ir):
        six = next(r for r in ir.route_objects if r.prefix.version == 6)
        assert render_object(six).startswith("route6:")

    def test_bad_rules_rendered_verbatim(self):
        source, _ = parse_dump_text(
            "aut-num: AS1\nimport: from AS2 accept UNPARSEABLE !!\n", "T"
        )
        text = render_object(source.aut_nums[1])
        assert "UNPARSEABLE" in text

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            render_object(object())


class TestWhoisEngine:
    def test_aut_num_lookup(self, ir):
        engine = WhoisEngine(ir)
        text = engine.lookup("as2914")
        assert text is not None and text.startswith("aut-num:")

    def test_set_lookups(self, ir):
        engine = WhoisEngine(ir)
        assert engine.lookup("AS-ONE").startswith("as-set:")
        assert engine.lookup("RS-STATIC").startswith("route-set:")
        assert engine.lookup("PRNG-P").startswith("peering-set:")
        assert engine.lookup("FLTR-F").startswith("filter-set:")

    def test_prefix_lookup(self, ir):
        engine = WhoisEngine(ir)
        assert "origin" in engine.lookup("10.1.0.0/16")
        assert engine.lookup("10.9.0.0/16") is None

    def test_origin_inverse_lookup(self, ir):
        engine = WhoisEngine(ir)
        text = engine.lookup("-i origin AS1")
        assert text.count("origin:") == 2  # v4 + v6

    def test_missing(self, ir):
        engine = WhoisEngine(ir)
        assert engine.lookup("AS9999") is None
        assert engine.lookup("AS-NOPE") is None

    def test_bang_g(self, ir):
        engine = WhoisEngine(ir)
        assert "10.1.0.0/16" in engine.bang("!gAS1")
        assert engine.bang("!gAS9999") == "D"

    def test_bang_6(self, ir):
        engine = WhoisEngine(ir)
        assert "2001:db8::/32" in engine.bang("!6AS1")

    def test_bang_i_direct_and_recursive(self, ir):
        engine = WhoisEngine(ir)
        direct = engine.bang("!iAS-ONE")
        assert "AS-NESTED" in direct and "AS5" not in direct
        recursive = engine.bang("!iAS-ONE,1")
        assert "AS5" in recursive and "AS-NESTED" not in recursive

    def test_bang_i_missing(self, ir):
        assert WhoisEngine(ir).bang("!iAS-NOPE,1") == "D"

    def test_bang_framing(self, ir):
        response = WhoisEngine(ir).bang("!gAS1")
        assert response.startswith("A") and response.endswith("C")
        length = int(response[1 : response.index("\n")])
        payload = response[response.index("\n") + 1 : -1]
        assert len(payload.encode()) == length

    def test_bang_unknown(self, ir):
        assert WhoisEngine(ir).bang("!zwhat").startswith("F ")

    def test_bang_j(self, ir):
        assert "aut-num=1" in WhoisEngine(ir).bang("!j")


class TestWhoisServer:
    """The dialect over TCP, through the one server: ``session.whois_server()``."""

    @pytest.fixture(scope="class")
    def port(self, ir):
        # No AS relationships: every lookup works, ``!v`` cannot.
        with api.open_session(ir, use_cache=False) as session:
            with session.whois_server() as handle:
                yield handle.whois_port

    def test_query_over_tcp(self, port):
        text = whois_query("127.0.0.1", port, "AS2914")
        assert "as-name:    NTT" in text

    def test_bang_over_tcp(self, port):
        text = whois_query("127.0.0.1", port, "!gAS1")
        assert "10.1.0.0/16" in text

    def test_not_found_over_tcp(self, port):
        text = whois_query("127.0.0.1", port, "AS4242")
        assert "No entries found" in text

    def test_multiple_sequential_connections(self, port):
        for query in ("AS2914", "AS-ONE", "!iAS-ONE,1"):
            assert whois_query("127.0.0.1", port, query)

    def test_bang_v_without_relationships_is_an_error_frame(self, port):
        """A session opened without ``as_rel`` cannot verify; the client
        gets an ``F`` line saying so, not a dropped connection."""
        response = whois_query("127.0.0.1", port, "!v 10.1.0.0/16 AS2914 AS1")
        comment, _, answer = response.partition("\n")
        assert comment.startswith("%% id ")
        assert answer.startswith("F ") and "relationships" in answer
        # ...and the connection's server is still answering.
        assert "as-name:    NTT" in whois_query("127.0.0.1", port, "AS2914")
