"""Tests for the query engine: indexes, flattening, resolution."""

from prefix_oracle import op_index

from repro.core.compiled import compile_index
from repro.core.query import BUILTIN_FILTER_SETS, PrefixOpIndex, QueryEngine
from repro.irr.dump import parse_dump_text
from repro.net.prefix import Prefix, RangeOp


def engine_of(text: str) -> QueryEngine:
    ir, _ = parse_dump_text(text, "TEST")
    return QueryEngine(ir, compile_index(ir))


class TestPrefixOpIndex:
    def test_exact_match(self):
        index = op_index([(Prefix.parse("10.0.0.0/8"), RangeOp())])
        assert index.matches(Prefix.parse("10.0.0.0/8"))
        assert not index.matches(Prefix.parse("10.1.0.0/16"))

    def test_plus_matches_more_specific(self):
        index = op_index([(Prefix.parse("10.0.0.0/8"), RangeOp.parse("^+"))])
        assert index.matches(Prefix.parse("10.0.0.0/8"))
        assert index.matches(Prefix.parse("10.1.2.0/24"))
        assert not index.matches(Prefix.parse("11.0.0.0/8"))

    def test_override_op(self):
        index = op_index([(Prefix.parse("10.0.0.0/8"), RangeOp())])
        assert index.matches(Prefix.parse("10.1.0.0/16"), RangeOp.parse("^16"))
        assert not index.matches(Prefix.parse("10.1.0.0/17"), RangeOp.parse("^16"))

    def test_len(self):
        assert len(PrefixOpIndex()) == 0
        index = op_index(
            [
                (Prefix.parse("10.0.0.0/8"), RangeOp()),
                (Prefix.parse("10.0.0.0/8"), RangeOp.parse("^+")),
            ]
        )
        assert len(index) == 2


class TestRouteLookups:
    DUMP = """
route:  10.0.0.0/8
origin: AS1

route:  10.1.0.0/16
origin: AS2

route6: 2001:db8::/32
origin: AS1
"""

    def test_has_any_routes(self):
        engine = engine_of(self.DUMP)
        assert engine.has_any_routes(1)
        assert not engine.has_any_routes(99)

    def test_asn_route_match_exact(self):
        engine = engine_of(self.DUMP)
        assert engine.asn_route_match(1, Prefix.parse("10.0.0.0/8"), RangeOp())
        assert not engine.asn_route_match(1, Prefix.parse("10.1.0.0/16"), RangeOp())

    def test_asn_route_match_with_op(self):
        engine = engine_of(self.DUMP)
        assert engine.asn_route_match(1, Prefix.parse("10.9.0.0/16"), RangeOp.parse("^+"))
        assert not engine.asn_route_match(2, Prefix.parse("10.9.0.0/16"), RangeOp.parse("^+"))

    def test_asn_route_match_v6(self):
        engine = engine_of(self.DUMP)
        assert engine.asn_route_match(1, Prefix.parse("2001:db8::/32"), RangeOp())

    def test_origins_of(self):
        engine = engine_of(self.DUMP + "\nroute: 10.0.0.0/8\norigin: AS3\n")
        assert engine.origins_of(Prefix.parse("10.0.0.0/8")) == frozenset({1, 3})


class TestAsSetFlattening:
    def test_direct_members(self):
        engine = engine_of("as-set: AS-X\nmembers: AS1, AS2\n")
        resolution = engine.flatten_as_set("AS-X")
        assert resolution.members == frozenset({1, 2})
        assert resolution.recorded and not resolution.has_loop

    def test_nested(self):
        engine = engine_of(
            "as-set: AS-X\nmembers: AS1, AS-Y\n\nas-set: AS-Y\nmembers: AS2\n"
        )
        assert engine.flatten_as_set("AS-X").members == frozenset({1, 2})
        assert engine.flatten_as_set("AS-X").depth == 2

    def test_unrecorded_set(self):
        engine = engine_of("as-set: AS-X\nmembers: AS-MISSING\n")
        resolution = engine.flatten_as_set("AS-X")
        assert "AS-MISSING" in resolution.unrecorded

    def test_unknown_top_level(self):
        engine = engine_of("aut-num: AS1\n")
        resolution = engine.flatten_as_set("AS-NOPE")
        assert not resolution.recorded
        assert resolution.members == frozenset()

    def test_loop_detected_and_terminates(self):
        engine = engine_of(
            "as-set: AS-A\nmembers: AS1, AS-B\n\nas-set: AS-B\nmembers: AS2, AS-A\n"
        )
        resolution = engine.flatten_as_set("AS-A")
        assert resolution.has_loop
        assert resolution.members == frozenset({1, 2})

    def test_self_loop(self):
        engine = engine_of("as-set: AS-A\nmembers: AS-A, AS1\n")
        resolution = engine.flatten_as_set("AS-A")
        assert resolution.has_loop and resolution.members == frozenset({1})

    def test_depth_of_chain(self):
        engine = engine_of(
            "as-set: AS-A\nmembers: AS-B\n\nas-set: AS-B\nmembers: AS-C\n\n"
            "as-set: AS-C\nmembers: AS1\n"
        )
        assert engine.flatten_as_set("AS-A").depth == 3

    def test_contains_any(self):
        engine = engine_of("as-set: AS-X\nmembers: ANY\n")
        assert engine.flatten_as_set("AS-X").contains_any

    def test_memoized(self):
        engine = engine_of("as-set: AS-X\nmembers: AS1\n")
        assert engine.flatten_as_set("AS-X") is engine.flatten_as_set("AS-X")

    def test_members_by_reference(self):
        engine = engine_of(
            "as-set: AS-X\nmembers: AS1\nmbrs-by-ref: MNT-A\n\n"
            "aut-num: AS5\nmember-of: AS-X\nmnt-by: MNT-A\n\n"
            "aut-num: AS6\nmember-of: AS-X\nmnt-by: MNT-OTHER\n"
        )
        members = engine.flatten_as_set("AS-X").members
        assert 5 in members and 6 not in members

    def test_members_by_reference_any(self):
        engine = engine_of(
            "as-set: AS-X\nmbrs-by-ref: ANY\n\n"
            "aut-num: AS5\nmember-of: AS-X\nmnt-by: WHOEVER\n"
        )
        assert 5 in engine.flatten_as_set("AS-X").members

    def test_no_byref_without_declaration(self):
        engine = engine_of(
            "as-set: AS-X\nmembers: AS1\n\n"
            "aut-num: AS5\nmember-of: AS-X\nmnt-by: MNT-A\n"
        )
        assert 5 not in engine.flatten_as_set("AS-X").members

    def test_as_set_route_match(self):
        engine = engine_of(
            "as-set: AS-X\nmembers: AS1\n\nroute: 10.0.0.0/8\norigin: AS1\n"
        )
        assert engine.as_set_route_match("AS-X", Prefix.parse("10.0.0.0/8"), RangeOp())
        assert engine.as_set_route_match(
            "AS-X", Prefix.parse("10.1.0.0/16"), RangeOp.parse("^+")
        )
        assert not engine.as_set_route_match("AS-X", Prefix.parse("11.0.0.0/8"), RangeOp())


class TestRouteSetResolution:
    DUMP = """
route-set: RS-X
members:   10.0.0.0/8^16-16, RS-Y, AS7

route-set: RS-Y
members:   192.0.2.0/24

route:     172.16.0.0/12
origin:    AS7
"""

    def test_prefix_member_with_op(self):
        engine = engine_of(self.DUMP)
        assert engine.route_set_match("RS-X", Prefix.parse("10.5.0.0/16"), RangeOp())
        assert not engine.route_set_match("RS-X", Prefix.parse("10.0.0.0/8"), RangeOp())

    def test_nested_route_set(self):
        engine = engine_of(self.DUMP)
        assert engine.route_set_match("RS-X", Prefix.parse("192.0.2.0/24"), RangeOp())

    def test_asn_member_uses_route_objects(self):
        engine = engine_of(self.DUMP)
        assert engine.route_set_match("RS-X", Prefix.parse("172.16.0.0/12"), RangeOp())

    def test_outer_op_overrides(self):
        engine = engine_of(self.DUMP)
        # ^24 applied to the whole set: only /24 more-specifics qualify.
        assert engine.route_set_match(
            "RS-X", Prefix.parse("192.0.2.0/24"), RangeOp.parse("^24")
        )
        assert not engine.route_set_match(
            "RS-X", Prefix.parse("192.0.2.0/25"), RangeOp.parse("^24")
        )

    def test_unrecorded_nested(self):
        engine = engine_of("route-set: RS-X\nmembers: RS-MISSING\n")
        assert "RS-MISSING" in engine.resolve_route_set("RS-X").unrecorded

    def test_rs_any_member(self):
        engine = engine_of("route-set: RS-X\nmembers: RS-ANY\n")
        assert engine.resolve_route_set("RS-X").contains_any
        assert engine.route_set_match("RS-X", Prefix.parse("8.8.8.0/24"), RangeOp())

    def test_route_set_loop_terminates(self):
        engine = engine_of(
            "route-set: RS-A\nmembers: RS-B, 10.0.0.0/8\n\nroute-set: RS-B\nmembers: RS-A\n"
        )
        assert engine.route_set_match("RS-A", Prefix.parse("10.0.0.0/8"), RangeOp())

    def test_members_by_reference_route(self):
        engine = engine_of(
            "route-set: RS-X\nmbrs-by-ref: MNT-A\n\n"
            "route: 10.0.0.0/8\norigin: AS1\nmember-of: RS-X\nmnt-by: MNT-A\n"
        )
        assert engine.route_set_match("RS-X", Prefix.parse("10.0.0.0/8"), RangeOp())


class TestOtherSets:
    def test_peering_set_resolution(self):
        engine = engine_of("peering-set: PRNG-X\npeering: AS1\n")
        assert len(engine.resolve_peering_set("PRNG-X")) == 1
        assert engine.resolve_peering_set("PRNG-MISSING") is None

    def test_filter_set_resolution(self):
        engine = engine_of("filter-set: FLTR-X\nfilter: ANY\n")
        assert engine.resolve_filter_set("FLTR-X") is not None

    def test_builtin_martians(self):
        engine = engine_of("aut-num: AS1\n")
        assert engine.resolve_filter_set("FLTR-MARTIAN") is BUILTIN_FILTER_SETS["FLTR-MARTIAN"]
        assert engine.resolve_filter_set("FLTR-UNKNOWN") is None

    def test_defined_filter_set_overrides_builtin(self):
        engine = engine_of("filter-set: FLTR-MARTIAN\nfilter: AS1\n")
        assert engine.resolve_filter_set("FLTR-MARTIAN") is not BUILTIN_FILTER_SETS["FLTR-MARTIAN"]
