"""Advanced verifier scenarios: structured policies, sets in rules,
IPv6 end-to-end, cyclic definitions, and report details."""

import pytest

from repro.bgp.topology import AsRelationships
from repro.core.filter_match import FilterEvaluator, MatchContext, Val
from repro.core.compiled import compile_index
from repro.core.query import QueryEngine
from repro.core.status import VerifyStatus
from repro.core.verify import Verifier, VerifyOptions
from repro.irr.dump import parse_dump_text
from repro.net.prefix import Prefix
from repro.rpsl.filter import parse_filter_text


def make_verifier(dump: str, rel_text: str, **options) -> Verifier:
    ir, _ = parse_dump_text(dump, "T")
    relationships = AsRelationships.from_as_rel_text(rel_text)
    return Verifier(ir, relationships, VerifyOptions(**options) if options else None)


def hop(verifier, direction, from_asn, to_asn, prefix, path):
    report = verifier.verify_route(prefix, tuple(path))
    for entry in report.hops:
        if (entry.direction, entry.from_asn, entry.to_asn) == (direction, from_asn, to_asn):
            return entry
    raise AssertionError(f"hop not found in\n{report}")


class TestPeeringSetsInRules:
    DUMP = """
aut-num: AS10
import:  from PRNG-UP accept ANY

peering-set: PRNG-UP
peering: AS20
peering: AS30
"""

    def test_peering_set_match(self):
        verifier = make_verifier(self.DUMP, "20|10|-1\n30|10|-1\n")
        for provider in (20, 30):
            result = hop(verifier, "import", provider, 10, "10.0.0.0/16", (10, provider))
            assert result.status is VerifyStatus.VERIFIED

    def test_peering_set_mismatch(self):
        verifier = make_verifier(self.DUMP, "20|10|-1\n40|10|-1\n")
        result = hop(verifier, "import", 40, 10, "10.0.0.0/16", (10, 40))
        assert result.status is not VerifyStatus.VERIFIED

    def test_unrecorded_peering_set(self):
        dump = "aut-num: AS10\nimport: from PRNG-GONE accept ANY\n"
        verifier = make_verifier(dump, "20|10|-1\n")
        result = hop(verifier, "import", 20, 10, "10.0.0.0/16", (10, 20))
        assert result.status is VerifyStatus.UNRECORDED


class TestStructuredVerification:
    def test_except_accepts_both_branches(self):
        dump = """
aut-num: AS10
import:  from AS20 accept {10.1.0.0/16} EXCEPT from AS20 accept {10.2.0.0/16}
"""
        verifier = make_verifier(dump, "20|10|-1\n")
        for prefix in ("10.1.0.0/16", "10.2.0.0/16"):
            result = hop(verifier, "import", 20, 10, prefix, (10, 20))
            assert result.status is VerifyStatus.VERIFIED, prefix
        result = hop(verifier, "import", 20, 10, "10.3.0.0/16", (10, 20))
        assert result.status is not VerifyStatus.VERIFIED

    def test_refine_requires_both(self):
        dump = """
aut-num: AS10
import:  from AS20 accept {10.0.0.0/8^+} REFINE from AS20 accept {10.1.0.0/16^+}
"""
        verifier = make_verifier(dump, "20|10|-1\n")
        ok = hop(verifier, "import", 20, 10, "10.1.5.0/24", (10, 20))
        assert ok.status is VerifyStatus.VERIFIED
        rejected = hop(verifier, "import", 20, 10, "10.2.0.0/16", (10, 20))
        assert rejected.status is not VerifyStatus.VERIFIED

    def test_refine_afi_scoping(self):
        # v6 routes are constrained only by the first term.
        dump = """
aut-num:   AS10
mp-import: afi any.unicast from AS20 accept ANY REFINE afi ipv4.unicast from AS20 accept {10.0.0.0/8^+}
"""
        verifier = make_verifier(dump, "20|10|-1\n")
        v6 = hop(verifier, "import", 20, 10, "2001:db8::/32", (10, 20))
        assert v6.status is VerifyStatus.VERIFIED
        v4_in = hop(verifier, "import", 20, 10, "10.1.0.0/16", (10, 20))
        assert v4_in.status is VerifyStatus.VERIFIED
        v4_out = hop(verifier, "import", 20, 10, "192.0.2.0/24", (10, 20))
        assert v4_out.status is not VerifyStatus.VERIFIED

    def test_braced_multi_factor_term(self):
        dump = """
aut-num: AS10
import:  { from AS20 accept {10.1.0.0/16}; from AS30 accept {10.2.0.0/16}; }
"""
        verifier = make_verifier(dump, "20|10|-1\n30|10|-1\n")
        ok = hop(verifier, "import", 20, 10, "10.1.0.0/16", (10, 20))
        assert ok.status is VerifyStatus.VERIFIED
        # the factor for AS30 does not license AS20 announcements
        cross = hop(verifier, "import", 20, 10, "10.2.0.0/16", (10, 20))
        assert cross.status is not VerifyStatus.VERIFIED


class TestIpv6EndToEnd:
    DUMP = """
aut-num:   AS10
mp-import: afi ipv6.unicast from AS20 accept AS20

aut-num:   AS20
mp-export: afi ipv6.unicast to AS10 announce AS20

route6:    2001:db8::/32
origin:    AS20
"""

    def test_route6_verification(self):
        verifier = make_verifier(self.DUMP, "10|20|-1\n")
        report = verifier.verify_route("2001:db8::/32", (10, 20))
        assert [h.status for h in report.hops] == [
            VerifyStatus.VERIFIED, VerifyStatus.VERIFIED
        ]

    def test_v4_route_does_not_match_v6_rules(self):
        verifier = make_verifier(self.DUMP, "10|20|-1\n")
        report = verifier.verify_route("10.0.0.0/16", (10, 20))
        assert all(h.status is not VerifyStatus.VERIFIED for h in report.hops)


class TestCyclicDefinitions:
    def test_cyclic_filter_sets_terminate(self):
        dump = """
filter-set: FLTR-A
filter:     FLTR-B OR AS1

filter-set: FLTR-B
filter:     FLTR-A

route:      10.1.0.0/16
origin:     AS1
"""
        ir, _ = parse_dump_text(dump, "T")
        evaluator = FilterEvaluator(QueryEngine(ir, compile_index(ir)))
        ctx = MatchContext(Prefix.parse("10.1.0.0/16"), (1,), 1, 9)
        outcome = evaluator.evaluate(parse_filter_text("FLTR-A"), ctx)
        assert outcome.value is Val.TRUE  # via the AS1 arm
        miss = MatchContext(Prefix.parse("10.9.0.0/16"), (1,), 1, 9)
        outcome = evaluator.evaluate(parse_filter_text("FLTR-A"), miss)
        assert outcome.value in (Val.FALSE, Val.UNREC)

    def test_self_referential_filter_set(self):
        dump = "filter-set: FLTR-A\nfilter: FLTR-A\n"
        ir, _ = parse_dump_text(dump, "T")
        evaluator = FilterEvaluator(QueryEngine(ir, compile_index(ir)))
        ctx = MatchContext(Prefix.parse("10.1.0.0/16"), (1,), 1, 9)
        assert evaluator.evaluate(parse_filter_text("FLTR-A"), ctx).value is Val.UNREC


class TestReportDetails:
    def test_items_capped(self):
        rules = "".join(f"import: from AS{n} accept ANY\n" for n in range(100, 140))
        dump = f"aut-num: AS10\n{rules}"
        verifier = make_verifier(dump, "")
        result = hop(verifier, "import", 999, 10, "10.0.0.0/16", (10, 999))
        assert result.status is VerifyStatus.UNVERIFIED
        assert len(result.items) <= 12

    def test_peeras_filter_in_import(self):
        dump = """
aut-num: AS10
import:  from AS20 accept PeerAS

route:   10.2.0.0/16
origin:  AS20
"""
        verifier = make_verifier(dump, "")
        ok = hop(verifier, "import", 20, 10, "10.2.0.0/16", (10, 20))
        assert ok.status is VerifyStatus.VERIFIED
        # a route originated deeper does not match PeerAS
        deep = hop(verifier, "import", 20, 10, "10.9.0.0/16", (10, 20, 30))
        assert deep.status is not VerifyStatus.VERIFIED

    def test_multiple_matching_rules_best_wins(self):
        dump = """
aut-num: AS10
import:  from AS20 accept {192.0.2.0/24}
import:  from AS20 accept ANY
"""
        verifier = make_verifier(dump, "")
        result = hop(verifier, "import", 20, 10, "10.0.0.0/16", (10, 20))
        assert result.status is VerifyStatus.VERIFIED

    def test_hop_cache_consistency_across_directions(self):
        dump = """
aut-num: AS10
import:  from AS20 accept ANY
export:  to AS20 announce ANY
"""
        verifier = make_verifier(dump, "")
        first = verifier.verify_route("10.0.0.0/16", (20, 10))
        second = verifier.verify_route("10.0.0.0/16", (20, 10))
        assert [str(h) for h in first.hops] == [str(h) for h in second.hops]
        # The second route misses nothing: AS10's export comes from the hop
        # cache, and AS20's import (no aut-num) from its verdict plan.
        assert verifier.hop_cache_misses == 2
        assert (verifier.hop_cache_hits, verifier.plan_verdicts) == (1, 1)
