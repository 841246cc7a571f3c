"""Tests for four-valued filter evaluation."""

import pytest

from repro.core.filter_match import Eval, FilterEvaluator, MatchContext, Val
from repro.core.compiled import compile_index
from repro.core.query import QueryEngine
from repro.core.report import ItemKind
from repro.irr.dump import parse_dump_text
from repro.net.prefix import Prefix
from repro.rpsl.filter import parse_filter_text

DUMP = """
route:   10.1.0.0/16
origin:  AS1

route:   10.2.0.0/16
origin:  AS2

as-set:  AS-BOTH
members: AS1, AS2

as-set:  AS-HOLEY
members: AS1, AS-GONE

route-set: RS-TEN
members:   10.0.0.0/8^16-24

filter-set: FLTR-ONE
filter:     AS1
"""


@pytest.fixture(scope="module")
def evaluator():
    ir, _ = parse_dump_text(DUMP, "TEST")
    return FilterEvaluator(QueryEngine(ir, compile_index(ir)))


def ctx(prefix="10.1.0.0/16", path=(1,), peer=1, self_asn=9):
    return MatchContext(Prefix.parse(prefix), tuple(path), peer, self_asn)


def evaluate(evaluator, text, context=None):
    return evaluator.evaluate(parse_filter_text(text), context or ctx())


class TestPrimaries:
    def test_any_always_true(self, evaluator):
        assert evaluate(evaluator, "ANY").value is Val.TRUE

    def test_asn_exact(self, evaluator):
        assert evaluate(evaluator, "AS1").value is Val.TRUE
        result = evaluate(evaluator, "AS2")
        assert result.value is Val.FALSE
        assert result.items[0].kind is ItemKind.MATCH_FILTER_AS_NUM

    def test_asn_with_op(self, evaluator):
        more_specific = ctx(prefix="10.1.5.0/24")
        assert evaluate(evaluator, "AS1^+", more_specific).value is Val.TRUE
        assert evaluate(evaluator, "AS1", more_specific).value is Val.FALSE

    def test_zero_route_asn_unrecorded(self, evaluator):
        result = evaluate(evaluator, "AS99")
        assert result.value is Val.UNREC
        assert result.items[0].kind is ItemKind.UNRECORDED_AS_ROUTES

    def test_peeras_resolves_peer(self, evaluator):
        assert evaluate(evaluator, "PeerAS", ctx(peer=1)).value is Val.TRUE
        assert evaluate(evaluator, "PeerAS", ctx(peer=2)).value is Val.FALSE

    def test_as_set(self, evaluator):
        assert evaluate(evaluator, "AS-BOTH").value is Val.TRUE
        assert evaluate(evaluator, "AS-BOTH", ctx(prefix="10.9.0.0/16")).value is Val.FALSE

    def test_as_any_always_true(self, evaluator):
        assert evaluate(evaluator, "AS-ANY").value is Val.TRUE

    def test_unrecorded_as_set(self, evaluator):
        result = evaluate(evaluator, "AS-MISSING")
        assert result.value is Val.UNREC
        assert result.items[0].kind is ItemKind.UNRECORDED_AS_SET

    def test_partially_unrecorded_as_set(self, evaluator):
        # Matches via AS1 → TRUE despite the missing nested set.
        assert evaluate(evaluator, "AS-HOLEY").value is Val.TRUE
        # No match + missing nested set → UNREC.
        result = evaluate(evaluator, "AS-HOLEY", ctx(prefix="10.9.0.0/16"))
        assert result.value is Val.UNREC

    def test_route_set(self, evaluator):
        assert evaluate(evaluator, "RS-TEN").value is Val.TRUE
        assert evaluate(evaluator, "RS-TEN", ctx(prefix="10.0.0.0/8")).value is Val.FALSE

    def test_route_set_nonstandard_op(self, evaluator):
        assert evaluate(evaluator, "RS-TEN^16", ctx(prefix="10.5.0.0/16")).value is Val.TRUE
        assert evaluate(evaluator, "RS-TEN^8", ctx(prefix="10.5.0.0/16")).value is Val.FALSE

    def test_unrecorded_route_set(self, evaluator):
        assert evaluate(evaluator, "RS-MISSING").value is Val.UNREC

    def test_prefix_set(self, evaluator):
        assert evaluate(evaluator, "{10.1.0.0/16}").value is Val.TRUE
        assert evaluate(evaluator, "{10.0.0.0/8^+}").value is Val.TRUE
        assert evaluate(evaluator, "{192.0.2.0/24}").value is Val.FALSE

    def test_empty_prefix_set_false(self, evaluator):
        assert evaluate(evaluator, "{}").value is Val.FALSE

    def test_filter_set_ref(self, evaluator):
        assert evaluate(evaluator, "FLTR-ONE").value is Val.TRUE

    def test_builtin_martian(self, evaluator):
        public = ctx(prefix="8.8.8.0/24")
        assert evaluate(evaluator, "NOT fltr-martian", public).value is Val.TRUE
        for bogon in ("192.168.1.0/24", "10.1.0.0/16", "224.0.0.0/8"):
            assert evaluate(evaluator, "NOT fltr-martian", ctx(prefix=bogon)).value is Val.FALSE

    def test_unrecorded_filter_set(self, evaluator):
        assert evaluate(evaluator, "FLTR-MISSING").value is Val.UNREC

    def test_community_skips(self, evaluator):
        result = evaluate(evaluator, "community(65535:666)")
        assert result.value is Val.SKIP
        assert result.items[0].kind is ItemKind.SKIPPED_COMMUNITY


class TestRegexFilters:
    def test_matching_regex(self, evaluator):
        context = ctx(path=(3, 2, 1))
        assert evaluate(evaluator, "<^AS3 .* AS1$>", context).value is Val.TRUE

    def test_non_matching_regex(self, evaluator):
        result = evaluate(evaluator, "<^AS9$>", ctx(path=(1,)))
        assert result.value is Val.FALSE
        assert result.items[0].kind is ItemKind.MATCH_FILTER_AS_PATH

    def test_asn_range_skips_by_default(self, evaluator):
        result = evaluate(evaluator, "<AS64512-AS65534>")
        assert result.value is Val.SKIP
        assert result.items[0].kind is ItemKind.SKIPPED_REGEX_RANGE

    def test_same_pattern_skips_by_default(self, evaluator):
        result = evaluate(evaluator, "<.~+>")
        assert result.value is Val.SKIP

    def test_extensions_can_be_enabled(self):
        ir, _ = parse_dump_text(DUMP, "TEST")
        extended = FilterEvaluator(
            QueryEngine(ir, compile_index(ir)), handle_asn_ranges=True, handle_same_pattern=True
        )
        context = ctx(path=(64512, 64512))
        assert evaluate(extended, "<^AS64512-AS65534~+$>", context).value is Val.TRUE


class TestCombinators:
    def test_and(self, evaluator):
        assert evaluate(evaluator, "ANY AND AS1").value is Val.TRUE
        assert evaluate(evaluator, "ANY AND AS2").value is Val.FALSE

    def test_or(self, evaluator):
        assert evaluate(evaluator, "AS2 OR AS1").value is Val.TRUE
        assert evaluate(evaluator, "AS2 OR {192.0.2.0/24}").value is Val.FALSE

    def test_not(self, evaluator):
        assert evaluate(evaluator, "NOT AS2").value is Val.TRUE
        assert evaluate(evaluator, "NOT AS1").value is Val.FALSE

    def test_false_beats_skip_in_and(self, evaluator):
        result = evaluate(evaluator, "AS2 AND community(1:1)")
        assert result.value is Val.FALSE

    def test_true_beats_skip_in_or(self, evaluator):
        assert evaluate(evaluator, "AS1 OR community(1:1)").value is Val.TRUE

    def test_skip_propagates_in_and(self, evaluator):
        assert evaluate(evaluator, "ANY AND community(1:1)").value is Val.SKIP

    def test_unrec_propagates(self, evaluator):
        assert evaluate(evaluator, "ANY AND AS-MISSING").value is Val.UNREC
        assert evaluate(evaluator, "AS2 OR AS-MISSING").value is Val.UNREC

    def test_skip_beats_unrec(self, evaluator):
        result = evaluate(evaluator, "AS-MISSING AND community(1:1)")
        assert result.value is Val.SKIP

    def test_not_preserves_skip_and_unrec(self, evaluator):
        assert evaluate(evaluator, "NOT community(1:1)").value is Val.SKIP
        assert evaluate(evaluator, "NOT AS-MISSING").value is Val.UNREC

    def test_paper_default_route_exclusion(self, evaluator):
        text = "ANY AND NOT {0.0.0.0/0, ::/0}"
        assert evaluate(evaluator, text).value is Val.TRUE
        default = ctx(prefix="0.0.0.0/0")
        assert evaluate(evaluator, text, default).value is Val.FALSE

    def test_true_result_has_no_items(self, evaluator):
        assert evaluate(evaluator, "AS1").items == ()


class TestEvalAlgebra:
    def test_or_identity(self):
        false = Eval(Val.FALSE)
        true = Eval(Val.TRUE)
        assert false.or_(true).value is Val.TRUE
        assert true.and_(true).value is Val.TRUE

    def test_not_involution_on_decided(self):
        for value in (Val.TRUE, Val.FALSE):
            assert Eval(value).not_().not_().value is value
