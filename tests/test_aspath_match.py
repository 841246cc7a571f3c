"""Tests for the symbolic AS-path regex matcher (Appendix B)."""

import pytest

from repro.core.aspath_match import AsPathMatcher
from repro.core.compiled import compile_index
from repro.core.query import QueryEngine
from repro.irr.dump import parse_dump_text
from repro.rpsl.aspath import parse_as_path_regex


@pytest.fixture()
def matcher():
    ir, _ = parse_dump_text(
        "as-set: AS-X\nmembers: AS10, AS11\n\nas-set: AS-Y\nmembers: AS20, AS-X\n",
        "TEST",
    )
    return AsPathMatcher(QueryEngine(ir, compile_index(ir)))


def match(matcher, regex: str, path: tuple[int, ...], peer: int = 0):
    return matcher.match(parse_as_path_regex(regex), path, peer)


class TestBasicMatching:
    def test_single_asn_search_semantics(self, matcher):
        assert match(matcher, "AS2", (1, 2, 3)).matched
        assert not match(matcher, "AS9", (1, 2, 3)).matched

    def test_anchored_both_ends(self, matcher):
        assert match(matcher, "^AS1 AS2 AS3$", (1, 2, 3)).matched
        assert not match(matcher, "^AS1 AS2$", (1, 2, 3)).matched

    def test_begin_anchor(self, matcher):
        assert match(matcher, "^AS1", (1, 2)).matched
        assert not match(matcher, "^AS2", (1, 2)).matched

    def test_end_anchor_origin(self, matcher):
        assert match(matcher, "AS2$", (1, 2)).matched
        assert not match(matcher, "AS1$", (1, 2)).matched

    def test_paper_example(self, matcher):
        # <^AS13911 AS6327+$>: received from AS13911, originated by AS6327.
        regex = "^AS13911 AS6327+$"
        assert match(matcher, regex, (13911, 6327)).matched
        assert match(matcher, regex, (13911, 6327, 6327)).matched
        assert not match(matcher, regex, (13911, 1299, 6327)).matched
        assert not match(matcher, regex, (6327,)).matched

    def test_wildcard(self, matcher):
        assert match(matcher, "^AS1 . AS3$", (1, 999, 3)).matched
        assert not match(matcher, "^AS1 . AS3$", (1, 3)).matched

    def test_wildcard_star(self, matcher):
        regex = "^AS1 .* AS3$"
        assert match(matcher, regex, (1, 3)).matched
        assert match(matcher, regex, (1, 7, 8, 9, 3)).matched

    def test_optional(self, matcher):
        regex = "^AS1 AS2? AS3$"
        assert match(matcher, regex, (1, 3)).matched
        assert match(matcher, regex, (1, 2, 3)).matched
        assert not match(matcher, regex, (1, 2, 2, 3)).matched

    def test_bounded_repeat(self, matcher):
        regex = "^AS2{2,3}$"
        assert not match(matcher, regex, (2,)).matched
        assert match(matcher, regex, (2, 2)).matched
        assert match(matcher, regex, (2, 2, 2)).matched
        assert not match(matcher, regex, (2, 2, 2, 2)).matched

    def test_alternation(self, matcher):
        regex = "^(AS1 | AS2) AS3$"
        assert match(matcher, regex, (1, 3)).matched
        assert match(matcher, regex, (2, 3)).matched
        assert not match(matcher, regex, (4, 3)).matched


class TestAsSetTokens:
    def test_as_set_member(self, matcher):
        assert match(matcher, "^AS-X$", (10,)).matched
        assert match(matcher, "^AS-X$", (11,)).matched
        assert not match(matcher, "^AS-X$", (12,)).matched

    def test_nested_as_set(self, matcher):
        assert match(matcher, "^AS-Y$", (10,)).matched
        assert match(matcher, "^AS-Y$", (20,)).matched

    def test_unrecorded_as_set_flagged(self, matcher):
        result = match(matcher, "^AS-MISSING$", (10,))
        assert not result.matched
        assert "AS-MISSING" in result.unrecorded_sets

    def test_peeras(self, matcher):
        assert match(matcher, "^PeerAS+$", (5, 5), peer=5).matched
        assert not match(matcher, "^PeerAS+$", (5, 6), peer=5).matched


class TestCharSets:
    def test_positive_set(self, matcher):
        regex = "^[AS1 AS2]$"
        assert match(matcher, regex, (1,)).matched
        assert match(matcher, regex, (2,)).matched
        assert not match(matcher, regex, (3,)).matched

    def test_complemented_set(self, matcher):
        regex = "^[^AS1 AS2]$"
        assert not match(matcher, regex, (1,)).matched
        assert match(matcher, regex, (3,)).matched

    def test_complemented_set_with_as_set(self, matcher):
        regex = "^[^AS-X]+$"
        assert match(matcher, regex, (1, 2)).matched
        assert not match(matcher, regex, (1, 10)).matched

    def test_set_with_repeat(self, matcher):
        assert match(matcher, "^[AS1 AS2]+$", (1, 2, 1)).matched


class TestAdvanced:
    def test_asn_range_token(self, matcher):
        regex = "^AS64512-AS65534$"
        assert match(matcher, regex, (64512,)).matched
        assert match(matcher, regex, (65000,)).matched
        assert not match(matcher, regex, (66000,)).matched

    def test_same_pattern_plus(self, matcher):
        regex = "^AS1 [AS2 AS3]~+$"
        assert match(matcher, regex, (1, 2, 2)).matched
        assert match(matcher, regex, (1, 3, 3, 3)).matched
        assert not match(matcher, regex, (1, 2, 3)).matched  # must be SAME AS

    def test_same_pattern_star_empty_ok(self, matcher):
        regex = "^AS1 .~* AS9$"
        assert match(matcher, regex, (1, 9)).matched
        assert match(matcher, regex, (1, 5, 5, 9)).matched
        assert not match(matcher, regex, (1, 5, 6, 9)).matched

    def test_overlapping_tokens_product(self, matcher):
        # 10 matches both AS10 and AS-X: product must explore both symbols.
        regex = "^AS-X AS10$"
        assert match(matcher, regex, (11, 10)).matched
        assert match(matcher, regex, (10, 10)).matched

    def test_product_cap_flags_approximate(self):
        ir, _ = parse_dump_text("as-set: AS-X\nmembers: AS1\n", "TEST")
        matcher = AsPathMatcher(QueryEngine(ir, compile_index(ir)), product_cap=2)
        result = match(matcher, "^(AS1 | AS-X | .){6}$", (1, 1, 1, 1, 1, 1))
        assert result.approximate
        assert result.matched  # found within the sampled candidates

    def test_compile_cached(self):
        """A regex the IR holds is lowered once, by the compile pass; an
        ad-hoc one is lowered per call and never stored."""
        ir, _ = parse_dump_text("aut-num: AS1\nimport: from AS2 accept <^AS1$>\n", "TEST")
        index = compile_index(ir)
        matcher = AsPathMatcher(QueryEngine(ir, index))
        node = parse_as_path_regex("^AS1$")
        assert matcher.compile(node) is index.aspath_regexes[node]
        adhoc = parse_as_path_regex("^AS2$")
        assert matcher.compile(adhoc).pattern == matcher.compile(adhoc).pattern
        assert list(index.aspath_regexes) == [node]

    def test_empty_path_with_star(self, matcher):
        assert match(matcher, "^.*$", ()).matched
