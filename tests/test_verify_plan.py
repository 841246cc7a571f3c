"""Differential suite for the verifier's rule plans.

``Verifier._check_uncached`` no longer walks a subject's rule list per
cache miss: it evaluates a plan specialised once on the remote AS (dead
rules folded into constants, see ``repro.core.verify``).  A wrong fold is
a fast wrong verdict, so the plan is held against a reference that is the
pre-plan loop transcribed plainly — every rule, every factor, every
peering evaluated per check, nothing memoized, nothing folded — on
hypothesis-generated policies, with ``HopReport`` *dataclass* equality
(items, ``peer_matched``, ``rule_index``, ``rule_source``; not ``str``).

Each named case below is paired with a *mutant*: the production module
re-compiled with the one clause the case exists for broken.  The mutant
must disagree with the reference on that case, so a case that stops
guarding its clause fails loudly rather than passing vacuously.
"""

from __future__ import annotations

import inspect
import sys
import types
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.verify as production
from repro import api
from repro.bgp.topology import AsRelationships
from repro.core.compiled import PatchEffects
from repro.core.filter_match import MAX_ITEMS, Eval, MatchContext, Val
from repro.core.report import HopReport, ItemKind, ReportItem
from repro.core.status import VerifyStatus
from repro.core.verify import Verifier, VerifyOptions, rule_skip_census
from repro.irr.dump import parse_dump_text
from repro.net.prefix import Prefix
from repro.obs import MetricsRegistry, use_registry
from repro.rpsl.policy import PolicyExcept, PolicyRefine, PolicyTerm

# -- the reference: the rule walk, transcribed plainly ---------------------------


class _Ref(NamedTuple):
    value: Val
    items: tuple = ()
    matched: tuple = ()  # filters whose peering matched but whose check failed


def _ref_filters(left: tuple, right: tuple) -> tuple:
    return (left + right)[:MAX_ITEMS]


def _ref_or(left: _Ref, right: _Ref) -> _Ref:
    merged = Eval(left.value, left.items).or_(Eval(right.value, right.items))
    return _Ref(merged.value, merged.items, _ref_filters(left.matched, right.matched))


def _ref_and(left: _Ref, right: _Ref) -> _Ref:
    merged = Eval(left.value, left.items).and_(Eval(right.value, right.items))
    return _Ref(merged.value, merged.items, _ref_filters(left.matched, right.matched))


def _ref_term(parts: Verifier, term: PolicyTerm, ctx: MatchContext, remote: int) -> _Ref:
    result = _Ref(Val.FALSE)
    for factor in term.factors:
        peering = Eval(Val.FALSE)
        for peering_action in factor.peerings:
            peering = peering.or_(parts.peerings.evaluate(peering_action.peering, remote))
            if peering.value is Val.TRUE:
                break
        if peering.value is Val.FALSE:
            result = _ref_or(result, _Ref(Val.FALSE, peering.items))
            continue
        checked = parts.filters.evaluate(factor.filter, ctx)
        matched = ()
        if peering.value is Val.TRUE and checked.value is not Val.TRUE:
            matched = (factor.filter,)
        combined = peering.and_(checked)
        result = _ref_or(result, _Ref(combined.value, combined.items, matched))
        if result.value is Val.TRUE:
            return result
    return result


def _ref_expr(parts: Verifier, expr, ctx: MatchContext, version: int, remote: int) -> _Ref:
    if isinstance(expr, PolicyTerm):
        return _ref_term(parts, expr, ctx, remote)
    assert isinstance(expr, (PolicyRefine, PolicyExcept))
    term = _ref_expr(parts, expr.term, ctx, version, remote)
    if expr.afis and not any(afi.matches_version(version) for afi in expr.afis):
        return term
    rest = _ref_expr(parts, expr.rest, ctx, version, remote)
    return _ref_and(term, rest) if isinstance(expr, PolicyRefine) else _ref_or(term, rest)


def reference_check(
    parts: Verifier, direction: str, from_asn: int, to_asn: int, ctx: MatchContext
) -> HopReport:
    """One hop check by the plain rule walk.

    ``parts`` lends its IR, options and leaf evaluators (``peerings``,
    ``filters``, ``special`` — none of which the plans changed); its
    ``check`` / plan machinery is never called.
    """
    subject = to_asn if direction == "import" else from_asn
    remote = from_asn if direction == "import" else to_asn

    def finish(status, items, peer_matched=False, rule_index=None, source=None):
        return HopReport(
            direction, from_asn, to_asn, status, tuple(items)[:MAX_ITEMS],
            peer_matched, rule_index, source,
        )

    aut_num = parts.ir.aut_nums.get(subject)
    if aut_num is None:
        return finish(
            VerifyStatus.UNRECORDED,
            [ReportItem.of(ItemKind.UNRECORDED_AUT_NUM, asn=subject)],
        )
    source = aut_num.source or None
    rules = aut_num.imports if direction == "import" else aut_num.exports
    if not rules:
        if aut_num.bad_rules:
            return finish(
                VerifyStatus.SKIP, [ReportItem.of(ItemKind.SKIPPED_BAD_RULE)], source=source
            )
        return finish(
            VerifyStatus.UNRECORDED,
            [ReportItem.of(ItemKind.UNRECORDED_NO_RULES, asn=subject)],
            source=source,
        )
    version = ctx.prefix.version
    overall = _Ref(Val.FALSE)
    for rule_index, rule in enumerate(rules):
        if not any(afi.matches_version(version) for afi in rule.effective_afis()):
            continue
        overall = _ref_or(overall, _ref_expr(parts, rule.expr, ctx, version, remote))
        if overall.value is Val.TRUE:
            return finish(VerifyStatus.VERIFIED, (), True, rule_index, source)
    if overall.value is Val.SKIP:
        return finish(VerifyStatus.SKIP, overall.items, source=source)
    if aut_num.bad_rules:
        items = overall.items + (ReportItem.of(ItemKind.SKIPPED_BAD_RULE),)
        return finish(VerifyStatus.SKIP, items, source=source)
    if overall.value is Val.UNREC:
        return finish(VerifyStatus.UNRECORDED, overall.items, source=source)
    peer_matched = bool(overall.matched)
    if parts.options.relaxations:
        relaxed = parts.special.relaxed_item(direction, subject, remote, ctx, overall.matched)
        if relaxed is not None:
            items = (overall.items + (relaxed,))[-MAX_ITEMS:]
            return finish(VerifyStatus.RELAXED, items, peer_matched, source=source)
    if parts.options.safelists:
        safelisted = parts.special.safelist_item(direction, from_asn, to_asn, aut_num, ctx)
        if safelisted is not None:
            items = (overall.items + (safelisted,))[-MAX_ITEMS:]
            return finish(VerifyStatus.SAFELISTED, items, peer_matched, source=source)
    return finish(VerifyStatus.UNVERIFIED, overall.items, peer_matched, source=source)


def reference_hops(parts: Verifier, prefix: str, path: tuple[int, ...]) -> list[HopReport]:
    """Every hop of ⟨prefix, path⟩ (no prepending here), origin side first."""
    parsed = Prefix.parse(prefix)
    hops = []
    for index in range(len(path) - 2, -1, -1):
        exporter, importer, sub_path = path[index + 1], path[index], path[index + 1 :]
        hops.append(
            reference_check(
                parts, "export", exporter, importer,
                MatchContext(parsed, sub_path, importer, exporter),
            )
        )
        hops.append(
            reference_check(
                parts, "import", exporter, importer,
                MatchContext(parsed, sub_path, exporter, importer),
            )
        )
    return hops


# -- worlds ---------------------------------------------------------------------

# What the generated (and the named) aut-nums refer to.  AS-GONE, PRNG-GONE
# and FLTR-GONE are deliberately undefined; AS9 originates nothing.
SURROUNDINGS = """
as-set:      AS-A
members:     AS2, AS3

as-set:      AS-HOLE
members:     AS4, AS-GONE

peering-set: PRNG-P
peering:     AS2
peering:     AS5

peering-set: PRNG-SELF
peering:     PRNG-SELF

filter-set:  FLTR-F
filter:      AS2 OR AS-A

route:       10.1.0.0/16
origin:      AS2

route:       10.2.0.0/16
origin:      AS3

route:       10.3.0.0/16
origin:      AS1

route6:      2001:db8::/32
origin:      AS2

aut-num:     AS6

aut-num:     AS7
import:      from AS1 acceptt ANY
"""

# 4 and 5 are the Tier-1 clique; 4 is 1's provider, 1 is 2's provider, 1=3 peer.
RELATIONSHIPS = """
4|5|0
4|1|-1
1|2|-1
1|3|0
5|3|-1
"""

PREFIXES = ("10.1.0.0/16", "10.1.2.0/24", "10.3.0.0/16", "10.9.0.0/16", "2001:db8::/32")


def build(policies: str, options: VerifyOptions | None = None, module=production):
    """⟨verifier under test, independent verifier lending the reference its parts⟩."""
    ir, _ = parse_dump_text(SURROUNDINGS + "\n" + policies, "TEST")
    relationships = AsRelationships.from_as_rel_text(RELATIONSHIPS)
    relationships.tier1 = {4, 5}
    return (
        module.Verifier(ir, relationships, options),
        Verifier(ir, relationships, options),
    )


def disagreements(policies: str, routes, options=None, module=production) -> list[str]:
    """Hops where the verifier under test and the reference differ."""
    verifier, parts = build(policies, options, module)
    differing = []
    for prefix, path in routes:
        got = verifier.verify_route(prefix, tuple(path)).hops
        want = reference_hops(parts, prefix, tuple(path))
        differing.extend(
            f"{prefix} {path}: plan {mine!r} != reference {theirs!r}"
            for mine, theirs in zip(got, want, strict=True)
            if mine != theirs
        )
    return differing


def mutant(old: str, new: str) -> types.ModuleType:
    """``repro.core.verify`` re-compiled with one clause broken."""
    source = inspect.getsource(production)
    assert source.count(old) == 1, f"mutation target not found exactly once: {old!r}"
    module = types.ModuleType("repro.core.verify_mutant")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(source.replace(old, new), module.__name__, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def hop(verifier, direction, from_asn, to_asn, prefix, path) -> HopReport:
    for found in verifier.verify_route(prefix, tuple(path)).hops:
        if (found.direction, found.from_asn, found.to_asn) == (direction, from_asn, to_asn):
            return found
    raise AssertionError(f"no {direction} {from_asn}->{to_asn} on {path}")


# -- generated policies -----------------------------------------------------------

# Atoms that resolve are drawn four times as often as the ones that answer
# UNREC/SKIP: those dominate an OR, and a world where every check is
# unrecorded never reaches the relaxations, the safelists or UNVERIFIED.
_AS_ATOMS = ("AS2", "AS3", "AS4", "AS5", "AS-A") * 4 + ("AS-ANY", "AS-HOLE", "AS-GONE")
_as_exprs = st.recursive(
    st.sampled_from(_AS_ATOMS),
    lambda inner: st.builds(
        "({} {} {})".format, inner, st.sampled_from(("AND", "OR", "EXCEPT")), inner
    ),
    max_leaves=3,
)
_peerings = st.one_of(
    _as_exprs, _as_exprs, _as_exprs, st.sampled_from(("PRNG-P", "PRNG-SELF", "PRNG-GONE"))
)

_FILTER_ATOMS = (
    "ANY", "AS1", "AS2", "AS3", "AS-A", "PeerAS", "FLTR-F", "{10.1.0.0/16^+}", "<^AS2+$>",
    "<^AS3 AS1$>",
) * 4 + ("AS9", "AS-GONE", "FLTR-GONE", "community(65000:1)")
_filters = st.recursive(
    st.sampled_from(_FILTER_ATOMS),
    lambda inner: st.one_of(
        st.builds("NOT {}".format, inner),
        st.builds("({} {} {})".format, inner, st.sampled_from(("AND", "OR")), inner),
    ),
    max_leaves=3,
)
_AFIS = (
    "", "afi ipv4.unicast ", "afi ipv6.unicast ", "afi any ", "afi ipv4.multicast ",
    "afi ipv4.unicast, ipv6.unicast ",
)


@st.composite
def _exprs(draw, direction: str, depth: int = 2) -> str:
    word, verb = ("from", "accept") if direction == "import" else ("to", "announce")

    def factor() -> str:
        peerings = draw(st.lists(_peerings, min_size=1, max_size=2))
        clauses = " ".join(f"{word} {peering}" for peering in peerings)
        return f"{clauses} {verb} {draw(_filters)}"

    factors = [factor() for _ in range(draw(st.integers(1, 3)))]
    if len(factors) == 1 and draw(st.booleans()):
        term = factors[0]
    else:
        term = "{ " + " ".join(f"{text};" for text in factors) + " }"
    if depth == 0 or draw(st.integers(0, 2)):
        return term
    operator = draw(st.sampled_from(("REFINE", "EXCEPT")))
    afi = draw(st.sampled_from(_AFIS))
    return f"{term} {operator} {afi}{draw(_exprs(direction, depth - 1))}"


@st.composite
def _aut_nums(draw, asn: int) -> str:
    lines = [f"aut-num: AS{asn}"]
    for direction in ("import", "export"):
        for _ in range(draw(st.integers(0, 6))):
            if draw(st.booleans()):
                afi = draw(st.sampled_from(_AFIS))
                lines.append(f"mp-{direction}: {afi}{draw(_exprs(direction))}")
            else:
                lines.append(f"{direction}: {draw(_exprs(direction))}")
    if not draw(st.integers(0, 7)):
        lines.append("import: from AS2 acceptt ANY")  # a rule that fails to parse
    return "\n".join(lines) + "\n"


_routes = st.tuples(
    st.sampled_from(PREFIXES),
    # Mostly among the ASes that document policies (1-3 generated); 4 and 5
    # have no aut-num, 6 no rules, 7 only an unparsed one.
    st.lists(
        st.sampled_from((1, 2, 3) * 3 + (4, 5, 6, 7)), min_size=2, max_size=4, unique=True
    ).map(tuple),
)
_options = st.builds(
    VerifyOptions,
    relaxations=st.booleans(),
    safelists=st.booleans(),
    hop_cache_size=st.sampled_from((0, 3, 1 << 20)),
)


class TestDifferential:
    @given(
        st.tuples(_aut_nums(1), _aut_nums(2), _aut_nums(3)).map("\n".join),
        st.lists(_routes, min_size=1, max_size=4),
        _options,
    )
    def test_plan_equals_the_plain_rule_walk(self, policies, routes, options):
        # The same verifier sees every route, so a plan built for one route
        # serves the next; hop_cache_size 3 also exercises the wholesale clear.
        assert disagreements(policies, routes, options) == []

    @settings(max_examples=30)
    @given(_aut_nums(1))
    def test_generated_policies_are_rpsl_the_parser_accepts(self, text):
        """Only the deliberately misspelt rule may fail to parse."""
        ir, _ = parse_dump_text(SURROUNDINGS + "\n" + text, "TEST")
        assert len(ir.aut_nums[1].bad_rules) == text.count("acceptt")


# -- named cases, each with the mutant it exists to kill --------------------------

# Three dead peerings per rule: three MatchRemoteAsNum items each.
_DEAD = "import: from AS40 from AS41 from AS42 accept ANY\n"
_LIVE_FAILING = "import: from AS3 accept AS2\n"  # peering TRUE, filter FALSE on AS3's route


def _truncation_policy(before: int, between: int, after: int) -> str:
    return (
        "aut-num: AS1\n"
        + _DEAD * before + _LIVE_FAILING + _DEAD * between + _LIVE_FAILING + _DEAD * after
    )


_ROUTE_2_TO_1 = ("10.1.0.0/16", (1, 2))
_ROUTE_3_TO_1 = ("10.2.0.0/16", (1, 3))  # 1 and 3 are peers: no safelist applies


class TestTruncationAssociativity:
    """Dead rules contributing more than MAX_ITEMS before, between, after live ones."""

    @pytest.mark.parametrize("before", (0, 1, 3, 5))
    @pytest.mark.parametrize("between", (0, 1, 5))
    @pytest.mark.parametrize("after", (0, 2, 5))
    def test_every_layout_equals_the_reference(self, before, between, after):
        policy = _truncation_policy(before, between, after)
        assert disagreements(policy, [_ROUTE_3_TO_1]) == []

    def test_items_are_the_first_twelve_of_the_concatenation(self):
        verifier, _ = build(_truncation_policy(3, 1, 5))
        found = hop(verifier, "import", 3, 1, *_ROUTE_3_TO_1)
        dead = [ReportItem.of(ItemKind.MATCH_REMOTE_AS_NUM, asn=asn) for asn in (40, 41, 42)]
        assert found.items[:9] == tuple(dead * 3)
        assert (found.items[9].kind, found.items[9].asn) == (ItemKind.MATCH_FILTER_AS_NUM, 2)
        assert found.items[10:] == tuple(dead[:2])
        assert found.peer_matched and found.status is VerifyStatus.UNVERIFIED

    def test_mutant_that_forgets_a_run_s_earlier_rules_is_caught(self):
        broken = mutant(
            "live[-1][2] = _merge_items(live[-1][2], residual.items)",
            "live[-1][2] = residual.items",
        )
        assert disagreements(_truncation_policy(0, 2, 0), [_ROUTE_3_TO_1], module=broken)

    def test_mutant_that_drops_the_leading_run_is_caught(self):
        broken = mutant(
            "leading = _merge_items(leading, residual.items)", "leading = ()"
        )
        assert disagreements(_truncation_policy(1, 0, 0), [_ROUTE_3_TO_1], module=broken)

    def test_mutant_that_appends_the_trailing_run_before_the_live_rule_is_caught(self):
        broken = mutant(
            "items = _merge_items(_merge_items(items, evaluated.items), trailing)",
            "items = _merge_items(_merge_items(items, trailing), evaluated.items)",
        )
        assert disagreements(_truncation_policy(0, 1, 0), [_ROUTE_3_TO_1], module=broken)


class TestRuleIndex:
    POLICY = (
        "aut-num: AS1\n"
        "import: from AS40 accept ANY\n"
        "mp-import: afi ipv6.unicast from AS2 accept ANY\n"
        "import: from AS41 accept ANY\n"
        "import: from AS2 accept AS3\n"
        "import: from AS2 accept AS2\n"
    )

    def test_a_live_rule_after_dead_ones_reports_its_own_index(self):
        verifier, _ = build(self.POLICY)
        found = hop(verifier, "import", 2, 1, *_ROUTE_2_TO_1)
        assert (found.status, found.rule_index) == (VerifyStatus.VERIFIED, 4)
        assert found.rule_source == "TEST" and found.items == ()
        assert disagreements(self.POLICY, [_ROUTE_2_TO_1]) == []

    def test_mutant_that_numbers_rules_after_the_afi_drop_is_caught(self):
        broken = mutant(
            "for rule_index, rule in enumerate(rules)\n"
            "            if any(afi.matches_version(version) for afi in rule.effective_afis())",
            "for rule_index, rule in enumerate(\n"
            "                rule for rule in rules\n"
            "                if any(afi.matches_version(version) for afi in rule.effective_afis())\n"
            "            )",
        )
        assert disagreements(self.POLICY, [_ROUTE_2_TO_1], module=broken)


class TestAfiExcludedRest:
    """REFINE/EXCEPT whose afi list excludes the family: ``rest`` is never reached."""

    # On IPv4 each rule is its term alone.  Rule 0's term is dead for remote
    # 2 while its rest would be live (UNREC peering); rule 1's term verifies
    # while its rest would turn the AND false.
    POLICY = (
        "aut-num: AS1\n"
        "mp-import: afi any { from AS5 accept ANY; } REFINE afi ipv6.unicast"
        " { from AS-GONE accept ANY; }\n"
        "mp-import: afi any { from AS2 accept AS2; } REFINE afi ipv6.unicast"
        " { from AS2 accept AS9; }\n"
    )
    # The same rest sides reached: an EXCEPT with no afi list.
    REACHED = (
        "aut-num: AS1\n"
        "import: { from AS5 accept ANY; } EXCEPT { from AS-GONE accept AS9; }\n"
    )

    def test_rest_makes_a_rule_neither_live_nor_dead(self):
        verifier, _ = build(self.POLICY)
        found = hop(verifier, "import", 2, 1, *_ROUTE_2_TO_1)
        assert (found.status, found.rule_index) == (VerifyStatus.VERIFIED, 1)
        plan = verifier._rule_plans[("import", 2, 1, 4)]
        assert [index for index, _, _ in plan.live] == [1]
        assert plan.leading == (ReportItem.of(ItemKind.MATCH_REMOTE_AS_NUM, asn=5),)
        routes = [_ROUTE_2_TO_1, ("2001:db8::/32", (1, 2)), ("10.9.0.0/16", (1, 2))]
        assert disagreements(self.POLICY, routes) == []

    def test_a_reached_rest_does_keep_the_rule_live(self):
        verifier, _ = build(self.REACHED)
        found = hop(verifier, "import", 2, 1, *_ROUTE_2_TO_1)
        assert found.status is VerifyStatus.UNRECORDED
        assert disagreements(self.REACHED, [_ROUTE_2_TO_1]) == []

    def test_mutant_that_always_reaches_rest_is_caught(self):
        broken = mutant(
            "        if expr.afis and not any(afi.matches_version(version) for afi in expr.afis):\n"
            "            # The operator does not constrain",
            "        if False:\n            # The operator does not constrain",
        )
        assert disagreements(self.POLICY, [_ROUTE_2_TO_1], module=broken)


class TestUnrecordedPeeringStaysLive:
    @pytest.mark.parametrize(
        "peering, item",
        [
            ("AS-GONE", ReportItem.of(ItemKind.UNRECORDED_AS_SET, name="AS-GONE")),
            ("AS-HOLE", ReportItem.of(ItemKind.UNRECORDED_AS_SET, name="AS-GONE")),
            ("PRNG-GONE", ReportItem.of(ItemKind.UNRECORDED_PEERING_SET, name="PRNG-GONE")),
            # PRNG-SELF recurses into itself until the depth cap answers UNREC.
            ("PRNG-SELF", ReportItem.of(ItemKind.UNRECORDED_PEERING_SET, name="PRNG-SELF")),
        ],
    )
    def test_rule_is_evaluated_and_reports_unrecorded(self, peering, item):
        policy = f"aut-num: AS1\nimport: from AS40 accept ANY\nimport: from {peering} accept ANY\n"
        verifier, _ = build(policy)
        found = hop(verifier, "import", 2, 1, *_ROUTE_2_TO_1)
        assert found.status is VerifyStatus.UNRECORDED
        assert found.items == (ReportItem.of(ItemKind.MATCH_REMOTE_AS_NUM, asn=40), item)
        assert [index for index, _, _ in verifier._rule_plans[("import", 2, 1, 4)].live] == [1]
        assert disagreements(policy, [_ROUTE_2_TO_1]) == []

    def test_mutant_that_folds_every_unmatched_peering_is_caught(self):
        broken = mutant(
            "if peering_eval.value is Val.FALSE:\n            return factor.filter, _RuleEval",
            "if peering_eval.value is not Val.TRUE:\n            return factor.filter, _RuleEval",
        )
        policy = "aut-num: AS1\nimport: from AS-GONE accept ANY\n"
        assert disagreements(policy, [_ROUTE_2_TO_1], module=broken)


class TestCompoundPeerings:
    POLICY = (
        "aut-num: AS1\n"
        "import: from (AS-A AND AS3) accept ANY\n"      # remote 3 only
        "import: from (AS-ANY EXCEPT AS2) accept AS9\n"  # everyone but 2; filter UNREC
        "import: from (AS-A EXCEPT AS-GONE) accept ANY\n"  # NOT UNREC stays UNREC
    )

    def test_and_except_decide_liveness_per_remote(self):
        verifier, _ = build(self.POLICY)
        verifier.verify_route("10.1.0.0/16", (1, 2))
        verifier.verify_route("10.2.0.0/16", (1, 3))
        verifier.verify_route("10.2.0.0/16", (1, 5, 3))
        live = {
            remote: [index for index, _, _ in verifier._rule_plans[("import", remote, 1, 4)].live]
            for remote in (2, 3, 5)
        }
        assert live == {2: [2], 3: [0, 1, 2], 5: [1]}
        assert hop(verifier, "import", 3, 1, "10.2.0.0/16", (1, 3)).rule_index == 0

    def test_every_remote_equals_the_reference(self):
        routes = [("10.1.0.0/16", (1, 2)), ("10.2.0.0/16", (1, 3)), ("10.2.0.0/16", (1, 5, 3)),
                  ("10.1.0.0/16", (1, 4, 2))]
        assert disagreements(self.POLICY, routes) == []


class TestAddressFamily:
    POLICY = (
        "aut-num: AS1\n"
        "import: from AS2 accept AS3\n"       # plain rule: IPv4 unicast only
        "mp-import: from AS2 accept AS2\n"    # mp- with no afi: any family
    )
    ROUTES = [_ROUTE_2_TO_1, ("2001:db8::/32", (1, 2))]

    def test_mp_rule_without_afi_covers_ipv6_and_keeps_its_index(self):
        verifier, _ = build(self.POLICY)
        for prefix, path in self.ROUTES:
            found = hop(verifier, "import", 2, 1, prefix, path)
            assert (found.status, found.rule_index) == (VerifyStatus.VERIFIED, 1)
        plans = verifier._rule_plans
        assert [index for index, _, _ in plans[("import", 2, 1, 4)].live] == [0, 1]
        assert [index for index, _, _ in plans[("import", 2, 1, 6)].live] == [1]
        assert disagreements(self.POLICY, self.ROUTES) == []

    def test_mutant_that_shares_a_plan_across_families_is_caught(self):
        broken = mutant(
            "key = (direction, from_asn, to_asn, version)",
            "key = (direction, from_asn, to_asn, 4)",
        )
        policy = "aut-num: AS1\nimport: from AS2 accept ANY\n"  # nothing for IPv6
        assert disagreements(policy, self.ROUTES, module=broken)


class TestBadRulesAndSkip:
    def test_only_unparsed_policy_is_a_constant_skip(self):
        verifier, _ = build("")
        found = hop(verifier, "import", 1, 7, "10.3.0.0/16", (7, 1))  # AS7: one bad rule
        assert found.status is VerifyStatus.SKIP
        assert found.items == (ReportItem.of(ItemKind.SKIPPED_BAD_RULE),)
        assert verifier._rule_plans[("import", 1, 7, 4)].verdict is found
        again = hop(verifier, "import", 1, 7, "10.9.0.0/16", (7, 1))
        assert again is found  # no rule to consult: one report for every route

    def test_bad_rule_turns_a_dead_list_into_skip_with_its_evidence(self):
        policy = "aut-num: AS1\n" + _DEAD * 5 + "import: from AS2 acceptt ANY\n"
        verifier, _ = build(policy)
        found = hop(verifier, "import", 2, 1, *_ROUTE_2_TO_1)
        assert found.status is VerifyStatus.SKIP
        # Twelve dead items already fill the report; the marker is cut, as before.
        assert len(found.items) == MAX_ITEMS
        assert ItemKind.SKIPPED_BAD_RULE not in {item.kind for item in found.items}
        assert disagreements(policy, [_ROUTE_2_TO_1]) == []
        assert disagreements(
            "aut-num: AS1\n" + _DEAD + "import: from AS2 acceptt ANY\n", [_ROUTE_2_TO_1]
        ) == []

    def test_live_skip_outranks_unrecorded_and_bad_rules(self):
        policy = (
            "aut-num: AS1\n"
            "import: from AS2 accept AS9\n"                 # UNREC
            "import: from AS2 accept community(65000:1)\n"   # SKIP
            "import: from AS2 acceptt ANY\n"
        )
        verifier, _ = build(policy)
        found = hop(verifier, "import", 2, 1, *_ROUTE_2_TO_1)
        assert found.status is VerifyStatus.SKIP
        assert found.items[-1] == ReportItem.of(ItemKind.SKIPPED_COMMUNITY)
        assert disagreements(policy, [_ROUTE_2_TO_1]) == []

    def test_mutant_that_loses_the_live_value_is_caught(self):
        broken = mutant(
            "            if evaluated.value > value:\n                value = evaluated.value\n",
            "",
        )
        policy = "aut-num: AS1\nimport: from AS2 accept community(65000:1)\n"
        assert disagreements(policy, [_ROUTE_2_TO_1], module=broken)


class TestRelaxationsSeeTheMatchedFilters:
    """The special cases are decided from what the live rules left behind."""

    # 2 is 1's customer and announces a prefix nobody registered: Import
    # Customer applies because rule 1's peering matched and its filter did not.
    POLICY = (
        "aut-num: AS1\n"
        "import: from AS40 accept ANY\n"
        "import: { from AS41 accept ANY; from AS2 accept AS2; }\n"
        "import: from AS42 accept ANY\n"
    )
    ROUTE = ("10.9.0.0/16", (1, 2))

    def test_relaxed_with_dead_rules_on_both_sides(self):
        verifier, _ = build(self.POLICY)
        found = hop(verifier, "import", 2, 1, *self.ROUTE)
        assert found.status is VerifyStatus.RELAXED and found.peer_matched
        assert [item.kind for item in found.items] == [
            ItemKind.MATCH_REMOTE_AS_NUM,  # 40, the leading run
            ItemKind.MATCH_REMOTE_AS_NUM,  # 41, the term's own leading run
            ItemKind.MATCH_FILTER_AS_NUM,
            ItemKind.MATCH_REMOTE_AS_NUM,  # 42, the trailing run
            ItemKind.SPEC_IMPORT_CUSTOMER,
        ]
        assert disagreements(self.POLICY, [self.ROUTE]) == []
        unrelaxed = VerifyOptions(relaxations=False)
        assert disagreements(self.POLICY, [self.ROUTE], unrelaxed) == []

    def test_mutant_that_drops_the_matched_filters_is_caught(self):
        broken = mutant(
            "            matched = _merge_filters(matched, evaluated.peer_matched_filters)\n", ""
        )
        assert disagreements(self.POLICY, [self.ROUTE], module=broken)


class TestPlanStore:
    POLICY = "aut-num: AS1\nimport: from AS2 accept AS2\nimport: from AS3 accept ANY\n"
    ROUTES = [("10.1.0.0/16", (1, 2)), ("10.1.2.0/24", (1, 2)), ("10.9.0.0/16", (1, 2))]

    def _counts(self, options):
        with use_registry(MetricsRegistry()) as registry:
            verifier, _ = build(self.POLICY, options)
            for prefix, path in self.ROUTES:
                verifier.verify_route(prefix, path)
            snapshot = registry.snapshot()
        counts = {
            record["labels"]["result"]: record["value"]
            for record in snapshot["counters"]
            if record["name"] == "verify_rule_plans_total"
        }
        return verifier, counts

    def test_one_plan_serves_every_route_of_a_hop(self):
        verifier, counts = self._counts(None)
        # Two directions of one hop, three routes: two plans.  AS2 has no
        # aut-num, so its export plan is a verdict and answers the later two
        # routes before their hop-cache probe; the import plan serves their
        # two misses.
        assert counts == {"built": 2, "hit": 2, "verdict": 2}
        assert set(verifier._rule_plans) == {("export", 2, 1, 4), ("import", 2, 1, 4)}

    def test_hop_cache_size_zero_keeps_neither_store(self):
        options = VerifyOptions(hop_cache_size=0)
        verifier, counts = self._counts(options)
        assert counts == {"built": 6, "hit": 0, "verdict": 0}
        assert verifier._rule_plans == {} and verifier._hop_cache == {}
        assert verifier._reports == {}  # nor the interned reports
        assert disagreements(self.POLICY, self.ROUTES, options) == []

    def test_store_is_cleared_wholesale_at_capacity(self):
        verifier, _ = build(self.POLICY, VerifyOptions(hop_cache_size=2))
        cleared: list[str] = []

        class Store(dict):
            def __init__(self, name):
                self.name = name

            def clear(self):
                cleared.append(self.name)
                super().clear()

        verifier._rule_plans, verifier._reports = Store("plans"), Store("reports")
        verifier.verify_route("10.1.0.0/16", (1, 2, 3))  # four distinct hops
        assert 0 < len(verifier._rule_plans) <= 2
        assert 0 < len(verifier._reports) <= 2
        # Each clear of the plans takes the interned reports with it.
        assert "plans" in cleared
        assert all(
            cleared[at + 1 : at + 2] == ["reports"]
            for at, name in enumerate(cleared)
            if name == "plans"
        )
        routes = [("10.1.0.0/16", (1, 2, 3)), ("10.1.0.0/16", (3, 1, 2))]
        assert disagreements(self.POLICY, routes, VerifyOptions(hop_cache_size=2)) == []

    def test_plans_are_not_handed_to_the_next_verifier(self):
        first, second = build(self.POLICY)
        first.verify_route("10.1.0.0/16", (1, 2))
        second.adopt_hop_cache(first, None)
        assert first._rule_plans and second._rule_plans == {}

    def test_only_verdict_plans_outlive_a_clean_patch(self):
        first, second = build(self.POLICY)
        first.verify_route("10.1.0.0/16", (1, 2))
        nothing = frozenset()
        second.adopt_hop_cache(
            first, PatchEffects(nothing, nothing, nothing, nothing, nothing, nothing)
        )
        export = ("export", 2, 1, 4)  # AS2 has no aut-num: a verdict
        assert first._rule_plans.keys() == {export, ("import", 2, 1, 4)}
        assert second._rule_plans == {export: first._rule_plans[export]}


class TestAppendixCUnchanged:
    """``Session.explain`` deep chains and the skip census on the paper's example."""

    def test_explain_chains_rules_and_census(self):
        import test_appendix_c as appendix

        ir, _ = parse_dump_text(appendix.DUMP, "RADB")
        relationships = AsRelationships.from_as_rel_text(appendix.AS_REL)
        relationships.tier1 = {1299, 3257}
        with api.open_session(ir, as_rel=relationships) as session:
            report, events = session.explain(appendix.PREFIX, appendix.PATH)
        hops = [event for event in events if event["kind"] == "hop"]
        assert len(hops) == len(report.hops) == 10
        assert not any(event["cached"] for event in hops)
        found = {
            (event["direction"], event["from"], event["to"]): (
                event.get("chain"), event.get("rule")
            )
            for event in hops
        }
        # Pinned from the rule-walking verifier: a chain exists exactly where
        # a factor's peering covered the remote AS, so a filter was evaluated.
        assert found == {
            ("export", 141893, 56239): (None, None),
            ("import", 141893, 56239): (None, None),
            ("export", 56239, 133840): (["AS56239 -> false"], None),
            ("import", 56239, 133840): (None, None),
            ("export", 133840, 6939): (None, None),
            ("import", 133840, 6939): (["ANY -> true"], 0),
            ("export", 6939, 1299): (["ANY -> true"], 0),
            ("import", 6939, 1299): (["ANY -> true"], 0),
            ("export", 1299, 3257): (
                [
                    "AS1299:AS-TWELVE99-CUSTOMER-V4 -> unrec",
                    "AS1299:AS-TWELVE99-PEER-V4 -> unrec",
                    "OR -> unrec",
                ],
                None,
            ),
            ("import", 1299, 3257): (None, None),
        }
        parts = Verifier(ir, relationships)
        assert report.hops == reference_hops(parts, appendix.PREFIX, appendix.PATH)
        assert dict(rule_skip_census(ir)) == {"unparsed": 0, "total": 17, "skipped": 0}
