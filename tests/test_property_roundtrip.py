"""Property-based tests: generated ASTs round-trip through the parser,
and index structures agree with brute-force oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st
from prefix_oracle import op_index

from repro.ir.model import AutNum, Ir, RouteObject
from repro.net.prefix import Prefix, RangeOp, RangeOpKind
from repro.rpsl.filter import (
    FilterAnd,
    FilterAny,
    FilterAsn,
    FilterAsSet,
    FilterNot,
    FilterOr,
    FilterPeerAs,
    FilterPrefixSet,
    FilterRouteSet,
    parse_filter_text,
)
from repro.rpsl.peering import (
    PeerAnd,
    PeerAny,
    PeerAsn,
    PeerAsSet,
    PeerExcept,
    PeerOr,
    Peering,
    parse_peering_text,
)
from repro.rpsl.policy import PeeringAction, PolicyFactor, PolicyRule, PolicyTerm, parse_policy

# -- strategies --------------------------------------------------------------

range_ops = st.one_of(
    st.just(RangeOp()),
    st.just(RangeOp(RangeOpKind.MINUS)),
    st.just(RangeOp(RangeOpKind.PLUS)),
    st.integers(0, 32).map(lambda n: RangeOp(RangeOpKind.EXACT, n, n)),
    st.tuples(st.integers(0, 30), st.integers(0, 4)).map(
        lambda lohi: RangeOp(RangeOpKind.RANGE, lohi[0], lohi[0] + lohi[1] + 1)
    ),
)

v4_prefixes = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(0, 32)
).map(lambda t: Prefix(4, (t[0] >> (32 - t[1])) << (32 - t[1]) if t[1] else 0, t[1]))

set_names = st.integers(0, 50).map(lambda n: f"AS-SET{n}")

filter_atoms = st.one_of(
    st.just(FilterAny()),
    st.just(FilterPeerAs()),
    st.builds(FilterAsn, st.integers(1, 2**32 - 1), range_ops),
    st.builds(FilterAsSet, set_names, range_ops),
    st.builds(FilterRouteSet, st.integers(0, 50).map(lambda n: f"RS-SET{n}"), range_ops),
    st.builds(
        lambda members, op: FilterPrefixSet(tuple(members), op),
        st.lists(st.tuples(v4_prefixes, range_ops), min_size=0, max_size=3),
        range_ops,
    ),
)

filters = st.recursive(
    filter_atoms,
    lambda children: st.one_of(
        st.builds(FilterAnd, children, children),
        st.builds(FilterOr, children, children),
        st.builds(FilterNot, children),
    ),
    max_leaves=6,
)

as_exprs = st.recursive(
    st.one_of(
        st.just(PeerAny()),
        st.builds(PeerAsn, st.integers(1, 2**32 - 1)),
        st.builds(PeerAsSet, set_names),
    ),
    lambda children: st.one_of(
        st.builds(PeerAnd, children, children),
        st.builds(PeerOr, children, children),
        st.builds(PeerExcept, children, children),
    ),
    max_leaves=5,
)

peerings = st.builds(Peering, as_exprs)

# Policy rules, aut-nums and whole IRs, for the codec and export tests.
prefix_sets = st.builds(
    lambda members, op: FilterPrefixSet(tuple(members), op),
    st.lists(st.tuples(v4_prefixes, range_ops), max_size=4),
    range_ops,
)

policy_rules = st.builds(
    lambda kind, pairs, braced, raw: PolicyRule(
        kind,
        PolicyTerm(
            tuple(PolicyFactor((PeeringAction(peering),), node) for peering, node in pairs),
            braced=braced,
        ),
        raw=raw,
    ),
    st.sampled_from(["import", "export"]),
    st.lists(st.tuples(peerings, st.one_of(filters, prefix_sets)), min_size=1, max_size=3),
    st.booleans(),
    st.text(max_size=6),
)

aut_nums = st.builds(
    AutNum,
    asn=st.integers(1, 2**32 - 1),
    as_name=st.text(max_size=8),
    imports=st.lists(policy_rules, max_size=3),
    exports=st.lists(policy_rules, max_size=2),
    member_of=st.lists(st.text(max_size=6), max_size=2),
)

irs = st.builds(
    lambda nums, routes: Ir(
        aut_nums={aut_num.asn: aut_num for aut_num in nums}, route_objects=routes
    ),
    st.lists(aut_nums, max_size=3),
    st.lists(
        st.builds(RouteObject, prefix=v4_prefixes, origin=st.integers(1, 2**32 - 1)),
        max_size=4,
    ),
)


# -- round-trip properties ---------------------------------------------------


@given(filters)
@settings(max_examples=200)
def test_filter_roundtrip(node):
    text = node.to_rpsl()
    assert parse_filter_text(text).to_rpsl() == text


@given(peerings)
@settings(max_examples=200)
def test_peering_roundtrip(peering):
    text = peering.to_rpsl()
    assert parse_peering_text(text).to_rpsl() == text


@given(
    st.lists(st.tuples(peerings, filters), min_size=1, max_size=3),
    st.sampled_from(["import", "export"]),
)
@settings(max_examples=100)
def test_policy_roundtrip(pairs, kind):
    factors = tuple(
        PolicyFactor((PeeringAction(peering),), filter_node)
        for peering, filter_node in pairs
    )
    term = PolicyTerm(factors, braced=len(factors) > 1)
    text = term.to_rpsl(kind)
    parsed = parse_policy(kind, text)
    assert parsed.expr.to_rpsl(kind) == text


# -- index oracle ---------------------------------------------------------


@given(
    st.lists(st.tuples(v4_prefixes, range_ops), min_size=0, max_size=12),
    v4_prefixes,
)
@settings(max_examples=300)
def test_prefix_op_index_matches_bruteforce(entries, probe):
    index = op_index(entries)
    expected = any(declared.matches_with_op(probe, op) for declared, op in entries)
    assert index.matches(probe) == expected


@given(
    st.lists(st.tuples(v4_prefixes, range_ops), min_size=1, max_size=8),
    v4_prefixes,
    range_ops,
)
@settings(max_examples=200)
def test_prefix_op_index_override_oracle(entries, probe, override):
    index = op_index(entries)
    if override.kind is RangeOpKind.NONE:
        expected = any(d.matches_with_op(probe, op) for d, op in entries)
    else:
        expected = any(d.matches_with_op(probe, override) for d, _ in entries)
    assert index.matches(probe, override) == expected


# -- filter-evaluation consistency ------------------------------------------


@given(filters)
@settings(max_examples=100)
def test_filter_evaluation_total(node):
    """Every generated filter evaluates without raising, to a defined Val."""
    from repro.core.filter_match import FilterEvaluator, MatchContext, Val
    from repro.core.compiled import compile_index
    from repro.core.query import QueryEngine
    from repro.ir.model import Ir

    ir = Ir()
    evaluator = FilterEvaluator(QueryEngine(ir, compile_index(ir)))
    ctx = MatchContext(Prefix.parse("203.0.113.0/24"), (65001, 65000), 65001, 65010)
    outcome = evaluator.evaluate(node, ctx)
    assert outcome.value in tuple(Val)


@given(filters)
@settings(max_examples=100)
def test_double_negation_preserves_decided_value(node):
    from repro.core.filter_match import FilterEvaluator, MatchContext, Val
    from repro.core.compiled import compile_index
    from repro.core.query import QueryEngine
    from repro.ir.model import Ir

    ir = Ir()
    evaluator = FilterEvaluator(QueryEngine(ir, compile_index(ir)))
    ctx = MatchContext(Prefix.parse("203.0.113.0/24"), (65001, 65000), 65001, 65010)
    plain = evaluator.evaluate(node, ctx)
    doubled = evaluator.evaluate(FilterNot(FilterNot(node)), ctx)
    assert plain.value == doubled.value
