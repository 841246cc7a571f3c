"""Filter evaluation against observed routes (four-valued logic).

A filter check can conclude more than true/false: it may be undecidable
because the rule uses a construct the verifier skips (BGP communities,
unsupported regex operators), or because it references objects missing
from the IRRs.  Those outcomes map onto the paper's SKIP and UNRECORDED
statuses, so evaluation is four-valued::

    FALSE < UNREC < SKIP < TRUE      (classification priority differs!)

Combinators: AND is FALSE if any side is FALSE, else SKIP if any side is
SKIP, else UNREC if any, else TRUE; OR is the dual; NOT swaps TRUE/FALSE
and preserves SKIP/UNREC.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.core.aspath_match import AsPathMatcher
from repro.core.query import QueryEngine
from repro.core.report import ItemKind, ReportItem, _op_label
from repro.net.prefix import Prefix, RangeOp
from repro.rpsl.aspath import regex_flags
from repro.rpsl.filter import (
    Filter,
    FilterAnd,
    FilterAny,
    FilterAsn,
    FilterAsPathRegex,
    FilterAsSet,
    FilterCommunity,
    FilterFltrSetRef,
    FilterNot,
    FilterOr,
    FilterPeerAs,
    FilterPrefixSet,
    FilterRouteSet,
)

__all__ = [
    "MAX_ITEMS",
    "MAX_TRACE_STEPS",
    "Val",
    "Eval",
    "MatchContext",
    "FilterEvaluator",
]

# Evidence items per evaluation are capped here, *during* combination —
# reports themselves cap at the same bound, so truncating the (prefix of
# the) concatenation early changes nothing downstream while keeping the
# combinators from allocating unbounded intermediate tuples.
MAX_ITEMS = 12

# Deep traces record at most this many evaluation steps per hop; pathological
# rules (huge OR chains) would otherwise dominate the trace file.
MAX_TRACE_STEPS = 48


def _op_suffix(op: RangeOp | None) -> str:
    label = _op_label(op)
    if label is None or label == "NoOp":
        return ""
    return label


def _describe(node: Filter) -> str:
    """A compact, stable one-line spelling of a filter node for traces."""
    if isinstance(node, FilterAny):
        return "ANY"
    if isinstance(node, FilterPeerAs):
        return "PeerAS"
    if isinstance(node, FilterAsn):
        return f"AS{node.asn}{_op_suffix(node.op)}"
    if isinstance(node, FilterAsSet):
        return f"{node.name}{_op_suffix(node.op)}"
    if isinstance(node, FilterRouteSet):
        return f"{node.name}{_op_suffix(node.op)}"
    if isinstance(node, FilterPrefixSet):
        return f"{{{len(node.members)} prefixes}}{_op_suffix(node.op)}"
    if isinstance(node, FilterFltrSetRef):
        return node.name
    if isinstance(node, FilterAsPathRegex):
        return "<as-path-regex>"
    if isinstance(node, FilterCommunity):
        return f"community({', '.join(node.args)})"
    if isinstance(node, FilterAnd):
        return "AND"
    if isinstance(node, FilterOr):
        return "OR"
    if isinstance(node, FilterNot):
        return "NOT"
    return type(node).__name__


class Val(IntEnum):
    """Four-valued evaluation result."""

    FALSE = 0
    UNREC = 1
    SKIP = 2
    TRUE = 3


def _merge_items(
    left: tuple[ReportItem, ...], right: tuple[ReportItem, ...]
) -> tuple[ReportItem, ...]:
    """Concatenate evidence, reusing either side when the other is empty.

    Millions of hop checks combine evals whose sides carry no items at
    all; short-circuiting those avoids allocating a fresh tuple per
    combinator call on the hot path.
    """
    if not right:
        return left
    if not left:
        return right
    room = MAX_ITEMS - len(left)
    if room <= 0:
        return left
    return left + right[:room]


def _and(left: "Eval", right: "Eval") -> "Eval":
    if left.value is Val.FALSE or right.value is Val.FALSE:
        return Eval(Val.FALSE, _merge_items(left.items, right.items))
    if Val.SKIP in (left.value, right.value):
        return Eval(Val.SKIP, _merge_items(left.items, right.items))
    if Val.UNREC in (left.value, right.value):
        return Eval(Val.UNREC, _merge_items(left.items, right.items))
    return Eval(Val.TRUE)


def _or(left: "Eval", right: "Eval") -> "Eval":
    if left.value is Val.TRUE or right.value is Val.TRUE:
        return Eval(Val.TRUE)
    if Val.SKIP in (left.value, right.value):
        return Eval(Val.SKIP, _merge_items(left.items, right.items))
    if Val.UNREC in (left.value, right.value):
        return Eval(Val.UNREC, _merge_items(left.items, right.items))
    return Eval(Val.FALSE, _merge_items(left.items, right.items))


@dataclass(frozen=True, slots=True)
class Eval:
    """A value plus the evidence items explaining a non-TRUE outcome."""

    value: Val
    items: tuple[ReportItem, ...] = ()

    def and_(self, other: "Eval") -> "Eval":
        """Four-valued conjunction (FALSE dominates, then SKIP, UNREC)."""
        return _and(self, other)

    def or_(self, other: "Eval") -> "Eval":
        """Four-valued disjunction (TRUE dominates, then SKIP, UNREC)."""
        return _or(self, other)

    def not_(self) -> "Eval":
        """Negation: swaps TRUE/FALSE, preserves SKIP and UNREC."""
        if self.value is Val.TRUE:
            return Eval(Val.FALSE)
        if self.value is Val.FALSE:
            return Eval(Val.TRUE)
        return self


@dataclass(frozen=True, slots=True)
class MatchContext:
    """What one rule check sees of the route.

    ``as_path`` is the sub-path from the announcing AS to the origin
    (origin-last), which is the AS_PATH the subject AS observes for this
    hop; ``peer_asn`` is the remote AS of the rule (resolves ``PeerAS``).
    """

    prefix: Prefix
    as_path: tuple[int, ...]
    peer_asn: int
    self_asn: int
    communities: frozenset[tuple[int, int]] = frozenset()

    @property
    def origin(self) -> int:
        """The route's origin AS."""
        return self.as_path[-1]


class FilterEvaluator:
    """Evaluates filter ASTs through a query engine and a regex matcher."""

    def __init__(
        self,
        query: QueryEngine,
        matcher: AsPathMatcher | None = None,
        handle_asn_ranges: bool = False,
        handle_same_pattern: bool = False,
        community_matches: bool = False,
    ):
        self.query = query
        self.matcher = matcher if matcher is not None else AsPathMatcher(query)
        self.handle_asn_ranges = handle_asn_ranges
        self.handle_same_pattern = handle_same_pattern
        self.community_matches = community_matches
        # Guards against cyclic filter-set definitions (FLTR-A -> FLTR-B ->
        # FLTR-A), which would otherwise recurse without bound.
        self._filter_set_stack: set[str] = set()
        # Deep-trace sink: when set (by Verifier._miss), every
        # evaluate() call appends "node -> outcome" to it.  None on the hot
        # path, so untraced evaluation pays one attribute load per node.
        self._trace: list[str] | None = None

    def begin_trace(self, sink: list[str]) -> None:
        """Record each evaluation step into ``sink`` until :meth:`end_trace`."""
        self._trace = sink

    def end_trace(self) -> None:
        """Stop recording evaluation steps (see :meth:`begin_trace`)."""
        self._trace = None

    def evaluate(self, node: Filter, ctx: MatchContext) -> Eval:
        """Evaluate one filter node against the route context."""
        trace = self._trace
        if trace is None:
            return self._evaluate(node, ctx)
        result = self._evaluate(node, ctx)
        if len(trace) < MAX_TRACE_STEPS:
            trace.append(f"{_describe(node)} -> {result.value.name.lower()}")
        return result

    def _evaluate(self, node: Filter, ctx: MatchContext) -> Eval:
        if isinstance(node, FilterAny):
            return Eval(Val.TRUE)
        if isinstance(node, FilterPeerAs):
            return self._eval_asn(ctx.peer_asn, RangeOp(), ctx)
        if isinstance(node, FilterAsn):
            return self._eval_asn(node.asn, node.op, ctx)
        if isinstance(node, FilterAsSet):
            return self._eval_as_set(node, ctx)
        if isinstance(node, FilterRouteSet):
            return self._eval_route_set(node, ctx)
        if isinstance(node, FilterPrefixSet):
            return self._eval_prefix_set(node, ctx)
        if isinstance(node, FilterFltrSetRef):
            return self._eval_filter_set(node, ctx)
        if isinstance(node, FilterAsPathRegex):
            return self._eval_regex(node, ctx)
        if isinstance(node, FilterCommunity):
            if self.community_matches:
                return self._eval_community(node, ctx)
            return Eval(Val.SKIP, (ReportItem.of(ItemKind.SKIPPED_COMMUNITY),))
        if isinstance(node, FilterAnd):
            return self.evaluate(node.left, ctx).and_(self.evaluate(node.right, ctx))
        if isinstance(node, FilterOr):
            return self.evaluate(node.left, ctx).or_(self.evaluate(node.right, ctx))
        if isinstance(node, FilterNot):
            return self.evaluate(node.inner, ctx).not_()
        raise TypeError(f"unknown filter node {node!r}")

    def _eval_asn(self, asn: int, op: RangeOp, ctx: MatchContext) -> Eval:
        if not self.query.has_any_routes(asn):
            return Eval(
                Val.UNREC, (ReportItem.of(ItemKind.UNRECORDED_AS_ROUTES, asn=asn),)
            )
        if self.query.asn_route_match(asn, ctx.prefix, op):
            return Eval(Val.TRUE)
        return Eval(
            Val.FALSE, (ReportItem.of(ItemKind.MATCH_FILTER_AS_NUM, asn=asn, op=op),)
        )

    def _eval_as_set(self, node: FilterAsSet, ctx: MatchContext) -> Eval:
        if node.any_member:
            return Eval(Val.TRUE)
        resolution = self.query.flatten_as_set(node.name)
        if self.query.as_set_route_match(node.name, ctx.prefix, node.op):
            return Eval(Val.TRUE)
        if not resolution.recorded:
            return Eval(
                Val.UNREC,
                (ReportItem.of(ItemKind.UNRECORDED_AS_SET, name=node.name),),
            )
        if resolution.unrecorded:
            items = tuple(
                ReportItem.of(ItemKind.UNRECORDED_AS_SET, name=missing)
                for missing in resolution.unrecorded[:4]
            )
            return Eval(Val.UNREC, items)
        return Eval(
            Val.FALSE,
            (ReportItem.of(ItemKind.MATCH_FILTER_AS_SET, name=node.name, op=node.op),),
        )

    def _eval_route_set(self, node: FilterRouteSet, ctx: MatchContext) -> Eval:
        if node.any_member:
            return Eval(Val.TRUE)
        resolution = self.query.resolve_route_set(node.name)
        if self.query.route_set_match(node.name, ctx.prefix, node.op):
            return Eval(Val.TRUE)
        if not resolution.recorded:
            return Eval(
                Val.UNREC,
                (ReportItem.of(ItemKind.UNRECORDED_ROUTE_SET, name=node.name),),
            )
        if resolution.unrecorded:
            items = tuple(
                ReportItem.of(ItemKind.UNRECORDED_ROUTE_SET, name=missing)
                for missing in resolution.unrecorded[:4]
            )
            return Eval(Val.UNREC, items)
        return Eval(
            Val.FALSE,
            (ReportItem.of(ItemKind.MATCH_FILTER_ROUTE_SET, name=node.name, op=node.op),),
        )

    def _eval_prefix_set(self, node: FilterPrefixSet, ctx: MatchContext) -> Eval:
        outer = node.op
        for declared, member_op in node.members:
            effective = member_op.compose(outer)
            if declared.matches_with_op(ctx.prefix, effective):
                return Eval(Val.TRUE)
        return Eval(Val.FALSE, (ReportItem.of(ItemKind.MATCH_FILTER_PREFIXES),))

    def _eval_community(self, node: FilterCommunity, ctx: MatchContext) -> Eval:
        """Match a community filter against observed community tags.

        Off by default (the paper skips these because intermediate ASes may
        strip communities); with ``community_matches`` the semantics are
        RFC 2622's: ``community(...)``/``community.contains(...)`` match
        when every listed tag is attached to the route.
        """
        if node.method not in ("", "contains"):
            return Eval(Val.SKIP, (ReportItem.of(ItemKind.SKIPPED_COMMUNITY),))
        wanted: set[tuple[int, int]] = set()
        for argument in node.args:
            high, _, low = argument.partition(":")
            if not (high.isdigit() and low.isdigit()):
                return Eval(Val.SKIP, (ReportItem.of(ItemKind.SKIPPED_COMMUNITY),))
            wanted.add((int(high), int(low)))
        if wanted <= ctx.communities:
            return Eval(Val.TRUE)
        return Eval(Val.FALSE, (ReportItem.of(ItemKind.SKIPPED_COMMUNITY),))

    def _eval_filter_set(self, node: FilterFltrSetRef, ctx: MatchContext) -> Eval:
        resolved = self.query.resolve_filter_set(node.name)
        if resolved is None or node.name in self._filter_set_stack:
            return Eval(
                Val.UNREC,
                (ReportItem.of(ItemKind.UNRECORDED_FILTER_SET, name=node.name),),
            )
        self._filter_set_stack.add(node.name)
        try:
            return self.evaluate(resolved, ctx)
        finally:
            self._filter_set_stack.discard(node.name)

    def _eval_regex(self, node: FilterAsPathRegex, ctx: MatchContext) -> Eval:
        has_range, has_same_pattern = regex_flags(node.regex)
        if has_range and not self.handle_asn_ranges:
            return Eval(Val.SKIP, (ReportItem.of(ItemKind.SKIPPED_REGEX_RANGE),))
        if has_same_pattern and not self.handle_same_pattern:
            return Eval(Val.SKIP, (ReportItem.of(ItemKind.SKIPPED_REGEX_TILDE),))
        result = self.matcher.match(node.regex, ctx.as_path, ctx.peer_asn)
        trace = self._trace
        if trace is not None and len(trace) < MAX_TRACE_STEPS:
            detail = f"as-path-regex: {result.candidates_tried} candidate(s)"
            if result.approximate:
                detail += ", approximate"
            trace.append(detail)
        if result.matched:
            return Eval(Val.TRUE)
        if result.unrecorded_sets:
            items = tuple(
                ReportItem.of(ItemKind.UNRECORDED_AS_SET, name=missing)
                for missing in result.unrecorded_sets[:4]
            )
            return Eval(Val.UNREC, items)
        return Eval(Val.FALSE, (ReportItem.of(ItemKind.MATCH_FILTER_AS_PATH),))
