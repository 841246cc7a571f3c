"""The route verifier: Section 5's per-hop status classification.

For each BGP route ⟨P, A⟩ the verifier removes prepending, walks the path
from the origin, and for each adjacent pair ⟨X → Y⟩ checks X's export
rules and Y's import rules.  Every check is classified, in order, as:

1. **verified** — a rule strictly matches (peering covers the remote AS
   and the filter covers ⟨P, sub-path⟩ for the route's address family);
2. **skip** — the only potentially-matching rules use constructs the
   verifier does not evaluate (community filters, regex ASN ranges or
   same-pattern operators, rules that failed to parse);
3. **unrecorded** — information is missing from the IRRs (no aut-num, no
   rules in the checked direction, filters referencing zero-route ASes or
   undefined sets);
4. **relaxed** — a Section 5.1.1 filter relaxation applies;
5. **safelisted** — a Section 5.1.2 relationship safelist applies;
6. **unverified** — none of the above: a genuine mismatch.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Any

from repro.bgp.table import RouteEntry
from repro.bgp.topology import AsRelationships
from repro.core.aspath_match import AsPathMatcher
from repro.core.compiled import CompiledIndex, PatchEffects, compile_index
from repro.core.filter_match import (
    MAX_ITEMS,
    Eval,
    FilterEvaluator,
    MatchContext,
    Val,
    _merge_items,
)
from repro.core.peering_match import PeeringEvaluator
from repro.core.query import QueryEngine
from repro.core.report import HopReport, ItemKind, ReportItem, RouteReport
from repro.core.special import SpecialCaseChecker
from repro.core.status import VerifyStatus
from repro.gcpause import cyclic_gc_paused
from repro.ir.model import AutNum, Ir
from repro.net.prefix import Prefix, RangeOp, RangeOpKind
from repro.obs import get_registry
from repro.obs.trace import RouteTrace, get_tracer
from repro.rpsl.aspath import regex_flags
from repro.rpsl.filter import Filter, FilterAsPathRegex, FilterCommunity
from repro.rpsl.policy import (
    PolicyExcept,
    PolicyExpr,
    PolicyFactor,
    PolicyRefine,
    PolicyRule,
    PolicyTerm,
)
from repro.rpsl.walk import iter_filter_nodes, iter_policy_factors

if TYPE_CHECKING:
    from repro.stats.verification import VerificationStats

__all__ = ["VerifyOptions", "Verifier", "rule_skip_census", "verify_into"]

_MAX_ITEMS = MAX_ITEMS  # single source of truth: repro.core.filter_match

# Why a cached hop check did not survive a journal apply (the label set of
# verify_hop_cache_invalidated_total).
_INVALIDATION_REASONS = ("subject", "prefix", "origin-flip", "full")

# The two checks of a hop, in report order.
_DIRECTIONS = ("export", "import")

# "A route object at the prefix or anywhere above it", as a range operator.
_ANY_COVER = RangeOp(RangeOpKind.PLUS)


@dataclass(frozen=True, slots=True)
class VerifyOptions:
    """Verification knobs.

    Defaults reproduce the paper; the ablation benchmarks flip
    ``relaxations``/``safelists`` off and the regex extensions on.
    """

    relaxations: bool = True
    safelists: bool = True
    handle_asn_ranges: bool = False
    handle_same_pattern: bool = False
    # Match community(...) filters against observed community tags instead
    # of skipping the rule.  The paper skips (communities may be stripped
    # in flight); the synthetic world controls stripping, so this is an
    # ablation knob here.
    community_matches: bool = False
    # Hop-check memoization: the same ⟨direction, hop, prefix, sub-path⟩
    # recurs across collectors and peers; caching the classification is
    # what makes bulk verification amortize (0 disables).  Entries outlive
    # an index generation: a journal apply hands the cache to the next
    # verifier minus what the journal can reach (Verifier.adopt_hop_cache).
    # The same figure bounds the verifier's other two stores, the rule plans
    # (one per ⟨subject, direction, family, remote AS⟩) and the interned
    # reports (one per verdict value), which every pass over a generation
    # shares (Verifier.for_pass): each cleared wholesale at capacity, the
    # reports with the plans too, neither kept at 0, neither handed over.
    hop_cache_size: int = 1 << 20


@dataclass(slots=True)
class _RuleEval:
    """Evaluation of one rule (or policy sub-expression) for one route."""

    value: Val
    items: tuple[ReportItem, ...] = ()
    # Filters whose factor's peering matched but whose check failed — the
    # precondition for the relaxed-filter special cases.
    peer_matched_filters: tuple[Filter, ...] = ()


def _merge_filters(
    left: tuple[Filter, ...], right: tuple[Filter, ...]
) -> tuple[Filter, ...]:
    """Combine peer-matched filter lists, reusing a side when one is empty."""
    if not right:
        return left
    if not left:
        return right
    return (left + right)[:_MAX_ITEMS]


def _combine_or(left: _RuleEval, right: _RuleEval) -> _RuleEval:
    merged = Eval(left.value, left.items).or_(Eval(right.value, right.items))
    return _RuleEval(
        merged.value,
        merged.items,
        _merge_filters(left.peer_matched_filters, right.peer_matched_filters),
    )


def _combine_and(left: _RuleEval, right: _RuleEval) -> _RuleEval:
    merged = Eval(left.value, left.items).and_(Eval(right.value, right.items))
    return _RuleEval(
        merged.value,
        merged.items,
        _merge_filters(left.peer_matched_filters, right.peer_matched_filters),
    )


# -- rule lists specialised on the remote AS -----------------------------------
#
# A peering is evaluated against the remote AS alone, so for a fixed
# ⟨subject AS, direction, address family, remote AS⟩ everything about a rule
# list except its filters is known before any route is seen.  A factor none
# of whose peerings evaluates non-FALSE is *dead*: its filter is never read
# and it contributes ``_RuleEval(FALSE, <peering evidence>)`` whatever the
# route.  A term of dead factors is dead, REFINE/EXCEPT of dead sides (the
# ``rest`` side only where its afi list reaches the family) is dead, and a
# rule whose expression is dead is dead.
#
# **Why folding a run of dead steps into one constant is exact.**  Both the
# rule loop and the factor loop compute ``OR(...OR(OR(x0, x1), x2)..., xn)``
# and stop at the first TRUE.  On evals that are not TRUE, OR is
#
#     value  = max of the sides in  FALSE < UNREC < SKIP
#     items  = the first MAX_ITEMS of  left.items + right.items
#     peer_matched_filters = the first MAX_ITEMS of the concatenation
#
# (``_merge_items`` and ``_merge_filters``; every eval enters with at most
# MAX_ITEMS of each, so "left, then as much of right as fits" *is* the
# truncated concatenation).  ``max`` is associative, and so is truncated
# concatenation — ``((a + b)[:M] + c)[:M] == (a + b + c)[:M] ==
# (a + (b + c)[:M])[:M]`` — hence ``OR(OR(x, d1), d2) == OR(x, OR(d1, d2))``.
# A dead step is never TRUE, so it cannot be the step that stops the loop;
# its value FALSE is the identity of ``max`` and it carries no peer-matched
# filter.  A run of dead steps therefore acts on the running eval as one
# append of its own (truncated) concatenated items: ``leading`` before the
# first live step, ``trailing`` after each live one.  Live steps are
# evaluated per route, in their original order, under their original index.


@dataclass(frozen=True, slots=True)
class _TermPlan:
    """A policy term with at least one factor whose peering covers the remote.

    ``live`` holds, per such factor, its filter, its peerings OR-ed for the
    remote (TRUE or UNREC, never FALSE), and the evidence of the dead
    factors between it and the next live one.
    """

    leading: tuple[ReportItem, ...]
    live: tuple[tuple[Filter, Eval, tuple[ReportItem, ...]], ...]


@dataclass(frozen=True, slots=True)
class _PairPlan:
    """``term REFINE rest`` / ``term EXCEPT rest`` with a live side.

    Only built where the operator's afi list reaches the family; elsewhere
    the expression *is* its term.
    """

    combine: Callable[[_RuleEval, _RuleEval], _RuleEval]
    term: "_Residual"
    rest: "_Residual"


# What a policy expression leaves once the remote AS is known: a constant
# (the expression is dead) or a plan that still reads the route.
_Residual = _RuleEval | _TermPlan | _PairPlan


@dataclass(frozen=True, slots=True)
class _RulePlan:
    """One AS's rules in one direction, for one family and one remote AS.

    ``verdict`` is set when no rule can be consulted at all (no aut-num, or
    none in this direction): the report is then the same for every route.
    Otherwise ``aut_num`` is the subject, ``live`` holds ⟨index into its
    rule list, residual expression, evidence of the dead rules after it⟩
    per rule that can still match, and ``leading`` the evidence of the dead
    rules before the first of them.
    """

    verdict: HopReport | None = None
    aut_num: AutNum | None = None
    leading: tuple[ReportItem, ...] = ()
    live: tuple[tuple[int, _TermPlan | _PairPlan, tuple[ReportItem, ...]], ...] = ()


def _fold_dead_runs(
    steps: Iterable[tuple[Any, Any]],
) -> tuple[tuple[ReportItem, ...], tuple[tuple, ...]]:
    """Split ⟨key, residual⟩ steps into ``leading`` and ⟨key, residual, trailing⟩.

    A step whose residual is a constant ``_RuleEval`` is dead; its items
    join the run they sit in (see the fold argument above).
    """
    leading: tuple[ReportItem, ...] = ()
    live: list[list] = []
    for key, residual in steps:
        if type(residual) is not _RuleEval:
            live.append([key, residual, ()])
        elif live:
            live[-1][2] = _merge_items(live[-1][2], residual.items)
        else:
            leading = _merge_items(leading, residual.items)
    return leading, tuple(tuple(step) for step in live)


class _VerifierMetrics:
    """Pre-bound instruments for the verifier's hot path.

    Bound once per :class:`Verifier` so each hop check costs plain method
    calls, never a registry lookup.  A Verifier built under the null
    registry gets no ``_VerifierMetrics`` at all — the disabled cost is one
    ``is None`` branch per hop.
    """

    __slots__ = (
        "registry",
        "status",
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "plan_hits",
        "plans_built",
        "latency",
        "routes",
    )

    def __init__(self, registry):
        self.registry = registry
        # Indexed by VerifyStatus value.
        self.status = [
            registry.counter("verify_hops_total", status=status.label)
            for status in VerifyStatus
        ]
        self.cache_hits = registry.counter("verify_hop_cache_total", result="hit")
        self.cache_misses = registry.counter("verify_hop_cache_total", result="miss")
        self.cache_evictions = registry.counter("verify_hop_cache_evictions_total")
        self.plan_hits = registry.counter("verify_rule_plans_total", result="hit")
        self.plans_built = registry.counter("verify_rule_plans_total", result="built")
        self.latency = registry.histogram("verify_hop_seconds")
        self.routes = registry.counter("verify_routes_total")

    def add_route(self, counts: list[int], hits: int, misses: int, evictions: int) -> None:
        """Publish one route's counts, kept in locals while its hops ran."""
        for counter, count in zip(self.status, counts):
            if count:
                counter.inc(count)
        if hits:
            self.cache_hits.inc(hits)
        if misses:
            self.cache_misses.inc(misses)
        if evictions:
            self.cache_evictions.inc(evictions)

    def ignored(self, reason: str) -> None:
        self.registry.counter("verify_routes_ignored_total", reason=reason).inc()

    def carried(self, kept: int, dropped: dict[str, int]) -> None:
        self.registry.gauge("verify_hop_cache_carried").set(kept)
        for reason, count in dropped.items():
            self.registry.counter(
                "verify_hop_cache_invalidated_total", reason=reason
            ).inc(count)


# What a pass view shares with its verifier (Verifier.for_pass), in __init__'s order.
_SHARED_WITH_PASSES = ("ir", "relationships", "options", "query", "peerings",
                       "special", "_rule_plans", "_reports")


class Verifier:
    """Verifies BGP routes against the policies of one (merged) IR.

    Every lookup reads ``index``, the IR's
    :class:`~repro.core.compiled.CompiledIndex` (compiled here when none
    is given), through a read-only :class:`~repro.core.query.QueryEngine`:
    set closures, route-set members and AS-path programs are resolved
    before the first route, and prefix checks run on the index's flat
    hash planes (a masked handful of probes per ``AS<n>``/route-set match;
    see :mod:`repro.core.prefixtrie`) — for a cache-loaded index,
    memoryviews over the mmap'd artifact, shared page-for-page with every
    pool worker.

    A check that misses the hop cache does not walk the subject's rule
    list: the list is specialised once per ⟨subject AS, direction, address
    family, remote AS⟩ into a *rule plan* — rules outside the family
    dropped, every peering already evaluated, runs of rules the remote AS
    cannot match folded into constants — and only what is left is evaluated
    per route (see "rule lists specialised on the remote AS" in this
    module).  There is no other rule-evaluation path.

    A verdict is *interned*: equal reports are one :class:`HopReport`
    object, so its tally key and renderings are worked out once per
    distinct verdict, not once per hop.

    The stores have different lifetimes.  The hop cache belongs to the
    verdicts, not to one IR snapshot: when a journal is applied
    (:meth:`repro.api.Session.apply_deltas`) the replacement verifier takes
    the cache over through :meth:`adopt_hop_cache`, which drops exactly the
    entries the journal can have changed and keeps the rest warm across
    index generations.  Rule plans, the intern store and the only-provider
    memo are a pure function of one IR generation: this verifier lends them
    to its :meth:`for_pass` views and never hands them over, so a new one
    starts with none (plans and reports bounded by ``hop_cache_size``).
    """

    def __init__(
        self,
        ir: Ir,
        relationships: AsRelationships,
        options: VerifyOptions | None = None,
        index: CompiledIndex | None = None,
    ):
        self.ir = ir
        self.relationships = relationships
        self.options = options if options is not None else VerifyOptions()
        self.query = QueryEngine(ir, index if index is not None else compile_index(ir))
        self.peerings = PeeringEvaluator(self.query)
        self.special = SpecialCaseChecker(self.query, relationships)
        # ⟨direction, from, to, family⟩ -> the subject's rules specialised on
        # the remote AS.  A pure function of this verifier's IR, so it lives
        # as long as the verifier does and is shared with its pass views.
        self._rule_plans: dict[tuple[str, int, int, int], _RulePlan] = {}
        # A report's value -> the one report object of that value (_finish).
        self._reports: dict[tuple, HopReport] = {}
        self._begin_pass(AsPathMatcher(self.query))

    def for_pass(self) -> "Verifier":
        """A *pass view* of this verifier, for one table pass or one replay.

        It shares the rule plans, the interned reports and the only-provider
        memo, so a plan is built once per generation, not once per pass; its
        hop cache, counters, registry and tracer are its own, as a new
        verifier's would be.
        """
        # Not copy.copy: reading ``__dict__`` moves both objects off CPython's
        # inline attribute storage, and every hot ``self.`` lookup slows down.
        view = object.__new__(type(self))
        for name in _SHARED_WITH_PASSES:
            setattr(view, name, getattr(self, name))
        view._begin_pass(self.filters.matcher)
        return view

    def _begin_pass(self, matcher: AsPathMatcher) -> None:
        """Give this object what is a pass's own: its filter evaluator (whose
        trace sink is per pass), hop cache, counters and instruments."""
        self.filters = FilterEvaluator(
            self.query,
            matcher,
            handle_asn_ranges=self.options.handle_asn_ranges,
            handle_same_pattern=self.options.handle_same_pattern,
            community_matches=self.options.community_matches,
        )
        self._hop_cache: dict[tuple, HopReport] = {}
        self.hop_cache_hits = 0
        self.hop_cache_misses = 0
        self.hop_cache_evictions = 0
        registry = get_registry()
        self._metrics = _VerifierMetrics(registry) if registry.enabled else None
        # Same zero-cost trick as the metrics: a verifier built under the
        # null tracer pays one ``is None`` branch per route, nothing more.
        tracer = get_tracer()
        self._tracer = tracer if tracer.enabled else None

    # -- cache hand-over across index generations ------------------------

    def adopt_hop_cache(
        self, previous: "Verifier", effects: PatchEffects | None
    ) -> dict:
        """Take over ``previous``'s hop cache, minus what ``effects`` reaches.

        ``previous`` verified the IR generation this verifier's IR was
        patched from; ``effects`` is that patch's
        :class:`~repro.core.compiled.PatchEffects` (``None`` when the step
        was not a clean patch — nothing can be vouched for, so nothing is
        kept).  A cached ⟨direction, from, to, P, path, communities⟩ whose
        policy-bearing AS is *s* survives unless *s* is in
        ``effects.subjects``; *s* is in ``effects.member_subjects`` and one
        of ``effects.member_asns`` is an endpoint, on the path, or the
        origin of a route object at or above *P*; some prefix in
        ``effects.prefixes`` covers *P*; or ``from``/``to`` is in
        ``effects.flipped_origins``.  ``docs/incremental.md`` ("What a
        delta invalidates") derives why those are all the reads a check
        makes.

        The dict itself changes hands and is swept in place — a cache may
        hold 2**20 entries, so no survivor copy is ever built — and
        ``previous`` is left with an empty one.  Returns
        ``{"carried": n, "invalidated": {reason: n}}``.
        """
        cache = previous._hop_cache
        dropped = dict.fromkeys(_INVALIDATION_REASONS, 0)
        if effects is None or not self.options.hop_cache_size:
            dropped["full"] = len(cache)
            cache.clear()
        else:
            dropped.update(_sweep(cache, effects, self.query.routes))
        # Last: a sweep that raises leaves ``previous`` short of stale entries only.
        previous._hop_cache, self._hop_cache = {}, cache
        if self._metrics is not None:
            self._metrics.carried(len(cache), dropped)
        return {"carried": len(cache), "invalidated": dropped}

    # -- route-level entry points ---------------------------------------

    def verify_entry(self, entry: RouteEntry) -> RouteReport:
        """Verify one observed route; hops are reported origin side first.

        The one loop over a route's hops.  Each check probes the hop cache
        on its full decision context — ⟨direction, from, to, prefix,
        sub-path toward the origin, communities⟩ — so a hit is exact, and
        reports are immutable so sharing is safe.  The prefix enters the
        key as ``(version, network, length)`` ints, built once per route,
        so the whole key hashes in C.  Only a miss calls :meth:`_miss`;
        the counters are kept in locals and published once per route.
        """
        tracer = self._tracer
        trace = tracer.route(entry) if tracer is not None else None
        report = RouteReport(entry=entry)
        metrics = self._metrics
        if metrics is not None:
            metrics.routes.inc()
        if entry.as_set is not None:
            report.ignored = "as-set-path"
        else:
            path = entry.deprepended_path()
            if len(path) <= 1:
                report.ignored = "single-as"
        if report.ignored is not None:
            if metrics is not None:
                metrics.ignored(report.ignored)
            if trace is not None:
                tracer.commit(trace, report)
            return report
        # Tail-sampled routes need no per-hop capture: commit() reads
        # everything it emits from the finished report's hops.
        head = trace if trace is not None and trace.head else None
        prefix = entry.prefix
        communities = entry.communities
        route_prefix = (prefix.version, prefix.network, prefix.length)
        cache = self._hop_cache
        cache_size = self.options.hop_cache_size  # at 0 the cache stays empty
        hits = misses = evictions = 0
        counts = [0] * len(metrics.status) if metrics is not None else None
        hops = report.hops
        for index in range(len(path) - 2, -1, -1):
            exporter = path[index + 1]
            importer = path[index]
            sub_path = path[index + 1 :]
            for direction in _DIRECTIONS:
                key = (direction, exporter, importer, route_prefix, sub_path, communities)
                hop = cache.get(key)
                if hop is not None:
                    hits += 1
                    if head is not None:
                        head.add_hop(hop, True, None)
                else:
                    hop = self._miss(
                        direction, exporter, importer, prefix, sub_path, communities, head
                    )
                    if cache_size:
                        misses += 1
                        if len(cache) >= cache_size:
                            cache.clear()
                            evictions += 1
                        cache[key] = hop
                hops.append(hop)
                if counts is not None:
                    counts[hop.status] += 1
        self.hop_cache_hits += hits
        self.hop_cache_misses += misses
        self.hop_cache_evictions += evictions
        if metrics is not None:
            metrics.add_route(counts, hits, misses, evictions)
        if trace is not None:
            tracer.commit(trace, report)
        return report

    def verify_route(
        self, prefix: Prefix | str, as_path: tuple[int, ...], collector: str = "manual"
    ) -> RouteReport:
        """Convenience wrapper for ad-hoc ⟨prefix, AS-path⟩ checks."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        entry = RouteEntry(
            collector=collector, peer_asn=as_path[0], prefix=prefix, as_path=as_path
        )
        return self.verify_entry(entry)

    # -- per-hop classification -------------------------------------------

    def _miss(
        self,
        direction: str,
        from_asn: int,
        to_asn: int,
        prefix: Prefix,
        sub_path: tuple[int, ...],
        communities: frozenset[tuple[int, int]],
        trace: RouteTrace | None,
    ) -> HopReport:
        """Classify one check the hop cache did not answer.

        Timed when metrics are enabled.  ``trace`` is the route's head
        sample, if it is one: the check is recorded as not cached, with
        the filter-evaluation path the evaluator walked when the sample is
        deep (see :mod:`repro.obs.trace`).
        """
        chain: list[str] | None = [] if trace is not None and trace.deep else None
        if chain is not None:
            self.filters.begin_trace(chain)
        metrics = self._metrics
        started = time.perf_counter() if metrics is not None else 0.0
        try:
            report = self._check_uncached(
                direction, from_asn, to_asn, prefix, sub_path, communities
            )
        finally:
            if chain is not None:
                self.filters.end_trace()
        if metrics is not None:
            metrics.latency.observe(time.perf_counter() - started)
        if trace is not None:
            trace.add_hop(report, False, chain)
        return report

    def _check_uncached(
        self,
        direction: str,
        from_asn: int,
        to_asn: int,
        prefix: Prefix,
        sub_path: tuple[int, ...],
        communities: frozenset[tuple[int, int]],
    ) -> HopReport:
        plan = self._plan_for(direction, from_asn, to_asn, prefix.version)
        if plan.verdict is not None:
            # Route-independent: nothing below would read a context.
            return plan.verdict
        subject_asn, remote_asn = (
            (to_asn, from_asn) if direction == "import" else (from_asn, to_asn)
        )
        ctx = MatchContext(
            prefix=prefix,
            as_path=sub_path,
            peer_asn=remote_asn,
            self_asn=subject_asn,
            communities=communities,
        )
        aut_num = plan.aut_num
        source = aut_num.source or None

        # OR over the subject's rules, the dead runs pre-folded (see
        # "rule lists specialised on the remote AS" above).
        value = Val.FALSE
        items = plan.leading
        matched: tuple[Filter, ...] = ()
        for rule_index, residual, trailing in plan.live:
            evaluated = self._eval_residual(residual, ctx)
            if evaluated.value is Val.TRUE:
                return self._finish(
                    direction, from_asn, to_asn, VerifyStatus.VERIFIED, (),
                    peer_matched=True, rule_index=rule_index, source=source,
                )
            if evaluated.value > value:
                value = evaluated.value
            items = _merge_items(_merge_items(items, evaluated.items), trailing)
            matched = _merge_filters(matched, evaluated.peer_matched_filters)

        if value is Val.SKIP:
            return self._finish(
                direction, from_asn, to_asn, VerifyStatus.SKIP, items, source=source
            )
        if aut_num.bad_rules:
            items = items + (ReportItem.of(ItemKind.SKIPPED_BAD_RULE),)
            return self._finish(
                direction, from_asn, to_asn, VerifyStatus.SKIP, items, source=source
            )
        if value is Val.UNREC:
            return self._finish(
                direction, from_asn, to_asn, VerifyStatus.UNRECORDED, items,
                source=source,
            )

        peer_matched = bool(matched)
        if matched and self.options.relaxations:
            relaxed = self.special.relaxed_item(
                direction, subject_asn, remote_asn, ctx, matched
            )
            if relaxed is not None:
                return self._finish(
                    direction, from_asn, to_asn, VerifyStatus.RELAXED,
                    (items + (relaxed,))[-_MAX_ITEMS:],
                    peer_matched=peer_matched, source=source,
                )

        if self.options.safelists:
            safelisted = self.special.safelist_item(
                direction, from_asn, to_asn, aut_num, ctx
            )
            if safelisted is not None:
                return self._finish(
                    direction, from_asn, to_asn, VerifyStatus.SAFELISTED,
                    (items + (safelisted,))[-_MAX_ITEMS:],
                    peer_matched=peer_matched, source=source,
                )

        return self._finish(
            direction, from_asn, to_asn, VerifyStatus.UNVERIFIED, items,
            peer_matched=peer_matched, source=source,
        )

    def _finish(
        self,
        direction: str,
        from_asn: int,
        to_asn: int,
        status: VerifyStatus,
        items: tuple[ReportItem, ...],
        peer_matched: bool = False,
        rule_index: int | None = None,
        source: str | None = None,
    ) -> HopReport:
        """The one report object of this value (interned).

        Bounded like the rule plans and by the same option: cleared
        wholesale at ``hop_cache_size`` entries and with the plans, not
        kept at all when that is 0, never handed to another generation.
        """
        items = items[:_MAX_ITEMS]
        key = (direction, from_asn, to_asn, status, items, peer_matched, rule_index, source)
        report = self._reports.get(key)
        if report is None:
            report = HopReport(
                direction, from_asn, to_asn, status, items, peer_matched, rule_index, source
            )
            bound = self.options.hop_cache_size
            if bound:
                if len(self._reports) >= bound:
                    self._reports.clear()
                self._reports[key] = report
        return report

    # -- rule plans: built once per remote AS, evaluated per route ----------

    def _plan_for(
        self, direction: str, from_asn: int, to_asn: int, version: int
    ) -> _RulePlan:
        """The subject's rule list specialised on the remote AS (memoized).

        Bounded like the hop cache and by the same option: cleared
        wholesale at ``hop_cache_size`` entries, not kept at all when that
        is 0.  Shared with the pass views, never handed to another
        generation — a plan reads as-sets and peering-sets of this one.
        """
        key = (direction, from_asn, to_asn, version)
        plan = self._rule_plans.get(key)
        metrics = self._metrics
        if plan is not None:
            if metrics is not None:
                metrics.plan_hits.inc()
            return plan
        plan = self._build_plan(direction, from_asn, to_asn, version)
        if metrics is not None:
            metrics.plans_built.inc()
        bound = self.options.hop_cache_size
        if bound:
            if len(self._rule_plans) >= bound:
                self._rule_plans.clear()
                self._reports.clear()
            self._rule_plans[key] = plan
        return plan

    def _build_plan(
        self, direction: str, from_asn: int, to_asn: int, version: int
    ) -> _RulePlan:
        subject_asn = to_asn if direction == "import" else from_asn
        remote_asn = from_asn if direction == "import" else to_asn
        aut_num = self.ir.aut_nums.get(subject_asn)
        if aut_num is None:
            rules = ()
        else:
            rules = aut_num.imports if direction == "import" else aut_num.exports
        if not rules:
            if aut_num is None:
                status = VerifyStatus.UNRECORDED
                item = ReportItem.of(ItemKind.UNRECORDED_AUT_NUM, asn=subject_asn)
            elif aut_num.bad_rules:
                # The only policy text present failed to parse: skip.
                status = VerifyStatus.SKIP
                item = ReportItem.of(ItemKind.SKIPPED_BAD_RULE)
            else:
                status = VerifyStatus.UNRECORDED
                item = ReportItem.of(ItemKind.UNRECORDED_NO_RULES, asn=subject_asn)
            source = None if aut_num is None else aut_num.source or None
            return _RulePlan(
                self._finish(direction, from_asn, to_asn, status, (item,), source=source)
            )
        leading, live = _fold_dead_runs(
            (rule_index, self._specialise(rule.expr, version, remote_asn))
            for rule_index, rule in enumerate(rules)
            if any(afi.matches_version(version) for afi in rule.effective_afis())
        )
        return _RulePlan(None, aut_num, leading, live)

    def _specialise(self, expr: PolicyExpr, version: int, remote_asn: int) -> _Residual:
        """What ``expr`` leaves to be decided per route once the remote is known."""
        if isinstance(expr, PolicyTerm):
            leading, live = _fold_dead_runs(
                self._specialise_factor(factor, remote_asn) for factor in expr.factors
            )
            if not live:
                return _RuleEval(Val.FALSE, leading)
            return _TermPlan(leading, live)
        if isinstance(expr, PolicyRefine):
            combine = _combine_and
        elif isinstance(expr, PolicyExcept):
            # EXCEPT hands matching routes to the rest-policy with different
            # actions; for acceptance both sides admit routes.
            combine = _combine_or
        else:
            raise TypeError(f"unknown policy expression {expr!r}")
        term = self._specialise(expr.term, version, remote_asn)
        if expr.afis and not any(afi.matches_version(version) for afi in expr.afis):
            # The operator does not constrain this address family: ``rest``
            # is never reached, so it makes the rule neither live nor dead.
            return term
        rest = self._specialise(expr.rest, version, remote_asn)
        if type(term) is _RuleEval and type(rest) is _RuleEval:
            return combine(term, rest)
        return _PairPlan(combine, term, rest)

    def _specialise_factor(
        self, factor: PolicyFactor, remote_asn: int
    ) -> tuple[Filter, Eval | _RuleEval]:
        """⟨filter, peerings OR-ed for the remote⟩, or a dead factor's constant."""
        peering_eval = Eval(Val.FALSE)
        for peering_action in factor.peerings:
            peering_eval = peering_eval.or_(
                self.peerings.evaluate(peering_action.peering, remote_asn)
            )
            if peering_eval.value is Val.TRUE:
                break
        if peering_eval.value is Val.FALSE:
            return factor.filter, _RuleEval(Val.FALSE, peering_eval.items)
        return factor.filter, peering_eval

    def _eval_residual(self, residual: _Residual, ctx: MatchContext) -> _RuleEval:
        if type(residual) is _TermPlan:
            # OR over the term's factors, the dead runs pre-folded.
            value = Val.FALSE
            items = residual.leading
            matched: tuple[Filter, ...] = ()
            for filter_, peering_eval, trailing in residual.live:
                combined = peering_eval.and_(self.filters.evaluate(filter_, ctx))
                if combined.value is Val.TRUE:
                    return _RuleEval(Val.TRUE, (), matched)
                if peering_eval.value is Val.TRUE:
                    # Peering matched, filter did not: a relaxation candidate.
                    matched = _merge_filters(matched, (filter_,))
                if combined.value > value:
                    value = combined.value
                items = _merge_items(_merge_items(items, combined.items), trailing)
            return _RuleEval(value, items, matched)
        if type(residual) is _PairPlan:
            return residual.combine(
                self._eval_residual(residual.term, ctx),
                self._eval_residual(residual.rest, ctx),
            )
        return residual  # a dead side of a live pair


def iter_chunks(entries: Iterable[RouteEntry], size: int) -> Iterator[list[RouteEntry]]:
    """``entries`` in lists of ``size``, pulled lazily from the iterable."""
    iterator = iter(entries)
    while chunk := list(islice(iterator, size)):
        yield chunk


# Routes verified between two opportunities for the cyclic collector to run.
_GC_PAUSE_ROUTES = 8192


def verify_into(
    verifier: Verifier,
    entries: Iterable[RouteEntry],
    stats: "VerificationStats",
    on_report: Callable[[RouteReport], None] | None = None,
) -> None:
    """Verify ``entries`` into ``stats``: the table loop of the serial
    pass, of a pool worker's chunk, and of the in-process fallback."""
    # ``entries`` is advanced with the collector running (it is the
    # caller's code, often a streaming parser); only the verify/aggregate
    # loop over a materialized batch is paused.
    for batch in iter_chunks(entries, _GC_PAUSE_ROUTES):
        with cyclic_gc_paused():
            for entry in batch:
                report = verifier.verify_entry(entry)
                stats.add_report(report)
                if on_report is not None:
                    on_report(report)


def _sweep(cache: dict, effects: "PatchEffects", routes) -> dict[str, int]:
    """Delete the stale keys of a hop cache in place; returns counts by reason.

    ``routes`` is the patched route trie.  A key several clauses reach
    counts under the first of subject, origin-flip, prefix.  One pass
    over the keys: the subject and endpoint tests are set probes, and
    since a route's hops are inserted back to back the two per-prefix
    tests (covered by a changed prefix; registered, at or above, by a
    regrouped member AS) run once per run of keys sharing one
    ``(version, network, length)`` tuple.
    """
    subjects = effects.subjects
    import_subjects = effects.import_subjects
    member_subjects = effects.member_subjects
    member_asns = effects.member_asns
    flipped = effects.flipped_origins
    # Q covers P iff same family, len(Q) <= len(P) and P's top len(Q) bits
    # are Q's: one shifted-network probe per distinct (family, length).
    by_length: dict[tuple[int, int, int], set[int]] = {}
    for changed in effects.prefixes:
        shift = changed.max_length - changed.length
        by_length.setdefault((changed.version, changed.length, shift), set()).add(
            changed.network >> shift
        )
    probes = list(by_length.items())
    if not (subjects or import_subjects or member_subjects or flipped or probes):
        return {}
    dead = []
    by_subject = by_flip = 0
    last_prefix = None
    last_covered = False
    member_prefix = None
    member_registered = False
    for key in cache:
        if key[0] == "import":
            subject = key[2]
            stale = subject in subjects or subject in import_subjects
        else:
            subject = key[1]
            stale = subject in subjects
        if stale:
            by_subject += 1
            dead.append(key)
            continue
        if subject in member_subjects:
            prefix = key[3]
            if prefix is not member_prefix:
                member_prefix = prefix
                member_registered = routes.match_members(member_asns, *prefix, _ANY_COVER)
            if (
                member_registered
                or key[1] in member_asns
                or key[2] in member_asns
                or not member_asns.isdisjoint(key[4])
            ):
                by_subject += 1
                dead.append(key)
                continue
        # PeerAS reads has_any_routes of the hop's other endpoint.
        if flipped and (key[1] in flipped or key[2] in flipped):
            by_flip += 1
            dead.append(key)
            continue
        prefix = key[3]
        if prefix is not last_prefix:
            last_prefix = prefix
            last_covered = False
            version, network, length = prefix
            for (changed_version, changed_length, shift), networks in probes:
                if (
                    version == changed_version
                    and length >= changed_length
                    and (network >> shift) in networks
                ):
                    last_covered = True
                    break
        if last_covered:
            dead.append(key)
    for key in dead:
        del cache[key]
    return {
        "subject": by_subject,
        "origin-flip": by_flip,
        "prefix": len(dead) - by_subject - by_flip,
    }


def rule_skip_census(ir: Ir) -> Counter:
    """Count rules by the reason the verifier cannot fully evaluate them.

    Reproduces the Section 5 accounting: the paper's RPSLyzer skips 114 of
    822,207 rules (regex ASN ranges, same-pattern operators, community
    filters) plus rules that fail to parse.
    """
    census: Counter = Counter()
    for aut_num in ir.aut_nums.values():
        census["unparsed"] += len(aut_num.bad_rules)
        census["total"] += len(aut_num.bad_rules)
        for rule in (*aut_num.imports, *aut_num.exports):
            census["total"] += 1
            reasons = _rule_skip_reasons(rule)
            if reasons:
                census["skipped"] += 1
                for reason in reasons:
                    census[reason] += 1
    census["skipped"] += census["unparsed"]
    return census


def _rule_skip_reasons(rule: PolicyRule) -> set[str]:
    reasons: set[str] = set()
    for factor in iter_policy_factors(rule.expr):
        for node in iter_filter_nodes(factor.filter):
            if isinstance(node, FilterCommunity):
                reasons.add("community-filter")
            elif isinstance(node, FilterAsPathRegex):
                has_range, has_same_pattern = regex_flags(node.regex)
                if has_range:
                    reasons.add("regex-asn-range")
                if has_same_pattern:
                    reasons.add("regex-same-pattern")
    return reasons
