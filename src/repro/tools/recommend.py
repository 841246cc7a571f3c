"""Route-set migration advisor: the paper's Section 4 recommendation,
operationalized.

The paper recommends operators "adopt RPSL *route-sets* to increase
policy accuracy and reduce maintenance overhead": a route-set names the
exported prefixes directly, replaces fleets of *route* objects, and lets
an AS advertise different prefix sets to different neighbors.  This tool
generates that migration for an AS:

1. collect the prefixes the AS's current export intent covers — its own
   registered routes plus, for transit ASes, its customer cone's;
2. emit a ``RS-<name>`` route-set object holding them;
3. rewrite the AS's export rules whose filters are the export-self /
   as-set indirection patterns to announce the new route-set;
4. return old and new rule text plus the new object, ready to submit.

:func:`apply_recommendation` splices the migration into an IR so tests
(and operators) can check that previously relaxed/unverified exports
verify strictly afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.topology import AsRelationships
from repro.core.compiled import compile_index
from repro.core.query import QueryEngine
from repro.ir.model import Ir, RouteSet
from repro.ir.render import render_route_set
from repro.net.prefix import Prefix, RangeOp
from repro.rpsl.filter import FilterAsn, FilterAsSet, FilterRouteSet
from repro.rpsl.policy import (
    PeeringAction,
    PolicyFactor,
    PolicyRule,
    PolicyTerm,
)

__all__ = ["RouteSetRecommendation", "recommend_route_set", "apply_recommendation"]


@dataclass(frozen=True, slots=True)
class RouteSetRecommendation:
    """A proposed migration for one AS."""

    asn: int
    route_set: RouteSet
    old_rules: tuple[str, ...]  # export rules being replaced (rendered)
    new_rules: tuple[PolicyRule, ...]  # their rewritten forms
    prefixes: tuple[Prefix, ...]

    @property
    def rpsl(self) -> str:
        """The new route-set object as submittable RPSL text."""
        return render_route_set(self.route_set)

    def summary(self) -> str:
        """Human-readable migration summary."""
        lines = [
            f"AS{self.asn}: create {self.route_set.name} with "
            f"{len(self.prefixes)} prefixes, rewrite {len(self.old_rules)} export rule(s):"
        ]
        for old, new in zip(self.old_rules, self.new_rules):
            lines.append(f"  - export: {old}")
            lines.append(f"  + export: {new.to_rpsl()}")
        return "\n".join(lines)


def _is_indirection_filter(node, asn: int) -> bool:
    """Filters the paper flags: self-ASN (export-self) or as-set indirection."""
    if isinstance(node, FilterAsn):
        return True
    if isinstance(node, FilterAsSet) and not node.any_member:
        return True
    return False


def recommend_route_set(
    ir: Ir,
    asn: int,
    query: QueryEngine | None = None,
    relationships: "AsRelationships | None" = None,
) -> RouteSetRecommendation | None:
    """Propose a route-set migration for one AS, or None if not applicable.

    Applicable when the AS has export rules whose filters are an ASN or
    as-set (indirect definitions relying on *route* objects).  With
    ``relationships``, an export-self filter is widened to the customer
    cone — the intent the paper's Export Self relaxation uncovered.
    ``query`` is an engine over ``ir``; without one, an index is compiled
    per call (:func:`repro.api.recommend_migrations` compiles once).
    """
    aut_num = ir.aut_nums.get(asn)
    if aut_num is None:
        return None
    if query is None:
        query = QueryEngine(ir, compile_index(ir))

    rewritable: list[tuple[int, PolicyRule]] = []
    covered_asns: set[int] = {asn}
    for index, rule in enumerate(aut_num.exports):
        if not isinstance(rule.expr, PolicyTerm):
            continue
        factors = rule.expr.factors
        if not factors or not all(
            _is_indirection_filter(factor.filter, asn) for factor in factors
        ):
            continue
        rewritable.append((index, rule))
        for factor in factors:
            node = factor.filter
            if isinstance(node, FilterAsn):
                covered_asns.add(node.asn)
                if node.asn == asn and relationships is not None:
                    # export-self: the declared intent is self + customers
                    covered_asns.update(relationships.customer_cone(asn))
            elif isinstance(node, FilterAsSet):
                covered_asns.update(query.flatten_as_set(node.name).members)
    if not rewritable:
        return None

    prefixes: set[Prefix] = set()
    for member in covered_asns:
        for key in query.routes.origin_keys(member):
            prefixes.add(Prefix(*key))
    if not prefixes:
        return None

    set_name = f"AS{asn}:RS-EXPORT"
    route_set = RouteSet(
        name=set_name,
        prefix_members=[(prefix, RangeOp()) for prefix in sorted(prefixes)],
        mnt_by=list(aut_num.mnt_by),
        source=aut_num.source,
    )

    new_rules = []
    old_rules = []
    for _, rule in rewritable:
        old_rules.append(rule.to_rpsl())
        new_factors = tuple(
            PolicyFactor(
                peerings=tuple(
                    PeeringAction(pa.peering, pa.actions) for pa in factor.peerings
                ),
                filter=FilterRouteSet(set_name),
            )
            for factor in rule.expr.factors
        )
        new_rules.append(
            PolicyRule(
                kind=rule.kind,
                expr=PolicyTerm(new_factors, braced=rule.expr.braced),
                afis=rule.afis,
                multiprotocol=rule.multiprotocol,
            )
        )
    return RouteSetRecommendation(
        asn=asn,
        route_set=route_set,
        old_rules=tuple(old_rules),
        new_rules=tuple(new_rules),
        prefixes=tuple(sorted(prefixes)),
    )


def apply_recommendation(ir: Ir, recommendation: RouteSetRecommendation) -> None:
    """Splice a migration into an IR in place (for what-if verification)."""
    ir.route_sets[recommendation.route_set.name] = recommendation.route_set
    aut_num = ir.aut_nums[recommendation.asn]
    old_set = set(recommendation.old_rules)
    kept = [rule for rule in aut_num.exports if rule.to_rpsl() not in old_set]
    aut_num.exports = kept + list(recommendation.new_rules)
