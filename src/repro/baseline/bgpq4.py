"""A BGPq4-class baseline: single-term resolution only.

BGPq4 [Snarskii] generates router prefix filters from a *single* RPSL
object name (ASN, as-set, route-set).  Per the paper's tests, it does not
support filter-sets, AS-path regexes, BGP communities, composite filters
(AND/OR/NOT), or Structured Policies (REFINE/EXCEPT).  This module
reimplements that capability envelope:

* :func:`is_rule_compatible` — the classifier behind Figure 1's second
  curve and the Section 5 skip comparison (21,463 rules for BGPq4 vs 114
  for RPSLyzer);
* :class:`Bgpq4Resolver` — ``bgpq4 -4/-6``-style prefix-list generation
  from an object name, including router-config rendering.
"""

from __future__ import annotations

from repro.core.compiled import compile_index
from repro.core.query import QueryEngine
from repro.ir.model import Ir
from repro.net.prefix import Prefix, RangeOpKind, aggregate_prefixes
from repro.rpsl.filter import (
    Filter,
    FilterAny,
    FilterAsn,
    FilterAsSet,
    FilterPeerAs,
    FilterPrefixSet,
    FilterRouteSet,
)
from repro.rpsl.names import NameKind, classify_name
from repro.rpsl.policy import PolicyRule, PolicyTerm
from repro.rpsl.walk import iter_policy_factors

__all__ = [
    "is_filter_compatible",
    "is_rule_compatible",
    "bgpq4_skip_census",
    "Bgpq4Resolver",
]


def is_filter_compatible(node: Filter) -> bool:
    """Whether a BGPq4-class tool can resolve this filter.

    Compatible filters are a single term: ``ANY``, ``PeerAS``, an ASN, an
    as-set, a route-set, or an inline prefix set.  Everything else —
    composites, NOT, regexes, communities, filter-sets — is not.
    """
    return isinstance(
        node,
        (FilterAny, FilterPeerAs, FilterAsn, FilterAsSet, FilterRouteSet, FilterPrefixSet),
    )


def is_rule_compatible(rule: PolicyRule) -> bool:
    """Whether every part of the rule is within BGPq4's envelope.

    Structured Policies (EXCEPT/REFINE) are out; each factor's filter must
    be a compatible single term.
    """
    if not isinstance(rule.expr, PolicyTerm):
        return False
    return all(
        is_filter_compatible(factor.filter) for factor in iter_policy_factors(rule.expr)
    )


def bgpq4_skip_census(ir: Ir) -> dict[str, int]:
    """Rules BGPq4 cannot handle vs the total (the Section 5 comparison)."""
    total = 0
    incompatible = 0
    for aut_num in ir.aut_nums.values():
        total += len(aut_num.bad_rules)
        incompatible += len(aut_num.bad_rules)
        for rule in (*aut_num.imports, *aut_num.exports):
            total += 1
            if not is_rule_compatible(rule):
                incompatible += 1
    return {"total": total, "skipped": incompatible}


class Bgpq4Resolver:
    """``bgpq4``-style prefix-list generation from one object name."""

    def __init__(self, ir: Ir, query: QueryEngine | None = None):
        self.ir = ir
        self.query = query if query is not None else QueryEngine(ir, compile_index(ir))

    def resolve(
        self, name: str, version: int = 4, aggregate: bool = False
    ) -> list[Prefix]:
        """The sorted prefix list for an ASN, as-set, or route-set name.

        ``aggregate`` merges contained and sibling prefixes first, like
        ``bgpq4 -A``.  Raises ``ValueError`` for names BGPq4 would reject
        (filter-sets, keywords, malformed names).
        """
        kind = classify_name(name)
        if kind is NameKind.ASN:
            prefixes = self._asn_prefixes(int(name.strip()[2:]))
        elif kind is NameKind.AS_SET:
            resolution = self.query.flatten_as_set(name.upper())
            prefixes = set()
            for asn in resolution.members:
                prefixes.update(self._asn_prefixes(asn))
        elif kind is NameKind.ROUTE_SET:
            prefixes = self._route_set_prefixes(name.upper())
        else:
            raise ValueError(f"bgpq4 cannot resolve {name!r}")
        selected = sorted(p for p in prefixes if p.version == version)
        if aggregate:
            return aggregate_prefixes(selected)
        return selected

    def _asn_prefixes(self, asn: int) -> set[Prefix]:
        # One bisect + span read on the route planes.
        return {Prefix(*key) for key in self.query.routes.origin_keys(asn)}

    def _route_set_prefixes(self, name: str) -> set[Prefix]:
        resolution = self.query.resolve_route_set(name)
        prefixes: set[Prefix] = set()
        for key, ops in resolution.index.entries.items():
            # bgpq4 expands plain members; range operators are expanded to
            # the declared prefix itself (aggregation is left to the router).
            if any(op.kind is not RangeOpKind.MINUS for op in ops):
                prefixes.add(Prefix(*key))
        for asn, _ in resolution.asn_members:
            prefixes.update(self._asn_prefixes(asn))
        for set_name, _ in resolution.as_set_members:
            for asn in self.query.flatten_as_set(set_name).members:
                prefixes.update(self._asn_prefixes(asn))
        return prefixes

    def render_prefix_list(
        self, name: str, version: int = 4, style: str = "plain", aggregate: bool = False
    ) -> str:
        """Render a prefix filter like ``bgpq4`` output.

        ``style`` is ``"plain"`` (one prefix per line), ``"junos"`` (a
        Juniper prefix-list), or ``"cisco"`` (an ip prefix-list);
        ``aggregate`` matches ``bgpq4 -A``.
        """
        prefixes = self.resolve(name, version, aggregate)
        label = name.upper().replace(":", "-")
        if style == "plain":
            return "\n".join(str(prefix) for prefix in prefixes)
        if style == "junos":
            body = "\n".join(f"    {prefix};" for prefix in prefixes)
            return (
                "policy-options {\nreplace:\n"
                f"  prefix-list {label} {{\n{body}\n  }}\n}}"
            )
        if style == "cisco":
            lines = [f"no ip prefix-list {label}"]
            lines += [
                f"ip prefix-list {label} permit {prefix}" for prefix in prefixes
            ]
            return "\n".join(lines)
        raise ValueError(f"unknown style {style!r}")
