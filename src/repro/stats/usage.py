"""Section 4 characterization: how ASes use the RPSL.

Implements the analyses behind Figure 1 (rules-per-aut-num CCDF, all rules
vs BGPq4-compatible rules), Table 2 (objects defined vs referenced, split
by where the reference appears), the peering/filter simplicity numbers
quoted in the text, and the RPSL error census.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.ir.model import Ir
from repro.rpsl.aspath import ReAsn, ReAsSet, iter_regex_nodes
from repro.rpsl.errors import ErrorCollector, ErrorKind
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
from repro.rpsl.peering import PeerAny, PeerAsn, PeerAsSet, PeeringSetRef
from repro.rpsl.walk import (
    iter_as_expr_nodes,
    iter_filter_nodes,
    iter_peerings,
    iter_policy_factors,
)
from repro.stats.ccdf import ccdf_points

__all__ = [
    "rules_per_aut_num",
    "rules_per_group",
    "rules_ccdf",
    "peering_simplicity",
    "filter_kind_census",
    "action_census",
    "cross_irr_overlap",
    "ReferenceCensus",
    "reference_census",
    "error_census",
]


def rules_per_aut_num(ir: Ir, bgpq4_compatible_only: bool = False) -> dict[int, int]:
    """Rule count per aut-num — the Figure 1 distribution.

    With ``bgpq4_compatible_only`` only rules a BGPq4-class tool could
    resolve are counted (the second curve of Figure 1).
    """
    if not bgpq4_compatible_only:
        return {asn: aut_num.rule_count for asn, aut_num in ir.aut_nums.items()}
    from repro.baseline.bgpq4 import is_rule_compatible

    return {
        asn: sum(
            1
            for rule in (*aut_num.imports, *aut_num.exports)
            if is_rule_compatible(rule)
        )
        for asn, aut_num in ir.aut_nums.items()
    }


def rules_ccdf(ir: Ir, bgpq4_compatible_only: bool = False) -> list[tuple[int, float]]:
    """The Figure 1 CCDF: ``(rules, fraction of aut-nums with ≥ rules)``."""
    return ccdf_points(rules_per_aut_num(ir, bgpq4_compatible_only).values())


def rules_per_group(ir: Ir, group: set[int]) -> dict[int, int]:
    """Rule counts for a designated AS group — Figure 1's annotations.

    The paper marks Tier-1s (red crosses) and large CDNs (green arrows) on
    the CCDF; pass the group's ASNs (e.g. ``relationships.tier1``) and plot
    the returned counts as markers.  ASes absent from the IRRs count as 0.
    """
    counts = rules_per_aut_num(ir)
    return {asn: counts.get(asn, 0) for asn in sorted(group)}


def peering_simplicity(ir: Ir) -> dict[str, int]:
    """Classify every peering definition (the "98.4% simple" number).

    Categories: ``single-asn``, ``any``, ``as-set``, ``peering-set``, and
    ``complex`` (anything with operators or router expressions).
    """
    census: Counter = Counter()
    for aut_num in ir.aut_nums.values():
        for rule in (*aut_num.imports, *aut_num.exports):
            for peering in iter_peerings(rule.expr):
                expr = peering.as_expr
                if peering.remote_router or peering.local_router:
                    census["complex"] += 1
                elif isinstance(expr, PeerAsn):
                    census["single-asn"] += 1
                elif isinstance(expr, PeerAny):
                    census["any"] += 1
                elif isinstance(expr, PeerAsSet):
                    census["as-set"] += 1
                elif isinstance(expr, PeeringSetRef):
                    census["peering-set"] += 1
                else:
                    census["complex"] += 1
    return dict(census)


def _filter_kind(node: Filter) -> str:
    if isinstance(node, FilterAsSet):
        return "as-set"
    if isinstance(node, FilterAsn):
        return "asn"
    if isinstance(node, FilterAny):
        return "any"
    if isinstance(node, FilterPeerAs):
        return "peeras"
    if isinstance(node, FilterRouteSet):
        return "route-set"
    if isinstance(node, FilterPrefixSet):
        return "prefix-set"
    if isinstance(node, FilterAsPathRegex):
        return "as-path-regex"
    if isinstance(node, FilterFltrSetRef):
        return "filter-set"
    if isinstance(node, FilterCommunity):
        return "community"
    if isinstance(node, (FilterAnd, FilterOr, FilterNot)):
        return "composite"
    return "other"


def filter_kind_census(ir: Ir) -> dict[str, int]:
    """What rules use as their *filter* (the "most filters are an as-set
    (43.4%) or ASN (24.1%)" analysis).  Each factor's filter counts once,
    classified by its top-level shape."""
    census: Counter = Counter()
    for aut_num in ir.aut_nums.values():
        for rule in (*aut_num.imports, *aut_num.exports):
            for factor in iter_policy_factors(rule.expr):
                census[_filter_kind(factor.filter)] += 1
    return dict(census)


def action_census(ir: Ir) -> dict[str, int]:
    """What rule *actions* operators use (``pref =``, ``community.append``…).

    Keys are ``attribute<op>`` for assignments (``pref=``, ``community.=``)
    and ``attribute.method()`` for calls (``aspath.prepend()``); the
    ``rules-with-actions`` pseudo-key counts rules carrying any action.
    """
    census: Counter = Counter()
    for aut_num in ir.aut_nums.values():
        for rule in (*aut_num.imports, *aut_num.exports):
            rule_has_actions = False
            for factor in iter_policy_factors(rule.expr):
                for peering_action in factor.peerings:
                    for action in peering_action.actions:
                        rule_has_actions = True
                        if action.method is not None:
                            census[f"{action.attribute}.{action.method}()"] += 1
                        else:
                            census[f"{action.attribute}{action.operator}"] += 1
            if rule_has_actions:
                census["rules-with-actions"] += 1
    return dict(census)


@dataclass(slots=True)
class ReferenceCensus:
    """Table 2: per class, what is defined and what rules reference.

    ``referenced_*`` sets contain only names/ASNs that are *also defined*
    (the paper reports reference rates over defined objects); the
    ``dangling_*`` sets hold references to undefined objects — the raw
    material of the UNRECORDED verification status.
    """

    defined: dict[str, int] = field(default_factory=dict)
    referenced_overall: dict[str, set] = field(default_factory=dict)
    referenced_peering: dict[str, set] = field(default_factory=dict)
    referenced_filter: dict[str, set] = field(default_factory=dict)
    dangling: dict[str, set] = field(default_factory=dict)

    def table(self) -> list[tuple[str, int, int, int, int]]:
        """Rows of ``(class, defined, overall, in-peering, in-filter)``."""
        rows = []
        for cls in ("aut-num", "as-set", "route-set", "peering-set", "filter-set"):
            rows.append(
                (
                    cls,
                    self.defined.get(cls, 0),
                    len(self.referenced_overall.get(cls, ())),
                    len(self.referenced_peering.get(cls, ())),
                    len(self.referenced_filter.get(cls, ())),
                )
            )
        return rows


def reference_census(ir: Ir) -> ReferenceCensus:
    """Compute Table 2 from a merged IR."""
    census = ReferenceCensus()
    census.defined = {
        "aut-num": len(ir.aut_nums),
        "as-set": len(ir.as_sets),
        "route-set": len(ir.route_sets),
        "peering-set": len(ir.peering_sets),
        "filter-set": len(ir.filter_sets),
    }
    for cls in census.defined:
        census.referenced_overall[cls] = set()
        census.referenced_peering[cls] = set()
        census.referenced_filter[cls] = set()
        census.dangling[cls] = set()

    def note(cls: str, key, where: dict[str, set]) -> None:
        defined = _is_defined(ir, cls, key)
        if defined:
            where[cls].add(key)
            census.referenced_overall[cls].add(key)
        else:
            census.dangling[cls].add(key)

    for aut_num in ir.aut_nums.values():
        for rule in (*aut_num.imports, *aut_num.exports):
            for peering in iter_peerings(rule.expr):
                for node in iter_as_expr_nodes(peering.as_expr):
                    if isinstance(node, PeerAsn):
                        note("aut-num", node.asn, census.referenced_peering)
                    elif isinstance(node, PeerAsSet):
                        note("as-set", node.name, census.referenced_peering)
                    elif isinstance(node, PeeringSetRef):
                        note("peering-set", node.name, census.referenced_peering)
            for factor in iter_policy_factors(rule.expr):
                for node in iter_filter_nodes(factor.filter):
                    if isinstance(node, FilterAsn):
                        note("aut-num", node.asn, census.referenced_filter)
                    elif isinstance(node, FilterAsSet) and not node.any_member:
                        note("as-set", node.name, census.referenced_filter)
                    elif isinstance(node, FilterRouteSet) and not node.any_member:
                        note("route-set", node.name, census.referenced_filter)
                    elif isinstance(node, FilterFltrSetRef):
                        note("filter-set", node.name, census.referenced_filter)
                    elif isinstance(node, FilterAsPathRegex):
                        for current in iter_regex_nodes(node.regex):
                            if isinstance(current, ReAsn):
                                note("aut-num", current.asn, census.referenced_filter)
                            elif isinstance(current, ReAsSet):
                                note("as-set", current.name, census.referenced_filter)
    return census


def _is_defined(ir: Ir, cls: str, key) -> bool:
    if cls == "aut-num":
        return key in ir.aut_nums
    if cls == "as-set":
        return key in ir.as_sets
    if cls == "route-set":
        return key in ir.route_sets
    if cls == "peering-set":
        return key in ir.peering_sets
    if cls == "filter-set":
        return key in ir.filter_sets
    return False


def cross_irr_overlap(irs: dict[str, Ir]) -> dict[str, dict[str, int]]:
    """How many objects are defined in more than one IRR, per class.

    The motivation for the Table 1 priority merge: registries overlap
    (operators mirror objects into RADB, registrars proxy-register).
    Returns, per class, ``{"defined": distinct keys, "overlapping": keys
    in ≥2 IRRs, "max_copies": the most registries one key appears in}``.
    """
    keyed: dict[str, Counter] = {
        "aut-num": Counter(),
        "as-set": Counter(),
        "route-set": Counter(),
        "route": Counter(),
    }
    for ir in irs.values():
        for asn in ir.aut_nums:
            keyed["aut-num"][asn] += 1
        for name in ir.as_sets:
            keyed["as-set"][name] += 1
        for name in ir.route_sets:
            keyed["route-set"][name] += 1
        for route in ir.route_objects:
            keyed["route"][(route.prefix, route.origin)] += 1
    return {
        cls: {
            "defined": len(counts),
            "overlapping": sum(1 for copies in counts.values() if copies > 1),
            "max_copies": max(counts.values(), default=0),
        }
        for cls, counts in keyed.items()
    }


def error_census(errors: ErrorCollector) -> dict[str, int]:
    """The Section 4 error numbers: syntax errors and invalid set names."""
    by_kind = errors.count_by_kind()
    return {
        "syntax": by_kind.get(ErrorKind.SYNTAX, 0),
        "invalid-as-set-name": by_kind.get(ErrorKind.INVALID_AS_SET_NAME, 0),
        "invalid-route-set-name": by_kind.get(ErrorKind.INVALID_ROUTE_SET_NAME, 0),
        "reserved-name": by_kind.get(ErrorKind.RESERVED_NAME, 0),
        "invalid-prefix": by_kind.get(ErrorKind.INVALID_PREFIX, 0),
        "invalid-asn": by_kind.get(ErrorKind.INVALID_ASN, 0),
        "total": len(errors),
    }
