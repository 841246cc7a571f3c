"""An RPSL linter: the "further RPSL tooling" the paper calls for.

Each check encodes a finding from Sections 4–5 or the appendices:

====== ========== =====================================================
code   severity   finding
====== ========== =====================================================
RPS001 error      object failed to parse (syntax error)
RPS002 error      invalid set name
RPS003 warning    reserved keyword used as a set name or member
RPS010 warning    empty as-set referenced by policy rules
RPS011 info       single-member as-set (replace by the member)
RPS012 warning    as-set membership contains a loop
RPS013 info       as-set nesting depth ≥ 5
RPS014 info       very large flattened as-set
RPS020 error      rule references an undefined object
RPS021 warning    filter names an AS that originates no route objects
RPS030 warning    export-self: transit AS announces only itself
RPS031 warning    import-customer: ``from AS<C> accept AS<C>``
RPS032 info       only-provider policies (customers/peers undocumented)
RPS040 info       ASN/as-set filter indirection — consider a route-set
RPS041 info       route-set defined but never referenced
RPS050 warning    suspected Pref/LocalPref inversion (Appendix A note)
RPS051 warning    prefix registered with conflicting origins
====== ========== =====================================================

Relationship-aware checks (RPS030–RPS032, RPS050) only run when an
:class:`~repro.bgp.topology.AsRelationships` is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.bgp.topology import AsRelationships, Rel
from repro.core.compiled import compile_index
from repro.core.query import QueryEngine
from repro.ir.model import AutNum, Ir
from repro.rpsl.errors import ErrorCollector, ErrorKind
from repro.rpsl.filter import FilterAsn, FilterAsSet
from repro.rpsl.peering import PeerAsn
from repro.rpsl.walk import (
    iter_as_expr_nodes,
    iter_filter_nodes,
    iter_policy_factors,
)
from repro.stats.routes import multi_origin_prefixes
from repro.stats.usage import reference_census

__all__ = ["Severity", "LintFinding", "LintReport", "lint_ir"]


class Severity(Enum):
    """Finding severity, ordered."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True, slots=True)
class LintFinding:
    """One linter finding, attached to an object."""

    code: str
    severity: Severity
    object_class: str
    object_name: str
    message: str

    def __str__(self) -> str:
        return (
            f"{self.code} [{self.severity.value}] {self.object_class} "
            f"{self.object_name}: {self.message}"
        )


@dataclass(slots=True)
class LintReport:
    """All findings of one lint run."""

    findings: list[LintFinding] = field(default_factory=list)

    def add(
        self,
        code: str,
        severity: Severity,
        object_class: str,
        object_name: str,
        message: str,
    ) -> None:
        """Record one finding."""
        self.findings.append(
            LintFinding(code, severity, object_class, object_name, message)
        )

    def by_code(self, code: str) -> list[LintFinding]:
        """Findings with the given code."""
        return [finding for finding in self.findings if finding.code == code]

    def counts(self) -> dict[str, int]:
        """Finding counts per code."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts

    def render(self) -> str:
        """Human-readable report text, errors first."""
        order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
        ranked = sorted(
            self.findings, key=lambda finding: (order[finding.severity], finding.code)
        )
        return "\n".join(str(finding) for finding in ranked)

    def __len__(self) -> int:
        return len(self.findings)


_ERROR_KIND_CODES = {
    ErrorKind.SYNTAX: "RPS001",
    ErrorKind.INVALID_PREFIX: "RPS001",
    ErrorKind.INVALID_ASN: "RPS001",
    ErrorKind.INVALID_AS_SET_NAME: "RPS002",
    ErrorKind.INVALID_ROUTE_SET_NAME: "RPS002",
    ErrorKind.INVALID_PEERING_SET_NAME: "RPS002",
    ErrorKind.INVALID_FILTER_SET_NAME: "RPS002",
    ErrorKind.RESERVED_NAME: "RPS003",
    ErrorKind.UNKNOWN_CLASS: "RPS001",
}

_SEVERITY_BY_CODE = {"RPS001": Severity.ERROR, "RPS002": Severity.ERROR, "RPS003": Severity.WARNING}


def lint_ir(
    ir: Ir,
    errors: ErrorCollector | None = None,
    relationships: AsRelationships | None = None,
    huge_threshold: int = 10000,
    deep_threshold: int = 5,
) -> LintReport:
    """Lint a (merged) IR; see the module docstring for the check table."""
    report = LintReport()
    query = QueryEngine(ir, compile_index(ir))
    census = reference_census(ir)

    if errors is not None:
        for issue in errors.issues:
            code = _ERROR_KIND_CODES.get(issue.kind, "RPS001")
            report.add(
                code,
                _SEVERITY_BY_CODE[code],
                issue.object_class,
                issue.object_name,
                issue.message,
            )

    _lint_as_sets(ir, query, census, report, huge_threshold, deep_threshold)
    _lint_references(ir, census, query, report)
    _lint_filters(ir, census, report)
    _lint_multi_origin(ir, report)
    if relationships is not None:
        for aut_num in ir.aut_nums.values():
            _lint_policies(aut_num, relationships, report)
    return report


def _lint_as_sets(ir, query, census, report, huge_threshold, deep_threshold) -> None:
    referenced = census.referenced_overall.get("as-set", set())
    for name, as_set in ir.as_sets.items():
        if as_set.member_count == 0 and not as_set.contains_any:
            severity = Severity.WARNING if name in referenced else Severity.INFO
            report.add(
                "RPS010", severity, "as-set", name,
                "empty as-set" + (" referenced in policy rules" if name in referenced else ""),
            )
        elif as_set.member_count == 1 and not as_set.contains_any:
            report.add(
                "RPS011", Severity.INFO, "as-set", name,
                "single-member set could be replaced by its member",
            )
        resolution = query.flatten_as_set(name)
        if resolution.has_loop:
            report.add(
                "RPS012", Severity.WARNING, "as-set", name,
                "set membership forms a loop",
            )
        if resolution.depth >= deep_threshold:
            report.add(
                "RPS013", Severity.INFO, "as-set", name,
                f"nesting depth {resolution.depth} (≥ {deep_threshold})",
            )
        if len(resolution.members) > huge_threshold:
            report.add(
                "RPS014", Severity.INFO, "as-set", name,
                f"{len(resolution.members)} flattened members (> {huge_threshold})",
            )


def _lint_references(ir, census, query, report) -> None:
    for cls, dangling in census.dangling.items():
        for key in sorted(dangling, key=str):
            if cls == "aut-num":
                # A filter/peering naming an AS with no aut-num is only an
                # issue for filters if the AS also originates nothing.
                if query.has_any_routes(key):
                    continue
                report.add(
                    "RPS021", Severity.WARNING, "aut-num", f"AS{key}",
                    "referenced AS has no aut-num and originates no route objects",
                )
            else:
                report.add(
                    "RPS020", Severity.ERROR, cls, str(key),
                    f"rule references undefined {cls}",
                )
    # route-sets defined but never used anywhere
    used = census.referenced_overall.get("route-set", set())
    for name in sorted(set(ir.route_sets) - used):
        report.add(
            "RPS041", Severity.INFO, "route-set", name,
            "route-set defined but never referenced by a rule",
        )


def _lint_filters(ir, census, report) -> None:
    for aut_num in ir.aut_nums.values():
        indirect = 0
        for rule in (*aut_num.imports, *aut_num.exports):
            for factor in iter_policy_factors(rule.expr):
                if isinstance(factor.filter, (FilterAsn, FilterAsSet)):
                    indirect += 1
        if indirect:
            report.add(
                "RPS040", Severity.INFO, "aut-num", f"AS{aut_num.asn}",
                f"{indirect} filter(s) use ASN/as-set indirection; route-sets "
                "specify prefixes directly and avoid stale route objects",
            )


def _lint_multi_origin(ir, report) -> None:
    for prefix, origins in sorted(multi_origin_prefixes(ir).items()):
        listed = ", ".join(f"AS{asn}" for asn in sorted(origins))
        report.add(
            "RPS051", Severity.WARNING, "route", str(prefix),
            f"registered with conflicting origins: {listed}",
        )


def _lint_policies(aut_num: AutNum, relationships: AsRelationships, report) -> None:
    asn = aut_num.asn
    is_transit = bool(relationships.customers.get(asn))
    referenced: set[int] = set()
    customer_prefs: list[int] = []
    provider_prefs: list[int] = []

    for rule in (*aut_num.imports, *aut_num.exports):
        for factor in iter_policy_factors(rule.expr):
            for peering_action in factor.peerings:
                peer_asns = [
                    node.asn
                    for node in iter_as_expr_nodes(peering_action.peering.as_expr)
                    if isinstance(node, PeerAsn)
                ]
                referenced.update(peer_asns)
                pref = _pref_of(peering_action.actions)
                if pref is not None and len(peer_asns) == 1:
                    remote_rel = relationships.rel(asn, peer_asns[0])
                    if rule.kind == "import" and remote_rel is Rel.CUSTOMER:
                        customer_prefs.append(pref)
                    elif rule.kind == "import" and remote_rel is Rel.PROVIDER:
                        provider_prefs.append(pref)
                # RPS030: export-self by a transit AS toward a provider/peer
                if (
                    rule.kind == "export"
                    and is_transit
                    and isinstance(factor.filter, FilterAsn)
                    and factor.filter.asn == asn
                    and len(peer_asns) == 1
                    and relationships.rel(asn, peer_asns[0]) in (Rel.PROVIDER, Rel.PEER)
                ):
                    report.add(
                        "RPS030", Severity.WARNING, "aut-num", f"AS{asn}",
                        f"transit AS announces only itself to AS{peer_asns[0]}; "
                        "customer routes are implicitly leaked past the filter "
                        "— announce the customer set or a route-set instead",
                    )
                # RPS031: from AS<C> accept AS<C> on a customer
                if (
                    rule.kind == "import"
                    and isinstance(factor.filter, FilterAsn)
                    and len(peer_asns) == 1
                    and factor.filter.asn == peer_asns[0]
                    and relationships.rel(asn, peer_asns[0]) is Rel.CUSTOMER
                ):
                    report.add(
                        "RPS031", Severity.WARNING, "aut-num", f"AS{asn}",
                        f"'from AS{peer_asns[0]} accept AS{peer_asns[0]}' only "
                        "admits the customer's own originations; accept its "
                        "customer set (or ANY) if transit is intended",
                    )

    providers = relationships.providers.get(asn, set())
    if referenced and referenced <= providers and (
        relationships.customers.get(asn) or relationships.peers.get(asn)
    ):
        report.add(
            "RPS032", Severity.INFO, "aut-num", f"AS{asn}",
            "policies cover only providers; customers and peers are undocumented",
        )

    # RPS050: RPSL Pref is inverted LocalPref (lower = preferred).  An AS
    # assigning customers *higher* pref than providers most likely meant
    # LocalPref semantics.
    if customer_prefs and provider_prefs:
        if min(customer_prefs) > max(provider_prefs):
            report.add(
                "RPS050", Severity.WARNING, "aut-num", f"AS{asn}",
                f"customer imports get pref {customer_prefs} > provider imports "
                f"{provider_prefs}; RPSL pref is LOWER-is-preferred (LocalPref "
                "≡ 65535 − pref) — this likely inverts the intended preference",
            )


def _pref_of(actions) -> int | None:
    for action in actions:
        if action.attribute == "pref" and action.values:
            try:
                return int(action.values[0])
            except ValueError:
                return None
    return None
