"""Verification reports, rendered in the style of Appendix C.

Each hop check produces a :class:`HopReport` carrying evidence *items* —
why rules mismatched (``MatchRemoteAsNum(58552)``), what was missing
(``UnrecordedAsSet("AS1299:AS-TWELVE99-CUSTOMER-V4")``), or which special
case fired (``SpecUphill``).  ``str()`` on a report reproduces the paper's
printout format, e.g.::

    MehExport { from: 56239, to: 133840, items: [MatchRemoteAsNum(55685),
        MatchFilterAsNum(56239, NoOp), MatchFilter, SpecUphill] }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from repro.bgp.table import RouteEntry
from repro.core.status import SpecialCase, UnrecordedReason, VerifyStatus
from repro.net.prefix import RangeOp, RangeOpKind

__all__ = ["ItemKind", "ReportItem", "HopReport", "RouteReport"]


class ItemKind(Enum):
    """The kinds of evidence items a hop report can carry."""

    MATCH_REMOTE_AS_NUM = "MatchRemoteAsNum"
    MATCH_REMOTE_AS_SET = "MatchRemoteAsSet"
    MATCH_REMOTE_ANY = "MatchRemoteAny"
    MATCH_FILTER = "MatchFilter"
    MATCH_FILTER_AS_NUM = "MatchFilterAsNum"
    MATCH_FILTER_AS_SET = "MatchFilterAsSet"
    MATCH_FILTER_ROUTE_SET = "MatchFilterRouteSet"
    MATCH_FILTER_PREFIXES = "MatchFilterPrefixes"
    MATCH_FILTER_AS_PATH = "MatchFilterAsPath"
    UNRECORDED_AUT_NUM = "UnrecordedAutNum"
    UNRECORDED_NO_RULES = "UnrecordedNoRules"
    UNRECORDED_AS_SET = "UnrecordedAsSet"
    UNRECORDED_ROUTE_SET = "UnrecordedRouteSet"
    UNRECORDED_PEERING_SET = "UnrecordedPeeringSet"
    UNRECORDED_FILTER_SET = "UnrecordedFilterSet"
    UNRECORDED_AS_ROUTES = "UnrecordedAsRoutes"
    SKIPPED_REGEX_RANGE = "SkipAsPathRegexAsnRange"
    SKIPPED_REGEX_TILDE = "SkipAsPathRegexSamePattern"
    SKIPPED_COMMUNITY = "SkipCommunityFilter"
    SKIPPED_BAD_RULE = "SkipUnparsedRule"
    SPEC_EXPORT_SELF = "SpecExportSelf"
    SPEC_IMPORT_CUSTOMER = "SpecImportCustomer"
    SPEC_MISSING_ROUTES = "SpecMissingRoutes"
    SPEC_OTHER_ONLY_PROVIDER_POLICIES = "SpecOtherOnlyProviderPolicies"
    SPEC_CUSTOMER_ONLY_PROVIDER_POLICIES = "SpecCustomerOnlyProviderPolicies"
    SPEC_TIER1_PAIR = "SpecTier1Pair"
    SPEC_UPHILL = "SpecUphill"


_SPECIAL_ITEMS = {
    ItemKind.SPEC_EXPORT_SELF: SpecialCase.EXPORT_SELF,
    ItemKind.SPEC_IMPORT_CUSTOMER: SpecialCase.IMPORT_CUSTOMER,
    ItemKind.SPEC_MISSING_ROUTES: SpecialCase.MISSING_ROUTES,
    ItemKind.SPEC_OTHER_ONLY_PROVIDER_POLICIES: SpecialCase.ONLY_PROVIDER_POLICIES,
    ItemKind.SPEC_CUSTOMER_ONLY_PROVIDER_POLICIES: SpecialCase.ONLY_PROVIDER_POLICIES,
    ItemKind.SPEC_TIER1_PAIR: SpecialCase.TIER1_PAIR,
    ItemKind.SPEC_UPHILL: SpecialCase.UPHILL,
}

_UNRECORDED_ITEMS = {
    ItemKind.UNRECORDED_AUT_NUM: UnrecordedReason.NO_AUT_NUM,
    ItemKind.UNRECORDED_NO_RULES: UnrecordedReason.NO_RULES,
    ItemKind.UNRECORDED_AS_ROUTES: UnrecordedReason.ZERO_ROUTE_AS,
    ItemKind.UNRECORDED_AS_SET: UnrecordedReason.MISSING_SET,
    ItemKind.UNRECORDED_ROUTE_SET: UnrecordedReason.MISSING_SET,
    ItemKind.UNRECORDED_PEERING_SET: UnrecordedReason.MISSING_SET,
    ItemKind.UNRECORDED_FILTER_SET: UnrecordedReason.MISSING_SET,
}


def _op_label(op: RangeOp | None) -> str | None:
    if op is None:
        return None
    if op.kind is RangeOpKind.NONE:
        return "NoOp"
    return str(op)


@dataclass(frozen=True, slots=True)
class ReportItem:
    """One evidence item: kind plus an optional ASN / name / operator."""

    kind: ItemKind
    asn: int | None = None
    name: str | None = None
    op: str | None = None

    @staticmethod
    def of(
        kind: ItemKind,
        asn: int | None = None,
        name: str | None = None,
        op: RangeOp | None = None,
    ) -> "ReportItem":
        """Build an item, normalizing the range-operator label."""
        return ReportItem(kind, asn, name, _op_label(op))

    @property
    def special_case(self) -> SpecialCase | None:
        """The special case this item encodes, if any."""
        return _SPECIAL_ITEMS.get(self.kind)

    @property
    def unrecorded_reason(self) -> UnrecordedReason | None:
        """The unrecorded sub-reason this item encodes, if any."""
        return _UNRECORDED_ITEMS.get(self.kind)

    def __str__(self) -> str:
        arguments = []
        if self.asn is not None:
            arguments.append(str(self.asn))
        if self.name is not None:
            arguments.append(f'"{self.name}"')
        if self.op is not None:
            arguments.append(self.op)
        if arguments:
            return f"{self.kind.value}({', '.join(arguments)})"
        return self.kind.value


_STATUS_WORD = {
    VerifyStatus.VERIFIED: "Ok",
    VerifyStatus.SKIP: "Skip",
    VerifyStatus.UNRECORDED: "Unrec",
    VerifyStatus.RELAXED: "Meh",
    VerifyStatus.SAFELISTED: "Meh",
    VerifyStatus.UNVERIFIED: "Bad",
}


@dataclass(frozen=True, slots=True)
class HopReport:
    """Verification result for one direction of one inter-AS hop.

    For an export, ``from_asn`` announced the route to ``to_asn`` and the
    *exporter's* rules were checked; for an import, the *importer's*
    (``to_asn``) rules were checked for the same hop.
    """

    direction: str  # "import" or "export"
    from_asn: int
    to_asn: int
    status: VerifyStatus
    items: tuple[ReportItem, ...] = ()
    # Whether at least one rule's peering covered the remote AS (when the
    # status is UNVERIFIED, False means the relationship itself is
    # undeclared — the dominant failure mode in Section 5.2).
    peer_matched: bool = False
    # Provenance: which of the subject's rules decided the verdict (an
    # index into aut_num.imports/.exports, set when a single rule matched)
    # and which IRR the consulted aut-num object came from.  Excluded from
    # the printed report, so Appendix-C output is unchanged.
    rule_index: int | None = None
    rule_source: str | None = None
    # fragments(), rendered once.  Not part of the value: two reports that
    # differ only here are equal and hash alike.
    _fragments: tuple[str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # tally_key(), worked out once; kept like _fragments.
    _tally_key: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # trace_fragment(), rendered once; kept like _fragments.
    _trace: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def subject_asn(self) -> int:
        """The AS whose rules were checked."""
        return self.to_asn if self.direction == "import" else self.from_asn

    def tally_key(self, shared: dict[tuple, tuple]) -> tuple:
        """⟨from, to, direction, status, detail⟩: all the figures count of a hop.

        ``detail`` is the unrecorded reason, the special case or
        ``peer_matched``, whichever the status gives a meaning.  A table
        holds few distinct keys and many reports, so equal reports keep
        the one tuple ``shared`` (key → key) already holds.
        """
        key = self._tally_key
        if key is None:
            status = self.status
            if status is VerifyStatus.UNRECORDED:
                detail = self.unrecorded_reason
            elif status is VerifyStatus.RELAXED or status is VerifyStatus.SAFELISTED:
                detail = self.special_case
            elif status is VerifyStatus.UNVERIFIED:
                detail = self.peer_matched
            else:
                detail = None
            key = (self.from_asn, self.to_asn, self.direction, status, detail)
            key = shared.setdefault(key, key)
            object.__setattr__(self, "_tally_key", key)
        return key

    @property
    def special_case(self) -> SpecialCase | None:
        """The special case that fired, if the status is relaxed/safelisted."""
        for item in self.items:
            case = item.special_case
            if case is not None:
                return case
        return None

    @property
    def unrecorded_reason(self) -> UnrecordedReason | None:
        """The dominating unrecorded sub-reason, if status is UNRECORDED."""
        for item in self.items:
            reason = item.unrecorded_reason
            if reason is not None:
                return reason
        return None

    def __str__(self) -> str:
        word = _STATUS_WORD[self.status] + self.direction.capitalize()
        if not self.items:
            return f"{word} {{ from: {self.from_asn}, to: {self.to_asn} }}"
        items = ", ".join(str(item) for item in self.items)
        return f"{word} {{ from: {self.from_asn}, to: {self.to_asn}, items: [{items}] }}"

    def fragments(self) -> tuple[str, str]:
        """This hop as a served response spells it, rendered on first use.

        ``(object, line)``: the hop's entry in the ``/verify`` body's
        ``hops`` list (compact, keys sorted) and ``str(self)`` JSON-escaped,
        without the quotes, for the body's ``text``.  A report is immutable
        and shared by every route that repeats the hop, so the pair is kept
        on it — and goes wherever the report goes: dropped from the hop
        cache, it takes its rendering along.
        """
        pair = self._fragments
        if pair is None:
            hop = {
                "direction": self.direction,
                "from_asn": self.from_asn,
                "to_asn": self.to_asn,
                "status": self.status.label,
                "peer_matched": self.peer_matched,
                "items": [str(item) for item in self.items],
            }
            pair = (
                json.dumps(hop, separators=(",", ":"), sort_keys=True),
                json.dumps(str(self))[1:-1],
            )
            object.__setattr__(self, "_fragments", pair)
        return pair

    def trace_fragment(self) -> str:
        """What a ``hop`` trace event says of this report, rendered on first use.

        The report-derived (route-independent) fields of the event as
        compact JSON without the braces.  Shared by every event that cites
        the report and, like :meth:`fragments`, dropped with the hop-cache
        entry.
        """
        fragment = self._trace
        if fragment is None:
            payload = {
                "direction": self.direction,
                "from": self.from_asn,
                "to": self.to_asn,
                "status": self.status.label,
                "items": [str(item) for item in self.items],
                "peer_matched": self.peer_matched,
            }
            if self.rule_index is not None:
                payload["rule"] = self.rule_index
            if self.rule_source:
                payload["registry"] = self.rule_source
            tier = self.special_case
            if tier is not None:
                payload["tier"] = tier.value
            unrecorded = self.unrecorded_reason
            if unrecorded is not None:
                payload["unrecorded"] = unrecorded.value
            fragment = json.dumps(payload, separators=(",", ":"), sort_keys=True)[1:-1]
            object.__setattr__(self, "_trace", fragment)
        return fragment


@dataclass(slots=True)
class RouteReport:
    """The verification report for one BGP route: all hops, both directions.

    ``ignored`` is set (and ``hops`` empty) for routes the paper excludes:
    single-AS paths exported directly by collector peers and paths
    containing BGP AS_SET segments.
    """

    entry: RouteEntry
    hops: list[HopReport] = field(default_factory=list)
    ignored: str | None = None

    def statuses(self) -> list[VerifyStatus]:
        """The status of every hop check, origin side first."""
        return [hop.status for hop in self.hops]

    def __str__(self) -> str:
        if self.ignored is not None:
            return f"Ignored({self.ignored}) {self.entry.prefix}"
        header = f"# {self.entry.prefix} path {' '.join(map(str, self.entry.as_path))}"
        return "\n".join([header, *(str(hop) for hop in self.hops)])
