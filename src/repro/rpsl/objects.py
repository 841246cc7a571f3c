"""Object-class parsers: raw paragraphs to IR objects.

Each parser consumes a lexed :class:`~repro.rpsl.lexer.RpslParagraph` and
produces the corresponding IR dataclass, recording every problem in an
:class:`~repro.rpsl.errors.ErrorCollector` instead of raising.  Malformed
objects are still emitted whenever a usable key exists (an aut-num with one
bad rule keeps its good rules), matching RPSLyzer's tolerance.
"""

from __future__ import annotations

import re

from repro.ir.model import (
    AsSet,
    AutNum,
    BadRule,
    FilterSet,
    Ir,
    PeeringSet,
    RouteObject,
    RouteSet,
    RouteSetMemberName,
)
from repro.net.asn import AsnError, parse_asn
from repro.net.prefix import PrefixError, RangeOp, parse_prefix_with_op
from repro.rpsl.errors import ErrorCollector, ErrorKind, RpslSyntaxError
from repro.rpsl.filter import parse_filter_text
from repro.rpsl.lexer import RpslParagraph
from repro.rpsl.names import NameKind, classify_name, is_valid_set_name, normalize_name
from repro.rpsl.peering import parse_peering_text
from repro.rpsl.policy import parse_default, parse_policy

__all__ = [
    "ROUTING_CLASSES",
    "parse_aut_num",
    "parse_as_set",
    "parse_route_set",
    "parse_route",
    "parse_peering_set",
    "parse_filter_set",
    "collect_into_ir",
]

ROUTING_CLASSES = frozenset(
    {"aut-num", "as-set", "route-set", "route", "route6", "peering-set", "filter-set"}
)

_LIST_SPLIT_RE = re.compile(r"[,\s]+")


def _split_list(value: str) -> list[str]:
    """Split a members-style value on commas and whitespace."""
    return [item for item in _LIST_SPLIT_RE.split(value.strip()) if item]


def _record_strays(
    paragraph: RpslParagraph, name: str, source: str, errors: ErrorCollector
) -> None:
    for stray in paragraph.stray_lines:
        errors.record(
            ErrorKind.SYNTAX,
            paragraph.object_class,
            name,
            source,
            f"out-of-place text: {stray.strip()!r}",
        )


def parse_aut_num(
    paragraph: RpslParagraph, source: str, errors: ErrorCollector, memo: dict | None = None
) -> AutNum | None:
    """Parse an *aut-num* paragraph; None if the AS number itself is bad.

    ``memo`` is the per-ingest sub-expression table of
    :func:`~repro.rpsl.policy.parse_policy`.
    """
    name = paragraph.object_name
    try:
        asn = parse_asn(name)
    except AsnError as exc:
        errors.record(ErrorKind.INVALID_ASN, "aut-num", name, source, str(exc))
        return None
    aut_num = AutNum(asn=asn, source=source)
    _record_strays(paragraph, name, source, errors)
    aut_num.as_name = paragraph.get("as-name") or ""
    aut_num.member_of = [
        normalize_name(member)
        for attribute in paragraph.get_all("member-of")
        for member in _split_list(attribute.value)
    ]
    aut_num.mnt_by = [
        maintainer.upper()
        for attribute in paragraph.get_all("mnt-by")
        for maintainer in _split_list(attribute.value)
    ]
    for attribute in paragraph.get_all("import", "export", "mp-import", "mp-export"):
        attr_name = attribute.name
        multiprotocol = attr_name.startswith("mp-")
        kind = attr_name.removeprefix("mp-")
        try:
            rule = parse_policy(kind, attribute.value, multiprotocol=multiprotocol, memo=memo)
        except RpslSyntaxError as exc:
            aut_num.bad_rules.append(BadRule(attr_name, attribute.value, str(exc)))
            errors.record(ErrorKind.SYNTAX, "aut-num", name, source, str(exc))
            continue
        if kind == "import":
            aut_num.imports.append(rule)
        else:
            aut_num.exports.append(rule)
    for attribute in paragraph.get_all("default", "mp-default"):
        attr_name = attribute.name
        try:
            aut_num.defaults.append(
                parse_default(attribute.value, multiprotocol=attr_name.startswith("mp-"), memo=memo)
            )
        except RpslSyntaxError as exc:
            aut_num.bad_rules.append(BadRule(attr_name, attribute.value, str(exc)))
            errors.record(ErrorKind.SYNTAX, "aut-num", name, source, str(exc))
    return aut_num


def parse_as_set(
    paragraph: RpslParagraph, source: str, errors: ErrorCollector
) -> AsSet | None:
    """Parse an *as-set* paragraph."""
    name = normalize_name(paragraph.object_name)
    if not name:
        errors.record(ErrorKind.SYNTAX, "as-set", name, source, "missing set name")
        return None
    if not is_valid_set_name(name, "as-set"):
        errors.record(
            ErrorKind.INVALID_AS_SET_NAME, "as-set", name, source, "invalid as-set name"
        )
    as_set = AsSet(name=name, source=source)
    _record_strays(paragraph, name, source, errors)
    for attribute in paragraph.get_all("members", "mp-members"):
        for member in _split_list(attribute.value):
            kind = classify_name(member)
            if kind is NameKind.ASN:
                as_set.members_asn.append(int(member[2:]))
            elif kind is NameKind.AS_SET:
                as_set.members_set.append(normalize_name(member))
            elif kind in (NameKind.ANY, NameKind.AS_ANY):
                as_set.contains_any = True
                errors.record(
                    ErrorKind.RESERVED_NAME,
                    "as-set",
                    name,
                    source,
                    f"reserved keyword {member!r} used as a member",
                )
            else:
                errors.record(
                    ErrorKind.SYNTAX,
                    "as-set",
                    name,
                    source,
                    f"invalid as-set member {member!r}",
                )
    as_set.mbrs_by_ref = [m.upper() for a in paragraph.get_all("mbrs-by-ref") for m in _split_list(a.value)]
    as_set.mnt_by = [m.upper() for a in paragraph.get_all("mnt-by") for m in _split_list(a.value)]
    return as_set


def parse_route_set(
    paragraph: RpslParagraph, source: str, errors: ErrorCollector
) -> RouteSet | None:
    """Parse a *route-set* paragraph."""
    name = normalize_name(paragraph.object_name)
    if not name:
        errors.record(ErrorKind.SYNTAX, "route-set", name, source, "missing set name")
        return None
    if not is_valid_set_name(name, "route-set"):
        errors.record(
            ErrorKind.INVALID_ROUTE_SET_NAME,
            "route-set",
            name,
            source,
            "invalid route-set name",
        )
    route_set = RouteSet(name=name, source=source)
    _record_strays(paragraph, name, source, errors)
    for attribute in paragraph.get_all("members", "mp-members"):
        for member in _split_list(attribute.value):
            if "/" in member:
                try:
                    prefix, op = parse_prefix_with_op(member)
                except PrefixError as exc:
                    errors.record(
                        ErrorKind.INVALID_PREFIX, "route-set", name, source, str(exc)
                    )
                    continue
                route_set.prefix_members.append((prefix, op))
                continue
            base = member
            op_text = ""
            caret = member.find("^")
            if caret >= 0:
                base, op_text = member[:caret], member[caret:]
            kind = classify_name(base)
            if kind in (NameKind.ASN, NameKind.AS_SET, NameKind.ROUTE_SET, NameKind.RS_ANY):
                try:
                    op = RangeOp.parse(op_text) if op_text else RangeOp()
                except PrefixError as exc:
                    errors.record(
                        ErrorKind.SYNTAX, "route-set", name, source, str(exc)
                    )
                    continue
                route_set.name_members.append(
                    RouteSetMemberName(normalize_name(base), kind, op)
                )
            else:
                errors.record(
                    ErrorKind.SYNTAX,
                    "route-set",
                    name,
                    source,
                    f"invalid route-set member {member!r}",
                )
    route_set.mbrs_by_ref = [m.upper() for a in paragraph.get_all("mbrs-by-ref") for m in _split_list(a.value)]
    route_set.mnt_by = [m.upper() for a in paragraph.get_all("mnt-by") for m in _split_list(a.value)]
    return route_set


def parse_route(
    paragraph: RpslParagraph, source: str, errors: ErrorCollector
) -> RouteObject | None:
    """Parse a *route* or *route6* paragraph."""
    name = paragraph.object_name
    object_class = paragraph.object_class
    try:
        prefix, op = parse_prefix_with_op(name)
    except PrefixError as exc:
        errors.record(ErrorKind.INVALID_PREFIX, object_class, name, source, str(exc))
        return None
    origin_text = paragraph.get("origin")
    if origin_text is None:
        errors.record(
            ErrorKind.SYNTAX, object_class, name, source, "route object without origin"
        )
        return None
    try:
        origin = parse_asn(origin_text.split()[0])
    except (AsnError, IndexError) as exc:
        errors.record(ErrorKind.INVALID_ASN, object_class, name, source, str(exc))
        return None
    route = RouteObject(prefix=prefix, origin=origin, source=source)
    _record_strays(paragraph, name, source, errors)
    route.member_of = [
        normalize_name(member)
        for attribute in paragraph.get_all("member-of")
        for member in _split_list(attribute.value)
    ]
    route.mnt_by = [m.upper() for a in paragraph.get_all("mnt-by") for m in _split_list(a.value)]
    return route


def parse_peering_set(
    paragraph: RpslParagraph, source: str, errors: ErrorCollector
) -> PeeringSet | None:
    """Parse a *peering-set* paragraph."""
    name = normalize_name(paragraph.object_name)
    if not name:
        errors.record(ErrorKind.SYNTAX, "peering-set", name, source, "missing set name")
        return None
    if not is_valid_set_name(name, "peering-set"):
        errors.record(
            ErrorKind.INVALID_PEERING_SET_NAME,
            "peering-set",
            name,
            source,
            "invalid peering-set name",
        )
    peering_set = PeeringSet(name=name, source=source)
    _record_strays(paragraph, name, source, errors)
    for attribute in paragraph.get_all("peering", "mp-peering"):
        try:
            peering_set.peerings.append(parse_peering_text(attribute.value))
        except RpslSyntaxError as exc:
            errors.record(ErrorKind.SYNTAX, "peering-set", name, source, str(exc))
    peering_set.mnt_by = [m.upper() for a in paragraph.get_all("mnt-by") for m in _split_list(a.value)]
    return peering_set


def parse_filter_set(
    paragraph: RpslParagraph, source: str, errors: ErrorCollector
) -> FilterSet | None:
    """Parse a *filter-set* paragraph."""
    name = normalize_name(paragraph.object_name)
    if not name:
        errors.record(ErrorKind.SYNTAX, "filter-set", name, source, "missing set name")
        return None
    if not is_valid_set_name(name, "filter-set"):
        errors.record(
            ErrorKind.INVALID_FILTER_SET_NAME,
            "filter-set",
            name,
            source,
            "invalid filter-set name",
        )
    filter_set = FilterSet(name=name, source=source)
    _record_strays(paragraph, name, source, errors)
    filter_text = paragraph.get("filter") or paragraph.get("mp-filter")
    if filter_text is None:
        errors.record(
            ErrorKind.SYNTAX, "filter-set", name, source, "filter-set without filter"
        )
    else:
        try:
            filter_set.filter = parse_filter_text(filter_text)
        except RpslSyntaxError as exc:
            errors.record(ErrorKind.SYNTAX, "filter-set", name, source, str(exc))
    filter_set.mnt_by = [m.upper() for a in paragraph.get_all("mnt-by") for m in _split_list(a.value)]
    return filter_set


def collect_into_ir(
    paragraphs, source: str, errors: ErrorCollector, ir: Ir | None = None
) -> Ir:
    """Parse an iterable of paragraphs into an :class:`~repro.ir.model.Ir`.

    Unknown (non-routing) object classes are skipped silently, as they are
    plentiful in real dumps (*person*, *mntner*, *inetnum*, ...).

    Paragraphs the lexer flagged as damaged — ``oversized`` (blew the
    :class:`~repro.rpsl.lexer.LexLimits` caps) or ``truncated`` (cut off
    by the end of a partial dump) — are dropped with an ``OVERSIZED`` /
    ``TRUNCATED`` issue rather than half-parsed: a partial object is worse
    than an accounted-for missing one.

    Repeated filters and peerings are parsed once per call: their nodes
    are shared between the rules that spell them alike, through a memo
    that lives exactly as long as this call — the next ingest starts cold.
    """
    if ir is None:
        ir = Ir()
    memo: dict = {}
    for paragraph in paragraphs:
        object_class = paragraph.object_class
        if paragraph.oversized:
            errors.record(
                ErrorKind.OVERSIZED,
                object_class,
                paragraph.object_name,
                source,
                "object exceeded the per-paragraph size cap; dropped",
            )
            continue
        if paragraph.truncated:
            errors.record(
                ErrorKind.TRUNCATED,
                object_class,
                paragraph.object_name,
                source,
                "dump ended mid-object; dropped the partial paragraph",
            )
            continue
        if object_class == "aut-num":
            aut_num = parse_aut_num(paragraph, source, errors, memo)
            if aut_num is not None and aut_num.asn not in ir.aut_nums:
                ir.aut_nums[aut_num.asn] = aut_num
        elif object_class == "as-set":
            as_set = parse_as_set(paragraph, source, errors)
            if as_set is not None and as_set.name not in ir.as_sets:
                ir.as_sets[as_set.name] = as_set
        elif object_class == "route-set":
            route_set = parse_route_set(paragraph, source, errors)
            if route_set is not None and route_set.name not in ir.route_sets:
                ir.route_sets[route_set.name] = route_set
        elif object_class in ("route", "route6"):
            route = parse_route(paragraph, source, errors)
            if route is not None:
                ir.route_objects.append(route)
        elif object_class == "peering-set":
            peering_set = parse_peering_set(paragraph, source, errors)
            if peering_set is not None and peering_set.name not in ir.peering_sets:
                ir.peering_sets[peering_set.name] = peering_set
        elif object_class == "filter-set":
            filter_set = parse_filter_set(paragraph, source, errors)
            if filter_set is not None and filter_set.name not in ir.filter_sets:
                ir.filter_sets[filter_set.name] = filter_set
    return ir
