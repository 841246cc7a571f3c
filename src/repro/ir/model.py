"""The intermediate representation (IR) of parsed RPSL.

The IR is the library's central data structure, mirroring the single
``Ir`` struct of the paper's Rust implementation: every routing-related
object class, fully parsed into interpretable form.  It is the unit of
JSON export/import (:mod:`repro.ir.json_io`) and the input to the
verification engine and to all characterization analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.prefix import Prefix, RangeOp
from repro.rpsl.filter import Filter
from repro.rpsl.names import NameKind
from repro.rpsl.peering import Peering
from repro.rpsl.policy import DefaultRule, PolicyRule

__all__ = [
    "BadRule",
    "AutNum",
    "AsSet",
    "RouteSetMemberName",
    "RouteSet",
    "RouteObject",
    "PeeringSet",
    "FilterSet",
    "Ir",
]


@dataclass(slots=True)
class BadRule:
    """An ``import``/``export`` attribute value that failed to parse.

    Kept verbatim so error statistics and the *skip* verification status
    can account for it.
    """

    attribute: str
    text: str
    error: str


@dataclass(slots=True)
class AutNum:
    """One *aut-num* object: an AS and its routing policy rules."""

    asn: int
    as_name: str = ""
    imports: list[PolicyRule] = field(default_factory=list)
    exports: list[PolicyRule] = field(default_factory=list)
    defaults: list[DefaultRule] = field(default_factory=list)
    bad_rules: list[BadRule] = field(default_factory=list)
    member_of: list[str] = field(default_factory=list)
    mnt_by: list[str] = field(default_factory=list)
    source: str = ""

    @property
    def rule_count(self) -> int:
        """Number of parsed import + export rules (the Figure 1 metric)."""
        return len(self.imports) + len(self.exports)


@dataclass(slots=True)
class AsSet:
    """One *as-set* object.

    ``members_asn``/``members_set`` hold direct members; recursive
    resolution happens in the query engine.  ``contains_any`` flags the
    reserved ``ANY``/``AS-ANY`` appearing as a member (an anomaly the
    paper's error census counts).
    """

    name: str
    members_asn: list[int] = field(default_factory=list)
    members_set: list[str] = field(default_factory=list)
    mbrs_by_ref: list[str] = field(default_factory=list)
    mnt_by: list[str] = field(default_factory=list)
    contains_any: bool = False
    source: str = ""

    @property
    def member_count(self) -> int:
        """Direct member count (ASNs plus nested set names)."""
        return len(self.members_asn) + len(self.members_set)


@dataclass(slots=True)
class RouteSetMemberName:
    """A named member of a *route-set*: another route-set, as-set, or ASN.

    An ASN or as-set member contributes the prefixes of the *route* objects
    those ASes originate (RFC 2622 Section 5.2); ``op`` is an optional range
    operator applied to every contributed prefix.
    """

    name: str
    kind: NameKind
    op: RangeOp = field(default_factory=RangeOp)


@dataclass(slots=True)
class RouteSet:
    """One *route-set* object: explicit prefixes plus named members."""

    name: str
    prefix_members: list[tuple[Prefix, RangeOp]] = field(default_factory=list)
    name_members: list[RouteSetMemberName] = field(default_factory=list)
    mbrs_by_ref: list[str] = field(default_factory=list)
    mnt_by: list[str] = field(default_factory=list)
    source: str = ""

    @property
    def member_count(self) -> int:
        """Direct member count (prefixes plus named members)."""
        return len(self.prefix_members) + len(self.name_members)


@dataclass(slots=True)
class RouteObject:
    """One *route*/*route6* object: a prefix-origin registration."""

    prefix: Prefix
    origin: int
    member_of: list[str] = field(default_factory=list)
    mnt_by: list[str] = field(default_factory=list)
    source: str = ""


@dataclass(slots=True)
class PeeringSet:
    """One *peering-set* object: a named list of peerings."""

    name: str
    peerings: list[Peering] = field(default_factory=list)
    mnt_by: list[str] = field(default_factory=list)
    source: str = ""


@dataclass(slots=True)
class FilterSet:
    """One *filter-set* object: a named filter expression."""

    name: str
    filter: Filter | None = None
    mnt_by: list[str] = field(default_factory=list)
    source: str = ""


@dataclass(slots=True, weakref_slot=True)
class Ir:
    """The full intermediate representation of one or more IRRs.

    Set names are keyed by their upper-cased canonical form.  When built by
    :func:`repro.ir.merge.merge_irs`, each keyed entry is the
    highest-priority definition, while ``route_objects`` keeps *every*
    registration (the multiplicity statistics of Section 4 need duplicates).

    Instances are snapshots: treated as immutable once built (the delta
    path in :mod:`repro.irr.journal` weakly caches per-snapshot route
    indexes, hence the weakref slot).
    """

    aut_nums: dict[int, AutNum] = field(default_factory=dict)
    as_sets: dict[str, AsSet] = field(default_factory=dict)
    route_sets: dict[str, RouteSet] = field(default_factory=dict)
    peering_sets: dict[str, PeeringSet] = field(default_factory=dict)
    filter_sets: dict[str, FilterSet] = field(default_factory=dict)
    route_objects: list[RouteObject] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        """Object counts per class (the columns of Table 1)."""
        return {
            "aut-num": len(self.aut_nums),
            "as-set": len(self.as_sets),
            "route-set": len(self.route_sets),
            "peering-set": len(self.peering_sets),
            "filter-set": len(self.filter_sets),
            "route": len(self.route_objects),
            "import": sum(len(a.imports) for a in self.aut_nums.values()),
            "export": sum(len(a.exports) for a in self.aut_nums.values()),
        }
