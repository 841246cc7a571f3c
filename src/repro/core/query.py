"""The query engine: read-only lookups over one compiled index.

Verification evaluates millions of filter checks; each is answered here
from tables that :func:`~repro.core.compiled.compile_index` resolved once,
ahead of verification, so every check is a lookup:

* per-family flat hash planes over every declared ⟨prefix, origin⟩ pair
  (:class:`~repro.core.prefixtrie.RouteTrie`): exact and ancestor
  (``AS<n>`` / ``^-`` / ``^+`` / ``^n-m``) queries probe only the
  ancestor lengths actually declared on the branch, not all 33 (IPv4) or
  129 (IPv6);
* a dict per route-set (:class:`PrefixOpIndex`) for its members with
  range operators, probed at the lengths its members declare;
* flattened *as-sets* (with loop detection and depth measurement — the
  Section 4 statistics reuse both) and resolved *route-sets* and
  *peering-sets*, including RFC 2622 "members by reference" via
  ``member-of``/``mbrs-by-ref``; *filter-sets* are read off the IR.

The resolution code itself runs only inside the compile pass
(:class:`repro.core.compiled.Resolver`); a :class:`QueryEngine` resolves
and stores nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.prefixtrie import admitted_lengths
from repro.ir.model import Ir

if TYPE_CHECKING:  # pragma: no cover - typing-only, avoids an import cycle
    from repro.core.compiled import CompiledIndex
from repro.net.prefix import Prefix, RangeOp, RangeOpKind
from repro.rpsl.filter import Filter, FilterPrefixSet
from repro.rpsl.peering import Peering

__all__ = [
    "AsSetResolution",
    "ResolvedRouteSet",
    "PrefixOpIndex",
    "QueryEngine",
    "BUILTIN_FILTER_SETS",
    "unrecorded_as_set",
    "unrecorded_route_set",
]

_PrefixKey = tuple[int, int, int]  # (version, network, length)


class PrefixOpIndex:
    """Declared prefixes with range operators: one route-set's members.

    ``entries`` is a plain dict ``{(version, masked network, length):
    (RangeOp, ...)}``; beside it, per family, the OR of the declared
    lengths (bit ``n`` set iff some member has length ``n``), so
    :meth:`matches` probes only the ancestor lengths a member declares.
    A set holds a handful of members and travels in the artifact's
    residual pickle, so a dict is all it needs.  Read-only once built.
    """

    __slots__ = ("entries", "_lengths4", "_lengths6")

    def __init__(self, entries: dict[_PrefixKey, list[RangeOp]] | None = None):
        table: dict[_PrefixKey, tuple[RangeOp, ...]] = {}
        lengths = {4: 0, 6: 0}
        for (version, net, plen), ops in (entries or {}).items():
            shift = (32 if version == 4 else 128) - plen
            key = (version, (net >> shift) << shift, plen)
            table[key] = table.get(key, ()) + tuple(ops)
            lengths[version] |= 1 << plen
        self.entries = table
        self._lengths4 = lengths[4]
        self._lengths6 = lengths[6]

    def matches(self, prefix: Prefix, override: RangeOp | None = None) -> bool:
        """Whether any declared entry covers ``prefix`` under its operator.

        ``override`` replaces every stored operator (an outer ``^op``
        applied to the whole set): then any entry at an admitted length
        matches.
        """
        version, qnet, qlen = prefix.version, prefix.network, prefix.length
        if override is None or override.kind is RangeOpKind.NONE:
            override = None  # a no-op override: each entry's own operator decides
            m = (1 << (qlen + 1)) - 1
        else:
            m = admitted_lengths(override, qlen)
        m &= self._lengths4 if version == 4 else self._lengths6
        maxlen = 32 if version == 4 else 128
        entries = self.entries
        while m:
            pl = m.bit_length() - 1
            m ^= 1 << pl
            shift = maxlen - pl
            ops = entries.get((version, (qnet >> shift) << shift, pl))
            if ops is not None and (
                override is not None or any(op.allows(pl, qlen) for op in ops)
            ):
                return True
        return False

    def __len__(self) -> int:
        return sum(map(len, self.entries.values()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrefixOpIndex):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None  # compared by content (mirrors the earlier eq dataclass)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrefixOpIndex(<{len(self)} ops>)"

    def __getstate__(self):
        return self.entries

    def __setstate__(self, entries):
        self.__init__(entries)


@dataclass(frozen=True, slots=True)
class AsSetResolution:
    """A fully flattened *as-set*."""

    members: frozenset[int]
    unrecorded: tuple[str, ...]
    has_loop: bool
    depth: int
    contains_any: bool
    recorded: bool  # whether the set itself exists in the IR


@dataclass(frozen=True, slots=True)
class ResolvedRouteSet:
    """A *route-set* resolved to an index plus lazily-checked references."""

    index: PrefixOpIndex
    asn_members: tuple[tuple[int, RangeOp], ...]
    as_set_members: tuple[tuple[str, RangeOp], ...]
    unrecorded: tuple[str, ...]
    contains_any: bool
    recorded: bool


# RFC 2622 reserves well-known filter-set names; IRRs rarely carry their
# definitions, so the engine falls back to these (IPv4 martians per RFC 6890).
_MARTIAN_PREFIXES = (
    "0.0.0.0/8",
    "10.0.0.0/8",
    "100.64.0.0/10",
    "127.0.0.0/8",
    "169.254.0.0/16",
    "172.16.0.0/12",
    "192.0.0.0/24",
    "192.0.2.0/24",
    "192.168.0.0/16",
    "198.18.0.0/15",
    "198.51.100.0/24",
    "203.0.113.0/24",
    "224.0.0.0/4",
    "240.0.0.0/4",
)


def _builtin_martian_filter() -> Filter:
    plus = RangeOp(RangeOpKind.PLUS)
    members = tuple((Prefix.parse(text), plus) for text in _MARTIAN_PREFIXES)
    return FilterPrefixSet(members)


BUILTIN_FILTER_SETS: dict[str, Filter] = {
    "FLTR-MARTIAN": _builtin_martian_filter(),
    "FLTR-BOGONS": _builtin_martian_filter(),
    "FLTR-MARTIANS": _builtin_martian_filter(),
}


def unrecorded_as_set(name: str) -> AsSetResolution:
    """The resolution of an as-set name no object records."""
    return AsSetResolution(frozenset(), (name,), False, 0, False, False)


def unrecorded_route_set(name: str) -> ResolvedRouteSet:
    """The resolution of a route-set name no object records."""
    return ResolvedRouteSet(PrefixOpIndex(), (), (), (name,), False, False)


class QueryEngine:
    """Read-only lookups over one IR and its :class:`~repro.core.compiled.CompiledIndex`.

    The route trie (whose flat planes may be memoryviews over the mmap'd
    artifact) and the resolution tables are the index's own objects, read
    in place: the engine copies none of them and writes into none.  The
    compile pass resolves every name the IR records and every name it
    references, so a set name the index does not hold is one the IR does
    not record, and is answered as such without being stored.
    """

    def __init__(self, ir: Ir, index: "CompiledIndex"):
        self.ir = ir
        self.index = index
        self.routes = index.route_trie
        self._as_sets = index.as_sets
        self._route_sets = index.route_sets
        self._peering_sets = index.peering_sets

    # -- route objects --------------------------------------------------

    def has_any_routes(self, asn: int) -> bool:
        """Whether the AS appears as *origin* of at least one route object."""
        return self.routes.has_origin(asn)

    def asn_route_match(self, asn: int, prefix: Prefix, op: RangeOp) -> bool:
        """Whether ``asn`` registered a route object matching ``prefix^op``."""
        return self.routes.match_origin(
            asn, prefix.version, prefix.network, prefix.length, op
        )

    def origins_of(self, prefix: Prefix) -> frozenset[int]:
        """Origin ASes of route objects exactly matching ``prefix``."""
        return self.routes.exact_origins(prefix.version, prefix.network, prefix.length)

    def as_set_route_match(self, name: str, prefix: Prefix, op: RangeOp) -> bool:
        """Whether any member of the as-set registered a matching route."""
        resolution = self.flatten_as_set(name)
        version, network, length = prefix.version, prefix.network, prefix.length
        if resolution.contains_any:
            return self.routes.has_exact(version, network, length) or self._any_cover(
                prefix, op
            )
        members = resolution.members
        if not members:
            return False
        return self.routes.match_members(members, version, network, length, op)

    def _any_cover(self, prefix: Prefix, op: RangeOp) -> bool:
        return self.routes.match_any(prefix.version, prefix.network, prefix.length, op)

    # -- sets ------------------------------------------------------------

    def flatten_as_set(self, name: str) -> AsSetResolution:
        """An as-set flattened to its member ASNs (loops and depth included)."""
        resolution = self._as_sets.get(name)
        return resolution if resolution is not None else unrecorded_as_set(name)

    def resolve_route_set(self, name: str) -> ResolvedRouteSet:
        """A route-set: nested sets folded, AS references kept by name."""
        resolution = self._route_sets.get(name)
        return resolution if resolution is not None else unrecorded_route_set(name)

    def route_set_match(self, name: str, prefix: Prefix, op: RangeOp) -> bool:
        """Whether ``prefix`` matches the (resolved) route-set under ``op``."""
        resolution = self.resolve_route_set(name)
        if resolution.contains_any:
            return True
        override = op if op.kind is not RangeOpKind.NONE else None
        if resolution.index.matches(prefix, override):
            return True
        for asn, member_op in resolution.asn_members:
            if self.asn_route_match(asn, prefix, member_op.compose(op)):
                return True
        for set_name, member_op in resolution.as_set_members:
            if self.as_set_route_match(set_name, prefix, member_op.compose(op)):
                return True
        return False

    def resolve_peering_set(self, name: str) -> tuple[Peering, ...] | None:
        """The peerings of a peering-set, or None if unrecorded."""
        return self._peering_sets.get(name)

    def resolve_filter_set(self, name: str) -> Filter | None:
        """The filter of a filter-set; well-known names have built-ins."""
        filter_set = self.ir.filter_sets.get(name)
        if filter_set is not None and filter_set.filter is not None:
            return filter_set.filter
        return BUILTIN_FILTER_SETS.get(name)
