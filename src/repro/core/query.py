"""The query engine: indexed, cached resolution of IR references.

Verification evaluates millions of filter checks; this module provides the
data structures that keep each check near-constant-time:

* per-family flat hash planes over every declared ⟨prefix, origin⟩ pair
  (:class:`~repro.core.prefixtrie.RouteTrie`): exact and ancestor
  (``AS<n>`` / ``^-`` / ``^+`` / ``^n-m``) queries probe only the
  ancestor lengths actually declared on the branch, not all 33 (IPv4) or
  129 (IPv6);
* plane-backed :class:`PrefixOpIndex` for route-set members with range
  operators, probed the same way;
* memoized recursive flattening of *as-sets* (with loop detection and
  depth measurement — the Section 4 statistics reuse both);
* lazy resolution of *route-sets*, *peering-sets*, and *filter-sets*,
  including RFC 2622 "members by reference" via ``member-of``/
  ``mbrs-by-ref``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.prefixtrie import OpTrie, RouteTrie, RouteTrieBuilder
from repro.ir.model import Ir

if TYPE_CHECKING:  # pragma: no cover - typing-only, avoids an import cycle
    from repro.core.compiled import CompiledIndex
from repro.net.prefix import Prefix, RangeOp, RangeOpKind
from repro.rpsl.filter import Filter, FilterPrefixSet
from repro.rpsl.names import NameKind
from repro.rpsl.peering import Peering

__all__ = ["AsSetResolution", "ResolvedRouteSet", "PrefixOpIndex", "QueryEngine", "BUILTIN_FILTER_SETS"]

_PrefixKey = tuple[int, int, int]  # (version, network, length)


def _key(prefix: Prefix) -> _PrefixKey:
    return (prefix.version, prefix.network, prefix.length)


class PrefixOpIndex:
    """Declared prefixes with range operators, probed through flat planes.

    Entries accumulate in a plain dict while the set is being resolved;
    the first probe (or an explicit :meth:`freeze`) lowers them into an
    :class:`~repro.core.prefixtrie.OpTrie` whose flat planes pickle
    compactly inside the compiled artifact.  The dict view stays
    reachable through :attr:`entries` (reconstructed on demand).
    """

    __slots__ = ("_pending", "_trie")

    def __init__(self, entries: dict[_PrefixKey, list[RangeOp]] | None = None):
        self._pending: dict[_PrefixKey, list[RangeOp]] | None = (
            {key: list(ops) for key, ops in entries.items()} if entries else {}
        )
        self._trie: OpTrie | None = None

    @property
    def entries(self) -> dict[_PrefixKey, list[RangeOp]]:
        """The ``{(version, net, len): [RangeOp, ...]}`` mapping (compat)."""
        if self._pending is None:
            rebuilt: dict[_PrefixKey, list[RangeOp]] = {}
            for key, op in self._trie.iter_entries():
                rebuilt.setdefault(key, []).append(op)
            self._pending = rebuilt
        return self._pending

    def add(self, prefix: Prefix, op: RangeOp) -> None:
        """Register one declared prefix with its operator."""
        self.entries.setdefault(_key(prefix), []).append(op)
        self._trie = None

    def freeze(self) -> OpTrie:
        """Lower the entries into their trie (idempotent)."""
        if self._trie is None:
            self._trie = OpTrie.from_entries(self._pending or {})
        return self._trie

    def matches(self, prefix: Prefix, override: RangeOp | None = None) -> bool:
        """Whether any declared entry covers ``prefix`` under its operator.

        ``override`` replaces every stored operator (an outer ``^op``
        applied to the whole set).
        """
        trie = self._trie
        if trie is None:
            if not self._pending:
                return False
            trie = self.freeze()
        if override is not None and override.kind is RangeOpKind.NONE:
            override = None  # a no-op override: invariant across the walk
        return trie.matches(prefix.version, prefix.network, prefix.length, override)

    def __len__(self) -> int:
        if self._trie is not None and self._pending is None:
            return self._trie.op_count
        return sum(len(ops) for ops in self.entries.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrefixOpIndex):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None  # mutable (mirrors the earlier eq dataclass)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrefixOpIndex(<{len(self)} ops>)"

    def __getstate__(self):
        # Pickle the flat trie planes, not the dict of operator objects:
        # this is what shrinks route-set members inside the artifact.
        return {"trie": self.freeze()}

    def __setstate__(self, state):
        self._pending = None
        self._trie = state["trie"]


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


class QueryEngine:
    """Indexed access to one (usually merged) IR.

    ``index`` (a :class:`~repro.core.compiled.CompiledIndex`) pre-seeds
    every table and memo cache from the compile-once pass: the read-only
    route trie is adopted as-is (its flat planes may be memoryviews over
    the mmap'd artifact), while the memo caches are shallow-copied so
    lazy fills never mutate the shared artifact.
    """

    def __init__(
        self,
        ir: Ir,
        max_depth: int = 64,
        index: "CompiledIndex | None" = None,
    ):
        self.ir = ir
        self.max_depth = max_depth
        if index is not None:
            self.routes = index.route_trie
            self._as_set_byref = index.as_set_byref
            self._route_set_byref = index.route_set_byref
            self._as_set_cache = dict(index.as_sets)
            self._route_set_cache = dict(index.route_sets)
            self._peering_set_cache = dict(index.peering_sets)
            return

        # The route backend: every declared ⟨prefix, origin⟩ pair.
        builder = RouteTrieBuilder()
        for route in ir.route_objects:
            builder.add(route.prefix, route.origin)
        self.routes: RouteTrie = builder.build()

        # Members-by-reference: aut-nums joining as-sets, routes joining
        # route-sets, each gated by the set's mbrs-by-ref maintainer list.
        self._as_set_byref: dict[str, set[int]] = {}
        for aut_num in ir.aut_nums.values():
            for set_name in aut_num.member_of:
                as_set = ir.as_sets.get(set_name)
                if as_set is not None and _byref_allowed(as_set.mbrs_by_ref, aut_num.mnt_by):
                    self._as_set_byref.setdefault(set_name, set()).add(aut_num.asn)
        self._route_set_byref: dict[str, list[Prefix]] = {}
        for route in ir.route_objects:
            for set_name in route.member_of:
                route_set = ir.route_sets.get(set_name)
                if route_set is not None and _byref_allowed(route_set.mbrs_by_ref, route.mnt_by):
                    self._route_set_byref.setdefault(set_name, []).append(route.prefix)

        self._as_set_cache: dict[str, AsSetResolution] = {}
        self._route_set_cache: dict[str, ResolvedRouteSet] = {}
        self._peering_set_cache: dict[str, tuple[Peering, ...] | None] = {}

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

    # -- as-sets ---------------------------------------------------------

    def flatten_as_set(self, name: str) -> AsSetResolution:
        """Flatten an as-set to its member ASNs (memoized, loop-safe)."""
        cached = self._as_set_cache.get(name)
        if cached is not None:
            return cached
        recorded = name in self.ir.as_sets
        members: set[int] = set()
        unrecorded: set[str] = set()
        contains_any = False
        has_loop = False

        # Reachability sweep over the set graph.
        reachable: list[str] = []
        seen: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            as_set = self.ir.as_sets.get(current)
            if as_set is None:
                if current != name or not recorded:
                    unrecorded.add(current)
                continue
            reachable.append(current)
            members.update(as_set.members_asn)
            members.update(self._as_set_byref.get(current, ()))
            contains_any = contains_any or as_set.contains_any
            stack.extend(as_set.members_set)

        has_loop = self._detect_loop(name)
        depth = self._set_depth(name)
        resolution = AsSetResolution(
            members=frozenset(members),
            unrecorded=tuple(sorted(unrecorded)),
            has_loop=has_loop,
            depth=depth,
            contains_any=contains_any,
            recorded=recorded,
        )
        self._as_set_cache[name] = resolution
        return resolution

    def _detect_loop(self, name: str) -> bool:
        """Whether a cycle is reachable from ``name`` in the as-set graph."""
        color: dict[str, int] = {}  # 1 = on stack, 2 = done

        def visit(node: str) -> bool:
            state = color.get(node)
            if state == 1:
                return True
            if state == 2:
                return False
            color[node] = 1
            as_set = self.ir.as_sets.get(node)
            if as_set is not None:
                for child in as_set.members_set:
                    if visit(child):
                        color[node] = 2
                        return True
            color[node] = 2
            return False

        return visit(name)

    def _set_depth(self, name: str) -> int:
        """Longest as-set nesting chain from ``name`` (cycles don't extend).

        A set with only ASN members has depth 1.  Within a cycle the back
        edge contributes nothing, so mutually recursive sets get the depth
        of their acyclic expansion — an approximation noted in DESIGN.md.
        """
        memo: dict[str, int] = {}
        on_stack: set[str] = set()

        def depth_of(node: str) -> int:
            if node in memo:
                return memo[node]
            if node in on_stack:
                return 0
            as_set = self.ir.as_sets.get(node)
            if as_set is None:
                return 0
            on_stack.add(node)
            best = 0
            for child in as_set.members_set:
                best = max(best, depth_of(child))
            on_stack.discard(node)
            memo[node] = best + 1
            return best + 1

        result = depth_of(name)
        return result

    # -- route-sets --------------------------------------------------------

    def resolve_route_set(self, name: str) -> ResolvedRouteSet:
        """Resolve a route-set; nested sets are folded, AS refs stay lazy."""
        cached = self._route_set_cache.get(name)
        if cached is not None:
            return cached
        recorded = name in self.ir.route_sets
        index = PrefixOpIndex()
        asn_members: list[tuple[int, RangeOp]] = []
        as_set_members: list[tuple[str, RangeOp]] = []
        unrecorded: set[str] = set()
        contains_any = False
        seen: set[str] = set()
        stack: list[tuple[str, RangeOp]] = [(name, RangeOp())]
        while stack:
            current, outer = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            route_set = self.ir.route_sets.get(current)
            if route_set is None:
                if current != name or not recorded:
                    unrecorded.add(current)
                continue
            for prefix, op in route_set.prefix_members:
                index.add(prefix, op.compose(outer))
            for prefix in self._route_set_byref.get(current, ()):
                index.add(prefix, outer)
            for member in route_set.name_members:
                effective = member.op.compose(outer)
                if member.kind is NameKind.ROUTE_SET:
                    stack.append((member.name, effective))
                elif member.kind is NameKind.AS_SET:
                    as_set_members.append((member.name, effective))
                elif member.kind is NameKind.ASN:
                    asn_members.append((int(member.name[2:]), effective))
                elif member.kind is NameKind.RS_ANY:
                    contains_any = True
        resolution = ResolvedRouteSet(
            index=index,
            asn_members=tuple(asn_members),
            as_set_members=tuple(as_set_members),
            unrecorded=tuple(sorted(unrecorded)),
            contains_any=contains_any,
            recorded=recorded,
        )
        self._route_set_cache[name] = resolution
        return resolution

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

    # -- peering-sets and filter-sets ---------------------------------------

    def resolve_peering_set(self, name: str) -> tuple[Peering, ...] | None:
        """The peerings of a peering-set, or None if unrecorded."""
        if name in self._peering_set_cache:
            return self._peering_set_cache[name]
        peering_set = self.ir.peering_sets.get(name)
        result = tuple(peering_set.peerings) if peering_set is not None else None
        self._peering_set_cache[name] = result
        return result

    def resolve_filter_set(self, name: str) -> Filter | None:
        """The filter of a filter-set; well-known names have built-ins."""
        filter_set = self.ir.filter_sets.get(name)
        if filter_set is not None and filter_set.filter is not None:
            return filter_set.filter
        return BUILTIN_FILTER_SETS.get(name)


def _byref_allowed(mbrs_by_ref: list[str], mnt_by: list[str]) -> bool:
    """RFC 2622 members-by-reference gate: ANY, or a shared maintainer."""
    if not mbrs_by_ref:
        return False
    if "ANY" in mbrs_by_ref:
        return True
    return bool(set(mbrs_by_ref) & set(mnt_by))
