"""The pre-trie dict prefix engine: the test suite's differential oracle.

Production answers prefix questions from one structure, the flat hash
planes of :mod:`repro.core.prefixtrie`.  This module keeps the algorithm
they replaced — ancestor *enumeration* over plain dicts, up to 33/129
masked-key probes per query — as an independent implementation to
differentiate against.  It shares no code with the planes beyond
``Prefix`` / ``RangeOp``, and nothing under ``src/`` can reach it: tests
inject it by assigning ``verifier.query.routes``.
"""

from __future__ import annotations

from repro.core.query import PrefixOpIndex
from repro.core.verify import Verifier
from repro.net.prefix import Prefix, RangeOp, RangeOpKind

_MAX_LEN = {4: 32, 6: 128}


class NaiveRouteIndex:
    """The pre-trie dict engine, preserved verbatim as the reference.

    Same query surface as :class:`~repro.core.prefixtrie.RouteTrie`, so a
    test can put one in a verifier's place (:func:`oracle_verifier`).
    Exact lookups key on the network as given: pass canonical prefixes.
    """

    __slots__ = ("route_index", "origin_prefixes")

    def __init__(self):
        self.route_index: dict[tuple, set] = {}
        self.origin_prefixes: dict[int, set] = {}

    def add(self, prefix: Prefix, origin: int) -> None:
        """Register one declared ⟨prefix, origin⟩ pair."""
        key = (prefix.version, prefix.network, prefix.length)
        self.route_index.setdefault(key, set()).add(origin)
        self.origin_prefixes.setdefault(origin, set()).add(key)

    def has_origin(self, asn: int) -> bool:
        """Whether the AS originates at least one declared route."""
        return asn in self.origin_prefixes

    def has_exact(self, version: int, qnet: int, qlen: int) -> bool:
        """Whether some route object declares exactly this prefix."""
        return bool(self.route_index.get((version, qnet, qlen)))

    def exact_origins(self, version: int, qnet: int, qlen: int) -> frozenset:
        """Origin ASes of route objects exactly matching the prefix."""
        return frozenset(self.route_index.get((version, qnet, qlen), ()))

    def match_origin(self, asn: int, version: int, qnet: int, qlen: int, op: RangeOp) -> bool:
        """Ancestor enumeration over the per-origin declared-prefix set."""
        declared = self.origin_prefixes.get(asn)
        if not declared:
            return False
        maxlen = _MAX_LEN[version]
        for length in range(qlen, -1, -1):
            shift = maxlen - length
            key = (version, (qnet >> shift) << shift, length)
            if key in declared and op.allows(length, qlen):
                return True
        return False

    def match_any(self, version: int, qnet: int, qlen: int, op: RangeOp) -> bool:
        """Whether *any* declared prefix covers the query under ``op``."""
        maxlen = _MAX_LEN[version]
        route_index = self.route_index
        for length in range(qlen, -1, -1):
            shift = maxlen - length
            key = (version, (qnet >> shift) << shift, length)
            if key in route_index and op.allows(length, qlen):
                return True
        return False

    def match_members(
        self, members, version: int, qnet: int, qlen: int, op: RangeOp
    ) -> bool:
        """Whether any covering prefix is originated by a member AS."""
        maxlen = _MAX_LEN[version]
        route_index = self.route_index
        for length in range(qlen, -1, -1):
            shift = maxlen - length
            origins = route_index.get((version, (qnet >> shift) << shift, length))
            if origins and not members.isdisjoint(origins) and op.allows(length, qlen):
                return True
        return False

    def covering_origins(self, version: int, qnet: int, qlen: int) -> list:
        """All stored ancestors of the query as ``(length, origins)``."""
        maxlen = _MAX_LEN[version]
        out = []
        for length in range(qlen, -1, -1):
            shift = maxlen - length
            origins = self.route_index.get((version, (qnet >> shift) << shift, length))
            if origins:
                out.append((length, origins))
        return out

    def iter_exact(self):
        """Yield every ``((version, net, plen), origins-frozenset)``."""
        for key, origins in self.route_index.items():
            yield key, frozenset(origins)

    def origins(self):
        """Every origin AS with at least one declared route, sorted."""
        return iter(sorted(self.origin_prefixes))

    def origin_keys(self, asn: int) -> tuple:
        """Every ``(version, network, length)`` the AS declared."""
        return tuple(sorted(self.origin_prefixes.get(asn, ())))

    def stats(self) -> dict:
        """Size figures mirroring :meth:`RouteTrie.stats` (no planes)."""
        return {
            "prefixes": len(self.route_index),
            "origins": len(self.origin_prefixes),
            "plane_bytes": 0,
        }


def matches_naive(index: PrefixOpIndex, prefix: Prefix, override: RangeOp | None = None) -> bool:
    """The pre-trie ancestor enumeration over ``index.entries``."""
    entries = index.entries
    if not entries:
        return False
    announced = prefix.length
    if override is not None and override.kind is RangeOpKind.NONE:
        override = None
    for key, declared_length in _ancestor_keys(prefix):
        ops = entries.get(key)
        if ops is None:
            continue
        if override is not None:
            if override.allows(declared_length, announced):
                return True
            continue
        for op in ops:
            if op.allows(declared_length, announced):
                return True
    return False


def _ancestor_keys(prefix: Prefix):
    """Yield ``(version, masked-network, length)`` for every covering length.

    The production planes visit just the lengths actually present.
    """
    version = prefix.version
    max_length = prefix.max_length
    network = prefix.network
    for length in range(prefix.length, -1, -1):
        shift = max_length - length
        yield (version, (network >> shift) << shift, length), length


def oracle_verifier(ir, relationships) -> Verifier:
    """A lazy :class:`Verifier` whose prefix checks run on the dict engine."""
    verifier = Verifier(ir, relationships)
    routes = NaiveRouteIndex()
    for route in ir.route_objects:
        routes.add(route.prefix, route.origin)
    verifier.query.routes = routes
    return verifier
