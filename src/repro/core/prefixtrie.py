"""Flat hash planes over interned prefixes (the verification hot path).

Per-route verification spends most of its time answering two questions:
*"did this AS register a route object covering this announced prefix?"*
and *"does this route-set member cover it under its range operator?"*.
Answering either by ancestor **enumeration** costs up to 33 (IPv4) or 129
(IPv6) masked-key constructions and hash probes per query, each
allocating a fresh tuple.  This module keeps one structure per address
family so a query touches only the ancestor lengths actually *declared*
on its branch:

* a **length-compression mask** — one 64-bit word per top-``lmk``-bit
  bucket (IPv4) or per family (IPv6) recording which declared lengths
  exist on that branch.  The candidate set for a query is one table read
  and one AND; typical branches carry 1–3 lengths where the enumeration
  probed all 33/129.
* an **open-addressing hash plane** mapping ⟨masked network, length⟩ to
  the prefix's payload span — linear probing at load factor ≤ 0.5, one
  or two slot reads per candidate length, no allocation.  It is the only
  record of which prefixes are stored: point mutation patches it in
  place, rebuilds rehash its live slots, and enumeration is a slot scan.

Everything is laid out as flat parallel planes (``array`` buffers off
the GC-tracked heap, or ``memoryview`` casts over an ``mmap`` region
when loaded from the disk cache):

* per family (IPv4/IPv6): ``lenmask`` and the hash slots ``hlo``/
  [``hhi``/]``hpl``/``hval``;
* a payload arena: per-prefix origin spans (``span_off`` into a sorted
  ``origins`` plane) for the route trie, per-prefix range-operator spans
  for the :class:`OpTrie`;
* per-origin offset spans (``origin_ids`` + ``okey_*`` arenas) so
  "every prefix this AS registered" is one bisect plus a span read.

Because the planes are plain buffers they pickle compactly, share
copy-on-write under ``fork``, and — via the cache envelope in
:mod:`repro.core.compiled` — map straight out of the artifact file with
near-zero deserialization.  They are built in sorted key order, so the
artifact's bytes are a function of the IR's contents alone.

The ancestor-enumeration dict engine this replaced lives on as the
differential oracle of the test suite (``tests/prefix_oracle.py``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

from repro.net.prefix import Prefix, RangeOp, RangeOpKind

__all__ = [
    "OpTrie",
    "RouteTrie",
    "RouteTrieBuilder",
]

_MAX_LEN = {4: 32, 6: 128}
_U64 = (1 << 64) - 1

# Range operators as stored in op planes.  EXACT and RANGE evaluate
# identically (low <= announced <= high); both codes are kept so
# iter_entries() can reconstruct the operator kind faithfully.
_OP_NONE, _OP_MINUS, _OP_PLUS, _OP_EXACT, _OP_RANGE = range(5)
_KIND_TO_CODE = {
    RangeOpKind.NONE: _OP_NONE,
    RangeOpKind.MINUS: _OP_MINUS,
    RangeOpKind.PLUS: _OP_PLUS,
    RangeOpKind.EXACT: _OP_EXACT,
    RangeOpKind.RANGE: _OP_RANGE,
}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}

# Bounds are stored in a 16-bit plane; announced lengths never exceed 128,
# so clamping to 255 is exact for allows() while keeping hostile ^n-m
# operators (RangeOp.parse accepts any integer) from overflowing it.
_OP_BOUND_CAP = 255


def _mask(net: int, plen: int, maxlen: int) -> int:
    shift = maxlen - plen
    return (net >> shift) << shift


class _Family:
    """One address family's planes (``hhi`` is None for IPv4).

    * ``lenmask`` — the length-compression table (IPv4 only): one 64-bit
      word per top-``lmk``-bit bucket, bit ``pl`` set iff some stored
      prefix of length ``pl`` lies on that branch.  ``lmall`` is the
      family-global union (the only mask IPv6 keeps — 129 possible
      lengths exceed one word, and real route6 tables declare only a
      handful of lengths anyway).
    * ``hlo``/[``hhi``/]``hpl``/``hval`` — an open-addressing hash over
      ⟨masked network, length⟩ with linear probing; ``hval`` holds the
      payload id (-1 marks an empty slot).  ``hbits == 0`` (empty
      family) means no table.

    A candidate length taken from the mask still ends in a hash probe,
    so a mask bit set by a *different* network in the same bucket can
    never produce a false positive — the masks are purely a pruning
    layer and the hash is the ground truth.

    Thawed (mutable) families additionally maintain ``live``/``tomb``
    slot counts for the hash plane: point deletes leave tombstones
    (``hval == -2`` with an impossible length in ``hpl``) that the probe
    loops walk through, and the counts decide when the plane is rehashed
    from its live slots instead.
    """

    __slots__ = (
        "maxlen",
        "lmk",
        "lmall",
        "lenmask",
        "hbits",
        "hshift",
        "hlo",
        "hhi",
        "hpl",
        "hval",
        "live",
        "tomb",
    )

    def __init__(self, maxlen: int):
        self.maxlen = maxlen
        self.lmk = 0
        self.lmall = 0
        self.lenmask = None
        self.hbits = 0
        self.hshift = 64
        self.hlo = None
        self.hhi = None
        self.hpl = None
        self.hval = None
        self.live = 0
        self.tomb = 0


_LENMASK_MAX_BITS = 20
_LENMASK_MIN_PREFIXES = 16
# Mask-table words per stored prefix (see :func:`_build_fast`): sharp
# buckets for the one global route table, lean ones for the thousands of
# per-route-set op tries a session holds.
_ROUTE_LMFACTOR = 256
_OP_LMFACTOR = 4
_HASH_C = 0x9E3779B97F4A7C15
_HASH_P = 0xFF51AFD7ED558CCD
# Tombstone encoding for point deletes: the probe loops stop only on -1
# (truly empty), so a tombstoned slot must keep them walking while never
# matching a key — hence the impossible declared length in ``hpl``.
_TOMB = -2
_TOMB_PL = 255


def _attach_fast(fam: _Family, lmk: int, lmall: int, hbits: int, planes: dict, tag: str) -> None:
    """Wire pre-built planes (mmap views or arrays) in."""
    fam.lmk = lmk
    fam.lmall = lmall
    fam.lenmask = planes.get(f"{tag}.lenmask")
    fam.hbits = hbits
    fam.hshift = 64 - hbits
    fam.hlo = planes.get(f"{tag}.hlo")
    fam.hhi = planes.get(f"{tag}.hhi")
    fam.hpl = planes.get(f"{tag}.hpl")
    fam.hval = planes.get(f"{tag}.hval")


def _build_fast(fam: _Family, entries: list, lmfactor: int) -> None:
    """(Re)build the family's planes from ``(net, length, payload id)`` triples.

    One pass fills the hash plane (sized to load factor ≤ 0.5) and the
    length-compression masks; whatever the family held before is
    replaced, tombstones included.  Prefixes shorter than the bucket
    width set their length bit in every bucket they cover, so any query
    bucket sees every ancestor length on its path.  Slots are claimed in
    the order given: the builders pass triples in sorted key order, which
    makes a compiled layout a function of the stored set alone.

    ``lmfactor`` trades mask-table memory for bucket sharpness: the
    table gets ``~lmfactor * prefixes`` words (capped at ``2**20``);
    finer buckets mean fewer candidate lengths per query.
    """
    maxlen = fam.maxlen
    n = len(entries)
    hbits = lmk = lmall = 0
    hlo = hhi = hpl = hval = lenmask = None
    if n:
        hbits = max(3, (2 * n - 1).bit_length())
        size = 1 << hbits
        hmask = size - 1
        hlo = array("Q", bytes(8 * size))
        hhi = array("Q", bytes(8 * size)) if maxlen > 64 else None
        hpl = array("B", bytes(size))
        hval = array("i", [-1]) * size
        if maxlen <= 64 and n >= _LENMASK_MIN_PREFIXES:
            lmk = min(_LENMASK_MAX_BITS, (lmfactor * n).bit_length(), maxlen)
            lenmask = array("Q", bytes(8 << lmk))
    for net, pl, p in entries:
        lmall |= 1 << pl
        if hhi is None:
            x = (net + pl * _HASH_P) & _U64
        else:
            x = ((net ^ (net >> 64)) + pl * _HASH_P) & _U64
        s = ((x * _HASH_C) & _U64) >> (64 - hbits)
        while hval[s] != -1:
            s = (s + 1) & hmask
        hlo[s] = net & _U64
        if hhi is not None:
            hhi[s] = net >> 64
        hpl[s] = pl
        hval[s] = p
        if lenmask is not None:
            if pl >= lmk:
                lenmask[net >> (maxlen - lmk)] |= 1 << pl
            else:
                start = (net >> (maxlen - lmk)) if pl else 0
                bit = 1 << pl
                for b in range(start, start + (1 << (lmk - pl))):
                    lenmask[b] |= bit
    fam.lmk = lmk
    fam.lmall = lmall
    fam.lenmask = lenmask
    fam.hbits = hbits
    fam.hshift = 64 - hbits
    fam.hlo = hlo
    fam.hhi = hhi
    fam.hpl = hpl
    fam.hval = hval
    fam.live = n
    fam.tomb = 0


def _live_entries(fam: _Family):
    """Yield ``(net, length, payload id)`` for every occupied hash slot."""
    hval = fam.hval
    if hval is None:
        return
    hlo, hhi, hpl = fam.hlo, fam.hhi, fam.hpl
    for s, p in enumerate(hval):
        if p >= 0:
            yield (hlo[s] if hhi is None else (hhi[s] << 64) | hlo[s]), hpl[s], p


def _rebuild_fast(fam: _Family, extra: tuple = ()) -> None:
    """Rehash a route family from its live slots (plus ``extra`` new triples).

    Point mutation triggers this when the hash plane's load factor would
    exceed 0.5 or tombstones dominate: the live slots are the ground
    truth, so one :func:`_build_fast` pass over them resizes the table,
    resharpens the masks and drops every tombstone at once.
    """
    _build_fast(fam, [*_live_entries(fam), *extra], _ROUTE_LMFACTOR)


def _hash_point_set(fam: _Family, net: int, pl: int, payload_id: int) -> None:
    """Insert or repoint one ⟨masked net, length⟩ key in the hash plane.

    An existing key has its payload id rewritten in place; a new key
    claims the first tombstone on its probe path (or the terminating
    empty slot).  The caller guarantees headroom — load factor including
    tombstones stays ≤ 0.5 via :func:`_rebuild_fast`.
    """
    hlo, hhi, hpl, hval = fam.hlo, fam.hhi, fam.hpl, fam.hval
    hmask = (1 << fam.hbits) - 1
    if hhi is None:
        x = (net + pl * _HASH_P) & _U64
    else:
        x = ((net ^ (net >> 64)) + pl * _HASH_P) & _U64
    s = ((x * _HASH_C) & _U64) >> fam.hshift
    nlo = net & _U64
    nhi = net >> 64
    free = -1
    while hval[s] != -1:
        if hval[s] == _TOMB:
            if free < 0:
                free = s
        elif hpl[s] == pl and hlo[s] == nlo and (hhi is None or hhi[s] == nhi):
            hval[s] = payload_id
            return
        s = (s + 1) & hmask
    if free >= 0:
        s = free
        fam.tomb -= 1
    hlo[s] = nlo
    if hhi is not None:
        hhi[s] = nhi
    hpl[s] = pl
    hval[s] = payload_id
    fam.live += 1


def _hash_point_delete(fam: _Family, net: int, pl: int) -> None:
    """Tombstone one key: probes keep walking, key-match never fires."""
    hlo, hhi, hpl, hval = fam.hlo, fam.hhi, fam.hpl, fam.hval
    hmask = (1 << fam.hbits) - 1
    if hhi is None:
        x = (net + pl * _HASH_P) & _U64
    else:
        x = ((net ^ (net >> 64)) + pl * _HASH_P) & _U64
    s = ((x * _HASH_C) & _U64) >> fam.hshift
    nlo = net & _U64
    nhi = net >> 64
    while hval[s] != -1:
        if (
            hval[s] != _TOMB
            and hpl[s] == pl
            and hlo[s] == nlo
            and (hhi is None or hhi[s] == nhi)
        ):
            hval[s] = _TOMB
            hpl[s] = _TOMB_PL
            fam.tomb += 1
            fam.live -= 1
            return
        s = (s + 1) & hmask


def _mask_point_insert(fam: _Family, net: int, pl: int) -> None:
    """Set the length bit for a new prefix in the pruning masks.

    Deletes deliberately leave mask bits stale (a stale bit costs one
    wasted probe, never a wrong answer), but inserts MUST set them — a
    missing bit would hide the entry from every mask-pruned query.
    """
    fam.lmall |= 1 << pl
    lmk = fam.lmk
    if not lmk or fam.lenmask is None:
        return
    bit = 1 << pl
    if pl >= lmk:
        fam.lenmask[net >> (fam.maxlen - lmk)] |= bit
    else:
        start = (net >> (fam.maxlen - lmk)) if pl else 0
        for b in range(start, start + (1 << (lmk - pl))):
            fam.lenmask[b] |= bit


def _freeze(table: dict, payload_out, lmfactor: int) -> tuple[_Family, _Family]:
    """Both families' planes from ``{(version, masked net, length): payload}``.

    ``payload_out(payload) -> payload id`` appends one payload to the
    caller's arena.  Keys are visited in sorted order, so payload ids and
    slot layout never depend on the order pairs were registered in.
    """
    triples = {4: [], 6: []}
    for key in sorted(table):
        version, net, plen = key
        triples[version].append((net, plen, payload_out(table[key])))
    fam4, fam6 = _Family(32), _Family(128)
    _build_fast(fam4, triples[4], lmfactor)
    _build_fast(fam6, triples[6], lmfactor)
    return fam4, fam6


def _plane_bytes(plane) -> int:
    return len(plane) * plane.itemsize


def _materialize(typecode: str, plane) -> array:
    """A picklable ``array`` copy of a plane (no-op for built planes)."""
    if isinstance(plane, array):
        return plane
    fresh = array(typecode)
    fresh.frombytes(bytes(plane))
    return fresh


# -- the route trie ---------------------------------------------------------


class RouteTrie:
    """All declared ⟨prefix, origin⟩ pairs of one IR, frozen into planes.

    Query methods take the prefix unpacked (``version, network, length``)
    so the hot loop never touches attribute descriptors mid-walk.  The
    planes are either ``array`` objects (built in memory) or
    ``memoryview`` casts over the mmap'd cache artifact — both index to
    plain ints at the same cost.
    """

    _FAMILY_PLANES = {
        "lenmask": "Q",
        "hlo": "Q",
        "hhi": "Q",
        "hpl": "B",
        "hval": "i",
    }
    _ARENA_PLANES = {
        "span_off": "i",
        "origins": "Q",
        "origin_ids": "Q",
        "okey_off": "i",
        "okey_ver": "B",
        "okey_plen": "B",
        "okey_hi": "Q",
        "okey_lo": "Q",
    }

    __slots__ = (
        "_fam4",
        "_fam6",
        "_span_off",
        "_origins",
        "_origin_ids",
        "_okey_off",
        "_okey_ver",
        "_okey_plen",
        "_okey_hi",
        "_okey_lo",
        "_okey_extra",
        "_okey_dead",
        "_origin_set",
        "_prefix_count",
    )

    def __init__(
        self,
        fam4: _Family,
        fam6: _Family,
        span_off,
        origins,
        origin_ids,
        okey_off,
        okey_ver,
        okey_plen,
        okey_hi,
        okey_lo,
        prefix_count: int,
    ):
        self._fam4 = fam4
        self._fam6 = fam6
        self._span_off = span_off
        self._origins = origins
        self._origin_ids = origin_ids
        self._okey_off = okey_off
        self._okey_ver = okey_ver
        self._okey_plen = okey_plen
        self._okey_hi = okey_hi
        self._okey_lo = okey_lo
        # Point-mutation overlays for the origin→keys side index: the
        # flat arrays stay frozen (shifting the offset column per delete
        # costs O(origins) in Python — the old delta-path bottleneck) and
        # per-origin additions/removals accumulate here, merged on read
        # and folded back into arrays on export.  Empty on frozen tries.
        self._okey_extra: dict[int, set] = {}
        self._okey_dead: dict[int, set] = {}
        self._origin_set: frozenset | None = None
        self._prefix_count = prefix_count

    # -- hot-path queries -------------------------------------------------

    def has_origin(self, asn: int) -> bool:
        """Whether the AS originates at least one declared route."""
        origin_set = self._origin_set
        if origin_set is None:
            # Built per process on first use (frozensets don't live in
            # planes); idempotent, so sharing across engines is safe.
            # origins() folds in any point-mutation overlays.
            origin_set = self._origin_set = frozenset(self.origins())
        return asn in origin_set

    def _exact_payload(self, fam: _Family, qnet: int, qlen: int) -> int:
        if not (fam.lmall >> qlen) & 1:
            return -1
        shift = fam.maxlen - qlen
        qnet = (qnet >> shift) << shift  # tolerate set host bits
        hlo, hhi, hval = fam.hlo, fam.hhi, fam.hval
        hmask = (1 << fam.hbits) - 1
        hpl = fam.hpl
        if hhi is None:
            x = (qnet + qlen * _HASH_P) & _U64
        else:
            x = ((qnet ^ (qnet >> 64)) + qlen * _HASH_P) & _U64
        s = ((x * _HASH_C) & _U64) >> fam.hshift
        nlo = qnet & _U64
        nhi = qnet >> 64
        while hval[s] != -1:
            if (
                hpl[s] == qlen
                and hlo[s] == nlo
                and (hhi is None or hhi[s] == nhi)
            ):
                return hval[s]
            s = (s + 1) & hmask
        return -1

    def has_exact(self, version: int, qnet: int, qlen: int) -> bool:
        """Whether some route object declares exactly this prefix."""
        fam = self._fam4 if version == 4 else self._fam6
        return self._exact_payload(fam, qnet, qlen) >= 0

    def exact_origins(self, version: int, qnet: int, qlen: int) -> frozenset:
        """Origin ASes of route objects exactly matching the prefix."""
        fam = self._fam4 if version == 4 else self._fam6
        p = self._exact_payload(fam, qnet, qlen)
        if p < 0:
            return frozenset()
        off = self._span_off
        return frozenset(self._origins[off[p] : off[p + 1]])

    @staticmethod
    def _op_limit(op: RangeOp, qlen: int) -> int:
        """The max declared length ``op`` admits for this announced length.

        ``op.allows(pl, qlen)`` reduces to ``pl <= limit`` over ancestors:
        MINUS admits strict ancestors (``pl < qlen``), PLUS admits any
        cover (``pl <= qlen``), and EXACT/RANGE depend only on the
        announced length — when ``qlen`` falls outside their bounds no
        declared prefix can qualify and the query is skipped outright
        (returns -1).  Hoisted so the candidate-length mask is truncated
        with one AND instead of a per-candidate method call.
        """
        kind = op.kind
        if kind is RangeOpKind.MINUS:
            return qlen - 1
        if kind is RangeOpKind.PLUS:
            return qlen
        return qlen if op.low <= qlen <= op.high else -1

    def match_origin(self, asn: int, version: int, qnet: int, qlen: int, op: RangeOp) -> bool:
        """Whether ``asn`` declared a covering prefix whose ``op`` admits
        the announced length — a masked handful of hash probes."""
        fam = self._fam4 if version == 4 else self._fam6
        if op.kind is RangeOpKind.NONE:
            # NONE admits announced == declared only: the exact entry.
            p = self._exact_payload(fam, qnet, qlen)
            if p < 0:
                return False
            off = self._span_off
            origins = self._origins
            for j in range(off[p], off[p + 1]):
                if origins[j] == asn:
                    return True
            return False
        limit = self._op_limit(op, qlen)
        if limit < 0:
            return False
        maxlen = fam.maxlen
        lmk = fam.lmk
        m = fam.lenmask[qnet >> (maxlen - lmk)] if lmk else fam.lmall
        m &= (1 << (limit + 1)) - 1
        if not m:
            return False
        hlo, hhi, hpl, hval = fam.hlo, fam.hhi, fam.hpl, fam.hval
        hmask = (1 << fam.hbits) - 1
        hshift = fam.hshift
        off = self._span_off
        origins = self._origins
        while m:
            pl = m.bit_length() - 1
            m ^= 1 << pl
            shift = maxlen - pl
            net = (qnet >> shift) << shift
            if hhi is None:
                x = (net + pl * _HASH_P) & _U64
            else:
                x = ((net ^ (net >> 64)) + pl * _HASH_P) & _U64
            s = ((x * _HASH_C) & _U64) >> hshift
            nlo = net & _U64
            nhi = net >> 64
            while hval[s] != -1:
                if (
                    hpl[s] == pl
                    and hlo[s] == nlo
                    and (hhi is None or hhi[s] == nhi)
                ):
                    a, b = off[hval[s]], off[hval[s] + 1]
                    while a < b:
                        if origins[a] == asn:
                            return True
                        a += 1
                    break
                s = (s + 1) & hmask
        return False

    def match_any(self, version: int, qnet: int, qlen: int, op: RangeOp) -> bool:
        """Whether *any* declared prefix covers the query under ``op``."""
        fam = self._fam4 if version == 4 else self._fam6
        if op.kind is RangeOpKind.NONE:
            return self._exact_payload(fam, qnet, qlen) >= 0
        limit = self._op_limit(op, qlen)
        if limit < 0:
            return False
        maxlen = fam.maxlen
        lmk = fam.lmk
        m = fam.lenmask[qnet >> (maxlen - lmk)] if lmk else fam.lmall
        m &= (1 << (limit + 1)) - 1
        if not m:
            return False
        hlo, hhi, hpl, hval = fam.hlo, fam.hhi, fam.hpl, fam.hval
        hmask = (1 << fam.hbits) - 1
        hshift = fam.hshift
        while m:
            pl = m.bit_length() - 1
            m ^= 1 << pl
            shift = maxlen - pl
            net = (qnet >> shift) << shift
            if hhi is None:
                x = (net + pl * _HASH_P) & _U64
            else:
                x = ((net ^ (net >> 64)) + pl * _HASH_P) & _U64
            s = ((x * _HASH_C) & _U64) >> hshift
            nlo = net & _U64
            nhi = net >> 64
            while hval[s] != -1:
                if (
                    hpl[s] == pl
                    and hlo[s] == nlo
                    and (hhi is None or hhi[s] == nhi)
                ):
                    return True
                s = (s + 1) & hmask
        return False

    def match_members(
        self, members, version: int, qnet: int, qlen: int, op: RangeOp
    ) -> bool:
        """Whether any covering prefix is originated by a member AS."""
        fam = self._fam4 if version == 4 else self._fam6
        if op.kind is RangeOpKind.NONE:
            p = self._exact_payload(fam, qnet, qlen)
            if p < 0:
                return False
            off = self._span_off
            origins = self._origins
            for j in range(off[p], off[p + 1]):
                if origins[j] in members:
                    return True
            return False
        limit = self._op_limit(op, qlen)
        if limit < 0:
            return False
        maxlen = fam.maxlen
        lmk = fam.lmk
        m = fam.lenmask[qnet >> (maxlen - lmk)] if lmk else fam.lmall
        m &= (1 << (limit + 1)) - 1
        if not m:
            return False
        hlo, hhi, hpl, hval = fam.hlo, fam.hhi, fam.hpl, fam.hval
        hmask = (1 << fam.hbits) - 1
        hshift = fam.hshift
        off = self._span_off
        origins = self._origins
        while m:
            pl = m.bit_length() - 1
            m ^= 1 << pl
            shift = maxlen - pl
            net = (qnet >> shift) << shift
            if hhi is None:
                x = (net + pl * _HASH_P) & _U64
            else:
                x = ((net ^ (net >> 64)) + pl * _HASH_P) & _U64
            s = ((x * _HASH_C) & _U64) >> hshift
            nlo = net & _U64
            nhi = net >> 64
            while hval[s] != -1:
                if (
                    hpl[s] == pl
                    and hlo[s] == nlo
                    and (hhi is None or hhi[s] == nhi)
                ):
                    a, b = off[hval[s]], off[hval[s] + 1]
                    while a < b:
                        if origins[a] in members:
                            return True
                        a += 1
                    break
                s = (s + 1) & hmask
        return False

    def covering_origins(self, version: int, qnet: int, qlen: int) -> list:
        """All stored ancestors of the query (exact included): a list of
        ``(declared_length, origins-sequence)`` pairs, shallow first."""
        fam = self._fam4 if version == 4 else self._fam6
        out: list = []
        maxlen = fam.maxlen
        lmk = fam.lmk
        m = fam.lenmask[qnet >> (maxlen - lmk)] if lmk else fam.lmall
        m &= (1 << (qlen + 1)) - 1
        if not m:
            return out
        hlo, hhi, hpl, hval = fam.hlo, fam.hhi, fam.hpl, fam.hval
        hmask = (1 << fam.hbits) - 1
        hshift = fam.hshift
        off = self._span_off
        origins = self._origins
        while m:
            low = m & -m
            pl = low.bit_length() - 1
            m ^= low
            shift = maxlen - pl
            net = (qnet >> shift) << shift
            if hhi is None:
                x = (net + pl * _HASH_P) & _U64
            else:
                x = ((net ^ (net >> 64)) + pl * _HASH_P) & _U64
            s = ((x * _HASH_C) & _U64) >> hshift
            nlo = net & _U64
            nhi = net >> 64
            while hval[s] != -1:
                if (
                    hpl[s] == pl
                    and hlo[s] == nlo
                    and (hhi is None or hhi[s] == nhi)
                ):
                    p = hval[s]
                    out.append((pl, origins[off[p] : off[p + 1]]))
                    break
                s = (s + 1) & hmask
        return out

    # -- cold-path queries ------------------------------------------------

    def iter_exact(self):
        """Yield every ``((version, net, plen), origins-frozenset)`` (a slot
        scan: hash order, not prefix order)."""
        off = self._span_off
        origins = self._origins
        for version, fam in ((4, self._fam4), (6, self._fam6)):
            for net, plen, p in _live_entries(fam):
                yield (version, net, plen), frozenset(origins[off[p] : off[p + 1]])

    def origins(self):
        """Every origin AS with at least one declared route, sorted."""
        if not self._okey_extra and not self._okey_dead:
            return iter(self._origin_ids)
        ids = self._origin_ids
        off = self._okey_off
        alive = set(ids)
        for origin, gone in self._okey_dead.items():
            j = bisect_left(ids, origin)
            if len(gone) >= off[j + 1] - off[j] and origin not in self._okey_extra:
                alive.discard(origin)
        alive.update(self._okey_extra)
        return iter(sorted(alive))

    def origin_keys(self, asn: int) -> tuple:
        """Every ``(version, network, length)`` the AS declared."""
        ids = self._origin_ids
        j = bisect_left(ids, asn)
        in_base = j < len(ids) and ids[j] == asn
        if not self._okey_extra and not self._okey_dead:
            return tuple(self._base_okey_span(j)) if in_base else ()
        gone = self._okey_dead.get(asn)
        keys = [
            key
            for key in (self._base_okey_span(j) if in_base else ())
            if gone is None or key not in gone
        ]
        keys.extend(self._okey_extra.get(asn, ()))
        keys.sort()
        return tuple(keys)

    # -- point mutation (incremental delta ingestion) ---------------------

    def thaw(self) -> "RouteTrie":
        """A fully mutable deep copy: every plane becomes a fresh ``array``.

        Point mutation must never touch the planes a live reader (or the
        read-only mmap behind a cached envelope) is walking, so the delta
        path thaws first, patches the copy, and hot-swaps it in.  The
        per-family live/tombstone counters that drive the rebuild policy
        are recovered by one scan of each hash plane.
        """
        planes = {}
        for name, code, plane in self._raw_planes():
            fresh = array(code)
            fresh.frombytes(plane.tobytes() if isinstance(plane, array) else bytes(plane))
            planes[name] = fresh
        clone = RouteTrie.from_planes(self.meta(), planes)
        # Overlays ride along instead of being folded in: materializing
        # okey arrays is O(table), which would put the cost this layer
        # exists to avoid right back on the re-thaw path.
        clone._okey_extra = {o: set(keys) for o, keys in self._okey_extra.items()}
        clone._okey_dead = {o: set(keys) for o, keys in self._okey_dead.items()}
        for fam in (clone._fam4, clone._fam6):
            live = tomb = 0
            if fam.hval is not None:
                # Slots hold -1 (empty), _TOMB, or a payload id >= 0, so
                # two C-speed count() calls replace a per-slot scan.
                hval = fam.hval
                tomb = hval.count(_TOMB)
                live = len(hval) - hval.count(-1) - tomb
            fam.live = live
            fam.tomb = tomb
        return clone

    def _require_thawed(self) -> None:
        if not isinstance(self._span_off, array):
            raise TypeError(
                "point mutation requires a thawed RouteTrie (call thaw() first)"
            )

    def _append_span(self, origin_list) -> int:
        """Append one sorted origin span to the arena; return its payload id.

        Spans are immutable once referenced (readers slice them without
        locks), so origin-set changes append a fresh span and repoint the
        slot's payload id; superseded spans become garbage that the next
        full compile reclaims.
        """
        for asn in origin_list:
            self._origins.append(asn)
        self._span_off.append(len(self._origins))
        return len(self._span_off) - 2

    def _okey_insert(self, version: int, net: int, plen: int, origin: int) -> None:
        # Callers (insert_route) guarantee the pair is new; undo a
        # pending removal if one exists, otherwise record an addition.
        key = (version, net, plen)
        dead = self._okey_dead.get(origin)
        if dead is not None and key in dead:
            dead.discard(key)
            if not dead:
                del self._okey_dead[origin]
            return
        self._okey_extra.setdefault(origin, set()).add(key)

    def _okey_remove(self, version: int, net: int, plen: int, origin: int) -> None:
        # Callers (remove_route) guarantee the pair was declared; undo a
        # pending addition if one exists, otherwise mark the base entry.
        key = (version, net, plen)
        extra = self._okey_extra.get(origin)
        if extra is not None and key in extra:
            extra.discard(key)
            if not extra:
                del self._okey_extra[origin]
            return
        self._okey_dead.setdefault(origin, set()).add(key)

    def _base_okey_span(self, j: int):
        """The frozen-array keys of the origin at position ``j``."""
        ver, pl = self._okey_ver, self._okey_plen
        hi, lo = self._okey_hi, self._okey_lo
        for t in range(self._okey_off[j], self._okey_off[j + 1]):
            yield (ver[t], (hi[t] << 64) | lo[t], pl[t])

    def _materialized_okey(self) -> tuple:
        """Fold the overlays back into flat arrays (export/pickle path)."""
        extra, dead = self._okey_extra, self._okey_dead
        ids = self._origin_ids
        new_ids = array(self._ARENA_PLANES["origin_ids"])
        new_off = array(self._ARENA_PLANES["okey_off"], [0])
        new_ver = array(self._ARENA_PLANES["okey_ver"])
        new_pl = array(self._ARENA_PLANES["okey_plen"])
        new_hi = array(self._ARENA_PLANES["okey_hi"])
        new_lo = array(self._ARENA_PLANES["okey_lo"])
        base_pos = {origin: j for j, origin in enumerate(ids)}
        for origin in sorted(set(ids) | set(extra)):
            keys = []
            j = base_pos.get(origin)
            if j is not None:
                gone = dead.get(origin)
                keys.extend(
                    key for key in self._base_okey_span(j)
                    if gone is None or key not in gone
                )
            keys.extend(extra.get(origin, ()))
            if not keys:
                continue
            keys.sort()
            new_ids.append(origin)
            for version, net, plen in keys:
                new_ver.append(version)
                new_pl.append(plen)
                new_hi.append(net >> 64)
                new_lo.append(net & _U64)
            new_off.append(len(new_ver))
        return new_ids, new_off, new_ver, new_pl, new_hi, new_lo

    def insert_route(self, prefix: Prefix, origin: int) -> bool:
        """Point-insert one declared ⟨prefix, origin⟩ pair (thawed only).

        Returns False when the pair was already declared.  New prefixes
        claim a hash slot (reusing tombstones) and OR their length bit
        into the pruning masks; an origin added to an existing prefix
        appends a fresh span and repoints the slot's payload id.  The
        plane is rehashed instead when the insert would push load factor
        (live + tombstones) past 0.5.
        """
        self._require_thawed()
        version = prefix.version
        fam = self._fam4 if version == 4 else self._fam6
        qlen = prefix.length
        net = _mask(prefix.network, qlen, fam.maxlen)
        p = self._exact_payload(fam, net, qlen)
        off = self._span_off
        if p >= 0:
            span = list(self._origins[off[p] : off[p + 1]])
            if origin in span:
                return False
            span.append(origin)
            span.sort()
            _hash_point_set(fam, net, qlen, self._append_span(span))
        else:
            new_p = self._append_span([origin])
            self._prefix_count += 1
            if fam.hval is None or 2 * (fam.live + fam.tomb + 1) > (1 << fam.hbits):
                _rebuild_fast(fam, ((net, qlen, new_p),))
            else:
                _hash_point_set(fam, net, qlen, new_p)
                _mask_point_insert(fam, net, qlen)
        self._okey_insert(version, net, qlen, origin)
        self._origin_set = None
        return True

    def remove_route(self, prefix: Prefix, origin: int) -> bool:
        """Point-delete one declared ⟨prefix, origin⟩ pair (thawed only).

        Returns False when the pair was not declared.  The last origin of
        a prefix tombstones its hash slot; mask bits stay stale, which is
        safe because the hash is the ground truth.  The plane is rehashed
        when tombstones reach a quarter of the table or outnumber live
        entries.
        """
        self._require_thawed()
        version = prefix.version
        fam = self._fam4 if version == 4 else self._fam6
        qlen = prefix.length
        net = _mask(prefix.network, qlen, fam.maxlen)
        p = self._exact_payload(fam, net, qlen)
        if p < 0:
            return False
        off = self._span_off
        span = list(self._origins[off[p] : off[p + 1]])
        if origin not in span:
            return False
        if len(span) > 1:
            span.remove(origin)
            _hash_point_set(fam, net, qlen, self._append_span(span))
        else:
            _hash_point_delete(fam, net, qlen)
            self._prefix_count -= 1
            if fam.tomb > fam.live or 4 * fam.tomb > (1 << fam.hbits):
                _rebuild_fast(fam)
        self._okey_remove(version, net, qlen, origin)
        self._origin_set = None
        return True

    # -- introspection and (de)materialization ----------------------------

    def stats(self) -> dict:
        """Size figures: prefixes, origins, and total plane bytes."""
        total = sum(_plane_bytes(plane) for _, _, plane in self.export_planes())
        return {
            "prefixes": self._prefix_count,
            "origins": sum(1 for _ in self.origins()),
            "plane_bytes": total,
        }

    def meta(self) -> dict:
        """JSON-able reconstruction scalars for the flat cache envelope."""
        return {
            "lmk4": self._fam4.lmk,
            "lm4": self._fam4.lmall,
            "h4": self._fam4.hbits,
            "lmk6": self._fam6.lmk,
            "lm6": self._fam6.lmall,
            "h6": self._fam6.hbits,
            "prefix_count": self._prefix_count,
        }

    _OKEY_PLANES = ("origin_ids", "okey_off", "okey_ver", "okey_plen", "okey_hi", "okey_lo")

    def _raw_planes(self) -> list:
        """Every plane as stored, overlays NOT folded in (thaw's view)."""
        out = []
        for tag, fam in (("f4", self._fam4), ("f6", self._fam6)):
            for name, code in self._FAMILY_PLANES.items():
                plane = getattr(fam, name)
                if plane is None:  # IPv4 has no hhi plane; IPv6 no lenmask
                    continue
                out.append((f"{tag}.{name}", code, plane))
        for name, code in self._ARENA_PLANES.items():
            out.append((name, code, getattr(self, f"_{name}")))
        return out

    def export_planes(self) -> list:
        """Every plane as ``(name, typecode, buffer)`` in canonical order.

        Point-mutation overlays (if any) are folded back into flat okey
        arrays here, so exported planes are always self-contained.
        """
        planes = self._raw_planes()
        if self._okey_extra or self._okey_dead:
            merged = dict(zip(self._OKEY_PLANES, self._materialized_okey()))
            planes = [
                (name, code, merged.get(name, plane))
                for name, code, plane in planes
            ]
        return planes

    @classmethod
    def from_planes(cls, meta: dict, planes: dict) -> "RouteTrie":
        """Rebuild from ``meta`` plus a name→buffer mapping (mmap views
        or arrays); the inverse of :meth:`export_planes`/:meth:`meta`."""
        fams = {}
        for tag, maxlen, suffix in (("f4", 32, "4"), ("f6", 128, "6")):
            fam = _Family(maxlen)
            _attach_fast(
                fam,
                meta[f"lmk{suffix}"],
                meta[f"lm{suffix}"],
                meta[f"h{suffix}"],
                planes,
                tag,
            )
            fams[tag] = fam
        return cls(
            fams["f4"],
            fams["f6"],
            planes["span_off"],
            planes["origins"],
            planes["origin_ids"],
            planes["okey_off"],
            planes["okey_ver"],
            planes["okey_plen"],
            planes["okey_hi"],
            planes["okey_lo"],
            meta["prefix_count"],
        )

    def detach(self) -> None:
        """Release every plane (mmap teardown); the trie is unusable after.

        Called by :meth:`CompiledIndex.close
        <repro.core.compiled.CompiledIndex.close>` before the backing
        ``mmap`` closes — an exported memoryview would otherwise keep the
        mapping (and its file descriptor) alive.
        """
        for fam in (self._fam4, self._fam6):
            for name in self._FAMILY_PLANES:
                plane = getattr(fam, name)
                if isinstance(plane, memoryview):
                    plane.release()
                setattr(fam, name, None)
            fam.lmk = 0
            fam.lmall = 0
            fam.hbits = 0
        for name in self._ARENA_PLANES:
            plane = getattr(self, f"_{name}")
            if isinstance(plane, memoryview):
                plane.release()
            setattr(self, f"_{name}", None)
        self._okey_extra = {}
        self._okey_dead = {}
        self._origin_set = None

    def __getstate__(self):
        planes = {
            name: _materialize(code, plane)
            for name, code, plane in self.export_planes()
        }
        return {"meta": self.meta(), "planes": planes}

    def __setstate__(self, state):
        clone = RouteTrie.from_planes(state["meta"], state["planes"])
        for slot in self.__slots__:
            setattr(self, slot, getattr(clone, slot))


class RouteTrieBuilder:
    """Accumulates ⟨prefix, origin⟩ pairs, then freezes a :class:`RouteTrie`."""

    def __init__(self):
        self._table: dict[tuple, set] = {}
        self._by_origin: dict[int, set] = {}

    def add(self, prefix: Prefix, origin: int) -> None:
        """Register one declared ⟨prefix, origin⟩ pair."""
        version, plen = prefix.version, prefix.length
        key = (version, _mask(prefix.network, plen, _MAX_LEN[version]), plen)
        self._table.setdefault(key, set()).add(origin)
        self._by_origin.setdefault(origin, set()).add(key)

    def build(self) -> RouteTrie:
        """Lower the accumulated pairs into a frozen :class:`RouteTrie`."""
        span_off = array("i", [0])
        origins = array("Q")

        def payload_out(origin_set) -> int:
            origins.extend(sorted(origin_set))
            span_off.append(len(origins))
            return len(span_off) - 2

        fam4, fam6 = _freeze(self._table, payload_out, _ROUTE_LMFACTOR)
        origin_ids = array("Q")
        okey_off = array("i", [0])
        okey_ver = array("B")
        okey_plen = array("B")
        okey_hi = array("Q")
        okey_lo = array("Q")
        for asn in sorted(self._by_origin):
            origin_ids.append(asn)
            for version, net, plen in sorted(self._by_origin[asn]):
                okey_ver.append(version)
                okey_plen.append(plen)
                okey_hi.append(net >> 64)
                okey_lo.append(net & _U64)
            okey_off.append(len(okey_ver))
        return RouteTrie(
            fam4,
            fam6,
            span_off,
            origins,
            origin_ids,
            okey_off,
            okey_ver,
            okey_plen,
            okey_hi,
            okey_lo,
            prefix_count=len(span_off) - 1,
        )


# -- the range-operator trie (route-set members) ----------------------------


class OpTrie:
    """Declared ``prefix^op`` members of one route-set, trie-frozen.

    The payload arena holds ``(kind, low, high)`` triples; ``matches``
    inlines :meth:`RangeOp.allows` over the codes so the walk never
    reconstructs operator objects.
    """

    __slots__ = ("_fam4", "_fam6", "_off", "_kind", "_low", "_high")

    def __init__(self, fam4, fam6, off, kind, low, high):
        self._fam4 = fam4
        self._fam6 = fam6
        self._off = off
        self._kind = kind
        self._low = low
        self._high = high

    @classmethod
    def from_entries(cls, entries: dict) -> "OpTrie":
        """Freeze a ``{(version, net, plen): [RangeOp, ...]}`` mapping."""
        table: dict[tuple, list] = {}
        for (version, net, plen), ops in entries.items():
            key = (version, _mask(net, plen, _MAX_LEN[version]), plen)
            table.setdefault(key, []).extend(
                (
                    _KIND_TO_CODE[op.kind],
                    min(op.low, _OP_BOUND_CAP),
                    min(op.high, _OP_BOUND_CAP),
                )
                for op in ops
            )
        off = array("i", [0])
        kind = array("B")
        low = array("H")
        high = array("H")

        def payload_out(triples) -> int:
            for k, lo_bound, hi_bound in triples:
                kind.append(k)
                low.append(lo_bound)
                high.append(hi_bound)
            off.append(len(kind))
            return len(off) - 2

        fam4, fam6 = _freeze(table, payload_out, _OP_LMFACTOR)
        return cls(fam4, fam6, off, kind, low, high)

    @property
    def op_count(self) -> int:
        return len(self._kind)

    def matches(self, version: int, qnet: int, qlen: int, override: RangeOp | None) -> bool:
        """Ancestor probes over the member prefixes, mask-pruned.

        With ``override`` (an outer ``^op`` on the whole set) any stored
        entry at a covering prefix counts if the override admits the
        announced length — the length mask is truncated to the override's
        admissible declared lengths, so every hit is a match.  Without an
        override each stored operator is tested at its entry.
        """
        fam = self._fam4 if version == 4 else self._fam6
        maxlen = fam.maxlen
        lmk = fam.lmk
        m = fam.lenmask[qnet >> (maxlen - lmk)] if lmk else fam.lmall
        if override is None:
            m &= (1 << (qlen + 1)) - 1
        elif override.kind is RangeOpKind.NONE:
            # NONE admits announced == declared only: the exact entry.
            m &= 1 << qlen
        else:
            limit = RouteTrie._op_limit(override, qlen)
            if limit < 0:
                return False
            m &= (1 << (limit + 1)) - 1
        if not m:
            return False
        hlo, hhi, hpl, hval = fam.hlo, fam.hhi, fam.hpl, fam.hval
        hmask = (1 << fam.hbits) - 1
        hshift = fam.hshift
        off, kind, low, high = self._off, self._kind, self._low, self._high
        checked = override is None
        while m:
            pl = m.bit_length() - 1
            m ^= 1 << pl
            shift = maxlen - pl
            net = (qnet >> shift) << shift
            if hhi is None:
                x = (net + pl * _HASH_P) & _U64
            else:
                x = ((net ^ (net >> 64)) + pl * _HASH_P) & _U64
            s = ((x * _HASH_C) & _U64) >> hshift
            nlo = net & _U64
            nhi = net >> 64
            while hval[s] != -1:
                if (
                    hpl[s] == pl
                    and hlo[s] == nlo
                    and (hhi is None or hhi[s] == nhi)
                ):
                    if not checked:
                        return True
                    a, b = off[hval[s]], off[hval[s] + 1]
                    while a < b:
                        code = kind[a]
                        if code == _OP_NONE:
                            ok = qlen == pl
                        elif code == _OP_MINUS:
                            ok = qlen > pl
                        elif code == _OP_PLUS:
                            ok = qlen >= pl
                        else:
                            ok = low[a] <= qlen <= high[a]
                        if ok:
                            return True
                        a += 1
                    break
                s = (s + 1) & hmask
        return False

    def iter_entries(self):
        """Yield every stored ``((version, net, plen), RangeOp)`` pair (a
        slot scan: hash order, each prefix's operators in declared order).

        Operators with bounds beyond 255 come back clamped (see
        ``_OP_BOUND_CAP``) — exact for matching, approximate for display.
        """
        off = self._off
        for version, fam in ((4, self._fam4), (6, self._fam6)):
            for net, plen, p in _live_entries(fam):
                key = (version, net, plen)
                for t in range(off[p], off[p + 1]):
                    code = self._kind[t]
                    if code in (_OP_EXACT, _OP_RANGE):
                        op = RangeOp(_CODE_TO_KIND[code], self._low[t], self._high[t])
                    else:
                        op = RangeOp(_CODE_TO_KIND[code])
                    yield key, op

    def __getstate__(self):
        state = {"off": self._off, "kind": self._kind, "low": self._low, "high": self._high}
        for tag, fam in (("f4", self._fam4), ("f6", self._fam6)):
            state[tag] = {
                "lmk": fam.lmk,
                "lmall": fam.lmall,
                "hbits": fam.hbits,
                "planes": {
                    name: _materialize(code, getattr(fam, name))
                    for name, code in RouteTrie._FAMILY_PLANES.items()
                    if getattr(fam, name) is not None
                },
            }
        return state

    def __setstate__(self, state):
        for tag, maxlen, slot in (("f4", 32, "_fam4"), ("f6", 128, "_fam6")):
            fam = _Family(maxlen)
            _attach_fast(
                fam,
                state[tag]["lmk"],
                state[tag]["lmall"],
                state[tag]["hbits"],
                {f"{tag}.{name}": plane for name, plane in state[tag]["planes"].items()},
                tag,
            )
            setattr(self, slot, fam)
        self._off = state["off"]
        self._kind = state["kind"]
        self._low = state["low"]
        self._high = state["high"]
