"""Property suite for the flat-plane prefix engine.

The contract: :class:`RouteTrie` and :class:`OpTrie` answer every query
identically to the dict-walk oracle of ``tests/prefix_oracle.py`` — the
pre-trie algorithms preserved verbatim.  Hypothesis drives both engines
over arbitrary IPv4+IPv6 prefix sets (including the degenerate ``/0``
and max-length corners) and compares insert/lookup/ancestor/enumeration
answers; the nightly CI profile raises the example budget.
"""

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from prefix_oracle import NaiveRouteIndex, matches_naive

from repro.core.prefixtrie import RouteTrieBuilder
from repro.core.query import PrefixOpIndex
from repro.net.prefix import Prefix, RangeOp, RangeOpKind

# -- strategies -------------------------------------------------------------


@st.composite
def prefixes(draw, version: int | None = None) -> Prefix:
    """An arbitrary canonical prefix, both families, all lengths."""
    v = draw(st.sampled_from([4, 6])) if version is None else version
    maxlen = 32 if v == 4 else 128
    length = draw(st.integers(min_value=0, max_value=maxlen))
    network = draw(st.integers(min_value=0, max_value=(1 << maxlen) - 1))
    shift = maxlen - length
    return Prefix(v, (network >> shift) << shift, length)


@st.composite
def range_ops(draw) -> RangeOp:
    """An arbitrary range operator, bounds beyond any real length included."""
    kind = draw(st.sampled_from(list(RangeOpKind)))
    if kind is RangeOpKind.EXACT:
        n = draw(st.integers(min_value=0, max_value=140))
        return RangeOp(kind, n, n)
    if kind is RangeOpKind.RANGE:
        low = draw(st.integers(min_value=0, max_value=140))
        high = draw(st.integers(min_value=low, max_value=150))
        return RangeOp(kind, low, high)
    return RangeOp(kind)


pairs = st.lists(
    st.tuples(prefixes(), st.integers(min_value=1, max_value=30)),
    min_size=0,
    max_size=60,
)


def _engines(route_pairs):
    builder = RouteTrieBuilder()
    naive = NaiveRouteIndex()
    for prefix, origin in route_pairs:
        builder.add(prefix, origin)
        naive.add(prefix, origin)
    return builder.build(), naive


def _probe_pool(route_pairs, extra):
    """Declared prefixes + arbitrary ones: ancestors/exacts get exercised."""
    return [prefix for prefix, _ in route_pairs] + list(extra)


# -- RouteTrie vs NaiveRouteIndex ------------------------------------------


@given(pairs, st.lists(prefixes(), max_size=10), range_ops(), st.integers(1, 35))
def test_match_queries_agree(route_pairs, extra, op, asn):
    trie, naive = _engines(route_pairs)
    for probe in _probe_pool(route_pairs, extra):
        args = (probe.version, probe.network, probe.length, op)
        assert trie.match_origin(asn, *args) == naive.match_origin(asn, *args)
        assert trie.match_any(*args) == naive.match_any(*args)
        members = frozenset(range(asn, asn + 3))
        assert trie.match_members(members, *args) == naive.match_members(
            members, *args
        )


@given(pairs, st.lists(prefixes(), max_size=10))
def test_exact_and_ancestor_queries_agree(route_pairs, extra):
    trie, naive = _engines(route_pairs)
    for probe in _probe_pool(route_pairs, extra):
        args = (probe.version, probe.network, probe.length)
        assert trie.has_exact(*args) == naive.has_exact(*args)
        assert trie.exact_origins(*args) == naive.exact_origins(*args)
        trie_cover = {(pl, frozenset(o)) for pl, o in trie.covering_origins(*args)}
        naive_cover = {(pl, frozenset(o)) for pl, o in naive.covering_origins(*args)}
        assert trie_cover == naive_cover


@given(pairs)
def test_per_origin_tables_agree(route_pairs):
    trie, naive = _engines(route_pairs)
    assert list(trie.origins()) == list(naive.origins())
    for _, origin in route_pairs:
        assert trie.has_origin(origin) == naive.has_origin(origin)
        assert trie.origin_keys(origin) == naive.origin_keys(origin)
    assert not trie.has_origin(10**9)
    assert trie.origin_keys(10**9) == ()
    assert dict(trie.iter_exact()) == dict(naive.iter_exact())
    assert trie.stats()["prefixes"] == naive.stats()["prefixes"]
    assert trie.stats()["origins"] == naive.stats()["origins"]


@given(pairs, st.lists(prefixes(), max_size=8), range_ops())
@settings(max_examples=30)
def test_pickle_roundtrip_preserves_answers(route_pairs, extra, op):
    trie, _ = _engines(route_pairs)
    clone = pickle.loads(pickle.dumps(trie))
    assert clone.stats() == trie.stats()
    for probe in _probe_pool(route_pairs, extra):
        args = (probe.version, probe.network, probe.length)
        assert clone.exact_origins(*args) == trie.exact_origins(*args)
        assert clone.match_any(*args, op) == trie.match_any(*args, op)


# -- OpTrie (via PrefixOpIndex) vs the dict-walk oracle ---------------------


@given(
    st.lists(st.tuples(prefixes(), range_ops()), max_size=50),
    st.lists(prefixes(), max_size=10),
    st.one_of(st.none(), range_ops()),
)
def test_prefix_op_index_matches_naive_walk(entries, extra, override):
    index = PrefixOpIndex()
    for prefix, op in entries:
        index.add(prefix, op)
    probe_pool = [prefix for prefix, _ in entries] + list(extra)
    for probe in probe_pool:
        assert index.matches(probe, override) == matches_naive(
            index, probe, override
        ), (probe, override)


@given(st.lists(st.tuples(prefixes(), range_ops()), max_size=40))
@settings(max_examples=30)
def test_prefix_op_index_pickle_compat(entries):
    index = PrefixOpIndex()
    for prefix, op in entries:
        index.add(prefix, op)
    clone = pickle.loads(pickle.dumps(index))
    assert len(clone) == len(index)
    for probe, _ in entries:
        assert clone.matches(probe) == index.matches(probe)
    # the dict view reconstructs from the trie (bounds may clamp at 255,
    # unreachable for real prefixes)
    assert clone.entries.keys() == index.entries.keys()


# -- degenerate corners (explicit, not property-driven) ---------------------


def test_default_route_and_host_routes_coexist():
    builder = RouteTrieBuilder()
    builder.add(Prefix(4, 0, 0), 1)  # 0.0.0.0/0
    builder.add(Prefix(4, (1 << 32) - 1, 32), 2)  # 255.255.255.255/32
    builder.add(Prefix(6, 0, 0), 3)  # ::/0
    builder.add(Prefix(6, (1 << 128) - 1, 128), 4)  # ff..ff/128
    trie = builder.build()
    assert trie.exact_origins(4, 0, 0) == {1}
    assert trie.exact_origins(4, (1 << 32) - 1, 32) == {2}
    assert trie.exact_origins(6, 0, 0) == {3}
    assert trie.exact_origins(6, (1 << 128) - 1, 128) == {4}
    plus = RangeOp(RangeOpKind.PLUS)
    # /0^+ covers everything in its family
    assert trie.match_origin(1, 4, 0xC0000200, 24, plus)
    assert trie.match_origin(3, 6, 0x20010DB8 << 96, 32, plus)
    assert not trie.match_origin(1, 6, 0, 0, plus)  # families are disjoint
    # a max-length probe walks to the bottom without shifting past it
    assert trie.match_origin(2, 4, (1 << 32) - 1, 32, plus)
    assert trie.match_origin(4, 6, (1 << 128) - 1, 128, plus)


def test_empty_trie_answers_negative():
    trie = RouteTrieBuilder().build()
    none = RangeOp()
    assert not trie.has_origin(1)
    assert not trie.match_any(4, 0, 0, none)
    assert not trie.match_origin(1, 6, 0, 128, RangeOp(RangeOpKind.PLUS))
    assert trie.exact_origins(4, 0, 0) == frozenset()
    assert trie.covering_origins(6, 0, 128) == []
    assert list(trie.iter_exact()) == []
    assert trie.stats()["prefixes"] == 0


def test_duplicate_adds_are_idempotent():
    builder = RouteTrieBuilder()
    naive = NaiveRouteIndex()
    for _ in range(3):
        builder.add(Prefix(4, 0xC0000200, 24), 65000)
        naive.add(Prefix(4, 0xC0000200, 24), 65000)
    trie = builder.build()
    assert trie.stats()["prefixes"] == 1
    assert trie.exact_origins(4, 0xC0000200, 24) == {65000}
    assert trie.origin_keys(65000) == naive.origin_keys(65000)


# -- production scale (what the retired BENCH_prefix_engine checked) --------

_SCALE_OPS = (
    RangeOp(RangeOpKind.NONE),
    RangeOp(RangeOpKind.MINUS),
    RangeOp(RangeOpKind.PLUS),
    RangeOp(RangeOpKind.EXACT, 24, 24),
    RangeOp(RangeOpKind.RANGE, 20, 28),
)


def test_production_scale_two_family_identity():
    """≈100k prefixes over both families: the length masks at their 2**20
    bucket cap, long probe chains, nested ancestors — sizes the hypothesis
    budget never reaches.  Probes mix the verifier's three shapes: a
    declared exact hit, an origin miss, a perturbed network."""
    rng = random.Random(1)
    pairs = []
    for _ in range(80_000):
        length = rng.randint(16, 24)
        pairs.append((Prefix(4, rng.getrandbits(length) << (32 - length), length), rng.randint(1, 30_000)))
    for _ in range(20_000):
        length = rng.randint(29, 48)
        network = (0x2001 << 112) | (rng.getrandbits(length - 16) << (128 - length))
        pairs.append((Prefix(6, network, length), rng.randint(1, 30_000)))
    trie, naive = _engines(pairs)
    assert trie.stats()["prefixes"] == naive.stats()["prefixes"]
    for i, (prefix, origin) in enumerate(rng.sample(pairs, 3000)):
        version, net, length = prefix.version, prefix.network, prefix.length
        if i % 3 == 1:
            origin += 1
        elif i % 3 == 2:
            net ^= 1 << (8 if version == 4 else 100)
        op = _SCALE_OPS[i % len(_SCALE_OPS)]
        members = frozenset((origin, origin + 1))
        args = (version, net, length, op)
        assert trie.match_origin(origin, *args) == naive.match_origin(origin, *args)
        assert trie.match_any(*args) == naive.match_any(*args)
        assert trie.match_members(members, *args) == naive.match_members(members, *args)
        assert {(pl, frozenset(o)) for pl, o in trie.covering_origins(*args[:3])} == {
            (pl, frozenset(o)) for pl, o in naive.covering_origins(*args[:3])
        }
