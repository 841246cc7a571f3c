"""Differential tests for the compile-once verification index.

The contract under test: the index's set tables equal an independent
fixpoint reference (``tests/set_oracle.py``), and verification over it is
*bit-identical* to the dict-engine verifier of ``tests/prefix_oracle.py``
— same :class:`VerificationStats`, same per-route reports — serial,
multi-process, and under injected worker death.  Plus the cache envelope
(digest keying, format/version refusal, mmap attach/release lifecycle) and
the evidence-merging fast path the compilation pass leans on.

The trie-vs-legacy differential at the bottom scales through
``RPSLYZER_DIFF_ROUTES`` / ``RPSLYZER_DIFF_SEEDS`` — the nightly CI job
raises both to fuzz fresh worlds at higher route counts.
"""

import dataclasses
import gc
import inspect
import json
import os
import pickle
import random
import sys
import types
import weakref
from array import array

import pytest
from chaos.faults import KillWorkerChunk
from prefix_oracle import oracle_verifier
from set_oracle import index_mismatches

from repro.api import Session
from repro.bgp.routegen import collector_routes
from repro.core import compiled as production
from repro.core.compiled import (
    CompiledIndex,
    IndexCacheError,
    _collect_references,
    compile_index,
    get_or_compile,
    index_cache_path,
    ir_digest,
    load_index,
    save_index,
)
from repro.core.filter_match import MAX_ITEMS, _merge_items
from repro.core.prefixtrie import RouteTrieBuilder
from repro.core.report import ItemKind, ReportItem
from repro.core.verify import Verifier
from repro.faultplan import use_faults
from repro.irr.dump import parse_dump_text
from repro.irr.synth import build_world, tiny_config
from repro.net.prefix import Prefix
from repro.obs import MetricsRegistry, use_registry
from repro.stats.verification import VerificationStats


@pytest.fixture(scope="module")
def index(tiny_ir):
    return compile_index(tiny_ir, digest=ir_digest(tiny_ir))


@pytest.fixture(scope="module")
def indexed(tiny_ir, tiny_world, index):
    """A session pinned to the module's compiled index."""
    with Session(tiny_ir, tiny_world.topology, index=index) as session:
        yield session


@pytest.fixture(scope="module")
def oracle_stats(tiny_ir, tiny_world, tiny_routes):
    """The serial run of the dict-engine verifier."""
    oracle = oracle_verifier(tiny_ir, tiny_world.topology)
    stats = VerificationStats()
    for entry in tiny_routes:
        stats.add_report(oracle.verify_entry(entry))
    return stats


def _assert_stats_equal(actual, expected):
    assert actual.summary() == expected.summary()
    assert actual.hop_totals == expected.hop_totals
    assert actual.route_single_status == expected.route_single_status
    assert actual.per_as.keys() == expected.per_as.keys()
    for asn in expected.per_as:
        assert actual.per_as[asn].counts == expected.per_as[asn].counts
    assert actual.per_pair.keys() == expected.per_pair.keys()
    for key in expected.per_pair:
        assert actual.per_pair[key].counts == expected.per_pair[key].counts


class TestCompilation:
    def test_tables_are_populated(self, index, tiny_ir):
        stats = index.stats()
        assert stats["as_sets"] >= len(tiny_ir.as_sets)
        assert stats["route_index"] > 0
        assert stats["origins"] > 0
        assert index.compile_seconds > 0

    def test_artifact_is_picklable(self, index):
        clone = pickle.loads(pickle.dumps(index))
        assert isinstance(clone, CompiledIndex)
        assert clone.stats() == index.stats()
        assert clone.as_sets.keys() == index.as_sets.keys()

    def test_digest_is_content_addressed(self, tiny_ir):
        assert ir_digest(tiny_ir) == ir_digest(tiny_ir)
        assert len(ir_digest(tiny_ir)) == 64

    def test_adopting_engines_do_not_mutate_the_artifact(
        self, index, tiny_ir, tiny_world, tiny_routes
    ):
        tables = ("as_sets", "route_sets", "peering_sets", "aspath_regexes")
        before = {table: dict(getattr(index, table)) for table in tables}
        verifier = Verifier(tiny_ir, tiny_world.topology, index=index)
        for table in tables:  # read in place, not copied
            assert getattr(index, table) is getattr(verifier.query.index, table)
        for entry in tiny_routes[:200]:
            verifier.verify_entry(entry)
        assert {table: getattr(index, table) for table in tables} == before


    def test_compiling_leaves_no_cycle_holding_the_ir(self, tiny_world):
        """Reference counting alone frees an IR once its index is dropped.

        A recursive closure in the resolver used to keep itself, the
        resolver and so the whole IR alive until the next full collection:
        a second IR in memory through whatever ran next (a warm open, on
        the ingest ledger).
        """
        ir = tiny_world.merged_ir()
        alive = weakref.ref(ir)
        gc.collect()
        gc.disable()
        try:
            index = compile_index(ir)
            del index, ir
            assert alive() is None
        finally:
            gc.enable()


class TestDifferentialIdentity:
    def test_serial_compiled_matches_oracle(self, indexed, tiny_routes, oracle_stats):
        compiled = indexed.verify_table(tiny_routes, processes=1)
        _assert_stats_equal(compiled, oracle_stats)

    def test_per_route_reports_match_oracle(
        self, tiny_ir, tiny_world, tiny_routes, index
    ):
        oracle = oracle_verifier(tiny_ir, tiny_world.topology)
        compiled = Verifier(tiny_ir, tiny_world.topology, index=index)
        for entry in tiny_routes[:500]:
            assert compiled.verify_entry(entry) == oracle.verify_entry(entry)

    def test_parallel_compiled_matches_oracle(self, indexed, tiny_routes, oracle_stats):
        parallel = indexed.verify_table(tiny_routes, processes=2, chunk_size=200)
        _assert_stats_equal(parallel, oracle_stats)

    def test_parallel_auto_compiles_when_no_index_given(
        self, tiny_ir, tiny_world, tiny_routes, oracle_stats
    ):
        with Session(tiny_ir, tiny_world.topology, use_cache=False) as session:
            parallel = session.verify_table(tiny_routes, processes=2, chunk_size=200)
            assert session.index is not None  # adopted on entry, and kept
        _assert_stats_equal(parallel, oracle_stats)

    def test_identical_under_worker_death(self, indexed, tiny_routes, oracle_stats):
        with use_faults(chunk=KillWorkerChunk(2)):
            chaotic = indexed.verify_table(tiny_routes, processes=2, chunk_size=200)
        # Degradation events differ by design (the run *was* degraded);
        # every verification aggregate must still be exact.
        assert chaotic.degradation.events()
        assert chaotic.hop_totals == oracle_stats.hop_totals
        assert chaotic.routes_total == oracle_stats.routes_total
        assert chaotic.route_single_status == oracle_stats.route_single_status


# -- the set tables against an independent reference --------------------------

# Every clause of DESIGN.md §4a, on names a verdict can ask about: by-reference
# members admitted and refused (as-set and route-set side), a loop, ANY,
# nesting under an operator (a set reached under two operators included),
# RS-ANY, and unrecorded names both nested and referenced from a policy.
_SET_CORPUS = """
as-set: AS-TOP
members: AS1, AS-MID, AS-GONE
mbrs-by-ref: MNT-A

as-set: AS-MID
members: AS2, AS-LOOP

as-set: AS-LOOP
members: AS3, AS-MID

as-set: AS-OPEN
members: ANY
mbrs-by-ref: ANY

aut-num: AS10
member-of: AS-TOP
mnt-by: MNT-A

aut-num: AS11
member-of: AS-TOP, AS-MID
mnt-by: MNT-B

aut-num: AS12
member-of: AS-OPEN
mnt-by: MNT-C
import: from AS1 accept AS-UNSEEN AND RS-UNSEEN
export: to AS1 announce RS-TOP^24 OR RS-WIDE

route-set: RS-TOP
members: 192.0.2.0/24^25-26, RS-MID^+, AS7^-, AS-TOP^24, RS-GONE
mbrs-by-ref: MNT-A

route-set: RS-MID
members: 10.0.0.0/8, AS9, RS-TOP, RS-MID^16

route-set: RS-WIDE
members: RS-ANY, AS-MID

route: 198.51.100.0/24
origin: AS7
member-of: RS-TOP
mnt-by: MNT-A

route: 203.0.113.0/24
origin: AS8
member-of: RS-TOP, RS-MID
mnt-by: MNT-B
"""

# One clause of the resolver broken each; the reference must tell.
_RESOLVER_MUTANTS = {
    "as-set-byref-gate": (
        "if as_set is not None and _byref_allowed(as_set.mbrs_by_ref, aut_num.mnt_by):",
        "if as_set is not None:",
    ),
    "route-set-byref-gate": (
        "if route_set is not None and _byref_allowed(route_set.mbrs_by_ref, route.mnt_by):",
        "if route_set is not None:",
    ),
    "member-compose": (").append(op.compose(outer))", ").append(op)"),
    "nesting-compose": (
        "effective = member.op.compose(outer)",
        "effective = member.op",
    ),
    "as-set-recorded": (
        "            resolution = self.as_sets[name] = unrecorded_as_set(name)\n"
        "            return resolution\n",
        "            pass\n",
    ),
    "route-set-recorded": (
        "            resolution = self.route_sets[name] = unrecorded_route_set(name)\n"
        "            return resolution\n",
        "            pass\n",
    ),
}


def _corpus_ir():
    ir, _ = parse_dump_text(_SET_CORPUS, "TEST")
    return ir


def _set_names(ir) -> tuple[set, set]:
    """Every as-set / route-set name the IR records or references."""
    refs = _collect_references(ir)
    return refs.as_sets, refs.route_sets


def _compiled_mutant(old: str, new: str) -> types.ModuleType:
    """``repro.core.compiled`` re-compiled with one clause broken."""
    source = inspect.getsource(production)
    assert source.count(old) == 1, f"mutation target not found exactly once: {old!r}"
    module = types.ModuleType("repro.core.compiled_mutant")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(source.replace(old, new), module.__name__, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


class TestSetOracle:
    """The index's as-set and route-set tables equal ``tests/set_oracle.py``,
    field by field, for every name the IR records or references."""

    def test_tiny_world(self, tiny_ir, index):
        assert index_mismatches(tiny_ir, index, *_set_names(tiny_ir)) == []

    def test_corpus(self):
        ir = _corpus_ir()
        assert index_mismatches(ir, compile_index(ir), *_set_names(ir)) == []

    @pytest.mark.parametrize("mutant", sorted(_RESOLVER_MUTANTS))
    def test_each_resolver_mutant_is_caught(self, mutant):
        ir = _corpus_ir()
        index = _compiled_mutant(*_RESOLVER_MUTANTS[mutant]).compile_index(ir)
        assert index_mismatches(ir, index, *_set_names(ir))


def _unenvelope(artifact: bytes) -> tuple[dict, bytearray]:
    """An artifact's JSON header and its region (planes, then the pickle)."""
    header_len = int.from_bytes(artifact[8:16], "little")
    header = json.loads(artifact[16 : 16 + header_len])
    return header, bytearray(artifact[-(-(16 + header_len) // 16) * 16 :])


def _envelope(magic: bytes, header: dict, region: bytes) -> bytes:
    """The inverse of :func:`_unenvelope`, under ``magic``."""
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    lead = len(magic) + 8 + len(raw)
    return magic + len(raw).to_bytes(8, "little") + raw + b"\x00" * (-lead % 16) + bytes(region)


def _as_format_2(artifact: bytes, magic: bytes = b"RPSLIDX2") -> bytes:
    """``artifact`` re-enveloped the way the parent commit wrote it.

    Same digest and library version, so only the format can turn it away:
    a format-2 header whose trie meta and plane directory carry the
    patricia node planes, and a residual pickle holding a member trie's
    state with its node planes.
    """
    header, region = _unenvelope(artifact)
    header["format"] = "rpslyzer-compiled-index/2"
    header["trie"].update(root4=0, root6=-1)
    node_planes = {"plen": "B", "lo": "Q", "left": "i", "right": "i", "payload": "i"}
    for name, fmt in node_planes.items():
        region += b"\x00" * (-len(region) % 16)
        data = array(fmt, [0]).tobytes()
        header["planes"].append(
            {"name": f"f4.{name}", "fmt": fmt, "offset": len(region), "nbytes": len(data)}
        )
        region += data
    member_trie = {"root": 0, "planes": {name: array(fmt, [0]) for name, fmt in node_planes.items()}}
    blob = pickle.dumps({"route_sets": {"RS-OLD": {"f4": member_trie}}})
    region += b"\x00" * (-len(region) % 16)
    header["pickle"] = {"offset": len(region), "nbytes": len(blob)}
    region += blob
    return _envelope(magic, header, region)


def _as_format_3(artifact: bytes, magic: bytes = b"RPSLIDX3") -> bytes:
    """``artifact`` re-enveloped the way format 3 wrote it.

    Same digest, library version and plane directory, so only the format
    can turn it away: a format-3 header, and a residual pickle whose
    route-set member index holds a hash-plane trie's state (operator
    codes, one-byte-clamped bounds, its own planes) rather than a dict.
    """
    header, region = _unenvelope(artifact)
    header["format"] = "rpslyzer-compiled-index/3"
    member_trie = {
        "off": array("i", [0, 1]),
        "kind": array("B", [2]),
        "low": array("H", [0]),
        "high": array("H", [255]),
        "f4": {
            "lmk": 0,
            "lmall": 1 << 8,
            "hbits": 3,
            "planes": {
                "hlo": array("Q", [0] * 8),
                "hpl": array("B", [8] * 8),
                "hval": array("i", [0] + [-1] * 7),
            },
        },
        "f6": {"lmk": 0, "lmall": 0, "hbits": 0, "planes": {}},
    }
    blob = pickle.dumps({"route_sets": {"RS-OLD": {"trie": member_trie}}})
    del region[header["pickle"]["offset"] :]
    header["pickle"] = {"offset": len(region), "nbytes": len(blob)}
    region += blob
    return _envelope(magic, header, region)


class TestOnDiskCache:
    def test_save_load_roundtrip(self, index, tmp_path):
        path = tmp_path / "index.pkl"
        save_index(index, path)
        loaded = load_index(path, expect_digest=index.digest)
        assert loaded.stats() == index.stats()

    def test_load_rejects_digest_mismatch(self, index, tmp_path):
        path = tmp_path / "index.pkl"
        save_index(index, path)
        with pytest.raises(IndexCacheError, match="digest mismatch"):
            load_index(path, expect_digest="0" * 64)

    def test_load_rejects_foreign_format(self, index, tmp_path):
        path = tmp_path / "bogus.pkl"
        save_index(index, path)
        current = path.read_bytes()
        for foreign, why in (
            (pickle.dumps({"format": "something-else/9"}), "bad magic"),
            (_as_format_2(current), "bad magic"),
            (_as_format_2(current, magic=current[:8]), "compiled-index/2"),
            (_as_format_3(current), "bad magic"),
            (_as_format_3(current, magic=current[:8]), "compiled-index/3"),
        ):
            path.write_bytes(foreign)
            with pytest.raises(IndexCacheError, match=f"not a compiled index.*{why}"):
                load_index(path, expect_digest=index.digest)

    def test_load_rejects_version_skew(self, index, tmp_path, monkeypatch):
        path = tmp_path / "index.pkl"
        save_index(index, path)
        import repro

        monkeypatch.setattr(repro, "__version__", "0.0.0-other")
        with pytest.raises(IndexCacheError, match="compiled by repro"):
            load_index(path)

    def test_get_or_compile_miss_then_hit(self, tiny_ir, tmp_path):
        with use_registry(MetricsRegistry()) as registry:
            first = get_or_compile(tiny_ir, cache_dir=tmp_path)
            assert registry.counter("index_cache_total", result="miss").value == 1
            second = get_or_compile(tiny_ir, cache_dir=tmp_path)
            assert registry.counter("index_cache_total", result="hit").value == 1
        assert first.stats() == second.stats()
        assert index_cache_path(ir_digest(tiny_ir), tmp_path).exists()

    def test_corrupt_cache_degrades_to_recompile(self, index, tiny_ir, tmp_path):
        path = index_cache_path(index.digest, tmp_path)
        save_index(index, path)
        # Garbage, and the entries formats 2 and 3 left under this digest.
        current = path.read_bytes()
        for unusable in (b"not a pickle", _as_format_2(current), _as_format_3(current)):
            path.write_bytes(unusable)
            with use_registry(MetricsRegistry()) as registry:
                fresh = get_or_compile(tiny_ir, cache_dir=tmp_path)
                assert registry.counter("index_cache_total", result="miss").value == 1
            assert fresh.stats()["route_index"] > 0
            # ... and the recompile heals the cache entry in place.
            assert load_index(path, expect_digest=index.digest).stats() == fresh.stats()

    def test_use_cache_false_never_touches_disk(self, tiny_ir, tmp_path):
        get_or_compile(tiny_ir, cache_dir=tmp_path, use_cache=False)
        assert not index_cache_path(ir_digest(tiny_ir), tmp_path).exists()


class TestMergeItems:
    def test_reuses_existing_tuples(self):
        items = (ReportItem.of(ItemKind.MATCH_FILTER_AS_PATH),)
        assert _merge_items(items, ()) is items
        assert _merge_items((), items) is items
        assert _merge_items((), ()) == ()

    def test_caps_at_max_items(self):
        left = tuple(
            ReportItem.of(ItemKind.UNRECORDED_AS_SET, name=f"AS-L{i}")
            for i in range(MAX_ITEMS - 2)
        )
        right = tuple(
            ReportItem.of(ItemKind.UNRECORDED_AS_SET, name=f"AS-R{i}")
            for i in range(5)
        )
        merged = _merge_items(left, right)
        assert len(merged) == MAX_ITEMS
        assert merged == (left + right)[:MAX_ITEMS]

    def test_full_left_side_short_circuits(self):
        left = tuple(
            ReportItem.of(ItemKind.UNRECORDED_AS_SET, name=f"AS-L{i}")
            for i in range(MAX_ITEMS)
        )
        right = (ReportItem.of(ItemKind.MATCH_FILTER_AS_PATH),)
        assert _merge_items(left, right) is left


# -- mmap envelope and descriptor lifecycle ---------------------------------

_PROC_FD = "/proc/self/fd"
needs_procfs = pytest.mark.skipif(
    not os.path.isdir(_PROC_FD), reason="needs /proc/self/fd (Linux procfs)"
)


def _fd_count() -> int:
    return len(os.listdir(_PROC_FD))


class TestMmapEnvelope:
    """The format-2 flat envelope: file-backed planes, explicit release."""

    def test_loaded_index_serves_identical_reports(
        self, index, tiny_ir, tiny_world, tiny_routes, tmp_path
    ):
        path = tmp_path / "index.rpslidx"
        save_index(index, path)
        loaded = load_index(path, expect_digest=index.digest)
        try:
            memory = Verifier(tiny_ir, tiny_world.topology, index=index)
            mapped = Verifier(tiny_ir, tiny_world.topology, index=loaded)
            for entry in tiny_routes[:300]:
                assert mapped.verify_entry(entry) == memory.verify_entry(entry)
        finally:
            loaded.close()

    def test_loaded_index_is_picklable_without_resource(self, index, tmp_path):
        path = tmp_path / "index.rpslidx"
        save_index(index, path)
        loaded = load_index(path)
        try:
            clone = pickle.loads(pickle.dumps(loaded))
        finally:
            loaded.close()
        assert clone.resource is None
        assert clone.stats() == index.stats()

    @needs_procfs
    def test_close_releases_the_mapping_descriptor(self, index, tmp_path):
        path = tmp_path / "index.rpslidx"
        save_index(index, path)
        base = _fd_count()
        loaded = load_index(path)
        assert _fd_count() == base + 1  # the mmap dup is the only new fd
        loaded.close()
        assert _fd_count() == base
        loaded.close()  # idempotent: no double-release, no error
        assert _fd_count() == base

    def test_save_writes_the_planes_without_copying_them(self, index, tmp_path):
        """Saving is the peak of a cold open's resident size: the region is
        written from the planes' own buffers (arrays here, mmap views for a
        loaded index), never assembled in memory — and lands where the
        header says it does.  Two indexes that differ only in their route
        trie, one with ≥ 10x the plane bytes, must save at peaks that
        differ by far less than those bytes: a save that copied the
        planes would put the whole difference on its peak."""
        import tracemalloc

        builder = RouteTrieBuilder()
        rng = random.Random(3)
        for _ in range(20_000):
            length = rng.randint(12, 24)
            builder.add(Prefix(4, rng.getrandbits(length) << (32 - length), length), rng.randint(1, 3000))
        larger = dataclasses.replace(index, route_trie=builder.build())
        small, large = index.stats()["plane_bytes"], larger.stats()["plane_bytes"]
        assert large >= 10 * small, (large, small)

        def save_peak(artifact, path) -> int:
            tracemalloc.start()
            try:
                save_index(artifact, path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        first, again = tmp_path / "first.rpslidx", tmp_path / "again.rpslidx"
        peak = save_peak(index, first)
        larger_peak = save_peak(larger, tmp_path / "larger.rpslidx")
        assert larger_peak - peak < (large - small) / 4, (larger_peak, peak, large, small)
        loaded = load_index(first)
        try:
            assert loaded.stats() == index.stats()
            save_index(loaded, again)
        finally:
            loaded.close()
        reloaded = load_index(again)
        try:
            assert reloaded.stats() == index.stats()
            assert sorted(reloaded.route_trie.origins()) == sorted(index.route_trie.origins())
        finally:
            reloaded.close()

    def test_queries_after_close_do_not_touch_dead_planes(self, index, tmp_path):
        path = tmp_path / "index.rpslidx"
        save_index(index, path)
        loaded = load_index(path)
        loaded.close()
        with pytest.raises((AttributeError, TypeError, ValueError)):
            loaded.route_trie.origins()


class TestSessionIndexLifecycle:
    """Sessions own (and must release) the mapping they attach."""

    @needs_procfs
    def test_fd_count_stable_across_open_close_cycles(self, tiny_ir, tmp_path):
        from repro.api import Session

        # Cycle 0 compiles and populates the cache (its save fd churn is
        # not the regression under test); cycles 1..n each mmap-attach.
        with Session(tiny_ir, cache_dir=tmp_path) as session:
            session.warm()
        base = _fd_count()
        for _ in range(3):
            session = Session(tiny_ir, cache_dir=tmp_path)
            session.warm()
            assert session.index is not None
            session.close()
            assert _fd_count() == base, "descriptor leaked by a session cycle"

    def test_shared_index_is_not_closed_by_the_session(self, tiny_ir, index):
        from repro.api import Session

        with Session(tiny_ir, index=index) as session:
            session.warm()
            assert session.index is index
        # the caller-owned artifact stays live after session close
        assert index.route_trie.stats()["prefixes"] > 0


class TestDeltaSwapFdLifecycle:
    """apply_deltas must release the mmap the old index held."""

    @needs_procfs
    def test_swap_closes_the_old_mapping(self, tiny_ir, tiny_world, tmp_path):
        from repro.api import Session
        from repro.irr.history import ChurnConfig, evolve_with_journal

        with Session(tiny_ir, tiny_world.topology, cache_dir=tmp_path) as session:
            session.warm()
        base = _fd_count()
        with Session(tiny_ir, tiny_world.topology, cache_dir=tmp_path) as session:
            session.warm()
            assert session.index.resource is not None  # mmap-backed
            assert _fd_count() == base + 1
            _, journal = evolve_with_journal(session.ir, ChurnConfig(seed=3))
            report = session.apply_deltas(journal)
            assert not report
            # The patched index is heap-backed; the old mapping's fd must
            # be gone, not kept alive by a lingering reference.
            assert session.index.resource is None
            assert _fd_count() == base, "old mmap fd leaked across the swap"
            route = session.ir.route_objects[0]
            assert session.verify_route(
                str(route.prefix), (64500, route.origin)
            ).hops
        assert _fd_count() == base

    @needs_procfs
    def test_swap_under_query_load(self, tiny_ir, tiny_world, tmp_path):
        """Queries interleaved with swaps (serve's lock discipline) never
        leak a descriptor or read a dead plane."""
        import threading

        from repro.api import Session
        from repro.irr.history import ChurnConfig, evolve_with_journal

        with Session(tiny_ir, tiny_world.topology, cache_dir=tmp_path) as session:
            session.warm()
        base = _fd_count()
        lock = threading.Lock()  # serve serializes session access the same way
        failures: list = []
        with Session(tiny_ir, tiny_world.topology, cache_dir=tmp_path) as session:
            session.warm()
            routes = [
                (str(r.prefix), (64500, r.origin))
                for r in session.ir.route_objects[:20]
            ]
            stop = threading.Event()

            def hammer() -> None:
                while not stop.is_set():
                    prefix, as_path = routes[0]
                    try:
                        with lock:
                            session.verify_route(prefix, as_path)
                    except Exception as exc:  # noqa: BLE001 - collected
                        failures.append(exc)
                        return

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                serial = 1
                for epoch in range(3):
                    _, journal = evolve_with_journal(
                        session.ir,
                        ChurnConfig(seed=3),
                        epoch=epoch,
                        start_serial=serial,
                    )
                    with lock:
                        report = session.apply_deltas(journal)
                    assert not report
                    serial = max(journal.serials().values(), default=serial) + 1
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not failures
            assert session.generation == 3
        assert _fd_count() == base, "descriptor leaked by swap-under-load"


# -- trie vs legacy engine, fresh worlds ------------------------------------

_DIFF_ROUTES = int(os.environ.get("RPSLYZER_DIFF_ROUTES", "1500"))
_DIFF_SEEDS = int(os.environ.get("RPSLYZER_DIFF_SEEDS", "2"))


class TestTrieLegacyDifferential:
    """The trie engine is bit-identical to the legacy dict engine.

    Each seed builds a fresh synthetic world; the legacy engine (the
    test-only oracle of ``tests/prefix_oracle.py``) is put in one
    verifier's route trie's place, the trie engine runs both serially and
    pooled.  Nightly CI raises ``RPSLYZER_DIFF_ROUTES`` and
    ``RPSLYZER_DIFF_SEEDS``.
    """

    @pytest.mark.parametrize("seed", [7700 + i for i in range(_DIFF_SEEDS)])
    def test_trie_matches_legacy_serial_and_pooled(self, seed):
        world = build_world(tiny_config(seed=seed))
        ir = world.registry().merged()
        routes = list(
            collector_routes(world.topology, world.announced, world.collectors)
        )[:_DIFF_ROUTES]
        assert routes, "world produced no collector routes"

        oracle = oracle_verifier(ir, world.topology)
        legacy = VerificationStats()
        for entry in routes:
            legacy.add_report(oracle.verify_entry(entry))

        session = Session(ir, world.topology, index=compile_index(ir, digest=ir_digest(ir)))
        trie_serial = session.verify_table(routes, processes=1)
        _assert_stats_equal(trie_serial, legacy)

        pooled = session.verify_table(
            routes, processes=2, chunk_size=max(1, len(routes) // 4)
        )
        _assert_stats_equal(pooled, legacy)

    def test_per_route_reports_identical_across_engines(self):
        world = build_world(tiny_config(seed=7790))
        ir = world.registry().merged()
        routes = list(
            collector_routes(world.topology, world.announced, world.collectors)
        )[: min(500, _DIFF_ROUTES)]

        legacy = oracle_verifier(ir, world.topology)
        legacy_reports = [legacy.verify_entry(entry) for entry in routes]

        trie = Verifier(ir, world.topology, index=compile_index(ir))
        for entry, expected in zip(routes, legacy_reports):
            assert trie.verify_entry(entry) == expected
