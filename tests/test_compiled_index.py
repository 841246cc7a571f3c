"""Differential tests for the compile-once verification index.

The contract under test: verification over a :class:`CompiledIndex` is
*bit-identical* to the lazy path — same :class:`VerificationStats`, same
per-route reports — serial, multi-process, and under injected worker
death.  Plus the cache envelope (digest keying, format/version refusal,
mmap attach/release lifecycle) and the evidence-merging fast path the
compilation pass leans on.

The trie-vs-legacy differential at the bottom scales through
``RPSLYZER_DIFF_ROUTES`` / ``RPSLYZER_DIFF_SEEDS`` — the nightly CI job
raises both to fuzz fresh worlds at higher route counts.
"""

import json
import os
import pickle
from array import array

import pytest
from prefix_oracle import oracle_verifier

from repro.bgp.routegen import collector_routes
from repro.chaos.faults import KillWorkerChunk
from repro.core.compiled import (
    CompiledIndex,
    IndexCacheError,
    compile_index,
    get_or_compile,
    index_cache_path,
    ir_digest,
    load_index,
    save_index,
)
from repro.core.filter_match import MAX_ITEMS, _merge_items
from repro.core.parallel import verify_table
from repro.core.report import ItemKind, ReportItem
from repro.core.verify import Verifier
from repro.irr.synth import build_world, tiny_config
from repro.obs import MetricsRegistry, use_registry
from repro.stats.verification import VerificationStats


@pytest.fixture(scope="module")
def index(tiny_ir):
    return compile_index(tiny_ir, digest=ir_digest(tiny_ir))


@pytest.fixture(scope="module")
def lazy_stats(tiny_ir, tiny_world, tiny_routes):
    return verify_table(tiny_ir, tiny_world.topology, tiny_routes, processes=1)


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
        before = {
            "as_sets": dict(index.as_sets),
            "regexes": dict(index.aspath_regexes),
        }
        verifier = Verifier(tiny_ir, tiny_world.topology, index=index)
        for entry in tiny_routes[:200]:
            verifier.verify_entry(entry)
        assert index.as_sets == before["as_sets"]
        assert index.aspath_regexes == before["regexes"]


class TestDifferentialIdentity:
    def test_serial_compiled_matches_lazy(
        self, tiny_ir, tiny_world, tiny_routes, index, lazy_stats
    ):
        compiled = verify_table(
            tiny_ir, tiny_world.topology, tiny_routes, processes=1, index=index
        )
        _assert_stats_equal(compiled, lazy_stats)

    def test_per_route_reports_match_lazy(
        self, tiny_ir, tiny_world, tiny_routes, index
    ):
        lazy = Verifier(tiny_ir, tiny_world.topology)
        compiled = Verifier(tiny_ir, tiny_world.topology, index=index)
        for entry in tiny_routes[:500]:
            assert compiled.verify_entry(entry) == lazy.verify_entry(entry)

    def test_parallel_compiled_matches_lazy(
        self, tiny_ir, tiny_world, tiny_routes, index, lazy_stats
    ):
        parallel = verify_table(
            tiny_ir,
            tiny_world.topology,
            tiny_routes,
            processes=2,
            chunk_size=200,
            index=index,
        )
        _assert_stats_equal(parallel, lazy_stats)

    def test_parallel_auto_compiles_when_no_index_given(
        self, tiny_ir, tiny_world, tiny_routes, lazy_stats
    ):
        parallel = verify_table(
            tiny_ir, tiny_world.topology, tiny_routes, processes=2, chunk_size=200
        )
        _assert_stats_equal(parallel, lazy_stats)

    def test_identical_under_worker_death(
        self, tiny_ir, tiny_world, tiny_routes, index, lazy_stats
    ):
        chaotic = verify_table(
            tiny_ir,
            tiny_world.topology,
            tiny_routes,
            processes=2,
            chunk_size=200,
            index=index,
            fault_hook=KillWorkerChunk(2),
        )
        # Degradation events differ by design (the run *was* degraded);
        # every verification aggregate must still be exact.
        assert chaotic.degradation.events()
        assert chaotic.hop_totals == lazy_stats.hop_totals
        assert chaotic.routes_total == lazy_stats.routes_total
        assert chaotic.route_single_status == lazy_stats.route_single_status


def _as_format_2(artifact: bytes, magic: bytes = b"RPSLIDX2") -> bytes:
    """``artifact`` re-enveloped the way the parent commit wrote it.

    Same digest and library version, so only the format can turn it away:
    a format-2 header whose trie meta and plane directory carry the
    patricia node planes, and a residual pickle holding a member trie's
    state with its node planes.
    """
    header_len = int.from_bytes(artifact[8:16], "little")
    header = json.loads(artifact[16 : 16 + header_len])
    region = bytearray(artifact[-(-(16 + header_len) // 16) * 16 :])
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
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    lead = len(magic) + 8 + len(raw)
    return magic + len(raw).to_bytes(8, "little") + raw + b"\x00" * (-lead % 16) + bytes(region)


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
        # Garbage, and the entry the parent commit left under this digest.
        for unusable in (b"not a pickle", _as_format_2(path.read_bytes())):
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
        """An index is all planes, and saving one is the peak of a cold
        open's resident size: the region is written from the planes' own
        buffers (arrays here, mmap views for a loaded index), never
        assembled in memory — and lands where the header says it does."""
        import tracemalloc

        plane_bytes = index.stats()["plane_bytes"]
        first, again = tmp_path / "first.rpslidx", tmp_path / "again.rpslidx"
        tracemalloc.start()
        try:
            save_index(index, first)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < plane_bytes / 4, (peak, plane_bytes)
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

    @needs_procfs
    def test_evict_index_releases_and_rewarm_reattaches(self, tiny_ir, tmp_path):
        from repro.api import Session

        with Session(tiny_ir, cache_dir=tmp_path) as session:
            session.warm()
        base = _fd_count()
        with Session(tiny_ir, cache_dir=tmp_path) as session:
            session.warm()
            first = session.index
            assert _fd_count() == base + 1
            session.evict_index()
            assert session.index is None
            assert _fd_count() == base
            session.warm()
            assert session.index is not None
            assert session.index is not first
            assert _fd_count() == base + 1
        assert _fd_count() == base

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
    test-only oracle of ``tests/prefix_oracle.py``) is put in a lazy
    verifier's place, the trie engine runs both serially (compiled
    index) and pooled.  Nightly CI raises ``RPSLYZER_DIFF_ROUTES`` and
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

        index = compile_index(ir, digest=ir_digest(ir))
        trie_serial = verify_table(
            ir, world.topology, routes, processes=1, index=index
        )
        _assert_stats_equal(trie_serial, legacy)

        pooled = verify_table(
            ir,
            world.topology,
            routes,
            processes=2,
            chunk_size=max(1, len(routes) // 4),
            index=index,
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
