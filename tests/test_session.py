"""Tests for the session-oriented facade: Session, open_session, LoadResult."""

import dataclasses
import sys
import threading

import pytest

from repro import api
from repro.core.compiled import CompiledIndex, save_index
from repro.core.query import QueryEngine
from repro.irr.journal import Journal
from repro.obs import MetricsRegistry


class TestLoadResult:
    def test_synthesize_returns_load_result(self):
        load = api.synthesize("tiny")
        assert isinstance(load, api.LoadResult)
        assert load.world.irr_dumps
        assert load.world.topology is not None
        # Parsed lazily from the world's dumps.
        assert load.ir.counts()["aut-num"] > 0

    def test_parse_dumps_carries_ir_and_errors(self, tiny_world_dir):
        load = api.parse_dumps(tiny_world_dir)
        assert load.ir.counts()["aut-num"] > 0
        assert hasattr(load.errors, "issues")  # the ErrorCollector

    def test_degradation_folds_ingest_damage(self, tmp_path):
        (tmp_path / "ripe.db").write_text(
            "aut-num:    AS64500\nas-name:    TEST\nmnt-by: MNT-T\nsource: RIPE\n"
            "\naut-num: AS64501\nas-name: CUT"  # truncated final paragraph
        )
        load = api.parse_dumps(tmp_path)
        assert load.degradation is not None

    def test_world_delegation_misses_raise(self):
        """The SynthWorld is reached through ``load.world`` only."""
        load = api.synthesize("tiny")
        with pytest.raises(AttributeError):
            load.not_a_real_attribute
        with pytest.raises(AttributeError):
            load.topology
        with pytest.raises(TypeError):
            ir, errors = load


class TestOpenSession:
    def test_from_synth_world_implies_topology(self, tiny_world, tiny_routes):
        with api.open_session(tiny_world) as session:
            entry = tiny_routes[0]
            report = session.verify_route(str(entry.prefix), entry.as_path)
        assert report.hops or report.ignored is not None

    def test_from_directory(self, tiny_world_dir, tiny_routes, tmp_path):
        with api.open_session(
            tiny_world_dir,
            as_rel=tiny_world_dir / "as-rel.txt",
            cache_dir=tmp_path,
        ) as session:
            assert session.index is not None
            entry = tiny_routes[0]
            report = session.verify_route(str(entry.prefix), entry.as_path)
            assert report.entry.collector == "session"

    def test_from_ir_with_relationships(self, tiny_ir, tiny_world):
        with api.open_session(
            tiny_ir, as_rel=tiny_world.topology, warm=False
        ) as session:
            assert session.index is None  # not warmed yet
            session.warm()
            first = session.index
            session.warm()
            assert session.index is first  # idempotent

    def test_index_artifact_pinning(self, tiny_ir, tiny_world, tmp_path):
        index = api.compile_index(tiny_ir, digest=api.ir_digest(tiny_ir))
        artifact = tmp_path / "index.pkl"
        save_index(index, artifact)
        with api.open_session(
            tiny_ir, as_rel=tiny_world.topology, index=artifact
        ) as session:
            assert isinstance(session.index, CompiledIndex)
            assert session.index.digest == api.ir_digest(tiny_ir)

    def test_no_relationships_verify_raises(self, tiny_ir):
        with api.open_session(tiny_ir, warm=False) as session:
            with pytest.raises(ValueError, match="relationships"):
                session.verify_route("10.0.0.0/24", [64500, 64501])

    def test_closed_session_raises(self, tiny_ir, tiny_world):
        session = api.open_session(tiny_ir, as_rel=tiny_world.topology, warm=False)
        session.close()
        assert session.closed
        with pytest.raises(api.SessionClosedError):
            session.verify_route("10.0.0.0/24", [64500, 64501])
        session.close()  # idempotent


class TestSessionQueries:
    def test_verify_route_matches_verify_entry(self, tiny_world, tiny_routes):
        with api.open_session(tiny_world) as session:
            verifier = api.make_verifier(session.ir, session.relationships)
            for entry in tiny_routes[:10]:
                warm = session.verify_route(
                    str(entry.prefix), entry.as_path, collector=entry.collector
                )
                cold = verifier.verify_entry(entry)
                assert str(warm) == str(cold)

    def test_verify_table_uses_session_defaults(self, tiny_world, tiny_routes):
        with api.open_session(tiny_world) as session:
            stats = session.verify_table(tiny_routes[:25])
        assert stats.routes_total == 25

    def test_table_passes_on_an_unwarmed_session_adopt_the_index_once(
        self, tiny_world, tiny_routes, tmp_path
    ):
        registry = MetricsRegistry()
        cache = tmp_path / "cache"
        with api.open_session(
            tiny_world, registry=registry, cache_dir=cache, use_cache=False, warm=False
        ) as session:
            first = session.verify_table(tiny_routes[:200])
            index = session.index
            second = session.verify_table(tiny_routes[:200])
            assert index is not None and session.index is index
        assert first.summary() == second.summary()
        compiles = [
            span["count"]
            for span in registry.snapshot()["spans"]
            if span["path"].endswith("compile/index")
        ]
        assert compiles == [1]
        assert not cache.exists()  # use_cache=False: adopted in memory only

    def test_explains_on_an_unwarmed_session_adopt_the_index_once(
        self, tiny_world, tiny_routes, tmp_path
    ):
        registry = MetricsRegistry()
        cache = tmp_path / "cache"
        entry = tiny_routes[0]
        with api.open_session(
            tiny_world, registry=registry, cache_dir=cache, use_cache=False, warm=False
        ) as session:
            first, _ = session.explain(str(entry.prefix), entry.as_path)
            index = session.index
            second, _ = session.explain(str(entry.prefix), entry.as_path)
            assert index is not None and session.index is index
        assert str(first) == str(second)
        compiles = [
            span["count"]
            for span in registry.snapshot()["spans"]
            if span["path"].endswith("compile/index")
        ]
        assert compiles == [1]
        assert not cache.exists()  # use_cache=False: adopted in memory only

    def test_explain_returns_events(self, tiny_world, tiny_routes):
        entry = tiny_routes[0]
        with api.open_session(tiny_world, warm=False) as session:
            report, events = session.explain(str(entry.prefix), entry.as_path)
        assert any(event["kind"] == "route" for event in events)
        assert len([e for e in events if e["kind"] == "hop"]) == len(report.hops)

    def test_characterize(self, tiny_world, monkeypatch):
        with api.open_session(tiny_world, warm=False) as session:
            result = session.characterize()
            assert result["counts"]["aut-num"] > 0
            # Warm, the as-set statistics run on the generation's engine: a
            # private QueryEngine(ir) is a second route trie beside it.
            session.warm()
            built = []
            init = QueryEngine.__init__

            def counted(engine, *args, **kwargs):
                built.append(engine)
                init(engine, *args, **kwargs)

            monkeypatch.setattr(QueryEngine, "__init__", counted)
            assert session.characterize() == result
            assert built == []

    def test_whois_server_answers_over_the_session_ir(self, tiny_world):
        from repro.irr.whois import whois_query

        with api.open_session(tiny_world, warm=False) as session:
            asn = min(session.ir.aut_nums)
            with session.whois_server() as server:
                answer = whois_query("127.0.0.1", server.whois_port, f"AS{asn}")
        assert f"AS{asn}" in answer


class TestSessionMetrics:
    def test_private_registry_captures_operations(self, tiny_world, tiny_routes):
        registry = MetricsRegistry()
        with api.open_session(tiny_world, registry=registry) as session:
            entry = tiny_routes[0]
            session.verify_route(str(entry.prefix), entry.as_path)
            snapshot = session.metrics_snapshot()
        names = {counter["name"] for counter in snapshot["counters"]}
        assert "index_cache_total" in names

    def test_index_adopted_once_across_queries(self, tiny_world, tiny_routes, tmp_path):
        registry = MetricsRegistry()
        with api.open_session(
            tiny_world, registry=registry, cache_dir=tmp_path
        ) as session:
            for entry in tiny_routes[:20]:
                session.verify_route(str(entry.prefix), entry.as_path)
            snapshot = session.metrics_snapshot()
        cache_events = [
            counter
            for counter in snapshot["counters"]
            if counter["name"] == "index_cache_total"
        ]
        # Exactly one compile/adoption, no matter how many queries ran.
        assert sum(counter["value"] for counter in cache_events) == 1


def _churn(ir, epoch=0, start_serial=1):
    from repro.irr.history import ChurnConfig, evolve_with_journal

    return evolve_with_journal(
        ir, ChurnConfig(seed=11), epoch=epoch, start_serial=start_serial
    )


class TestGeneration:
    """A session's state is one frozen Generation behind one reference."""

    @staticmethod
    def _check(session, step):
        current = session.current
        assert session.ir is current.ir, step
        assert session.index is current.index and session.verifier is current.verifier
        assert session.generation == current.number, step
        assert session.serials == current.serials, step
        assert (session.last_delta_seconds, session.last_delta_hop_cache) == current.delta
        if current.index is None:
            assert current.verifier is None and current.query is None, step
        else:
            assert current.digest == current.index.digest, step
            assert current.number == current.index.generation, step
            assert current.query.ir is current.ir, step
            assert current.query.routes is current.index.route_trie, step
        if current.verifier is not None:
            assert current.verifier.ir is current.ir, step
            assert current.verifier.query is current.query, step
        with pytest.raises(dataclasses.FrozenInstanceError):
            current.ir = None
        return current

    @pytest.mark.parametrize("cached", [True, False], ids=["mmap", "heap"])
    def test_every_step_publishes_one_consistent_generation(
        self, tiny_world, tmp_path, cached
    ):
        if cached:  # generation 0 comes off the disk cache, mmap'd
            api.open_session(tiny_world, cache_dir=tmp_path).close()
        session = api.open_session(
            tiny_world, cache_dir=tmp_path, use_cache=cached, warm=False
        )
        _, first = _churn(session.ir)
        steps = [
            ("warm", session.warm),
            ("apply_deltas", lambda: session.apply_deltas(first)),
            (
                "apply_deltas (degraded)",
                lambda: session.apply_deltas(
                    Journal(
                        entries=_churn(session.ir, epoch=1, start_serial=10**6)[1].entries,
                        issues=["line 3: corrupt"],
                    )
                ),
            ),
            ("close", session.close),
        ]
        seen = [self._check(session, "open")]
        for step, run in steps:
            before = dict(vars(session))
            outcome = run()
            current = self._check(session, step)
            assert all(current is not earlier for earlier in seen), step
            seen.append(current)
            # The generation reference is the only data that moved.
            moved = {name for name, value in vars(session).items() if before[name] is not value}
            assert moved == {"_generation"} | ({"_closed"} if step == "close" else set()), step
            if step == "warm":
                assert (current.index.resource is not None) == cached
            elif step == "apply_deltas":
                assert not outcome and current.number == 1
                assert current.serials == first.serials()
                assert current.delta[0] > 0 and current.delta[1]["carried"] >= 0
            elif step == "apply_deltas (degraded)":
                assert outcome and current.number == 2  # a recompile, one generation on
                assert current.delta[1]["invalidated"]["full"] >= 0
            elif step == "close":
                assert current.index is None
        # An earlier generation is still whole for whoever kept it.
        warm = seen[1]
        assert warm.verifier.ir is warm.ir and warm.number == 0

    def test_warm_is_idempotent_and_keeps_the_generation(self, tiny_world):
        with api.open_session(tiny_world, use_cache=False) as session:
            current = session.current
            assert session.warm().current is current


class TestFailedApply:
    """Regression: an exception inside apply_deltas used to leave ``ir``,
    index and digest on generation N+1 with no verifier and no hop cache;
    a retry then saw every entry as already absorbed."""

    @pytest.mark.parametrize("site", ["adopt_hop_cache", "Verifier"])
    def test_failure_publishes_nothing_and_a_retry_applies(
        self, tiny_world, tiny_routes, monkeypatch, site
    ):
        with api.open_session(tiny_world, use_cache=False) as session:
            routes = [(str(e.prefix), e.as_path) for e in tiny_routes[:40]]
            verdicts = [str(session.verify_route(*route)) for route in routes]
            _, journal = _churn(session.ir)
            before = session.current

            def boom(*args, **kwargs):
                raise RuntimeError("injected")

            with monkeypatch.context() as patch:
                if site == "Verifier":
                    patch.setattr(api, "Verifier", boom)
                else:
                    patch.setattr(api.Verifier, "adopt_hop_cache", boom)
                with pytest.raises(RuntimeError, match="injected"):
                    session.apply_deltas(journal)
            assert session.current is before
            assert session.generation == 0 and session.serials == {}
            assert session.ir is before.ir and session.verifier is before.verifier
            assert [str(session.verify_route(*route)) for route in routes] == verdicts

            assert not session.apply_deltas(journal)  # the same journal, cleanly
            assert session.generation == 1 and session.serials == journal.serials()
            fresh = api.make_verifier(session.ir, session.relationships)
            assert [str(session.verify_route(*route)) for route in routes] == [
                str(fresh.verify_route(*route, collector="session")) for route in routes
            ]


class TestApplyWhileVerifying:
    """``apply_deltas`` while other threads call ``verify_route`` on the
    generation it replaces: the hop cache changes hands without a crash,
    and nothing an old-generation route writes is carried."""

    def test_verifying_threads_never_break_an_apply(self, tiny_world, tiny_routes):
        routes = [(str(e.prefix), e.as_path) for e in tiny_routes]
        stop = threading.Event()
        failures = []

        def verify(start):
            position = start
            while not stop.is_set():
                try:
                    session.verify_route(*routes[position % len(routes)])
                except Exception as exc:  # pragma: no cover - the failure under test
                    failures.append(exc)
                    return
                position += 1

        with api.open_session(tiny_world, use_cache=False) as session:
            session.verify_route(*routes[0])
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=verify, args=(k * len(routes) // 2,)) for k in range(2)]
            try:
                for thread in threads:
                    thread.start()
                serial = 1
                for epoch in range(12):
                    _, journal = _churn(session.ir, epoch=epoch, start_serial=serial)
                    serial = max(entry.serial for entry in journal) + 1
                    assert not session.apply_deltas(journal)
                    assert session.last_delta_hop_cache["carried"] >= 0
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
                sys.setswitchinterval(interval)
            assert not failures
            assert session.generation == 12

    def test_a_route_in_flight_during_an_apply_is_not_carried(self, tiny_world, tiny_routes):
        """A route binds its generation's hop cache when it starts; a verdict
        it writes after the hand-over belongs to the old generation."""
        with api.open_session(tiny_world, use_cache=False) as session:
            old = session.verifier
            entered, resume = threading.Event(), threading.Event()
            written = []
            real_miss = old._miss

            def held_miss(direction, exporter, importer, prefix, sub_path, communities, *rest):
                if not entered.is_set():
                    written.append(
                        (direction, exporter, importer,
                         (prefix.version, prefix.network, prefix.length), sub_path, communities)
                    )
                    entered.set()
                    resume.wait(10)
                return real_miss(direction, exporter, importer, prefix, sub_path, communities, *rest)

            old._miss = held_miss

            def verify():
                for entry in tiny_routes:
                    session.verify_route(str(entry.prefix), entry.as_path)
                    if entered.is_set():
                        return

            thread = threading.Thread(target=verify)
            thread.start()
            assert entered.wait(10)
            _, journal = _churn(session.ir)
            assert not session.apply_deltas(journal)
            resume.set()
            thread.join()
            assert session.verifier is not old
            assert written and written[0] not in session.verifier._hop_cache
