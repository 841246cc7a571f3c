"""Tests for the session-oriented facade: Session, open_session, LoadResult."""

import pytest

from repro import api
from repro.core.compiled import CompiledIndex, save_index
from repro.obs import MetricsRegistry


class TestLoadResult:
    def test_synthesize_returns_load_result(self):
        load = api.synthesize("tiny")
        assert isinstance(load, api.LoadResult)
        # SynthWorld surface still reachable (delegation).
        assert load.irr_dumps
        assert load.topology is not None
        # Parsed lazily from the world's dumps.
        assert load.ir.counts()["aut-num"] > 0

    def test_tuple_unpack_compat(self, tiny_world_dir):
        ir, errors = api.parse_dumps(tiny_world_dir)
        assert ir.counts()["aut-num"] > 0
        assert hasattr(errors, "issues")  # the ErrorCollector, as before 1.4

    def test_degradation_folds_ingest_damage(self, tmp_path):
        (tmp_path / "ripe.db").write_text(
            "aut-num:    AS64500\nas-name:    TEST\nmnt-by: MNT-T\nsource: RIPE\n"
            "\naut-num: AS64501\nas-name: CUT"  # truncated final paragraph
        )
        load = api.parse_dumps(tmp_path)
        assert load.degradation is not None

    def test_world_delegation_misses_raise(self):
        load = api.synthesize("tiny")
        with pytest.raises(AttributeError):
            load.not_a_real_attribute


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
        with api.open_session(tiny_world, processes=1) as session:
            stats = session.verify_table(tiny_routes[:25])
        assert stats.routes_total == 25

    def test_explain_returns_events(self, tiny_world, tiny_routes):
        entry = tiny_routes[0]
        with api.open_session(tiny_world, warm=False) as session:
            report, events = session.explain(str(entry.prefix), entry.as_path)
        assert any(event.get("event") == "route" for event in events)
        assert len([e for e in events if e.get("event") == "hop"]) == len(report.hops)

    def test_characterize(self, tiny_world):
        with api.open_session(tiny_world, warm=False) as session:
            result = session.characterize()
        assert result["counts"]["aut-num"] > 0

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
