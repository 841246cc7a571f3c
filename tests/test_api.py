"""Tests for the repro.api facade — the single supported entry point."""

import inspect
import re

import pytest

import repro
from repro import api
from repro.bgp.routegen import collector_routes
from repro.stats.verification import VerificationStats


class TestFacadeExports:
    def test_top_level_reexports(self):
        for name in (
            "synthesize",
            "parse_dumps",
            "open_session",
            "characterize",
            "VerifyOptions",
            "VerificationStats",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_facade_matches_api_module(self):
        assert repro.open_session is api.open_session
        assert repro.parse_dumps is api.parse_dumps


class TestCliImportHygiene:
    def test_cli_imports_no_pipeline_internals(self):
        """The CLI must go through the facade, never repro.core/repro.irr."""
        from repro import cli

        source = inspect.getsource(cli)
        offenders = re.findall(
            r"^\s*(?:from|import)\s+repro\.(?:core|irr)\b", source, re.MULTILINE
        )
        assert offenders == []


class TestSynthesize:
    def test_presets(self):
        world = api.synthesize("tiny", seed=7)
        assert world.config.seed == 7
        assert world.irr_dumps

    def test_config_object_passthrough(self, tiny_world):
        from repro.irr.synth import tiny_config

        world = api.synthesize(tiny_config(seed=42))
        assert world.config == tiny_world.config

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            api.synthesize("gigantic")


class TestParseDumps:
    def test_round_trip_through_directory(self, tmp_path, tiny_world, tiny_ir):
        tiny_world.write_to_dir(tmp_path)
        ir, errors = api.parse_dumps(tmp_path)  # tuple-unpack compat
        assert ir.counts() == tiny_ir.counts()
        assert len(errors) >= 0

    def test_load_result_fields(self, tiny_world_dir, tiny_ir):
        load = api.parse_dumps(tiny_world_dir)
        assert isinstance(load, api.LoadResult)
        assert load.ir.counts() == tiny_ir.counts()
        assert load.degradation is not None
        assert str(load.source) == str(tiny_world_dir)

    def test_parse_registry_exposes_per_irr_views(self, tmp_path, tiny_world):
        tiny_world.write_to_dir(tmp_path)
        registry = api.parse_registry(tmp_path)
        assert "RIPE" in registry.sources
        assert registry.table1()


class TestVerifyTable:
    def test_serial_and_parallel_agree(self, tiny_ir, tiny_world, tiny_routes):
        with api.Session(tiny_ir, tiny_world.topology) as session:
            serial = session.verify_table(tiny_routes, processes=1)
            parallel = session.verify_table(
                iter(tiny_routes), processes=4, chunk_size=400
            )
        assert isinstance(serial, VerificationStats)
        assert parallel.hop_totals == serial.hop_totals
        assert parallel.routes_total == serial.routes_total
        assert parallel.summary() == serial.summary()

    def test_accepts_generator_input(self, tiny_ir, tiny_world, tiny_world_dir):
        from repro.bgp.table import parse_table_file

        with api.Session(tiny_ir, tiny_world.topology) as session:
            stats = session.verify_table(
                parse_table_file(tiny_world_dir / "table.txt")
            )
        assert stats.routes_total > 0

    def test_options_and_reports(self, tiny_ir, tiny_world, tiny_routes):
        reports = []
        with api.Session(tiny_ir, tiny_world.topology) as session:
            stats = session.verify_table(
                tiny_routes[:20],
                options=repro.VerifyOptions(relaxations=False, safelists=False),
                on_report=reports.append,
            )
        assert len(reports) == 20
        assert stats.routes_total == 20

    def test_make_verifier_single_route(self, tiny_ir, tiny_world, tiny_routes):
        verifier = api.make_verifier(tiny_ir, tiny_world.topology)
        entry = tiny_routes[0]
        report = verifier.verify_entry(entry)
        assert report.entry is entry


class TestCharacterize:
    def test_section4_keys(self, tiny_ir):
        result = api.characterize(tiny_ir)
        assert set(result) == {
            "counts",
            "rules_ccdf_head",
            "peering_simplicity",
            "filter_kinds",
            "route_objects",
            "as_sets",
        }
        assert result["counts"]["aut-num"] > 0


class TestRecommendMigrations:
    def test_limit_respected(self, tiny_ir, tiny_world):
        unbounded = list(api.recommend_migrations(tiny_ir, None, tiny_world.topology))
        if not unbounded:
            pytest.skip("tiny world produced no migration candidates")
        limited = list(
            api.recommend_migrations(tiny_ir, None, tiny_world.topology, limit=1)
        )
        assert len(limited) == 1
