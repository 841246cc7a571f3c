"""CLI tests for the tooling subcommands (lint / asrel / classify)."""

import json

import pytest

from repro import api
from repro.cli import build_parser, main
from repro.ir import serialize
from repro.ir.json_io import load_ir


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tooling")
    main(["synth", str(directory / "world"), "--preset", "tiny"])
    main(["parse", str(directory / "world"), "-o", str(directory / "ir.json")])
    return directory


class TestCompileCommand:
    def test_takes_the_digest_the_document_certifies(self, artifacts, tmp_path, capsys, monkeypatch):
        expected = api.ir_digest(load_ir(artifacts / "ir.json"))

        def no_encoding(obj):
            raise AssertionError("the IR was re-encoded")

        monkeypatch.setattr(serialize, "encode", no_encoding)
        capsys.readouterr()
        ir_json, output = str(artifacts / "ir.json"), str(tmp_path / "index.pkl")
        assert main(["compile", "--ir", ir_json, "-o", output]) == 0
        assert f"compiled index for IR {expected[:16]} -> {output}" in capsys.readouterr().err


class TestLintCommand:
    def test_lint_runs(self, artifacts, capsys):
        code = main(
            [
                "lint",
                "--ir", str(artifacts / "ir.json"),
                "--as-rel", str(artifacts / "world" / "as-rel.txt"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RPS0" in out

    def test_lint_strict_exit_code(self, artifacts, capsys):
        code = main(["lint", "--ir", str(artifacts / "ir.json"), "--strict"])
        assert code == 1  # the tiny world has injected pathologies


class TestAsrelCommand:
    def test_asrel_stdout(self, artifacts, capsys):
        assert main(["asrel", "--ir", str(artifacts / "ir.json")]) == 0
        out = capsys.readouterr().out
        assert "|-1" in out

    def test_asrel_with_truth(self, artifacts, capsys, tmp_path):
        output = tmp_path / "inferred.txt"
        code = main(
            [
                "asrel",
                "--ir", str(artifacts / "ir.json"),
                "-o", str(output),
                "--truth", str(artifacts / "world" / "as-rel.txt"),
            ]
        )
        assert code == 0
        assert output.exists()


class TestClassifyCommand:
    def test_classify_census(self, artifacts, capsys):
        code = main(
            [
                "classify",
                "--ir", str(artifacts / "ir.json"),
                "--as-rel", str(artifacts / "world" / "as-rel.txt"),
            ]
        )
        assert code == 0
        census = json.loads(capsys.readouterr().out)["census"]
        assert census.get("silent", 0) > 0
        assert sum(census.values()) > 50


class TestRecommendCommand:
    def test_recommend_emits_migrations(self, artifacts, capsys):
        code = main(
            [
                "recommend",
                "--ir", str(artifacts / "ir.json"),
                "--as-rel", str(artifacts / "world" / "as-rel.txt"),
                "--limit", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RS-EXPORT" in out
        assert "route-set:" in out


class TestParserWiring:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions if action.choices is not None
        )
        assert set(subparsers.choices) == {
            "synth", "parse", "verify", "compile", "stats", "metrics", "explain",
            "trace", "lint", "asrel", "classify", "recommend", "whois",
            "serve", "debug",
        }
