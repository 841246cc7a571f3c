"""Self-tests of the ledger harness (tiny preset; ``pytest benchmarks/e2e/tests``)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from harness import REPO_ROOT, load_benchmark_spec, paced_rounds
from run import WORKLOADS
from tracing import Tracer, percentile, self_times

RUN = REPO_ROOT / "benchmarks" / "e2e" / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _snapshot_outside_world() -> dict:
    """Everything a run must leave exactly as it found it."""
    cache = Path.home() / ".cache" / "rpslyzer"
    git = subprocess.run(
        ["git", "status", "--porcelain"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    return {
        "git": git.stdout if git.returncode == 0 else None,
        "cache": sorted((p.name, p.stat().st_mtime_ns) for p in cache.iterdir())
        if cache.is_dir() else None,
        "flight": sorted(p.name for p in REPO_ROOT.glob("flight-*.jsonl")),
        "scratch": (REPO_ROOT / ".bench_e2e").exists(),
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload once untraced and once traced, plus the world around them."""
    out_dir = tmp_path_factory.mktemp("ledger")
    before = _snapshot_outside_world()
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = out_dir / f"{workload}-{trace}.json"
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--preset", "tiny",
                 "--seed", "5", "--seconds", "0.3", "--trace", str(trace), "--out", str(out)],
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stdout + done.stderr
            results[workload, trace] = {
                "document": json.loads(out.read_text()),
                "last_line": json.loads(done.stdout.strip().splitlines()[-1]),
                "out": out,
            }
    return {"results": results, "before": before, "after": _snapshot_outside_world()}


def test_names_match_benchmark_json(runs):
    spec = load_benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for names in declared.values():
        assert all(NAME.fullmatch(metric["name"]) for metric in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    for (workload, trace), result in runs["results"].items():
        line = result["last_line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}, workload
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in declared[trace]], (workload, trace)
        for metric in declared[trace]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        if not trace:  # end-to-end metrics are never zero
            assert all(m["value"] > 0 for m in line["metrics"].values()), workload


def test_every_declared_layer_metric_is_measured_somewhere(runs):
    spec = load_benchmark_spec()
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in ("compiled.fallback_recompiles", "verify.hop_cache_evictions",
                    "serve.stage.dispatch_ms_mean"):
            continue  # legitimately 0 on a clean run with workers=0
        assert any(
            runs["results"][workload, 1]["last_line"]["metrics"][name]["value"] != 0
            for workload in WORKLOADS
        ), f"{name} is declared but no workload measures it"


def test_work_counts_repeat_for_a_seed(runs):
    for workload in WORKLOADS:
        untraced = runs["results"][workload, 0]["document"]
        traced = runs["results"][workload, 1]["document"]
        assert untraced["counts"] == traced["counts"], workload
        assert untraced["host"]["nproc"] >= 1 and untraced["host"]["calibration_s"] > 0


def test_traced_layers_cover_the_measured_section(runs):
    for workload in WORKLOADS:
        metrics = runs["results"][workload, 1]["last_line"]["metrics"]
        assert metrics["trace.spans"]["value"] > 0
        assert 0.5 < metrics["trace.coverage_ratio"]["value"] <= 1.0 + 1e-9, workload
        assert metrics["trace.overhead_ratio"]["value"] > 0
        spans = Path(f"{runs['results'][workload, 1]['out']}.spans.jsonl")
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) == {
            "id", "name", "layer", "start_ns", "end_ns", "parent", "workload", "unit_id"
        }


def test_a_run_leaves_nothing_behind(runs):
    assert runs["after"] == runs["before"]
    assert runs["after"]["scratch"] is False


def test_compare_agrees_with_itself(runs, capsys):
    out = str(runs["results"]["ingest", 0]["out"])
    assert compare.main([out, out]) == 0
    assert "within-bound" in capsys.readouterr().out


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 100.2]
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "higher", 0.1)[0] == "better"
    assert compare.verdict(steady, [v * 1.02 for v in steady], "lower", 0.1)[0] == "within-bound"
    noisy = [100.0, 140.0, 80.0, 120.0, 90.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(noisy, [10.0, 11.0, 9.0, 10.0], "lower", 0.1)[0] == "better"


def test_percentile_and_self_time():
    assert percentile([1, 2, 3, 4, 5], 0.5) == 3
    assert percentile([1, 2, 3, 4], 0.5) == 2.5
    assert percentile([7], 0.99) == 7
    assert percentile(range(101), 0.95) == 95
    spans = [
        ("root", "harness", 0, 100, -1, None),
        ("a", "x", 10, 40, 0, None),
        ("b", "y", 30, 60, 0, None),  # overlaps a: the union covers 10..60
        ("c", "x", 12, 20, 1, None),
    ]
    assert self_times(spans) == pytest.approx(
        {"harness": 50e-9, "x": (30 - 8 + 8) * 1e-9, "y": 30e-9}
    )


def test_tracer_wrap_records_and_restores():
    class Layer:
        @staticmethod
        def work(value):
            return value + 1

    original = Layer.__dict__["work"]
    tracer = Tracer("test", enabled=True)
    tracer.wrap(Layer, "work", "layer")
    with tracer.span("outer", "harness", 7):
        assert Layer.work(1) == 2
        with tracer.paused():
            assert Layer.work(2) == 3
    tracer.unwrap()
    assert Layer.__dict__["work"] is original
    assert [(s[0], s[1], s[4], s[5]) for s in tracer.spans] == [
        ("outer", "harness", -1, 7), ("Layer.work", "layer", 0, None)
    ]
    disabled = Tracer("test", enabled=False)
    disabled.wrap(Layer, "work", "layer")
    assert Layer.__dict__["work"] is original and disabled.spans == []


def test_paced_rounds_respects_minimum_and_maximum():
    assert list(paced_rounds(0.0, minimum=2)) == [0, 1]
    assert list(paced_rounds(60.0, minimum=1, maximum=3)) == [0, 1, 2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        REPO_ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
