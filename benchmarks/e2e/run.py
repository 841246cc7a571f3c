#!/usr/bin/env python3
"""The end-to-end ledger: one harness, four workloads, absolute numbers.

    python3 benchmarks/e2e/run.py --workload all --seed 42 [--trace 1] [--out FILE]
    python3 benchmarks/e2e/run.py --workload serve --seed 7 --seconds 10 --trace 0

``--workload all`` runs every workload in a fresh subprocess with tracing
off (and, with ``--trace 1``, once more traced), prints every metric by
name with its unit and exits non-zero on any correctness-gate mismatch.
A single workload runs in this process and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer ones
with ``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("ingest", "verify_table", "serve", "churn")
# Pool variants are only meaningful with cores to spare (ROADMAP item 1:
# a 0.60x "speedup" measured on one core is noise, not a result).
POOL_MIN_NPROC = 4


def _import_program() -> None:
    """Put this checkout's ``src/`` first and refuse any other ``repro``."""
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parents[1] != source.resolve():
        sys.exit(f"run.py: imported repro from {repro.__file__}, not from {source}")


@contextlib.contextmanager
def _scratch(kind: str):
    """This process's scratch directory under the checkout root, gone on exit."""
    scratch = REPO_ROOT / ".bench_e2e" / f"{kind}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run is still using it
            scratch.parent.rmdir()


def _emit(spec: dict, traced: bool, measured, setup_s: float) -> dict:
    """Name, unit and completeness come from BENCHMARK.json, nowhere else."""
    if traced:
        declared = spec["per_layer"]
        values = dict(measured.per_layer)
    else:
        declared = spec["end_to_end"]
        values = dict(measured.end_to_end, setup_s=setup_s)
    names = {metric["name"] for metric in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise SystemExit(f"run.py: metrics not declared in BENCHMARK.json: {unknown}")
    if not traced and names - set(values):
        raise SystemExit(f"run.py: end-to-end metrics not measured: {sorted(names - set(values))}")
    # A layer that did no work in this workload reports 0 for its metrics.
    return {
        metric["name"]: {"value": values.get(metric["name"], 0), "unit": metric["unit"]}
        for metric in declared
    }


def run_one(args: argparse.Namespace) -> dict:
    """Set up (several times), measure, gate: one workload in this process."""
    from harness import Context, HostSpeed, Outcome, host_record, load_benchmark_spec, median
    from inputs import PRESETS
    from tracing import Tracer, self_times

    spec = load_benchmark_spec()
    workload = importlib.import_module(f"workloads.{args.workload}")
    sizes = PRESETS[args.preset]
    traced = bool(args.trace)
    outcome = Outcome()
    with _scratch("run") as scratch:
        # Nothing may land in ~/.cache/rpslyzer: every call passes cache_dir,
        # and this catches whatever would still fall back to the default.
        os.environ["RPSLYZER_CACHE_DIR"] = str(scratch / "default-cache")
        ctx = Context(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds if args.seconds is not None else spec["run_seconds"],
            preset=args.preset,
            sizes=sizes,
            pool=args.pool,
            scratch=scratch,
            tracer=Tracer(args.workload, enabled=traced),
            host=HostSpeed(),
            update_golden=args.update_golden,
        )
        inputs = None
        try:
            setup_seconds = []
            for _ in range(sizes.setup_repeats):
                if inputs is not None:
                    workload.tear_down(inputs)
                before = ctx.host.before()
                started = time.perf_counter()
                inputs = workload.set_up(ctx)
                elapsed = time.perf_counter() - started
                setup_seconds.append(elapsed * ctx.host.factor(before, ctx.host.sample()))
            measured = workload.measure(ctx, inputs, outcome)
        finally:
            if inputs is not None:
                workload.tear_down(inputs)
    if traced:
        spans = [span for span in ctx.tracer.spans if span]
        layers = self_times(spans)
        roots = sum(end - start for _, _, start, end, parent, _ in spans if parent < 0) / 1e9
        total = sum(layers.values())
        for layer, seconds in layers.items():
            measured.per_layer[f"share.{layer}"] = seconds / total
        measured.per_layer["trace.spans"] = len(spans)
        # Self times partition the root spans; what is not the harness's
        # own is time attributed to a layer of the program.
        measured.per_layer["trace.coverage_ratio"] = (total - layers.get("harness", 0.0)) / roots
        if args.out:
            ctx.tracer.write(f"{args.out}.spans.jsonl")
    metrics = _emit(spec, traced, measured, median(setup_seconds))
    result = {
        "workload": args.workload,
        "trace": int(traced),
        "seed": args.seed,
        "preset": args.preset,
        "seconds": ctx.seconds,
        "pool": args.pool,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "metrics": metrics,
        "counts": measured.counts,
        "detail": dict(
            measured.detail,
            setup_seconds=setup_seconds,
            calibration_samples=len(ctx.host.samples),
            calibration_median_s=median(ctx.host.samples),
        ),
        "host": host_record(),
    }
    return result


def print_metrics(result: dict) -> None:
    label = result["workload"] + (" [traced]" if result["trace"] else "")
    if result.get("pool"):
        label += " [pool]"
    for name, metric in result["metrics"].items():
        print(f"{label:24s} {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"{label:24s} {'fail_ratio':34s} "
        f"{result['failed'] / result['attempted']:>16.6g} ratio "
        f"({result['failed']} of {result['attempted']})"
    )
    for failure in result["failures"]:
        print(f"{label:24s} GATE FAILED: {failure}")


def contract_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def _child(args: argparse.Namespace, workload: str, trace: int, pool: bool, out: Path) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed), "--trace", str(trace),
        "--preset", args.preset, "--out", str(out),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if pool:
        command.append("--pool")
    if args.update_golden:
        command.append("--update-golden")
    completed = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
    if not out.exists():
        sys.exit(f"run.py: {workload} (trace={trace}) exited {completed.returncode} without a result")
    result = json.loads(out.read_text(encoding="utf-8"))
    del result["host"]  # the ledger records the host once
    print_metrics(result)
    return result


def run_all(args: argparse.Namespace) -> dict:
    """Every workload, each in a fresh subprocess; ``--repeat`` makes a set."""
    from harness import host_record

    runs = []
    variants = {}
    with _scratch("all") as scratch:
        host = host_record()
        for repeat in range(args.repeat):
            for workload in WORKLOADS:
                for trace in (0, 1) if args.trace else (0,):
                    out = scratch / f"{workload}-{trace}-{repeat}.json"
                    runs.append(_child(args, workload, trace, False, out))
                    if trace and args.out:
                        Path(f"{out}.spans.jsonl").replace(f"{args.out}.{workload}.spans.jsonl")
        for workload, name in (("verify_table", "processes"), ("serve", "workers")):
            key = f"{workload}.{name}"
            if host["nproc"] < POOL_MIN_NPROC:
                variants[key] = {"skipped": f"nproc<{POOL_MIN_NPROC}"}
                print(f"{key:24s} skipped: nproc<{POOL_MIN_NPROC}")
            else:
                variants[key] = _child(args, workload, 0, True, scratch / f"{workload}-pool.json")
    return {
        "host": host,
        "seed": args.seed,
        "preset": args.preset,
        "runs": runs,
        "pool_variants": variants,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured-section budget per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: record harness spans and report the per-layer metrics",
    )
    parser.add_argument("--preset", choices=("standard", "tiny"), default="standard")
    parser.add_argument("--repeat", type=int, default=1, help="with --workload all: runs per workload")
    parser.add_argument("--out", help="write the full result JSON here (spans beside it when traced)")
    parser.add_argument("--pool", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--update-golden", action="store_true",
        help="pin this seed's answers under golden/ instead of checking them",
    )
    args = parser.parse_args(argv)
    _import_program()

    if args.workload == "all":
        document = run_all(args)
        results = document["runs"] + [
            v for v in document["pool_variants"].values() if "skipped" not in v
        ]
    else:
        document = run_one(args)
        results = [document]
        print_metrics(document)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    if args.workload != "all":
        print(contract_line(document))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
