#!/usr/bin/env python
"""Diff a benchmark's measured ratios against the committed baselines.

The strict perf benchmarks (``RPSLYZER_PERF_STRICT=1``) write their
measured ratio metrics to ``benchmarks/results/BENCH_<name>.json``;
``benchmarks/baselines.json`` pins the expected value, direction, and
tolerance for each gated metric.  This script fails (exit 1) when a
metric regresses past its tolerance band:

* ``direction: higher`` (speedups) — fail when
  ``measured < baseline * (1 - tolerance)``;
* ``direction: lower`` (sizes, latencies) — fail when
  ``measured > baseline * (1 + tolerance)``.

Improvements never fail; rerun with ``--update`` after an intentional
performance change to re-pin the baselines to the measured values.
Metrics present in the results but absent from the baselines are
reported informationally and do not gate.

Usage::

    python scripts/check_perf_regression.py --bench delta_ingest
    python scripts/check_perf_regression.py --bench delta_ingest --update
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_TOLERANCE = 0.20


def load_json(path: Path) -> dict:
    """Read one JSON document, with a pointed error on absence."""
    if not path.exists():
        sys.exit(f"error: {path} does not exist")
    return json.loads(path.read_text())


def check(bench: str, results_dir: Path, baselines_path: Path,
          tolerance: float | None, update: bool) -> int:
    """Compare one bench's results against its baselines; return rc."""
    results = load_json(results_dir / f"BENCH_{bench}.json")
    measured = results.get("metrics", {})
    baselines = load_json(baselines_path)
    gates = baselines.get(bench, {})

    if update:
        for name, value in measured.items():
            slot = gates.setdefault(
                name, {"direction": "higher", "tolerance": DEFAULT_TOLERANCE}
            )
            slot["value"] = value
        baselines[bench] = dict(sorted(gates.items()))
        baselines_path.write_text(
            json.dumps(baselines, indent=2, sort_keys=True) + "\n"
        )
        print(f"re-pinned {len(measured)} baselines for '{bench}'")
        return 0

    failures = []
    for name, gate in sorted(gates.items()):
        if name not in measured:
            failures.append(f"{name}: gated metric missing from results")
            continue
        value = measured[name]
        pinned = gate["value"]
        band = tolerance if tolerance is not None else gate.get(
            "tolerance", DEFAULT_TOLERANCE
        )
        direction = gate.get("direction", "higher")
        if direction == "higher":
            floor = pinned * (1 - band)
            ok = value >= floor
            bound = f">= {floor:.3f}"
        else:
            ceiling = pinned * (1 + band)
            ok = value <= ceiling
            bound = f"<= {ceiling:.3f}"
        verdict = "ok" if ok else "REGRESSED"
        print(
            f"{name:32s} measured {value:8.3f}  baseline {pinned:8.3f}"
            f"  ({direction}, {bound})  {verdict}"
        )
        if not ok:
            failures.append(
                f"{name}: measured {value:.3f} vs baseline {pinned:.3f} "
                f"({direction}, tolerance {band:.0%})"
            )
    for name in sorted(set(measured) - set(gates)):
        print(f"{name:32s} measured {measured[name]:8.3f}  (ungated)")

    if failures:
        print(f"\n{len(failures)} perf regression(s) past tolerance:",
              file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        print(
            "\nIf intentional, re-pin with: "
            f"python scripts/check_perf_regression.py --bench {bench} --update",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(gates)} gated metrics within tolerance")
    return 0


def main() -> int:
    """Parse arguments and run the comparison."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench", required=True,
        help="bench name (reads benchmarks/results/BENCH_<name>.json)",
    )
    parser.add_argument(
        "--baselines", type=Path, default=REPO / "benchmarks" / "baselines.json",
        help="baselines file (default: benchmarks/baselines.json)",
    )
    parser.add_argument(
        "--results-dir", type=Path, default=REPO / "benchmarks" / "results",
        help="directory holding BENCH_*.json results",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="override every metric's tolerance band (e.g. 0.2 = 20%%)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="re-pin baselines to the measured values instead of gating",
    )
    args = parser.parse_args()
    return check(
        args.bench, args.results_dir, args.baselines, args.tolerance, args.update
    )


if __name__ == "__main__":
    sys.exit(main())
