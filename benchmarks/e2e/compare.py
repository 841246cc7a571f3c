#!/usr/bin/env python3
"""Compare two sets of ledger runs: ``compare.py A.json B.json``.

A and B are files written by ``run.py --out`` (a single run, or a
``--workload all [--repeat N]`` ledger).  For every (workload, end-to-end
metric) the direction and regression bound come from ``BENCHMARK.json``
and one row is printed:

* ``better`` / ``worse`` — B's median moved by more than the bound;
* ``within-bound`` — it did not;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, of either set) is wider than the bound, so the sets cannot tell
  — unless every run of one set beats every run of the other.

Work counts (objects, hop checks, verdict digests) must be identical when
both sets used the same seed and preset.  Exits non-zero on any ``worse``
row, on a higher fail ratio, or on differing counts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> list[dict]:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    runs = document["runs"] if "runs" in document else [document]
    return [run for run in runs if not run["trace"] and not run.get("pool")]


def spread(values: list[float]) -> float | None:
    """Interquartile range over the median; None below four runs."""
    if len(values) < 4:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, relative worsening of B's median)``; positive = worse."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worsening = sign * (median_b - median_a) / median_a
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "better", worsening
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "worse", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "within-bound", worsening


def compare(runs_a: list[dict], runs_b: list[dict], spec: dict) -> tuple[list[str], bool]:
    rows = []
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        of_a = [run for run in runs_a if run["workload"] == workload]
        of_b = [run for run in runs_b if run["workload"] == workload]
        if not of_a or not of_b:
            rows.append(f"{workload:14s} (absent from one set)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in of_a]
            b = [run["metrics"][name]["value"] for run in of_b]
            outcome, worsening = verdict(a, b, metric["better"], metric["bound"])
            failed |= outcome == "worse"
            widest = max((s for s in (spread(a), spread(b)) if s is not None), default=None)
            rows.append(
                f"{workload:14s} {name:18s} {statistics.median(a):>12.6g} -> "
                f"{statistics.median(b):>12.6g} {metric['unit']:6s} "
                f"{worsening:+8.2%} worse (bound {metric['bound']:.0%}, spread "
                f"{'n/a' if widest is None else format(widest, '.1%')})  {outcome}"
            )
        ratio_a = sum(r["failed"] for r in of_a) / sum(r["attempted"] for r in of_a)
        ratio_b = sum(r["failed"] for r in of_b) / sum(r["attempted"] for r in of_b)
        higher = ratio_b > ratio_a
        failed |= higher
        rows.append(
            f"{workload:14s} {'fail_ratio':18s} {ratio_a:>12.6g} -> {ratio_b:>12.6g} "
            f"{'ratio':6s} {'higher' if higher else 'not higher'}"
        )
        same_inputs = {(r["seed"], r["preset"]) for r in of_a} == {
            (r["seed"], r["preset"]) for r in of_b
        } and len({r["seed"] for r in of_a}) == 1
        if same_inputs:
            identical = all(r["counts"] == of_a[0]["counts"] for r in of_a + of_b)
            failed |= not identical
            rows.append(f"{workload:14s} {'work counts':18s} {'identical' if identical else 'DIFFER'}")
    return rows, failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    rows, failed = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    print("\n".join(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
