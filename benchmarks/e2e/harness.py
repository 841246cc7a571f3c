"""What every workload shares: context, pacing, gates, host record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from inputs import Sizes
from tracing import Tracer

__all__ = [
    "BENCH_DIR",
    "REPO_ROOT",
    "Context",
    "Outcome",
    "Measured",
    "CALIBRATION_REFERENCE_S",
    "HostSpeed",
    "host_record",
    "load_benchmark_spec",
    "median",
    "median_layers",
    "texts_digest",
    "paced_rounds",
    "run_rounds",
    "peak_rss_mib",
]

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
GOLDEN_DIR = BENCH_DIR / "golden"


def load_benchmark_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass(slots=True)
class Outcome:
    """Operations attempted vs failed; every correctness gate counts as one."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def ran(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} of {attempted} {what} failed")

    def gate(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)


@dataclass(slots=True)
class Measured:
    """What ``measure()`` hands back to the runner."""

    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    counts: dict  # work counts that must repeat exactly for a seed
    detail: dict  # sample sizes, rounds — context for readers, not metrics


@dataclass(slots=True)
class Context:
    workload: str
    seed: int
    seconds: float
    preset: str
    sizes: Sizes
    pool: bool  # the processes=N / --workers N variant (nproc >= 4 only)
    scratch: Path
    tracer: Tracer
    host: "HostSpeed"
    update_golden: bool = False

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    @contextmanager
    def timed(self, name: str, layer: str, unit_id: int | None = None):
        """A span bracketed by two calibration samples.

        Yields the span's timing; on exit it also carries ``normal_s`` and
        ``cpu_normal_s``, the host-normalised wall and process-CPU seconds.
        """
        before = self.host.before()
        cpu_started = time.process_time()
        with self.tracer.span(name, layer, unit_id) as timing:
            yield timing
        cpu_s = time.process_time() - cpu_started
        factor = self.host.factor(before, self.host.sample())
        timing.normal_s = timing.seconds * factor
        timing.cpu_normal_s = cpu_s * factor

    # -- golden answers ------------------------------------------------------

    def golden(self, outcome: Outcome, observed: dict) -> None:
        """Gate ``observed`` against the pinned answer for this seed.

        Seeds without a pinned file have no known answer: the workload's
        other gates (cross-engine, cross-path, run-to-run) still apply.
        ``--update-golden`` pins instead of checking.
        """
        path = GOLDEN_DIR / f"{self.preset}-seed{self.seed}.json"
        pinned = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        if self.update_golden:
            pinned[self.workload] = observed
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            return
        expected = pinned.get(self.workload)
        if expected is None:
            return
        outcome.gate(
            observed == expected,
            f"{self.workload}: golden mismatch for seed {self.seed}: "
            f"expected {expected}, observed {observed}",
        )


def paced_rounds(seconds: float, minimum: int = 2, maximum: int | None = None):
    """Yield round numbers until the time budget is used.

    Rounds have a fixed, seeded content, so per-round counts repeat
    exactly; only *how many* fit depends on the host.  A further round
    starts only while at least half of one (at the mean pace so far)
    still fits the budget.
    """
    started = time.perf_counter()
    done = 0
    while maximum is None or done < maximum:
        if done >= minimum:
            elapsed = time.perf_counter() - started
            if elapsed + 0.5 * elapsed / done > seconds:
                return
        yield done
        done += 1


def run_rounds(ctx: "Context", one_round, maximum: int | None = None):
    """Drive ``one_round(number)`` until the budget is used.

    Returns ``(rounds, reference)``.  In a traced run the second round is
    run unrecorded instead (after round 0 has warmed the process-wide
    caches): it is the untraced reference that ``trace.overhead_ratio``
    divides by, and is not among ``rounds``.
    """
    rounds = []
    reference = None
    for number in paced_rounds(ctx.seconds, 3 if ctx.traced else 2, maximum):
        if ctx.traced and number == 1:
            with ctx.tracer.paused():
                reference = one_round(number)
        else:
            rounds.append(one_round(number))
    return rounds, reference


def median_layers(rounds: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a traced run: the median of each over its rounds."""
    return {
        name: median(facts["layers"][name] for facts in rounds)
        for name in rounds[0]["layers"]
    }


def texts_digest(texts) -> str:
    """blake2b over lines of text: the compact form of "same verdicts"."""
    digest = hashlib.blake2b(digest_size=16)
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_kernel() -> float:
    """Seconds one pass of a fixed pure-Python kernel takes right now."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for index in range(200_000):
        key = (index * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + index
        total += len(str(key)) + (index ^ key)
    return time.perf_counter() - started


# Roughly what the kernel takes, interleaved with work, on the host the
# first result was measured on.  Host-normalised times read as "seconds on
# a host where the kernel takes this long".
CALIBRATION_REFERENCE_S = 0.05


class HostSpeed:
    """Calibration samples interleaved with the measured operations.

    This class of host speeds up and slows down by 10-25 % in phases of
    several seconds (README "Host noise"), which a fixed kernel run right
    next to an operation tracks well.  An operation's *host-normalised*
    time is its raw time scaled by reference / observed kernel time, the
    observation being the mean of the samples taken just before and just
    after it.
    """

    FRESH_S = 0.010  # a sample this young still describes "just before"

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._latest_at = float("-inf")

    def sample(self) -> float:
        seconds = calibration_kernel()
        self.samples.append(seconds)
        self._latest_at = time.perf_counter()
        return seconds

    def before(self) -> float:
        """The sample preceding an operation (reused when back to back)."""
        if time.perf_counter() - self._latest_at < self.FRESH_S:
            return self.samples[-1]
        return self.sample()

    @staticmethod
    def factor(before: float, after: float) -> float:
        return CALIBRATION_REFERENCE_S / ((before + after) / 2)


def host_record() -> dict:
    import repro

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repro_version": repro.__version__,
        "calibration_s": min(calibration_kernel() for _ in range(3)),
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
    }


# -- reading the program's own registry snapshots ---------------------------


def counter_total(snapshot: dict, name: str, **labels) -> float:
    """Sum of a counter over every label set matching ``labels``."""
    return sum(
        record["value"]
        for record in snapshot["counters"]
        if record["name"] == name
        and all(record["labels"].get(key) == value for key, value in labels.items())
    )


def histogram_totals(snapshot: dict, name: str) -> tuple[float, int]:
    """``(sum, count)`` of a histogram over all its label sets."""
    records = [r for r in snapshot["histograms"] if r["name"] == name]
    return sum(r["sum"] for r in records), sum(r["count"] for r in records)


def span_wall(snapshot: dict, suffix: str) -> float:
    """Wall seconds of every registry span whose path ends with ``suffix``."""
    return sum(r["wall_s"] for r in snapshot["spans"] if r["path"].endswith(suffix))
