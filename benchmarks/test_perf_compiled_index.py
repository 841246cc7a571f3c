"""P2 — compile-once verification index: cold vs warm, 1 vs N processes.

Three comparisons, all over the same mid-scale world:

* **compile cold vs cache warm** — the first :func:`get_or_compile` pays
  the compilation pass and populates the digest-keyed disk cache; the
  second run loads the artifact instead;
* **serial: cold vs compiled** ("lazy" in the names below) — one verifier
  that compiles its own index against one handed the precompiled index;
* **multi-process warm vs serial cold** — the headline: workers sharing
  one prebuilt artifact against the single-process cold baseline.

Every comparison hard-asserts *identical* ``VerificationStats`` between
the paths — that differential check is what the CI perf-smoke job gates
on.  Timing assertions (warm no slower than cold, multi-process speedup)
only fail when ``RPSLYZER_PERF_STRICT`` is set, so a loaded CI machine
cannot flake the build on noise.  The measured figures are recorded as
gauges and land in the emitted run manifest either way.
"""

import os
import time

from conftest import emit

from repro.api import Session
from repro.core.compiled import compile_index, get_or_compile, ir_digest
from repro.core.verify import Verifier
from repro.obs import get_registry

STRICT = bool(os.environ.get("RPSLYZER_PERF_STRICT"))


def _best_of(runs, fn):
    """Min-of-N wall time plus the last result (comparison-friendly)."""
    best = float("inf")
    result = None
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _verify_lazy_serial(ir, world, sample):
    verifier = Verifier(ir, world.topology)  # compiles its own index
    from repro.stats.verification import VerificationStats

    stats = VerificationStats()
    for entry in sample:
        stats.add_report(verifier.verify_entry(entry))
    return stats


def test_cold_compile_vs_warm_cache(ir, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("index-cache")
    digest = ir_digest(ir)

    cold_s, index = _best_of(
        1, lambda: get_or_compile(ir, digest=digest, cache_dir=cache_dir)
    )
    warm_s, warmed = _best_of(
        3, lambda: get_or_compile(ir, digest=digest, cache_dir=cache_dir)
    )
    assert warmed.stats() == index.stats()

    registry = get_registry()
    registry.gauge("bench_index_cold_seconds").set(cold_s)
    registry.gauge("bench_index_warm_seconds").set(warm_s)
    emit(
        "perf_compiled_index_cache",
        f"cold compile+save: {cold_s:.3f}s\nwarm cache load: {warm_s:.3f}s\n"
        f"cold/warm ratio: {cold_s / warm_s:.1f}x\n"
        f"tables: {index.stats()}",
    )
    if STRICT:
        assert warm_s <= cold_s


def test_serial_compiled_no_slower_than_lazy(ir, world, routes):
    sample = routes[:2000]
    session = Session(ir, world.topology, index=compile_index(ir))

    lazy_s, lazy = _best_of(2, lambda: _verify_lazy_serial(ir, world, sample))
    compiled_s, compiled = _best_of(
        2, lambda: session.verify_table(sample, processes=1)
    )
    assert compiled.summary() == lazy.summary()
    assert compiled.hop_totals == lazy.hop_totals

    registry = get_registry()
    registry.gauge("bench_verify_lazy_serial_seconds").set(lazy_s)
    registry.gauge("bench_verify_compiled_serial_seconds").set(compiled_s)
    emit(
        "perf_compiled_index_serial",
        f"sample routes: {len(sample)}\nlazy serial: {lazy_s:.3f}s\n"
        f"compiled serial: {compiled_s:.3f}s\n"
        f"speedup: {lazy_s / compiled_s:.2f}x",
    )
    if STRICT:
        # "No slower" with headroom for scheduler noise.
        assert compiled_s <= lazy_s * 1.10


def test_multiprocess_warm_beats_serial_lazy(ir, world, routes):
    processes = min(4, os.cpu_count() or 1)
    session = Session(ir, world.topology, index=compile_index(ir))

    lazy_s, lazy = _best_of(1, lambda: _verify_lazy_serial(ir, world, routes))
    warm_s, warm = _best_of(
        2,
        lambda: session.verify_table(
            routes,
            processes=processes,
            chunk_size=max(200, len(routes) // (processes * 4)),
        ),
    )
    # The differential gate: identical aggregates, always enforced.
    assert warm.summary() == lazy.summary()
    assert warm.hop_totals == lazy.hop_totals
    assert warm.route_single_status == lazy.route_single_status

    speedup = lazy_s / warm_s
    registry = get_registry()
    registry.gauge("bench_verify_lazy_full_seconds").set(lazy_s)
    registry.gauge("bench_verify_warm_parallel_seconds").set(warm_s)
    registry.gauge("bench_verify_warm_parallel_speedup").set(speedup)
    emit(
        "perf_compiled_index_parallel",
        f"routes: {len(routes)} ({processes} workers, warm index)\n"
        f"lazy serial: {lazy_s:.3f}s\nwarm parallel: {warm_s:.3f}s\n"
        f"speedup: {speedup:.2f}x",
    )
    if STRICT:
        # The 1.5x floor needs actual cores; a single-CPU box can only
        # show that the warm path is not slower.
        assert speedup >= (1.5 if processes > 1 else 0.90)
