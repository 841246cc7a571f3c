"""P3 — decision-trace overhead: default-sampled tracing vs no tracing.

One comparison over the mid-scale world with a warm compiled index: the
serial verification pass with the null tracer against the same pass with
a default :class:`TraceConfig` (1-in-128 head sampling plus always-trace
non-verified verdicts) — the configuration ``rpslyzer verify --trace``
installs.

The differential gate is always enforced: tracing must not change a
single aggregate of the verification output.  The overhead ceiling is
on the *absolute* cost of tracing — traced minus untraced wall time,
per route — because the ratio's denominator is the verifier itself:
PR 14 made the untraced pass 3x faster and the old "within 10%" gate
started failing on an unchanged tracer.  It only fails under
``RPSLYZER_PERF_STRICT`` so a noisy CI runner cannot flake the build;
the measured figures (the ratio too, informationally) are recorded as
gauges and land in the emitted manifest either way.
"""

import os
import time

from conftest import emit

from repro.api import Session
from repro.core.compiled import compile_index
from repro.obs import get_registry
from repro.obs.trace import TraceConfig, Tracer, use_tracer

STRICT = bool(os.environ.get("RPSLYZER_PERF_STRICT"))
# Default-sampled tracing measures 12-13 us/route here (0.44-0.48 s over
# the 36.5k-route table, min-of-2 on each side); the ceiling leaves the
# timing's own swing and catches a tracer that got half again as dear.
OVERHEAD_CEILING_US_PER_ROUTE = 20.0


def _best_of(runs, fn):
    """Min-of-N wall time plus the last result (comparison-friendly)."""
    best = float("inf")
    result = None
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_default_sampled_tracing_overhead(ir, world, routes):
    session = Session(ir, world.topology, index=compile_index(ir))

    base_s, base = _best_of(2, lambda: session.verify_table(routes, processes=1))

    def traced_run():
        with use_tracer(Tracer(TraceConfig())) as tracer:
            stats = session.verify_table(routes, processes=1)
        return stats, tracer

    traced_s, (traced, tracer) = _best_of(2, traced_run)

    # The differential gate: tracing is observation, never interference.
    assert traced.summary() == base.summary()
    assert traced.hop_totals == base.hop_totals
    assert tracer.emitted > 0  # the default config does sample this world

    overhead = traced_s / base_s - 1.0
    # The ratio's denominator moves whenever verification itself gets faster
    # or slower; the absolute cost of tracing is what a change to the tracer
    # (or to what it observes) must not grow.
    overhead_s = traced_s - base_s
    registry = get_registry()
    registry.gauge("bench_verify_untraced_seconds").set(base_s)
    registry.gauge("bench_verify_traced_seconds").set(traced_s)
    registry.gauge("bench_trace_overhead_ratio").set(traced_s / base_s)
    registry.gauge("bench_trace_overhead_seconds").set(overhead_s)
    emit(
        "perf_trace_overhead",
        f"routes: {len(routes)} (serial, warm index)\n"
        f"untraced: {base_s:.3f}s\ntraced (default sampling): {traced_s:.3f}s\n"
        f"overhead: {overhead_s:+.3f}s per {len(routes)} routes = "
        f"{overhead_s * 1e6 / len(routes):.1f} us/route "
        f"(ceiling {OVERHEAD_CEILING_US_PER_ROUTE:g}; {overhead:+.1%} of the "
        f"untraced pass, informational)\n"
        f"events: {tracer.emitted} "
        f"({tracer.sampled['head']} head / {tracer.sampled['verdict']} verdict)",
    )
    if STRICT:
        assert overhead_s * 1e6 / len(routes) <= OVERHEAD_CEILING_US_PER_ROUTE, (
            f"default-sampled tracing costs {overhead_s:.3f}s per {len(routes)} "
            f"routes (ceiling {OVERHEAD_CEILING_US_PER_ROUTE:g} us/route)"
        )
