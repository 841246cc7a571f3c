"""Bulk verification: one entry point for serial and multi-process runs.

The paper verifies 779 M routes on a dual-64-core server;
:func:`verify_table` is this reproduction's bulk path.  With
``processes=1`` it streams entries through one
:class:`~repro.core.verify.Verifier`; with more, entries are chunked
*lazily* from the input iterable (dumps never have to fit in memory as a
list) and the chunks are fed to the supervised worker pool
(:mod:`repro.core.pool`, the one the serve daemon uses): each warm worker
folds its chunk into a local :class:`VerificationStats` and the
per-chunk aggregates are merged here — reports themselves never cross
process boundaries, keeping IPC traffic tiny.

Worker processes fork where the platform supports it (cheapest: the parsed
IR is shared copy-on-write) and fall back to ``spawn`` elsewhere
(macOS/Windows), where the IR is pickled to each worker instead.  Metrics
follow the same merge discipline as the stats: when the parent has a live
:class:`~repro.obs.MetricsRegistry`, each worker records into its own
registry, and what it recorded per chunk — drained, see
:meth:`~repro.obs.MetricsRegistry.drain` — rides back with the chunk
results to be folded into the parent's registry, as do the tracer's
per-chunk sample counts.

The pooled path survives dying and wedged workers (see
``docs/robustness.md``): the pool retries a chunk whose worker crashed or
hung on another worker, respawns under its restart budget, and hands a
chunk it cannot place back to this module, which verifies it in-process;
once the pool degrades the remainder of the table is drained serially.
Every such step is recorded in the returned stats'
:class:`~repro.core.degradation.DegradationReport` and, if metrics are
live, as ``verify_degradation_total`` counters — the run completes with
exact stats either way.
"""

from __future__ import annotations

import os
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

from repro.bgp.table import RouteEntry
from repro.bgp.topology import AsRelationships
from repro.core.compiled import CompiledIndex, compile_index
from repro.core.report import RouteReport
from repro.core.verify import Verifier, VerifyOptions
from repro.gcpause import cyclic_gc_paused
from repro.ir.model import Ir
from repro.obs import get_registry
from repro.obs.trace import Tracer, get_tracer
from repro.stats.verification import VerificationStats

__all__ = ["verify_table", "verify_into"]


def _iter_chunks(
    entries: Iterable[RouteEntry], chunk_size: int
) -> Iterator[list[RouteEntry]]:
    iterator = iter(entries)
    while chunk := list(islice(iterator, chunk_size)):
        yield chunk


def _record_cache_hit_rate(registry) -> None:
    """Derive the hop-cache hit-rate gauge from the merged counters."""
    hits = registry.counter("verify_hop_cache_total", result="hit").value
    misses = registry.counter("verify_hop_cache_total", result="miss").value
    total = hits + misses
    registry.gauge("verify_hop_cache_hit_rate").set(hits / total if total else 0.0)


def _trace_marks(tracer: Tracer) -> tuple[int, int]:
    """The tracer's (emitted, dropped) cursors before this run started."""
    return (tracer.emitted, tracer.dropped)


def _record_trace_metrics(registry, tracer: Tracer, marks: tuple[int, int]) -> None:
    """Fold this run's trace-event counts into the metrics registry."""
    if not registry.enabled or not tracer.enabled:
        return
    emitted = tracer.emitted - marks[0]
    dropped = tracer.dropped - marks[1]
    if emitted:
        registry.counter("trace_events_total").inc(emitted)
    if dropped:
        registry.counter("trace_events_dropped_total").inc(dropped)


# Routes verified between two opportunities for the cyclic collector to run.
_GC_PAUSE_ROUTES = 8192


def verify_into(
    verifier: Verifier,
    entries: Iterable[RouteEntry],
    stats: VerificationStats,
    on_report: Callable[[RouteReport], None] | None = None,
) -> None:
    """Verify ``entries`` into ``stats``: the table loop of the serial
    pass, of a pool worker's chunk, and of the in-process fallback."""
    # ``entries`` is advanced with the collector running (it is the
    # caller's code, often a streaming parser); only the verify/aggregate
    # loop over a materialized batch is paused.
    for batch in _iter_chunks(entries, _GC_PAUSE_ROUTES):
        with cyclic_gc_paused():
            for entry in batch:
                report = verifier.verify_entry(entry)
                stats.add_report(report)
                if on_report is not None:
                    on_report(report)


def _verify_serial(
    ir: Ir,
    relationships: AsRelationships,
    entries: Iterable[RouteEntry],
    options: VerifyOptions | None,
    on_report: Callable[[RouteReport], None] | None,
    index: CompiledIndex,
) -> VerificationStats:
    stats = VerificationStats()
    verify_into(
        Verifier(ir, relationships, options, index=index), entries, stats, on_report
    )
    return stats


def _verify_pooled(
    ir: Ir,
    relationships: AsRelationships,
    chunks: Iterator[tuple[int, list[RouteEntry]]],
    options: VerifyOptions | None,
    processes: int,
    start_method: str | None,
    index: CompiledIndex,
) -> VerificationStats:
    """The pool's table client: one chunk in flight per worker.

    Runs the pool's dispatch coroutines on an event loop of its own, on
    this thread — so the caller's iterator is advanced, and every result
    merged, here.  (Like any ``asyncio.run``, not from inside a running
    loop: hand a pooled table pass to an executor thread there.)
    """
    # Imported here: the serial pass, which is all most callers ever run,
    # does not pay for asyncio and multiprocessing.
    import asyncio

    from repro.core.pool import SupervisorConfig, WorkerSupervisor

    registry = get_registry()
    tracer = get_tracer()
    total = VerificationStats()
    fallback: Verifier | None = None
    pool = WorkerSupervisor(
        ir,
        relationships,
        options,
        index,
        SupervisorConfig(workers=processes, start_method=start_method),
        degradation=total.degradation,
        component="verify",
        observability=(registry.enabled, tracer.config if tracer.enabled else None),
    )

    async def slot() -> None:
        nonlocal fallback
        # Every slot draws from the one iterator; next() never spans an await.
        for number, chunk in chunks:
            dispatched = await pool.dispatch_chunk(number, chunk)
            if dispatched is not None and dispatched[0][0] == "ok":
                _, partial, metrics, sampled = dispatched[0]
                total.merge(partial)
                registry.merge_snapshot(metrics)
                # The chunk's trace events and sample counts, taken with the
                # result that counts: a chunk that falls through emits them
                # again below.
                tracer.absorb(dispatched[1])
                for reason, count in sampled.items():
                    tracer.sampled[reason] += count
                continue
            if dispatched is not None:
                why = dispatched[0][1]  # the chunk raised in a worker that survived
            elif pool.degraded:
                why = None  # the pool said so once; the table drains here
            else:
                why = "the pool handed it back"
            if why is not None:
                total.degradation.record(
                    "verify", "chunk-serial-fallback", f"chunk {number}: {why}"
                )
            # A deterministic error surfaces from here, in the parent.
            if fallback is None:
                fallback = Verifier(ir, relationships, options, index=index)
            verify_into(fallback, chunk, total)

    async def feed() -> None:
        await asyncio.gather(*(slot() for _ in range(processes)))

    try:
        pool.start()
        asyncio.run(feed())
    finally:
        pool.stop()

    if registry.enabled:
        registry.gauge("verify_workers").set(processes)
        for event in total.degradation.events():
            registry.counter(
                "verify_degradation_total",
                component=event.component,
                kind=event.kind,
            ).inc(event.count)
    return total


def verify_table(
    ir: Ir,
    relationships: AsRelationships,
    entries: Iterable[RouteEntry],
    *,
    options: VerifyOptions | None = None,
    processes: int | None = 1,
    chunk_size: int = 2000,
    start_method: str | None = None,
    on_report: Callable[[RouteReport], None] | None = None,
    index: CompiledIndex | None = None,
) -> VerificationStats:
    """Verify a table of routes; serial and parallel return equal stats.

    ``entries`` may be any iterable (e.g. the streaming
    :func:`~repro.bgp.table.parse_table_file` generator) — the parallel
    path chunks it lazily, so the whole table is never materialized.
    ``processes=None`` uses every CPU; ``1`` (the default) stays
    in-process.  ``on_report`` is called with every
    :class:`~repro.core.report.RouteReport` and forces the serial path
    (reports do not cross process boundaries).  ``start_method`` overrides
    the multiprocessing start method; by default ``fork`` is used where
    available and ``spawn`` otherwise.

    The pooled path tolerates dying and wedged workers: the pool retries
    a chunk on another worker (bounded by its ``batch_retries``), a chunk
    it hands back is verified in-process, and every degradation is
    recorded on the returned stats' ``degradation`` report.  The chaos
    harness injects worker faults through the installed fault plan
    (:mod:`repro.faultplan`), never through this signature.

    ``index`` is a :class:`~repro.core.compiled.CompiledIndex` for ``ir``
    (see :func:`~repro.core.compiled.compile_index`); when none is given
    one is compiled on entry.  Every verifier — serial, worker, and
    fallback — reads that one index; workers inherit it (copy-on-write
    under fork, pickled once under spawn) instead of re-deriving set
    closures per process.
    """
    if processes is None:
        processes = os.cpu_count() or 1
    registry = get_registry()
    tracer = get_tracer()
    marks = _trace_marks(tracer)
    with registry.span("verify"):
        if index is None:
            # Before the pool exists: under fork every worker then shares
            # the artifact copy-on-write.
            index = compile_index(ir)
        chunks = first = None
        if processes > 1 and on_report is None:
            chunks = _iter_chunks(entries, chunk_size)
            first = next(chunks, None)
            if first is None:
                return VerificationStats()
        if first is None:
            stats = _verify_serial(ir, relationships, entries, options, on_report, index)
        elif len(first) < chunk_size:
            # The whole table fit in one chunk: process start-up would not
            # amortize, so verify in-process instead.
            stats = _verify_serial(ir, relationships, first, options, None, index)
        else:
            stats = _verify_pooled(
                ir,
                relationships,
                enumerate(chain([first], chunks)),
                options,
                processes,
                start_method,
                index,
            )
        if registry.enabled:
            _record_cache_hit_rate(registry)
        _record_trace_metrics(registry, tracer, marks)
        return stats
