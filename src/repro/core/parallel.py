"""Bulk verification: one entry point for serial and multi-process runs.

The paper verifies 779 M routes on a dual-64-core server;
:func:`verify_table` is this reproduction's bulk path.  With
``processes=1`` it streams entries through one
:class:`~repro.core.verify.Verifier`; with more, entries are chunked
*lazily* from the input iterable (dumps never have to fit in memory as a
list), each worker process builds its own Verifier (the query-engine
indexes are per-process, so no shared mutable state), folds its chunk into
a local :class:`VerificationStats`, and the per-worker aggregates are
merged — reports themselves never cross process boundaries, keeping IPC
traffic tiny.

Worker processes fork where the platform supports it (cheapest: the parsed
IR is shared copy-on-write) and fall back to ``spawn`` elsewhere
(macOS/Windows), where the IR is pickled to each worker instead.  Metrics
follow the same merge discipline as the stats: when the parent has a live
:class:`~repro.obs.MetricsRegistry`, each worker records into its own
registry and per-chunk snapshot *deltas* ride back with the chunk results
to be folded into the parent's registry.

The parallel path survives worker death (see ``docs/robustness.md``): a
chunk whose worker was killed (OOM killer, operator signal, or the chaos
harness's injected faults) is requeued with bounded retries; a chunk that
fails :data:`MAX_CHUNK_ATTEMPTS` times in workers is verified serially
in-process; and if the pool itself keeps collapsing the whole remainder of
the table is drained serially.  Every such step is recorded in the
returned stats' :class:`~repro.core.degradation.DegradationReport` and, if
metrics are live, as ``verify_degradation_total`` counters — the run
completes with exact stats either way.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.bgp.table import RouteEntry
from repro.bgp.topology import AsRelationships
from repro.core.compiled import CompiledIndex, compile_index
from repro.core.report import RouteReport
from repro.core.verify import Verifier, VerifyOptions
from repro.gcpause import cyclic_gc_paused
from repro.ir.model import Ir
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.obs.trace import TraceConfig, Tracer, get_tracer, set_tracer
from repro.stats.verification import VerificationStats

__all__ = [
    "verify_table",
    "reset_worker_observability",
    "MAX_CHUNK_ATTEMPTS",
    "MAX_POOL_REBUILDS",
]

# A chunk is tried this many times in worker processes before the parent
# gives up on parallelism for it and verifies it serially in-process.
MAX_CHUNK_ATTEMPTS = 2
# The pool is rebuilt after worker death at most this many times; beyond
# it, the remainder of the table is drained serially.
MAX_POOL_REBUILDS = 5

_WORKER_VERIFIER: Verifier | None = None
_WORKER_COLLECT_METRICS = False
_WORKER_LAST_SNAPSHOT: dict | None = None
_WORKER_FAULT_HOOK: Callable[[int], None] | None = None


def _iter_chunks(
    entries: Iterable[RouteEntry], chunk_size: int
) -> Iterator[list[RouteEntry]]:
    iterator = iter(entries)
    while chunk := list(islice(iterator, chunk_size)):
        yield chunk


def _chain_first(
    first: list[RouteEntry], rest: Iterator[list[RouteEntry]]
) -> Iterator[list[RouteEntry]]:
    yield first
    yield from rest


def _default_start_method() -> str:
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


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


def _snapshot_delta(current: dict, previous: dict | None) -> dict:
    """What ``current`` adds over ``previous`` (worker chunk boundaries).

    The worker's registry accumulates for its whole life (so the verifier's
    pre-bound instruments stay valid and the hop cache survives across
    chunks); each chunk ships only the delta so the parent's merge stays an
    exact sum.  Gauges are point-in-time and pass through unchanged.
    """
    if previous is None:
        return current

    def key(record: dict) -> tuple:
        return (record["name"], tuple(sorted(record["labels"].items())))

    prev_counters = {key(r): r for r in previous.get("counters", ())}
    counters = []
    for record in current.get("counters", ()):
        before = prev_counters.get(key(record))
        value = record["value"] - (before["value"] if before else 0)
        if value:
            counters.append({**record, "value": value})

    prev_hists = {key(r): r for r in previous.get("histograms", ())}
    histograms = []
    for record in current.get("histograms", ()):
        before = prev_hists.get(key(record))
        if before is None:
            if record["count"]:
                histograms.append(record)
            continue
        count = record["count"] - before["count"]
        if not count:
            continue
        histograms.append(
            {
                **record,
                "bucket_counts": [
                    now - then
                    for now, then in zip(
                        record["bucket_counts"], before["bucket_counts"]
                    )
                ],
                "sum": record["sum"] - before["sum"],
                "count": count,
            }
        )

    prev_spans = {r["path"]: r for r in previous.get("spans", ())}
    spans = []
    for record in current.get("spans", ()):
        before = prev_spans.get(record["path"])
        if before is None:
            spans.append(record)
            continue
        count = record["count"] - before["count"]
        if not count:
            continue
        spans.append(
            {
                **record,
                "count": count,
                "wall_s": record["wall_s"] - before["wall_s"],
                "cpu_s": record["cpu_s"] - before["cpu_s"],
            }
        )

    return {
        "counters": counters,
        "gauges": current.get("gauges", []),
        "histograms": histograms,
        "spans": spans,
    }


# Routes verified between two opportunities for the cyclic collector to run.
_GC_PAUSE_ROUTES = 8192


def _verify_serial(
    ir: Ir,
    relationships: AsRelationships,
    entries: Iterable[RouteEntry],
    options: VerifyOptions | None,
    on_report: Callable[[RouteReport], None] | None,
    index: CompiledIndex | None = None,
) -> VerificationStats:
    verifier = Verifier(ir, relationships, options, index=index)
    stats = VerificationStats()
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
    return stats


def reset_worker_observability(
    collect_metrics: bool,
    trace_config: TraceConfig | None = None,
    trace_dir: str | None = None,
) -> None:
    """Install fresh per-process observability in a worker.

    Every worker process — the batch pool's and the serve supervisor's —
    must never write into registries or tracers inherited across fork
    (the parent would never read the child's copy).  This sets a fresh
    :class:`MetricsRegistry` (or None) and either a per-worker
    spill-to-JSONL tracer (merged by the parent after the pool drains)
    or the null tracer.
    """
    set_registry(MetricsRegistry() if collect_metrics else None)
    if trace_config is not None and trace_dir is not None:
        set_tracer(
            Tracer(
                trace_config,
                sink=Path(trace_dir) / f"worker-{os.getpid()}.jsonl",
                worker_id=os.getpid(),
            )
        )
    else:
        set_tracer(None)


def _init_worker(
    ir: Ir,
    relationships: AsRelationships,
    options: VerifyOptions | None,
    collect_metrics: bool,
    fault_hook: Callable[[int], None] | None = None,
    index: CompiledIndex | None = None,
    trace_config: TraceConfig | None = None,
    trace_dir: str | None = None,
) -> None:
    global _WORKER_VERIFIER, _WORKER_COLLECT_METRICS, _WORKER_LAST_SNAPSHOT
    global _WORKER_FAULT_HOOK
    _WORKER_COLLECT_METRICS = collect_metrics
    _WORKER_LAST_SNAPSHOT = None
    _WORKER_FAULT_HOOK = fault_hook
    reset_worker_observability(collect_metrics, trace_config, trace_dir)
    # The compiled index arrives pre-built: shared copy-on-write under
    # fork, pickled once per worker under spawn — either way the worker's
    # verifier starts warm instead of re-deriving every memo cache cold.
    _WORKER_VERIFIER = Verifier(ir, relationships, options, index=index)


def _verify_chunk(
    task: tuple[int, Sequence[RouteEntry]],
) -> tuple[int, VerificationStats, dict | None]:
    index, entries = task
    global _WORKER_LAST_SNAPSHOT
    assert _WORKER_VERIFIER is not None
    if _WORKER_FAULT_HOOK is not None:
        # Chaos instrumentation: lets the fault-injection harness kill this
        # worker (or raise) at a chosen chunk.  Never set in production runs.
        _WORKER_FAULT_HOOK(index)
    registry = get_registry()
    tracer = get_tracer()
    if tracer.enabled:
        tracer.chunk_id = index
    stats = VerificationStats()
    try:
        with registry.span("verify/worker"):
            for entry in entries:
                stats.add_report(_WORKER_VERIFIER.verify_entry(entry))
    except BaseException:
        # A mid-chunk failure must still advance the snapshot cursor:
        # whatever this partial attempt recorded is baked into the worker's
        # cumulative registry, and without moving the cursor a retry of the
        # same chunk on this worker would ship a delta that double-counts it.
        if _WORKER_COLLECT_METRICS:
            _WORKER_LAST_SNAPSHOT = registry.snapshot()
        raise
    if not _WORKER_COLLECT_METRICS:
        return index, stats, None
    snapshot = registry.snapshot()
    delta = _snapshot_delta(snapshot, _WORKER_LAST_SNAPSHOT)
    _WORKER_LAST_SNAPSHOT = snapshot
    return index, stats, delta


def _verify_parallel(
    ir: Ir,
    relationships: AsRelationships,
    chunk_source: Iterator[tuple[int, list[RouteEntry]]],
    options: VerifyOptions | None,
    processes: int,
    context,
    collect_metrics: bool,
    registry,
    fault_hook: Callable[[int], None] | None,
    compiled_index: CompiledIndex | None,
    trace_config: TraceConfig | None = None,
    trace_dir: str | None = None,
) -> VerificationStats:
    """The resilient fan-out: submit chunks, survive worker death."""
    total = VerificationStats()
    degradation = total.degradation
    fallback_verifier: Verifier | None = None

    def verify_serially(chunk: list[RouteEntry]) -> None:
        nonlocal fallback_verifier
        if fallback_verifier is None:
            fallback_verifier = Verifier(
                ir, relationships, options, index=compiled_index
            )
        for entry in chunk:
            total.add_report(fallback_verifier.verify_entry(entry))

    def make_executor() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=processes,
            mp_context=context,
            initializer=_init_worker,
            initargs=(
                ir,
                relationships,
                options,
                collect_metrics,
                fault_hook,
                compiled_index,
                trace_config,
                trace_dir,
            ),
        )

    executor: ProcessPoolExecutor | None = None
    pending: dict[Future, tuple[int, list[RouteEntry]]] = {}
    requeued: deque[tuple[int, list[RouteEntry]]] = deque()
    attempts: dict[int, int] = {}
    rebuilds = 0
    exhausted = False
    parallel_abandoned = False
    max_inflight = processes + 2

    def handle_failure(index: int, chunk: list[RouteEntry], why: str) -> None:
        attempts[index] = attempts.get(index, 0) + 1
        if attempts[index] >= MAX_CHUNK_ATTEMPTS:
            degradation.record(
                "verify", "chunk-serial-fallback", f"chunk {index}: {why}"
            )
            verify_serially(chunk)
        else:
            degradation.record("verify", "chunk-requeued", f"chunk {index}: {why}")
            requeued.append((index, chunk))

    def pool_broke() -> None:
        """Fail over everything in flight and retire the dead executor."""
        nonlocal executor, rebuilds, parallel_abandoned
        rebuilds += 1
        degradation.record(
            "verify", "worker-lost", f"process pool rebuild #{rebuilds}"
        )
        # Every still-pending future is collateral damage of the same
        # breakage; their results were never consumed, so requeuing keeps
        # the count exact.
        for _, (index, chunk) in list(pending.items()):
            handle_failure(index, chunk, "pool broken")
        pending.clear()
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
            executor = None
        if rebuilds >= MAX_POOL_REBUILDS:
            parallel_abandoned = True
            degradation.record(
                "verify",
                "parallel-abandoned",
                f"pool collapsed {rebuilds} times; draining serially",
            )

    try:
        while True:
            # Submission: requeued chunks first, then fresh ones from the
            # lazy source, keeping a bounded number in flight.
            while not parallel_abandoned and len(pending) < max_inflight:
                if requeued:
                    index, chunk = requeued.popleft()
                elif not exhausted:
                    item = next(chunk_source, None)
                    if item is None:
                        exhausted = True
                        continue
                    index, chunk = item
                else:
                    break
                if executor is None:
                    executor = make_executor()
                try:
                    future = executor.submit(_verify_chunk, (index, chunk))
                except BrokenProcessPool:
                    # The pool died between wait-loop iterations, before
                    # any of its futures surfaced the failure to us.
                    handle_failure(index, chunk, "pool broken at submit")
                    pool_broke()
                    continue
                pending[future] = (index, chunk)
            if not pending:
                if parallel_abandoned:
                    # Workers keep dying: drain everything left serially.
                    for _, chunk in requeued:
                        verify_serially(chunk)
                    requeued.clear()
                    for _, chunk in chunk_source:
                        verify_serially(chunk)
                break

            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            pool_broken = False
            for future in done:
                index, chunk = pending.pop(future)
                try:
                    _, partial, snapshot = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    handle_failure(index, chunk, "worker process died")
                except Exception as exc:  # noqa: BLE001 - chunk-scoped retry
                    # The worker survived but the chunk failed; retry it,
                    # and let a deterministic error surface from the serial
                    # fallback instead of killing the whole run here.
                    handle_failure(index, chunk, f"{type(exc).__name__}: {exc}")
                else:
                    total.merge(partial)
                    if snapshot is not None:
                        registry.merge_snapshot(snapshot)
            if pool_broken:
                pool_broke()
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    if collect_metrics:
        registry.gauge("verify_workers").set(processes)
        for event in degradation.events():
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
    fault_hook: Callable[[int], None] | None = None,
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

    The parallel path tolerates dying workers: failed chunks are requeued
    (bounded by :data:`MAX_CHUNK_ATTEMPTS`), then verified serially, and
    every degradation is recorded on the returned stats'
    ``degradation`` report.  ``fault_hook`` is chaos-harness
    instrumentation — a picklable callable invoked in each worker with the
    chunk index before verification (see :mod:`repro.chaos`).

    ``index`` is a :class:`~repro.core.compiled.CompiledIndex` for ``ir``
    (see :func:`~repro.core.compiled.compile_index`); every verifier —
    serial, worker, and fallback — then starts from the same precompiled
    caches.  The parallel path compiles one automatically when none is
    given, so workers inherit it (copy-on-write under fork, pickled once
    under spawn) instead of re-deriving set closures per process.
    """
    if processes is None:
        processes = multiprocessing.cpu_count()
    registry = get_registry()
    tracer = get_tracer()
    marks = _trace_marks(tracer)
    with registry.span("verify"):
        if processes <= 1 or on_report is not None:
            stats = _verify_serial(
                ir, relationships, entries, options, on_report, index
            )
            if registry.enabled:
                _record_cache_hit_rate(registry)
            _record_trace_metrics(registry, tracer, marks)
            return stats

        chunks = _iter_chunks(entries, chunk_size)
        first = next(chunks, None)
        if first is None:
            return VerificationStats()
        if len(first) < chunk_size:
            # The whole table fit in one chunk: process start-up would not
            # amortize, so verify in-process instead.
            stats = _verify_serial(ir, relationships, first, options, None, index)
            if registry.enabled:
                _record_cache_hit_rate(registry)
            _record_trace_metrics(registry, tracer, marks)
            return stats

        if index is None:
            # Compile once in the parent, before the pool exists: under
            # fork every worker then shares the artifact copy-on-write.
            index = compile_index(ir)
        context = multiprocessing.get_context(start_method or _default_start_method())
        # When tracing is live, workers spill events to per-worker JSONL
        # files in a scratch directory; the parent merges (and dedups) them
        # after the pool drains, so traces survive killed workers, chunk
        # retries, and the serial fallback (which emits into ``tracer``
        # directly in-process).
        trace_dir = tempfile.mkdtemp(prefix="rpslyzer-trace-") if tracer.enabled else None
        try:
            total = _verify_parallel(
                ir,
                relationships,
                enumerate(_chain_first(first, chunks)),
                options,
                processes,
                context,
                registry.enabled,
                registry,
                fault_hook,
                index,
                tracer.config if tracer.enabled else None,
                trace_dir,
            )
            if trace_dir is not None:
                tracer.merge_directory(trace_dir)
        finally:
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)
        if registry.enabled:
            _record_cache_hit_rate(registry)
        _record_trace_metrics(registry, tracer, marks)
        return total
