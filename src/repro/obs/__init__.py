"""``repro.obs`` — pipeline observability: metrics, phase spans, manifests, events.

Designed to cost nothing when unused:

* :mod:`repro.obs.metrics` — a registry of named counters, gauges, and
  fixed-bucket histograms.  The module-level default is a *null* registry
  whose instruments are shared no-ops, so instrumented hot paths (the
  lexer, the verifier's per-hop check) add no measurable overhead until a
  caller installs a real registry;
* :mod:`repro.obs.spans` — nested phase timers aggregating wall and CPU
  seconds per slash-separated path (``parse/RIPE/lex``, ``verify``);
* :mod:`repro.obs.manifest` — one diffable JSON document per run (input
  digests, config, per-phase timings, full metric dump, versions), plus a
  Prometheus-style text rendering used by ``rpslyzer metrics``;
* :mod:`repro.obs.events` — the one event log: the envelope (``ts``,
  ``kind``, ``ids``), :class:`EventLog` (the serve daemon's always-on
  flight ring with its incident dumps, the access and slow logs, a pool
  worker's per-frame buffer, a tracer's events), the one reader and
  filter, plus the request correlation-id helpers;
* :mod:`repro.obs.trace` — sampled decision-provenance events (which
  rule/filter/tier produced each verdict), emitted into an event log,
  with a null default tracer mirroring the null registry;
* :mod:`repro.obs.profiler` — a background wall/CPU/RSS sampler tagging
  each sample with the active span path (manifest resource timelines).

Typical use::

    from repro.obs import MetricsRegistry, use_registry, build_manifest

    with use_registry(MetricsRegistry()) as registry:
        with api.open_session(ir, as_rel=rels) as session:
            stats = session.verify_table(entries, processes=4)
    manifest = build_manifest("verify", registry, inputs=["table.txt"])
"""

from repro.obs.events import (
    EVENT_FORMAT,
    NULL_EVENTS,
    EventLog,
    clean_request_id,
    filter_events,
    new_request_id,
    read_events,
)
from repro.obs.manifest import (
    MANIFEST_FORMAT,
    build_manifest,
    cache_summary,
    digest_file,
    digest_inputs,
    load_manifest,
    render_prometheus,
    write_manifest,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    cumulative_view,
    get_registry,
    parse_prometheus,
    render_prometheus_snapshot,
    set_registry,
    use_registry,
)
from repro.obs.profiler import PhaseProfiler
from repro.obs.spans import NULL_SPAN, SpanAggregate, SpanStore, timed_iter
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    TraceConfig,
    Tracer,
    canonical_events,
    get_tracer,
    route_trace_id,
    set_tracer,
    summarize_events,
    use_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EVENT_FORMAT",
    "EventLog",
    "Gauge",
    "Histogram",
    "MANIFEST_FORMAT",
    "MetricsRegistry",
    "NULL_EVENTS",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "PROMETHEUS_CONTENT_TYPE",
    "PhaseProfiler",
    "SpanAggregate",
    "SpanStore",
    "TraceConfig",
    "Tracer",
    "build_manifest",
    "cache_summary",
    "canonical_events",
    "clean_request_id",
    "cumulative_view",
    "digest_file",
    "digest_inputs",
    "filter_events",
    "get_registry",
    "get_tracer",
    "load_manifest",
    "new_request_id",
    "parse_prometheus",
    "read_events",
    "render_prometheus",
    "render_prometheus_snapshot",
    "route_trace_id",
    "set_registry",
    "set_tracer",
    "summarize_events",
    "timed_iter",
    "use_registry",
    "use_tracer",
    "write_manifest",
]
