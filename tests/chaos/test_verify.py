"""The table pass with a verify worker SIGKILLed mid-run.

The contract: the pooled pass still accounts for every route exactly —
the killed worker's chunk is retried and finally verified in process —
the loss is recorded as degradation, and the decision traces are the
serial pass's.  A SIGSTOPped worker is covered by
``tests/test_parallel.py::TestWorkerMetricsResilience::test_hung_worker_mid_table_matches_serial``.
"""

from __future__ import annotations

import json

import pytest

from chaos import assert_recorded
from chaos.faults import KillWorkerChunk
from repro.faultplan import use_faults
from repro.obs.trace import TraceConfig, Tracer, canonical_events, route_trace_id, use_tracer

PROCESSES = 2


def _chunk_size(routes) -> int:
    return max(1, len(routes) // 8)


def _without_degradation(stats) -> dict:
    summary = stats.summary()
    summary.pop("degradation")
    return summary


@pytest.fixture(scope="module")
def killed(tiny_session, tiny_routes):
    """The whole table through 2 workers, the one taking chunk 1 SIGKILLed."""
    with use_faults(chunk=KillWorkerChunk(1)):
        return tiny_session.verify_table(
            tiny_routes, processes=PROCESSES, chunk_size=_chunk_size(tiny_routes)
        )


def test_verify_worker_kill_exact_stats(tiny_session, tiny_routes, killed):
    baseline = tiny_session.verify_table(tiny_routes)
    assert _without_degradation(killed) == _without_degradation(baseline)
    json.dumps(killed.degradation.as_dict())


def test_verify_degradation_recorded(killed):
    assert_recorded(
        killed.degradation, "verify/worker-crashed", "verify/chunk-serial-fallback"
    )


@pytest.fixture(scope="module")
def traced(tiny_session, tiny_routes):
    """The table traced serially and through a pool with a killed worker;
    also the trace ids of the routes with an unverified hop."""
    config = TraceConfig(sample_rate=7, seed=42)
    unverified: set[str] = set()

    def note_unverified(report) -> None:
        if any(hop.status.label == "unverified" for hop in report.hops):
            unverified.add(route_trace_id(report.entry, config.seed))

    with use_tracer(Tracer(config)) as serial:
        tiny_session.verify_table(tiny_routes, on_report=note_unverified)
    with use_tracer(Tracer(config)) as pooled, use_faults(chunk=KillWorkerChunk(1)):
        tiny_session.verify_table(
            tiny_routes, processes=PROCESSES, chunk_size=_chunk_size(tiny_routes)
        )
    return serial, pooled, unverified


def test_trace_survives_worker_kill(traced):
    """A chunk's events ride its result frame: the killed worker's die with
    it, and the retry emits them again."""
    serial, pooled, _ = traced
    assert canonical_events(pooled.events) == canonical_events(serial.events)


def test_trace_unverified_coverage(traced):
    """Tail sampling kept every route with an unverified hop."""
    _, pooled, unverified = traced
    routes = {event["ids"]["route"] for event in pooled.events if event["kind"] == "route"}
    assert unverified <= routes
