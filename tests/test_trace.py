"""Tests for decision-provenance tracing (repro.obs.trace).

The load-bearing guarantees under test:

* tracing never changes what verification computes (identical stats with
  tracing on and off, serial and parallel);
* serial, parallel, and parallel-with-a-killed-worker runs canonicalize
  to the same events (content-keyed sampling; a chunk's events arrive
  once, with the result frame that is accepted — no spill files);
* every route with an unverified hop is traced (tail sampling);
* ``rpslyzer explain`` names the aut-num rule and filter term that
  decided a verdict.
"""

import json
import os
import signal
import tempfile

import pytest

from repro import api
from repro.chaos.faults import KillWorkerChunk, RaiseOnChunk
from repro.cli import main
from repro.core.parallel import verify_table
from repro.core.verify import Verifier
from repro.obs.events import EventLog, read_events
from repro.obs.trace import (
    NULL_TRACER,
    TraceConfig,
    Tracer,
    canonical_events,
    get_tracer,
    route_trace_id,
    summarize_events,
    use_tracer,
)

# A low sample rate so head sampling actually keeps routes on the tiny
# world, and a non-default seed so the seed provably reaches the ids.
TRACE_CONFIG = TraceConfig(sample_rate=7, seed=1)


def _traced_run(ir, world, routes, **kwargs):
    with use_tracer(Tracer(TRACE_CONFIG)) as tracer:
        stats = verify_table(ir, world.topology, routes, **kwargs)
    return stats, tracer


def _chunk_size(routes):
    return max(1, len(routes) // 6)


class KillWorkerMidChunk:
    """A chunk fault hook: SIGKILL the worker once it has recorded the
    events of ``routes`` sampled routes of chunk ``chunk_index`` — events
    that are in its log and in no result frame yet."""

    def __init__(self, chunk_index, routes=5):
        self.chunk_index = chunk_index
        self.routes = routes

    def __call__(self, index):
        if index != self.chunk_index:
            return
        log = get_tracer().log
        absorb, countdown = log.absorb, iter(range(self.routes, 0, -1))

        def absorb_then_die(lines):
            absorb(lines)
            if next(countdown) == 1:
                assert len(log.lines()) >= self.routes
                os.kill(os.getpid(), signal.SIGKILL)

        log.absorb = absorb_then_die


@pytest.fixture(scope="module")
def serial_traced(tiny_ir, tiny_world, tiny_routes):
    return _traced_run(tiny_ir, tiny_world, tiny_routes, processes=1)


@pytest.fixture(scope="module")
def untraced(tiny_ir, tiny_world, tiny_routes):
    return verify_table(tiny_ir, tiny_world.topology, tiny_routes, processes=1)


class TestSampling:
    def test_trace_id_is_content_keyed_and_seeded(self, tiny_routes):
        entry = tiny_routes[0]
        trace_id = route_trace_id(entry, seed=1)
        assert trace_id == route_trace_id(entry, seed=1)
        assert len(trace_id) == 16
        int(trace_id, 16)  # hex
        assert trace_id != route_trace_id(entry, seed=2)
        assert trace_id != route_trace_id(tiny_routes[1], seed=1)

    def test_head_decision_matches_trace_id(self, tiny_routes):
        tracer = Tracer(TRACE_CONFIG)
        for entry in tiny_routes[:50]:
            trace = tracer.route(entry)
            expected = (
                int(route_trace_id(entry, TRACE_CONFIG.seed), 16)
                % TRACE_CONFIG.sample_rate
                == 0
            )
            # Tail sampling is configured, so a buffer comes back either
            # way; only the head flag differs.
            assert trace is not None
            assert trace.head is expected

    def test_sample_rate_one_traces_every_route(self, tiny_routes):
        tracer = Tracer(TraceConfig(sample_rate=1))
        assert all(tracer.route(entry).head for entry in tiny_routes[:20])

    def test_no_head_no_statuses_skips_route(self, tiny_routes):
        tracer = Tracer(
            TraceConfig(sample_rate=10**9, trace_statuses=frozenset())
        )
        assert all(tracer.route(entry) is None for entry in tiny_routes[:20])

    def test_null_tracer_is_default_and_inert(self, tiny_routes):
        assert get_tracer() is NULL_TRACER
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.route(tiny_routes[0]) is None
        assert NULL_TRACER.events == []

    def test_tail_sampling_keeps_only_matching_verdicts(
        self, tiny_ir, tiny_world, tiny_routes
    ):
        config = TraceConfig(sample_rate=10**9, trace_statuses=frozenset({"unverified"}))
        with use_tracer(Tracer(config)) as tracer:
            verify_table(tiny_ir, tiny_world.topology, tiny_routes, processes=1)
        route_events = [e for e in tracer.events if e["kind"] == "route"]
        assert route_events
        assert all(e["sampled"] == "verdict" for e in route_events)
        assert all("unverified" in e["verdicts"] for e in route_events)


class TestDifferential:
    def test_tracing_leaves_verification_output_identical(
        self, serial_traced, untraced
    ):
        traced_stats, _ = serial_traced
        assert traced_stats.summary() == untraced.summary()
        assert traced_stats.hop_totals == untraced.hop_totals

    def test_parallel_canonicalizes_like_serial(
        self, serial_traced, tiny_ir, tiny_world, tiny_routes
    ):
        serial_stats, serial_tracer = serial_traced
        parallel_stats, parallel_tracer = _traced_run(
            tiny_ir,
            tiny_world,
            tiny_routes,
            processes=2,
            chunk_size=_chunk_size(tiny_routes),
        )
        assert parallel_stats.summary() == serial_stats.summary()
        assert canonical_events(parallel_tracer.events) == canonical_events(
            serial_tracer.events
        )
        # The parallel run's events carry worker attribution.
        summary = summarize_events(parallel_tracer.events)
        assert summary["workers"] >= 1

    def _assert_survives(self, serial_traced, ir, world, routes, chunk_size, fault_hook):
        serial_stats, serial_tracer = serial_traced
        scratch_before = set(os.listdir(tempfile.gettempdir()))
        chaos_stats, chaos_tracer = _traced_run(
            ir, world, routes, processes=2, chunk_size=chunk_size, fault_hook=fault_hook
        )
        # Events cross the pipe with the results: nothing is spilled to disk.
        assert set(os.listdir(tempfile.gettempdir())) == scratch_before
        # Stats match up to the degradation account of the injected kill.
        expected = serial_stats.summary()
        observed = chaos_stats.summary()
        expected.pop("degradation")
        observed.pop("degradation")
        assert observed == expected
        assert chaos_stats.degradation.by_kind().get("verify/worker-crashed", 0) >= 1
        assert canonical_events(chaos_tracer.events) == canonical_events(
            serial_tracer.events
        )

    def test_survives_worker_kill(
        self, serial_traced, tiny_ir, tiny_world, tiny_routes
    ):
        self._assert_survives(
            serial_traced,
            tiny_ir,
            tiny_world,
            tiny_routes,
            _chunk_size(tiny_routes),
            KillWorkerChunk(1),
        )

    def test_survives_a_worker_killed_mid_chunk(
        self, serial_traced, tiny_ir, tiny_world, tiny_routes
    ):
        """The partial events of a chunk whose worker dies must die with it
        (the retry, and in the end the in-process fallback, emit them
        again): with a spill file they survived and had to be de-duplicated."""
        self._assert_survives(
            serial_traced,
            tiny_ir,
            tiny_world,
            tiny_routes,
            _chunk_size(tiny_routes),
            KillWorkerMidChunk(1),
        )

    @pytest.mark.parametrize(
        "fault_hook",
        [None, RaiseOnChunk(1), KillWorkerChunk(1)],
        ids=["clean", "raised-chunk", "killed-worker"],
    )
    def test_pooled_run_counts_what_it_sampled(
        self, tiny_ir, tiny_world, tiny_routes, fault_hook
    ):
        """A pooled run's tracer reports the serial pass's sample counts:
        each accepted chunk carries its worker's per-chunk counts, and a
        chunk that raised or whose worker died contributes none."""
        config = TraceConfig(sample_rate=16)
        with use_tracer(Tracer(config)) as serial:
            verify_table(tiny_ir, tiny_world.topology, tiny_routes, processes=1)
        with use_tracer(Tracer(config)) as pooled:
            verify_table(
                tiny_ir,
                tiny_world.topology,
                tiny_routes,
                processes=2,
                chunk_size=500,
                fault_hook=fault_hook,
            )
        assert serial.sampled["head"] > 0 and serial.sampled["verdict"] > 0
        assert pooled.sampled == serial.sampled
        assert pooled.emitted == serial.emitted

    def test_unverified_routes_always_traced(self, tiny_ir, tiny_world, tiny_routes):
        unverified: set[str] = set()

        def note(report) -> None:
            if any(hop.status.label == "unverified" for hop in report.hops):
                unverified.add(route_trace_id(report.entry, TRACE_CONFIG.seed))

        with use_tracer(Tracer(TRACE_CONFIG)) as tracer:
            verify_table(
                tiny_ir, tiny_world.topology, tiny_routes, processes=1, on_report=note
            )
        traced = {e["ids"]["route"] for e in tracer.events if e["kind"] == "route"}
        assert unverified  # the tiny world does produce unverified hops
        assert unverified <= traced


class TestSpillAndMerge:
    def test_tracer_emits_into_the_log_it_is_given(
        self, tiny_ir, tiny_world, tiny_routes
    ):
        """A pool worker's tracer shares the log its result frames drain,
        and stamps its pid on every event."""
        log = EventLog()
        tracer = Tracer(TRACE_CONFIG, log=log, ids={"worker": 1234})
        with use_tracer(tracer):
            verify_table(tiny_ir, tiny_world.topology, tiny_routes[:300], processes=1)
        shipped = log.drain()
        assert len(shipped) == tracer.emitted > 0
        assert tracer.events == []  # drained: the frame took them
        parent = Tracer(TRACE_CONFIG)
        parent.absorb(shipped)
        assert parent.emitted == len(shipped)
        assert all(event["ids"]["worker"] == 1234 for event in parent.events)
        assert all(isinstance(event["ts"], float) for event in parent.events)

    def test_reader_tolerates_truncated_and_garbage_lines(self, tmp_path):
        ids = {"route": "00" * 8}
        first = {"kind": "route", "ids": ids, "sampled": "head"}
        second = {"kind": "hop", "ids": ids, "seq": 0, "status": "verified"}
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps(first)
            + "\n\nnot json at all\n"
            + json.dumps(second)
            + "\n"
            + '{"kind":"hop","ids":{"route":"dead',  # SIGKILL mid-write
            encoding="utf-8",
        )
        assert read_events(path) == ({}, [first, second])

    def test_max_events_cap_counts_drops(self, tiny_ir, tiny_world, tiny_routes):
        sample = tiny_routes[:50]
        capped = Tracer(TraceConfig(sample_rate=1, max_events=5))
        with use_tracer(capped):
            stats = verify_table(tiny_ir, tiny_world.topology, sample, processes=1)
        assert capped.emitted == 5
        assert capped.dropped > 0
        # The bound covers what a pool worker ships as well.
        absorbing = Tracer(TraceConfig(max_events=3))
        absorbing.absorb(capped.log.lines())
        assert (absorbing.emitted, absorbing.dropped) == (3, 2)
        assert len(absorbing.events) == 3
        baseline = verify_table(tiny_ir, tiny_world.topology, sample, processes=1)
        assert stats.summary() == baseline.summary()

    def test_write_read_round_trip(self, tmp_path, serial_traced):
        _, tracer = serial_traced
        path = tmp_path / "out.jsonl"
        tracer.write(path)
        assert canonical_events(read_events(path)[1]) == canonical_events(
            tracer.events
        )

    def test_stats_shape(self, serial_traced):
        _, tracer = serial_traced
        stats = tracer.stats()
        assert stats["events"] == tracer.emitted
        assert stats["sample_rate"] == TRACE_CONFIG.sample_rate
        assert stats["seed"] == TRACE_CONFIG.seed
        assert set(stats["sampled"]) == {"head", "verdict"}


@pytest.fixture(scope="module")
def verified_entry(tiny_ir, tiny_world, tiny_routes):
    """A route whose verification yields at least one VERIFIED hop."""
    verifier = Verifier(tiny_ir, tiny_world.topology)
    for entry in tiny_routes:
        report = verifier.verify_entry(entry)
        if report.ignored is None and any(
            hop.status.label == "verified" for hop in report.hops
        ):
            return entry
    pytest.fail("tiny world produced no verified hop")


class TestExplain:
    def test_explain_names_rule_and_filter_term(
        self, tiny_ir, tiny_world, verified_entry
    ):
        with api.Session(tiny_ir, tiny_world.topology) as session:
            report, events = session.explain(
                str(verified_entry.prefix), verified_entry.as_path
            )
        (route_event,) = [e for e in events if e["kind"] == "route"]
        assert route_event["sampled"] == "head"
        hop_events = [e for e in events if e["kind"] == "hop"]
        assert len(hop_events) == len(report.hops)
        verified = [e for e in hop_events if e["status"] == "verified"]
        assert verified
        for event in verified:
            # The matched aut-num rule, by index, from a named registry.
            assert isinstance(event["rule"], int) and event["rule"] >= 0
        # Deep chains: a fresh verifier means every hop is a cache miss,
        # so the filter-term evaluation path is recorded.
        assert any(event.get("chain") for event in verified)

    def test_explain_is_pure_replay(self, tiny_verifier, tiny_ir, tiny_world, verified_entry):
        with api.Session(tiny_ir, tiny_world.topology) as session:
            report, _ = session.explain(
                str(verified_entry.prefix), verified_entry.as_path
            )
        baseline = tiny_verifier.verify_entry(verified_entry)
        assert [hop.status for hop in report.hops] == [
            hop.status for hop in baseline.hops
        ]


@pytest.fixture(scope="module")
def ir_path(tiny_world_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("trace-cli") / "ir.json"
    assert main(["parse", str(tiny_world_dir), "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def trace_file(tiny_world_dir, ir_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("trace-cli") / "events.jsonl"
    code = main(
        [
            "verify",
            "--ir", str(ir_path),
            "--as-rel", str(tiny_world_dir / "as-rel.txt"),
            "--table", str(tiny_world_dir / "table.txt"),
            "--no-index-cache",
            "--trace", str(path),
            "--trace-sample", "7",
        ]
    )
    assert code == 0
    return path


class TestCli:
    def test_verify_trace_flag_writes_sorted_events(self, trace_file):
        _, events = read_events(trace_file)
        assert events
        # Stable order: within one trace id the route event leads its hops.
        by_trace: dict[str, list[str]] = {}
        for event in events:
            by_trace.setdefault(event["ids"]["route"], []).append(event["kind"])
        assert all(kinds[0] == "route" for kinds in by_trace.values())

    def test_verify_trace_restores_null_tracer(self, trace_file):
        assert get_tracer() is NULL_TRACER

    def test_trace_summary(self, trace_file, capsys):
        assert main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "route(s)" in out
        assert "sampled:" in out

    def test_trace_status_filter_json(self, trace_file, capsys):
        assert main(
            ["trace", str(trace_file), "--status", "unverified", "--json"]
        ) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert lines
        events = [json.loads(line) for line in lines]
        kept = {e["ids"]["route"] for e in events}
        for trace_id in kept:
            statuses = {
                e["status"]
                for e in events
                if e["kind"] == "hop" and e["ids"]["route"] == trace_id
            }
            assert "unverified" in statuses

    def test_trace_id_filter(self, trace_file, capsys):
        target = read_events(trace_file)[1][0]["ids"]["route"]
        assert main(
            ["trace", str(trace_file), "--trace-id", target, "--json"]
        ) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert lines
        assert all(json.loads(line)["ids"]["route"] == target for line in lines)

    def test_explain_cli_prints_rule(
        self, tiny_world_dir, ir_path, verified_entry, capsys
    ):
        argv = [
            "explain",
            "--ir", str(ir_path),
            "--as-rel", str(tiny_world_dir / "as-rel.txt"),
            str(verified_entry.prefix),
        ] + [str(asn) for asn in verified_entry.as_path]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"route {verified_entry.prefix}" in out
        assert "verified" in out
        assert "rule[" in out

    def test_explain_cli_json(self, tiny_world_dir, ir_path, verified_entry, capsys):
        argv = [
            "explain",
            "--ir", str(ir_path),
            "--as-rel", str(tiny_world_dir / "as-rel.txt"),
            "--json",
            str(verified_entry.prefix),
        ] + [str(asn) for asn in verified_entry.as_path]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"]
        assert any(e["kind"] == "route" for e in payload["events"])


class TestRaiseOnChunkTracing:
    def test_chunk_retry_does_not_duplicate_events(
        self, serial_traced, tiny_ir, tiny_world, tiny_routes
    ):
        _, serial_tracer = serial_traced
        _, retry_tracer = _traced_run(
            tiny_ir,
            tiny_world,
            tiny_routes,
            processes=2,
            chunk_size=_chunk_size(tiny_routes),
            fault_hook=RaiseOnChunk(2),
        )
        assert canonical_events(retry_tracer.events) == canonical_events(
            serial_tracer.events
        )
