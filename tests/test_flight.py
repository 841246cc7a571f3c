"""The flight recorder: ring semantics, incident dumps, correlation ids.

Covers :mod:`repro.obs.flight` in isolation — the serve-side wiring
(worker events riding result frames, breaker-open dumps) is exercised in
``tests/test_serve.py`` and ``tests/test_supervisor.py``.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    FLIGHT_FORMAT,
    NULL_FLIGHT,
    FlightRecorder,
    NullFlightRecorder,
    clean_request_id,
    get_flight_recorder,
    new_request_id,
    read_flight_events,
    use_flight_recorder,
)


class TestRequestIds:
    def test_new_ids_are_unique_tokens(self):
        first, second = new_request_id(), new_request_id()
        assert first != second
        assert clean_request_id(first) == first  # our own ids round-trip

    def test_clean_accepts_header_safe_tokens(self):
        assert clean_request_id("abc-DEF_123.x:y/z+w=") == "abc-DEF_123.x:y/z+w="
        assert clean_request_id("  padded  ") == "padded"

    @pytest.mark.parametrize(
        "raw",
        [None, "", "   ", "has space", "new\nline", 'quo"te', "x" * 129, "é"],
    )
    def test_clean_rejects_unsafe_ids(self, raw):
        assert clean_request_id(raw) is None

    def test_clean_accepts_maximum_length(self):
        assert clean_request_id("x" * 128) == "x" * 128


class TestRecording:
    def test_events_carry_seq_ts_type_and_fields(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("worker-spawn", worker=0, pid=1234)
        recorder.record("request-shed", request_id="abc", wait_ms=12.5)
        events = recorder.events()
        assert [event["type"] for event in events] == [
            "worker-spawn", "request-shed",
        ]
        assert events[0]["seq"] == 1 and events[1]["seq"] == 2
        assert events[0]["worker"] == 0 and events[0]["pid"] == 1234
        assert events[1]["id"] == "abc"
        assert all(isinstance(event["ts"], float) for event in events)

    def test_ring_is_bounded_and_keeps_newest(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", n=index)
        events = recorder.events()
        assert len(events) == 4
        assert [event["n"] for event in events] == [6, 7, 8, 9]
        stats = recorder.stats()
        assert stats["events"] == 4 and stats["recorded"] == 10

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_absorb_splices_worker_lines_and_filters_junk(self):
        worker = FlightRecorder(capacity=8)
        worker.record("worker-execute", request_id="r1", ms=3.2)
        shipped = worker.drain_lines()
        assert worker.events() == []  # drained rings start empty

        parent = FlightRecorder(capacity=8)
        parent.record("batch-dispatch")
        parent.absorb(shipped + ["not json", 42, ""])
        events = parent.events()
        assert [event["type"] for event in events] == [
            "batch-dispatch", "worker-execute",
        ]
        assert parent.stats()["absorbed"] == 1

    def test_filters_by_id_type_window_and_limit(self):
        recorder = FlightRecorder(capacity=32)
        recorder.record("request", request_id="aa", n=0)
        recorder.record("request", request_id="bb", n=1)
        recorder.record("worker-spawn", n=2)
        assert [e["n"] for e in recorder.events(request_id="aa")] == [0]
        assert [e["n"] for e in recorder.events(types=("worker-spawn",))] == [2]
        boundary = recorder.events(types=("request",))[1]["ts"]
        assert all(e["ts"] >= boundary for e in recorder.events(since=boundary))
        assert all(e["ts"] <= boundary for e in recorder.events(until=boundary))
        # limit keeps the newest N — the interesting end of an incident
        assert [e["n"] for e in recorder.events(limit=2)] == [1, 2]

    def test_recording_is_thread_safe(self):
        recorder = FlightRecorder(capacity=4096)
        threads = [
            threading.Thread(
                target=lambda t=t: [
                    recorder.record("tick", thread=t) for _ in range(200)
                ]
            )
            for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = recorder.events()
        assert len(events) == 800
        assert len({event["seq"] for event in events}) == 800


class TestIncidentDumps:
    def test_dump_round_trips_through_reader(self, tmp_path):
        recorder = FlightRecorder(capacity=16, incident_dir=tmp_path)
        recorder.record("worker-spawn", worker=0)
        recorder.record("breaker-transition", old="closed", new="open")
        path = recorder.dump_incident(
            "breaker-open", trigger={"type": "breaker-transition", "old": "closed"}
        )
        assert path is not None and path.parent == tmp_path
        header, events = read_flight_events(path)
        assert header["format"] == FLIGHT_FORMAT
        assert header["reason"] == "breaker-open"
        assert header["trigger"]["old"] == "closed"
        types = [event["type"] for event in events]
        assert types == ["worker-spawn", "breaker-transition", "incident-dump"]
        assert recorder.stats()["incidents"] == 1

    def test_dumps_are_rate_limited_per_reason(self, tmp_path):
        recorder = FlightRecorder(
            capacity=8, incident_dir=tmp_path, incident_interval=3600.0
        )
        assert recorder.dump_incident("breaker-open") is not None
        assert recorder.dump_incident("breaker-open") is None  # same reason
        assert recorder.dump_incident("sigquit") is not None  # distinct reason
        assert recorder.stats()["incidents"] == 2

    def test_reader_tolerates_truncated_tail(self, tmp_path):
        recorder = FlightRecorder(capacity=8, incident_dir=tmp_path)
        recorder.record("worker-spawn")
        path = recorder.dump_incident("sigquit")
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"seq":99,"ts":1.0,"ty')  # process died mid-write
        header, events = read_flight_events(path)
        assert header["reason"] == "sigquit"
        assert [event["type"] for event in events] == [
            "worker-spawn", "incident-dump",
        ]

    def test_reader_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"format": "rpslyzer-trace/1"}) + "\n")
        with pytest.raises(ValueError):
            read_flight_events(path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            read_flight_events(empty)

    def test_unwritable_incident_dir_is_best_effort(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the directory should go")
        recorder = FlightRecorder(capacity=8, incident_dir=blocker)
        assert recorder.dump_incident("sigquit") is None

    def test_without_an_incident_dir_the_incident_stays_in_the_ring(
        self, tmp_path, monkeypatch
    ):
        """No directory configured means no file — in particular never one
        in the working directory (tier-1 used to litter the repo root) —
        but the incident is still marked, and still rate-limited."""
        monkeypatch.chdir(tmp_path)
        recorder = FlightRecorder(capacity=8, incident_interval=3600.0)
        recorder.record("pool-degraded", why="budget")
        assert recorder.dump_incident("pool-degraded") is None
        assert recorder.dump_incident("pool-degraded") is None
        assert list(tmp_path.iterdir()) == []
        events = recorder.events()
        assert [event["type"] for event in events] == ["pool-degraded", "incident-dump"]
        assert events[-1]["reason"] == "pool-degraded"
        assert recorder.stats()["incidents"] == 0


class TestNullRecorder:
    def test_null_recorder_is_inert(self, tmp_path):
        null = NullFlightRecorder()
        assert null.enabled is False and NULL_FLIGHT.enabled is False
        null.record("worker-spawn")
        null.absorb(['{"type":"x"}'])
        assert null.events() == []
        assert null.dump_incident("sigquit") is None

    def test_use_flight_recorder_restores_previous(self):
        before = get_flight_recorder()
        with use_flight_recorder() as recorder:
            assert get_flight_recorder() is recorder
            assert recorder.enabled
        assert get_flight_recorder() is before
