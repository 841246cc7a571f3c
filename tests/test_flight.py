"""The event log: envelope, ring semantics, incident dumps, correlation ids.

Covers :mod:`repro.obs.events` in isolation — the serve-side wiring
(worker events riding result frames, pool-degraded dumps) is exercised in
``tests/test_serve.py`` and ``tests/test_supervisor.py``.
"""

from __future__ import annotations

import json
import pickle
import threading

import pytest

from repro.obs import (
    EVENT_FORMAT,
    NULL_EVENTS,
    EventLog,
    clean_request_id,
    new_request_id,
    read_events,
)
from repro.serve.telemetry import RequestTelemetry


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
    def test_events_carry_the_envelope(self):
        log = EventLog(capacity=8)
        log.record("worker-spawn", worker=1234, generation=2, slot=0)
        log.record("request-shed", request="abc", wait_ms=12.5)
        events = log.events()
        assert [event["kind"] for event in events] == [
            "worker-spawn", "request-shed",
        ]
        assert events[0]["ids"] == {"worker": 1234, "generation": 2}
        assert events[0]["slot"] == 0
        assert events[1]["ids"] == {"request": "abc"}
        assert events[1]["wait_ms"] == 12.5
        assert all(isinstance(event["ts"], float) for event in events)

    def test_ring_is_bounded_and_keeps_newest(self):
        log = EventLog(capacity=4)
        for index in range(10):
            log.record("tick", n=index)
        events = log.events()
        assert len(events) == 4
        assert [event["n"] for event in events] == [6, 7, 8, 9]
        stats = log.stats()
        assert stats["events"] == 4 and stats["recorded"] == 10

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_absorb_splices_worker_lines_and_filters_junk(self):
        worker = EventLog()
        worker.record("worker-execute", request="r1", ms=3.2)
        shipped = worker.drain()
        assert worker.events() == []  # drained logs start empty

        parent = EventLog(capacity=8)
        parent.record("batch-dispatch")
        parent.absorb(shipped + ["not json", 42, ""])
        events = parent.events()
        assert [event["kind"] for event in events] == [
            "batch-dispatch", "worker-execute",
        ]
        assert parent.stats()["recorded"] == 2

    def test_filters_by_id_type_window_and_limit(self):
        log = EventLog(capacity=32)
        log.record("request", request="aa", n=0)
        log.record("request", request="bb", n=1)
        log.record("worker-spawn", n=2)
        log.record("hop", request="aa", route="0f" * 8, n=3)
        assert [e["n"] for e in log.events(request="aa")] == [0, 3]
        assert [e["n"] for e in log.events(route="0f" * 8)] == [3]
        assert [e["n"] for e in log.events(kinds=("worker-spawn",))] == [2]
        boundary = log.events(kinds=("request",))[1]["ts"]
        assert all(e["ts"] >= boundary for e in log.events(since=boundary))
        assert all(e["ts"] <= boundary for e in log.events(until=boundary))
        # limit keeps the newest N — the interesting end of an incident
        assert [e["n"] for e in log.events(limit=2)] == [2, 3]

    def test_recording_is_thread_safe(self):
        log = EventLog(capacity=4096)
        threads = [
            threading.Thread(
                target=lambda t=t: [
                    log.record("tick", thread=t, n=n) for n in range(200)
                ]
            )
            for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = log.events()
        assert len(events) == log.stats()["recorded"] == 800
        assert len({(event["thread"], event["n"]) for event in events}) == 800


def _request_line() -> str:
    telemetry = RequestTelemetry("rid-1", "http", "verify")
    telemetry.finish("ok", verdicts=4)
    return telemetry.line(generation=3)


# One event of every kind the system emits, as its producer spells it: the
# hand-formatted request line, json-dumped lifecycle and incident events,
# and the tracer's two (the hop in its hand-formatted tail-sample shape).
_HOP_LINE = (
    '{"kind":"hop","span":"00ff00ff00ff00ff:02","seq":2,"direction":"import",'
    '"from":64500,"to":64501,"status":"unverified","items":["Grüße(\u00e9)"],'
    '"peer_matched":false,"ids":{"route":"00ff00ff00ff00ff","worker":77},'
    '"ts":1790000000.5}'
)


def _every_kind(log: EventLog, request_line: str) -> list[str]:
    log.splice(request_line)
    log.record("reload-commit", generation=1, applied=3, serials={"RIPE": 9})
    log.record(
        "route", route="00ff00ff00ff00ff", worker=77, prefix="10.0.0.0/24",
        verdicts={"unverified": 1},
    )
    log.splice(_HOP_LINE)
    log.record("worker-execute", request="rid-1", worker=77, generation=1, ms=0.25)
    log.record("incident-dump", reason="sigquit")
    return ["request", "reload-commit", "route", "hop", "worker-execute", "incident-dump"]


class TestRoundTrip:
    """Every kind, through every store, back through the one reader."""

    @pytest.mark.parametrize("store", ["ring", "file", "result-frame"])
    def test_every_kind_round_trips(self, store, tmp_path):
        request_line = _request_line()
        reference = EventLog()
        kinds = _every_kind(reference, request_line)
        expected = reference.events()
        assert [event["kind"] for event in expected] == kinds
        if store == "ring":
            log = EventLog(capacity=16)
            _every_kind(log, request_line)
            events = log.events()
        elif store == "file":
            path = tmp_path / "events.jsonl"
            log = EventLog(path=path)
            _every_kind(log, request_line)
            assert log.events() == []  # a file-backed log is write-only
            log.close()
            log.splice(_HOP_LINE)  # dropped, not an error
            header, events = read_events(path)
            assert header == {}
        else:
            worker = EventLog()
            _every_kind(worker, request_line)
            frame = pickle.loads(pickle.dumps(("result", 7, [], worker.drain())))
            log = EventLog(capacity=16)
            log.absorb(frame[3])
            events = log.events()
        for event, reference_event in zip(events, expected, strict=True):
            event.pop("ts"), reference_event.pop("ts")
            assert event == reference_event
        request, hop = events[0], events[3]
        assert request["ids"] == {"request": "rid-1", "generation": 3}
        assert set(request["stages_ms"]) == {
            "accept", "queue", "coalesce", "dispatch", "execute", "respond",
        }
        assert hop["ids"] == {"route": "00ff00ff00ff00ff", "worker": 77}
        assert hop["items"] == ["Grüße(é)"]

    def test_reader_drops_a_line_cut_inside_a_utf8_sequence(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path)
        log.record("worker-retired", worker=77, why="crashed")
        log.splice(_HOP_LINE)
        log.close()
        whole = path.read_bytes()
        cut = whole.index("ü".encode()) + 1  # between the two bytes of "ü"
        path.write_bytes(whole[:cut])
        header, events = read_events(path)
        assert header == {}
        assert [event["kind"] for event in events] == ["worker-retired"]


class TestIncidentDumps:
    def test_dump_round_trips_through_reader(self, tmp_path):
        log = EventLog(capacity=16, incident_dir=tmp_path)
        log.record("worker-spawn", worker=4242)
        log.record("pool-degraded", why="restart budget (0) exhausted")
        path = log.dump_incident(
            "pool-degraded", trigger={"kind": "pool-degraded", "why": "budget"}
        )
        assert path is not None and path.parent == tmp_path
        header, events = read_events(path)
        assert header["format"] == EVENT_FORMAT
        assert header["reason"] == "pool-degraded"
        assert header["trigger"]["why"] == "budget"
        kinds = [event["kind"] for event in events]
        assert kinds == ["worker-spawn", "pool-degraded", "incident-dump"]
        assert log.stats()["incidents"] == 1

    def test_dumps_are_rate_limited_per_reason(self, tmp_path):
        log = EventLog(capacity=8, incident_dir=tmp_path)
        log.incident_interval = 3600.0
        assert log.dump_incident("pool-degraded") is not None
        assert log.dump_incident("pool-degraded") is None  # same reason
        assert log.dump_incident("sigquit") is not None  # distinct reason
        assert log.stats()["incidents"] == 2

    def test_reader_tolerates_truncated_tail(self, tmp_path):
        log = EventLog(capacity=8, incident_dir=tmp_path)
        log.record("worker-spawn")
        path = log.dump_incident("sigquit")
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"ts":1.0,"ki')  # process died mid-write
        header, events = read_events(path)
        assert header["reason"] == "sigquit"
        assert [event["kind"] for event in events] == [
            "worker-spawn", "incident-dump",
        ]

    def test_reader_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"format": "rpslyzer-flight/1"}) + "\n")
        with pytest.raises(ValueError):
            read_events(path)
        # A file without a header is a plain event stream; an empty one
        # (an access log nobody has hit yet) holds no events.
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert read_events(empty) == ({}, [])

    def test_unwritable_incident_dir_is_best_effort(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the directory should go")
        log = EventLog(capacity=8, incident_dir=blocker)
        log.incident_interval = 3600.0
        assert log.dump_incident("sigquit") is None
        # A dump that wrote nothing does not start the rate-limit window:
        # once the directory is usable the very next attempt lands.
        blocker.unlink()
        path = log.dump_incident("sigquit")
        assert path is not None and path.exists()
        assert log.stats()["incidents"] == 1
        assert log.dump_incident("sigquit") is None  # now the window holds

    def test_without_an_incident_dir_the_incident_stays_in_the_ring(
        self, tmp_path, monkeypatch
    ):
        """No directory configured means no file — in particular never one
        in the working directory (tier-1 used to litter the repo root) —
        but the incident is still marked, every time: no file was written,
        so there is no rate-limit window to hold the next dump back."""
        monkeypatch.chdir(tmp_path)
        log = EventLog(capacity=8)
        log.incident_interval = 3600.0
        log.record("pool-degraded", why="budget")
        assert log.dump_incident("pool-degraded") is None
        assert list(tmp_path.iterdir()) == []
        events = log.events()
        assert [event["kind"] for event in events] == ["pool-degraded", "incident-dump"]
        assert events[-1]["reason"] == "pool-degraded"
        assert log.stats()["incidents"] == 0
        log.incident_dir = tmp_path / "incidents"
        assert log.dump_incident("pool-degraded") is not None


class TestNullRecorder:
    def test_null_recorder_is_inert(self, tmp_path):
        assert NULL_EVENTS.enabled is False
        NULL_EVENTS.record("worker-spawn")
        NULL_EVENTS.splice('{"kind":"x"}')
        NULL_EVENTS.absorb(['{"kind":"x"}'])
        assert NULL_EVENTS.events() == [] and NULL_EVENTS.drain() == []
        assert NULL_EVENTS.dump_incident("sigquit") is None
