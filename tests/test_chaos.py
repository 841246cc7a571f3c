"""The resilience contract under injected faults (``repro.chaos``).

These are the acceptance tests of the chaos harness: damaged dumps parse
to the clean IR minus the damaged objects (with the damage recorded as
issues, never raised), a SIGKILLed verify worker costs nothing but a
degradation entry, and the WHOIS client retries through a flaky network.
"""

from __future__ import annotations

import gzip
import random
import socket
import threading

import pytest

from repro import api
from repro.chaos import (
    DUMP_MUTATORS,
    MUTATORS,
    FlakyTcpProxy,
    KillWorkerChunk,
    RaiseOnChunk,
    run_chaos,
)
from repro.chaos.mutators import oversized_paragraph
from repro.core.degradation import DegradationReport
from repro.core.parallel import verify_table
from repro.irr.dump import parse_dump_file, parse_dump_text
from repro.irr.whois import whois_query
from repro.rpsl.errors import ErrorCollector, ErrorKind
from repro.rpsl.lexer import LexLimits

CLEAN = """\
aut-num:        AS64500
as-name:        TEST-ONE
import:         from AS64501 accept ANY
export:         to AS64501 announce AS64500

as-set:         AS-TEST
members:        AS64500, AS64501

route:          192.0.2.0/24
origin:         AS64500
"""


# -- mutators ---------------------------------------------------------------


def test_mutators_are_deterministic_and_damaging():
    for name, mutator in MUTATORS.items():
        once = mutator(random.Random(7), CLEAN)
        again = mutator(random.Random(7), CLEAN)
        assert once == again, f"{name} is not deterministic under a seed"
        assert once != CLEAN.encode(), f"{name} left the text untouched"


@pytest.mark.parametrize("name", sorted(DUMP_MUTATORS))
def test_damaged_dumps_never_raise(name, tmp_path):
    damaged = DUMP_MUTATORS[name](random.Random(3), CLEAN)
    path = tmp_path / "fuzz.db"
    path.write_bytes(damaged)
    limits = LexLimits(max_object_lines=500, max_object_bytes=64 << 10)
    ir, errors = parse_dump_file(path, source="TEST", limits=limits)
    for asn, aut_num in ir.aut_nums.items():
        assert aut_num.asn == asn


# -- layer 1: ingestion -----------------------------------------------------


def test_truncated_dump_is_clean_minus_final_object(tmp_path):
    clean_ir, clean_errors = parse_dump_text(CLEAN, source="TEST")
    assert not len(clean_errors)
    damaged = CLEAN.rsplit("origin", 1)[0] + "origi"  # cut mid-attribute
    path = tmp_path / "truncated.db"
    path.write_text(damaged, encoding="utf-8")
    ir, errors = parse_dump_file(path, source="TEST")
    counts, clean_counts = ir.counts(), clean_ir.counts()
    assert counts["aut-num"] == clean_counts["aut-num"]
    assert counts["as-set"] == clean_counts["as-set"]
    assert counts["route"] == 0  # only the damaged final object is lost
    assert errors.count_by_kind() == {ErrorKind.TRUNCATED: 1}


def test_in_memory_text_without_trailing_newline_is_not_truncation():
    # A Python string missing its final newline is a formatting quirk;
    # only *file* ingestion treats an unterminated last line as damage.
    ir, errors = parse_dump_text(CLEAN.rstrip("\n"), source="TEST")
    assert ir.counts()["route"] == 1
    assert not len(errors)


def test_oversized_object_dropped_others_kept(tmp_path):
    clean_ir, _ = parse_dump_text(CLEAN, source="TEST")
    path = tmp_path / "big.db"
    path.write_bytes(oversized_paragraph(random.Random(1), CLEAN))
    limits = LexLimits(max_object_bytes=64 << 10)
    ir, errors = parse_dump_file(path, source="TEST", limits=limits)
    assert ir.counts() == clean_ir.counts()
    assert "AS-CHAOS-HUGE" not in ir.as_sets
    assert errors.count_by_kind() == {ErrorKind.OVERSIZED: 1}


def test_gzip_dump_parses_identically(tmp_path):
    clean_ir, _ = parse_dump_text(CLEAN, source="TEST")
    path = tmp_path / "test.db.gz"
    with gzip.open(path, "wt", encoding="utf-8") as stream:
        stream.write(CLEAN)
    ir, errors = parse_dump_file(path)
    assert ir.counts() == clean_ir.counts()
    assert not len(errors)


def test_garbage_gzip_records_unreadable_input(tmp_path):
    path = tmp_path / "garbage.db.gz"
    path.write_bytes(b"\x1f\x8b" + bytes(range(200)))
    ir, errors = parse_dump_file(path)
    assert ErrorKind.UNREADABLE_INPUT in errors.count_by_kind()
    assert sum(ir.counts().values()) == 0


def test_error_collector_cap_counts_overflow():
    collector = ErrorCollector(max_issues=2)
    for index in range(5):
        collector.record(ErrorKind.SYNTAX, "aut-num", f"AS{index}", "TEST", "x")
    assert len(collector.issues) == 2
    assert len(collector) == 5
    assert collector.truncated
    assert collector.count_by_kind()[ErrorKind.SYNTAX] == 5


# -- layer 2: parallel verification -----------------------------------------


def _summaries_match(a, b) -> bool:
    left, right = a.summary(), b.summary()
    left.pop("degradation")
    right.pop("degradation")
    return left == right


def test_worker_kill_mid_run_exact_stats(tiny_ir, tiny_world, tiny_routes):
    baseline = verify_table(tiny_ir, tiny_world.topology, tiny_routes, processes=1)
    chaotic = verify_table(
        tiny_ir,
        tiny_world.topology,
        tiny_routes,
        processes=4,
        chunk_size=200,
        fault_hook=KillWorkerChunk(2),
    )
    assert _summaries_match(baseline, chaotic)
    kinds = chaotic.degradation.by_kind()
    assert kinds.get("verify/worker-crashed", 0) >= 1
    assert kinds.get("verify/chunk-serial-fallback", 0) >= 1


def test_worker_exception_retried_then_serial(tiny_ir, tiny_world, tiny_routes):
    baseline = verify_table(tiny_ir, tiny_world.topology, tiny_routes, processes=1)
    chaotic = verify_table(
        tiny_ir,
        tiny_world.topology,
        tiny_routes,
        processes=2,
        chunk_size=300,
        fault_hook=RaiseOnChunk(0),
    )
    assert _summaries_match(baseline, chaotic)
    # The chunk came back from a worker that survived and went straight to
    # the in-process fallback: no worker crashed, hung or was restarted.
    assert chaotic.degradation.by_kind() == {"verify/chunk-serial-fallback": 1}


def test_clean_parallel_run_has_empty_degradation(tiny_ir, tiny_world, tiny_routes):
    stats = verify_table(
        tiny_ir, tiny_world.topology, tiny_routes, processes=2, chunk_size=300
    )
    assert not stats.degradation
    assert stats.summary()["degradation"] == {"events": [], "total": 0}


# -- layer 3: whois ---------------------------------------------------------


@pytest.fixture()
def small_session():
    ir, _ = parse_dump_text(CLEAN, source="TEST")
    with api.open_session(ir, use_cache=False) as session:
        yield session


def test_whois_retries_through_flaky_proxy(small_session):
    with small_session.whois_server() as server:
        with FlakyTcpProxy("127.0.0.1", server.whois_port, failures=2) as proxy:
            answer = whois_query(
                "127.0.0.1", proxy.port, "AS64500", retries=3, backoff=0.01
            )
    assert "aut-num" in answer
    assert proxy.connections == 3


def test_whois_without_retries_surfaces_the_failure(small_session):
    with small_session.whois_server() as server:
        with FlakyTcpProxy("127.0.0.1", server.whois_port, failures=1) as proxy:
            with pytest.raises(OSError):
                whois_query("127.0.0.1", proxy.port, "AS64500")


def _refused_port() -> int:
    """A port with nothing listening (bound then released)."""
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_whois_backoff_full_jitter_is_deterministic(monkeypatch):
    """Seeded rng ⇒ identical delay sequences across runs, and every
    delay stays inside the doubling full-jitter cap."""
    import random as random_module

    port = _refused_port()

    def delays_for(seed: int) -> list[float]:
        recorded: list[float] = []
        monkeypatch.setattr(
            "repro.irr.whois.time.sleep", lambda s: recorded.append(s)
        )
        with pytest.raises(OSError):
            whois_query(
                "127.0.0.1",
                port,
                "AS1",
                timeout=0.5,
                retries=4,
                backoff=0.1,
                max_backoff=0.3,
                rng=random_module.Random(seed),
            )
        return recorded

    first = delays_for(7)
    second = delays_for(7)
    assert first == second
    assert len(first) == 4
    caps = [0.1, 0.2, 0.3, 0.3]  # doubling, clamped at max_backoff
    assert all(0 <= delay <= cap for delay, cap in zip(first, caps))
    assert delays_for(8) != first  # a different seed draws differently


def test_whois_backoff_total_time_budget(monkeypatch):
    """An exhausted max_elapsed re-raises immediately, retries or not."""
    monkeypatch.setattr(
        "repro.irr.whois.time.sleep",
        lambda s: pytest.fail("should not sleep with a spent budget"),
    )
    with pytest.raises(OSError):
        whois_query(
            "127.0.0.1",
            _refused_port(),
            "AS1",
            timeout=0.5,
            retries=5,
            max_elapsed=0.0,
        )


def test_whois_query_line_cap(small_session):
    with small_session.whois_server() as server:
        port = server.whois_port
        refused = whois_query("127.0.0.1", port, "A" * 8192)
        assert refused.startswith("F query line too long")
        # The server is still healthy for well-formed queries.
        assert "aut-num" in whois_query("127.0.0.1", port, "AS64500")


def test_whois_stop_releases_port_and_thread(small_session):
    server = small_session.whois_server()
    port = server.whois_port
    server.stop()
    assert "rpslyzer-serve" not in {t.name for t in threading.enumerate()}
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=0.5)


# -- degradation report -----------------------------------------------------


def test_degradation_report_merges_and_serializes():
    left, right = DegradationReport(), DegradationReport()
    left.record("verify", "worker-crashed", "worker 0 (pid 1)")
    right.record("verify", "worker-crashed", "worker 0 (pid 1)")
    right.record("ingest", "oversized", count=3)
    left.merge(right)
    assert len(left) == 5
    assert left.by_kind() == {"verify/worker-crashed": 2, "ingest/oversized": 3}
    document = left.as_dict()
    assert document["total"] == 5
    assert document["events"] == sorted(
        document["events"], key=lambda e: (e["component"], e["kind"], e["detail"])
    )


# -- the harness itself -----------------------------------------------------


def test_run_chaos_passes_and_reports():
    report = run_chaos(seed=7, processes=2)
    assert report.ok, report.render()
    assert len(report.checks) >= 10
    assert len(report.degradation) > 0
    import json

    json.dumps(report.as_dict())  # the report must be JSON-serializable


def test_chaos_cli_is_wired():
    from repro.cli import build_parser

    args = build_parser().parse_args(["chaos", "--seed", "7", "--json"])
    assert args.seed == 7 and args.json and args.preset == "tiny"
