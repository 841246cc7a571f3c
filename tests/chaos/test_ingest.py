"""Ingestion under damage: every dump mutator, gzip, and a corrupt table.

The contract: a damaged dump or table parses without raising, keeps what
it can read, and records what it dropped.  Each mutator runs at seeds 7
and 42 against the largest dump of the seed-42 tiny world.
"""

from __future__ import annotations

import gzip
import json

import pytest

from chaos import assert_recorded
from chaos.mutators import DUMP_MUTATORS, TABLE_MUTATORS, rng_for
from repro.bgp.table import parse_table_text, route_entry_lines
from repro.core.degradation import DegradationReport
from repro.irr.dump import parse_dump_file, parse_dump_text
from repro.rpsl.errors import ErrorKind
from repro.rpsl.lexer import LexLimits

# Tight ingestion caps so the oversized mutator actually trips them (the
# production defaults allow 16 MB objects; these tests want the drop path).
CHAOS_LIMITS = LexLimits(
    max_object_lines=2000, max_object_bytes=256 << 10, max_line_bytes=128 << 10
)

seeds = pytest.mark.parametrize("seed", [7, 42], ids=lambda seed: f"seed{seed}")


def _ingest_degradation(kinds: dict, detail: str) -> DegradationReport:
    degradation = DegradationReport()
    for kind, count in kinds.items():
        degradation.record("ingest", kind.value, detail, count)
    return degradation


@pytest.fixture(scope="module")
def clean(tiny_world):
    """The largest dump (the most structure to damage) and its clean parse."""
    irr = max(tiny_world.irr_dumps, key=lambda name: len(tiny_world.irr_dumps[name]))
    text = tiny_world.irr_dumps[irr]
    ir, errors = parse_dump_text(text, source=irr, limits=CHAOS_LIMITS)
    return irr, text, ir, errors


@pytest.fixture(scope="module")
def ingest(clean, tmp_path_factory):
    """``ingest(name, seed)``: the damaged dump's ``(ir, kinds, degradation)``,
    parsed from disk once per module."""
    irr, text, _, _ = clean
    directory = tmp_path_factory.mktemp("chaos-ingest")
    parsed: dict = {}

    def run(name: str, seed: int):
        if (name, seed) not in parsed:
            path = directory / f"{irr.lower()}-{name}-{seed}.db"
            path.write_bytes(DUMP_MUTATORS[name](rng_for(seed, name), text))
            ir, errors = parse_dump_file(path, source=irr, limits=CHAOS_LIMITS)
            kinds = errors.count_by_kind()
            parsed[name, seed] = ir, kinds, _ingest_degradation(kinds, name)
        return parsed[name, seed]

    return run


@seeds
@pytest.mark.parametrize("name", sorted(DUMP_MUTATORS))
def test_ingest(ingest, name, seed):
    ir, _, degradation = ingest(name, seed)  # the contract: it did not raise
    for asn, aut_num in ir.aut_nums.items():
        assert aut_num.asn == asn
    json.dumps(degradation.as_dict())  # empty where the damage reads as RPSL


@seeds
def test_ingest_truncation_recorded(ingest, seed):
    """The final partial paragraph is dropped and recorded."""
    _, kinds, degradation = ingest("truncate-mid-paragraph", seed)
    assert ErrorKind.TRUNCATED in kinds
    assert_recorded(degradation, "ingest/truncated")


@seeds
def test_ingest_oversized_bounded_memory(ingest, clean, seed):
    """The over-cap object is dropped without being buffered whole."""
    ir, kinds, degradation = ingest("oversized-paragraph", seed)
    assert ErrorKind.OVERSIZED in kinds
    assert sum(ir.counts().values()) <= sum(clean[2].counts().values())
    assert "AS-CHAOS-HUGE" not in ir.as_sets
    assert_recorded(degradation, "ingest/oversized")


def test_ingest_gzip_roundtrip(clean, tmp_path):
    irr, text, clean_ir, clean_errors = clean
    path = tmp_path / f"{irr.lower()}.db.gz"
    with gzip.open(path, "wt", encoding="utf-8") as stream:
        stream.write(text)
    ir, errors = parse_dump_file(path, source=irr, limits=CHAOS_LIMITS)
    assert ir.counts() == clean_ir.counts()
    assert errors.count_by_kind() == clean_errors.count_by_kind()


@seeds
def test_ingest_garbage_gzip(tmp_path, seed):
    """A corrupt compressed stream is recorded, not raised."""
    path = tmp_path / "garbage.db.gz"
    rng = rng_for(seed, "gz")
    path.write_bytes(b"\x1f\x8b" + bytes(rng.randrange(256) for _ in range(512)))
    ir, errors = parse_dump_file(path, limits=CHAOS_LIMITS)
    kinds = errors.count_by_kind()
    assert ErrorKind.UNREADABLE_INPUT in kinds
    assert sum(ir.counts().values()) == 0
    assert_recorded(_ingest_degradation(kinds, "garbage-gzip"), "ingest/unreadable-input")


@seeds
@pytest.mark.parametrize("name", sorted(TABLE_MUTATORS))
def test_table(tiny_routes, name, seed):
    """A damaged table streams on, skipping the lines it cannot read."""
    text = "\n".join(route_entry_lines(tiny_routes)) + "\n"
    damaged = TABLE_MUTATORS[name](rng_for(seed, name), text)
    kept = sum(1 for _ in parse_table_text(damaged.decode("utf-8", errors="replace")))
    assert 0 < kept < len(tiny_routes)
