"""P1 — Section 3 performance: parse all 13 IRR dumps and export the IR.

The paper parses 6.9 GiB in under five minutes on an Apple M1 (Rust); we
report single-thread Python throughput on the synthetic dumps — the shape
claim is that parsing is fast enough to ingest full dumps routinely.

Two paths are timed: in-memory text (``parse_dump_text``, what the
synthetic world's own registry uses) and the dump files on disk
(``parse_registry_dir``, what a cold ``open_session`` runs).
"""

from conftest import emit

from repro.ir.json_io import dumps_ir
from repro.irr.dump import parse_dump_text
from repro.irr.registry import parse_registry_dir

MIB = 1024 * 1024


def parse_all(dumps: dict[str, str]):
    total = 0
    for name, text in dumps.items():
        ir, errors = parse_dump_text(text, name)
        total += ir.counts()["aut-num"]
    return total


def _report(name: str, path: str, total_bytes: int, seconds: float) -> float:
    throughput = total_bytes / seconds / MIB
    emit(
        name,
        f"path: {path}\ndump bytes: {total_bytes}\nmean parse time: {seconds:.3f}s\n"
        f"throughput: {throughput:.2f} MiB/s",
    )
    return throughput


def test_parse_throughput(benchmark, world):
    total_bytes = sum(len(text) for text in world.irr_dumps.values())
    benchmark(parse_all, world.irr_dumps)
    throughput = _report("perf_parse", "parse_dump_text", total_bytes, benchmark.stats.stats.mean)
    assert throughput > 0.2  # sanity floor: not pathologically slow


def test_parse_files_throughput(benchmark, world, tmp_path):
    world.write_to_dir(tmp_path)
    total_bytes = sum(path.stat().st_size for path in tmp_path.glob("*.db"))
    registry = benchmark(parse_registry_dir, tmp_path)
    assert set(registry.sources) == {name.upper() for name in world.irr_dumps}
    throughput = _report(
        "perf_parse_files", "parse_registry_dir", total_bytes, benchmark.stats.stats.mean
    )
    assert throughput > 0.2


def test_ir_export_time(benchmark, ir):
    text = benchmark(dumps_ir, ir)
    emit(
        "perf_ir_export",
        f"IR JSON size: {len(text)} bytes\nmean export time: "
        f"{benchmark.stats.stats.mean:.3f}s",
    )
    assert len(text) > 1000
