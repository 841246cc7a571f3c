"""The cyclic collector is paused over ingest's bursts and left as found.

``repro.gcpause.cyclic_gc_paused`` is the one place the library switches
the collector off; a dump file's parse, ``load_ir``/``loads_ir``,
``dump_ir``, ``stable_digest`` and each batch of a table file's parse run
inside it (the serial table pass too: ``test_parallel.py``).  ``gc.disable()`` is process-wide, so for each of
those stages: paused while it runs, and ``gc.isenabled()`` afterwards
exactly what it was before — collector on, collector already off, and the
stage raising.
"""

import gc
import inspect
import re
from pathlib import Path

import pytest
from test_ir_json import SAMPLE_DUMP

import repro
import repro.api as api
import repro.bgp.table as table
import repro.core.verify as verify
import repro.irr.registry as registry_module
from repro import gcpause
from repro.ir import json_io, serialize
from repro.irr.dump import parse_dump_file, parse_dump_text
from repro.irr.registry import Registry


class Spy:
    """Wrap a function; record the collector's state at each call."""

    def __init__(self, function):
        self.function = function
        self.seen = []

    def __call__(self, *args, **kwargs):
        self.seen.append(gc.isenabled())
        return self.function(*args, **kwargs)


def boom(*args, **kwargs):
    raise RuntimeError("stage failed")


@pytest.fixture(scope="module")
def sample_ir():
    ir, _ = parse_dump_text(SAMPLE_DUMP, "TEST")
    return ir


@pytest.fixture
def dump_path(tmp_path):
    path = tmp_path / "test.db"
    path.write_text(SAMPLE_DUMP)
    return path


@pytest.fixture(params=["collector on", "collector off"])
def collector(request):
    """Run the test with the collector in either state; restore it after."""
    was_enabled = gc.isenabled()
    if request.param == "collector on":
        gc.enable()
    else:
        gc.disable()
    yield gc.isenabled()
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestStagesLeaveTheCollectorAsFound:
    def test_dump_file_parse(self, collector, dump_path, monkeypatch):
        spy = Spy(parse_dump_file)
        monkeypatch.setattr(registry_module, "parse_dump_file", spy)
        source = Registry().add_file("TEST", dump_path)
        assert source.ir.counts()["aut-num"] == 1
        assert spy.seen == [False]
        assert gc.isenabled() is collector

    def test_dump_text_parse(self, collector, monkeypatch):
        spy = Spy(parse_dump_text)
        monkeypatch.setattr(registry_module, "parse_dump_text", spy)
        Registry().add_text("TEST", SAMPLE_DUMP)
        assert spy.seen == [False]
        assert gc.isenabled() is collector

    def test_dump_parse_raising(self, collector, dump_path, monkeypatch):
        monkeypatch.setattr(registry_module, "parse_dump_file", boom)
        monkeypatch.setattr(registry_module, "parse_dump_text", boom)
        registry = Registry()
        with pytest.raises(RuntimeError, match="stage failed"):
            registry.add_file("TEST", dump_path)
        with pytest.raises(RuntimeError, match="stage failed"):
            registry.add_text("TEST", SAMPLE_DUMP)
        assert registry.sources == {}
        assert gc.isenabled() is collector

    def test_each_dump_is_its_own_pause(self, dump_path, monkeypatch):
        """Between two dumps of one registry the collector is back on."""
        between = []
        spy = Spy(parse_dump_file)
        monkeypatch.setattr(registry_module, "parse_dump_file", spy)
        registry = Registry()
        for name in ("A", "B"):
            registry.add_file(name, dump_path)
            between.append(gc.isenabled())
        assert spy.seen == [False, False]
        assert between == [True, True]

    def test_load_ir(self, collector, sample_ir, tmp_path, monkeypatch):
        path = tmp_path / "ir.json"
        json_io.dump_ir(sample_ir, path)
        loads, hook = Spy(json_io.json.loads), Spy(serialize.decode_hook)
        monkeypatch.setattr(json_io.json, "loads", loads)
        monkeypatch.setattr(serialize, "decode_hook", hook)
        assert json_io.load_ir(path) == sample_ir
        with open(path, encoding="utf-8") as stream:
            assert json_io.load_ir(stream) == sample_ir
        assert json_io.loads_ir(path.read_text()) == sample_ir
        assert loads.seen == [False] * 3  # the JSON parse is part of the burst
        assert hook.seen and not any(hook.seen)  # so is the decode inside it
        assert gc.isenabled() is collector

    def test_dump_ir(self, collector, sample_ir, tmp_path, monkeypatch):
        encode = Spy(serialize.encode)
        monkeypatch.setattr(serialize, "encode", encode)
        json_io.dump_ir(sample_ir, tmp_path / "ir.json")
        assert encode.seen and not any(encode.seen)
        assert gc.isenabled() is collector

    def test_dump_ir_raising_mid_document(self, collector, sample_ir, tmp_path):
        broken = json_io.loads_ir(json_io.dumps_ir(sample_ir))
        broken.route_objects.append(object())
        with pytest.raises(TypeError, match="cannot encode object"):
            json_io.dump_ir(broken, tmp_path / "ir.json")
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("text", ["[]", '{"format": "rpslyzer-ir", "version": 1, "ir": 3}', "{"])
    def test_load_ir_of_a_malformed_document(self, collector, text, tmp_path):
        path = tmp_path / "ir.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            json_io.load_ir(path)
        with pytest.raises(ValueError):
            json_io.loads_ir(text)
        assert gc.isenabled() is collector

    def test_stable_digest(self, collector, sample_ir, monkeypatch):
        expected = serialize.stable_digest(sample_ir)
        encode, dumps = Spy(serialize.encode), Spy(serialize._canonical)
        monkeypatch.setattr(serialize, "encode", encode)
        monkeypatch.setattr(serialize, "_canonical", dumps)
        assert serialize.stable_digest(sample_ir) == expected
        # Every piece is encoded and dumped inside the one pause.
        assert encode.seen and not any(encode.seen)
        assert dumps.seen and not any(dumps.seen)
        assert gc.isenabled() is collector

    def test_stable_digest_raising(self, collector):
        with pytest.raises(TypeError, match="cannot encode object"):
            serialize.stable_digest([1, object()])
        assert gc.isenabled() is collector

    def test_table_file_parse(self, collector, tmp_path, monkeypatch):
        """Each batch is built paused; the consumer's code between two
        entries runs with the collector as the consumer left it."""
        path = tmp_path / "table.txt"
        path.write_text(
            "".join(
                f"TABLE_DUMP2|0|B|rrc00|64500|10.{i}.0.0/16|64500 {64600 + i}|IGP\n"
                for i in range(5)
            )
        )
        spy = Spy(table._parse_lines)
        monkeypatch.setattr(table, "_parse_lines", spy)
        monkeypatch.setattr(table, "_GC_PAUSE_LINES", 2)
        between = [gc.isenabled() for _ in table.parse_table_file(path)]
        assert spy.seen == [False, False, False]  # batches of 2, 2 and 1 lines
        assert between == [collector] * 5
        assert gc.isenabled() is collector

    def test_nested_pauses_end_with_the_outermost(self):
        assert gc.isenabled()
        with gcpause.cyclic_gc_paused():
            with gcpause.cyclic_gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


class TestOneHelper:
    def test_a_single_gc_disable_under_src(self):
        package = Path(repro.__file__).parent
        hits = [
            str(path.relative_to(package))
            for path in sorted(package.rglob("*.py"))
            for _ in re.finditer(r"\bgc\.(disable|enable|freeze|set_threshold)\(", path.read_text())
        ]
        assert hits == ["gcpause.py", "gcpause.py"]  # one disable, one enable

    def test_the_serial_table_pass_still_uses_it(self):
        assert verify.cyclic_gc_paused is gcpause.cyclic_gc_paused
        assert "with cyclic_gc_paused():" in inspect.getsource(verify.verify_into)
        assert "verify_into(" in inspect.getsource(api.Session.verify_table)
