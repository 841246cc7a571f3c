"""Tests for IR JSON export/import and the generic serializer."""

import dataclasses
import io
import json
import os

import pytest

from repro.ir import serialize
from repro.ir.json_io import (
    dump_ir,
    dumps_ir,
    ir_from_jsonable,
    ir_to_jsonable,
    load_ir,
    loads_ir,
)
from repro.ir.model import Ir
from repro.irr.dump import parse_dump_text

SAMPLE_DUMP = """
aut-num:    AS1
as-name:    ONE
import:     from AS2 action pref=10; accept AS-TWO^+ AND NOT {0.0.0.0/0}
export:     to AS2 announce AS1
mp-import:  afi ipv6.unicast from AS2 accept <^AS2+ AS3$>
import:     from AS4 accept broken syntax here AND

as-set:     AS-TWO
members:    AS2, AS3, AS-NESTED
mbrs-by-ref: ANY

route-set:  RS-X
members:    10.0.0.0/8^16-24, RS-Y^+, AS-TWO, AS5

route:      10.1.0.0/16
origin:     AS1
member-of:  RS-X
mnt-by:     MNT-ONE

route6:     2001:db8::/32
origin:     AS1

peering-set: PRNG-P
peering:    AS1 192.0.2.1 at 192.0.2.2

filter-set: FLTR-F
filter:     AS1 OR <^AS1 .* $> OR community(65535:666)
"""


@pytest.fixture(scope="module")
def sample_ir():
    ir, _ = parse_dump_text(SAMPLE_DUMP, "TEST")
    return ir


class TestJsonRoundTrip:
    def test_full_ir_roundtrip(self, sample_ir):
        text = dumps_ir(sample_ir)
        restored = loads_ir(text)
        assert restored.counts() == sample_ir.counts()
        # Deep equality of one aut-num including its parsed rule ASTs.
        original = sample_ir.aut_nums[1]
        loaded = restored.aut_nums[1]
        assert loaded.imports == original.imports
        assert loaded.exports == original.exports
        assert dataclasses.asdict(loaded.imports[0]) == dataclasses.asdict(
            original.imports[0]
        )

    def test_route_objects_roundtrip(self, sample_ir):
        restored = loads_ir(dumps_ir(sample_ir))
        assert [
            (str(route.prefix), route.origin, route.member_of)
            for route in restored.route_objects
        ] == [
            (str(route.prefix), route.origin, route.member_of)
            for route in sample_ir.route_objects
        ]

    def test_sets_roundtrip(self, sample_ir):
        restored = loads_ir(dumps_ir(sample_ir))
        assert restored.as_sets["AS-TWO"].members_asn == [2, 3]
        assert restored.route_sets["RS-X"].name_members == sample_ir.route_sets[
            "RS-X"
        ].name_members
        assert restored.peering_sets["PRNG-P"].peerings == sample_ir.peering_sets[
            "PRNG-P"
        ].peerings
        assert restored.filter_sets["FLTR-F"].filter == sample_ir.filter_sets[
            "FLTR-F"
        ].filter

    def test_bad_rules_preserved(self, sample_ir):
        restored = loads_ir(dumps_ir(sample_ir))
        assert len(restored.aut_nums[1].bad_rules) == 1

    def test_json_is_valid_json(self, sample_ir):
        json.loads(dumps_ir(sample_ir))

    def test_format_header_checked(self, sample_ir):
        data = ir_to_jsonable(sample_ir)
        data["format"] = "other"
        with pytest.raises(ValueError):
            ir_from_jsonable(data)

    def test_version_checked(self, sample_ir):
        data = ir_to_jsonable(sample_ir)
        data["version"] = 999
        with pytest.raises(ValueError):
            ir_from_jsonable(data)

    def test_stability(self, sample_ir):
        once = dumps_ir(sample_ir)
        assert dumps_ir(loads_ir(once)) == once


def _document(ir_member):
    return json.dumps({"format": "rpslyzer-ir", "version": 1, "ir": ir_member})


def _ir_document(**members):
    return _document({"__t": "Ir", **members})


class TestMalformedDocuments:
    """Every structurally bad document is a ``ValueError`` that says why."""

    @pytest.mark.parametrize(
        ("text", "names"),
        [
            ("[]", "must be a JSON object, not list"),
            ('"ir"', "must be a JSON object, not str"),
            ('{"format": "rpslyzer-ir", "version": 1}', 'no "ir" member'),
            ('{"format": "rpslyzer-ir", "version": 1, "ir": ', "Expecting value"),
            (_document({"__t": "Nope"}), "unregistered dataclass Nope"),
            (_document([1, 2]), "is a list, not an Ir"),
            (_document({"__t": "AutNum", "asn": 1}), "is a AutNum, not an Ir"),
            (
                _ir_document(aut_nums={"__kv": [[1, {"__t": "AutNum"}]]}),
                "missing 1 required positional argument: 'asn'",
            ),
            (
                _ir_document(aut_nums={"__d": None, "AS1": {"__t": "AutNum", "asn": 1}}),
                "invalid literal for int() with base 10: 'AS1'",
            ),
            (_ir_document(aut_nums=[1]), "has no attribute 'items'"),
            (
                _ir_document(
                    route_objects=[{"__t": "RouteObject", "prefix": {"__p": "10.0.0/33"}, "origin": 1}]
                ),
                "invalid prefix: '10.0.0/33'",
            ),
            (_ir_document(route_objects=[{"__p": 7}]), "has no attribute 'strip'"),
            (_ir_document(route_objects=[{"__e": "NoSuchEnum", "v": 1}]), "unregistered enum NoSuchEnum"),
            (_ir_document(route_objects=[{"__e": "RangeOpKind"}]), "'v'"),
        ],
    )
    def test_value_error_naming_the_defect(self, text, names):
        with pytest.raises(ValueError) as caught:
            loads_ir(text)
        assert names in str(caught.value)
        with pytest.raises(ValueError):
            load_ir(io.StringIO(text))

    def test_well_formed_input_is_unaffected(self, sample_ir):
        assert ir_from_jsonable(json.loads(dumps_ir(sample_ir))) == sample_ir
        assert loads_ir(_ir_document()) == Ir()


class TestDumpIsAtomic:
    def _unencodable(self, sample_ir):
        broken = loads_ir(dumps_ir(sample_ir))
        broken.route_objects.append(object())  # no encoder: fails mid-document
        return broken

    def test_failing_encode_leaves_the_previous_file(self, sample_ir, tmp_path):
        path = tmp_path / "ir.json"
        dump_ir(sample_ir, path)
        before = path.read_bytes()
        assert before == dumps_ir(sample_ir).encode("utf-8")
        with pytest.raises(TypeError, match="cannot encode object"):
            dump_ir(self._unencodable(sample_ir), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ir.json"]

    def test_failing_encode_creates_no_file(self, sample_ir, tmp_path):
        with pytest.raises(TypeError):
            dump_ir(self._unencodable(sample_ir), str(tmp_path / "ir.json"))
        assert os.listdir(tmp_path) == []

    def test_failing_write_removes_the_temp_file(self, sample_ir, tmp_path, monkeypatch):
        path = tmp_path / "ir.json"
        path.write_text("previous")

        def full_disk(source, destination):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="No space left"):
            dump_ir(sample_ir, path)
        assert path.read_text() == "previous"
        assert os.listdir(tmp_path) == ["ir.json"]

    def test_replaces_and_reads_back(self, sample_ir, tmp_path):
        path = tmp_path / "ir.json"
        path.write_text("previous")
        dump_ir(sample_ir, path)
        assert load_ir(path) == load_ir(str(path)) == sample_ir
        assert os.listdir(tmp_path) == ["ir.json"]

    def test_open_stream_gets_the_same_document(self, sample_ir):
        stream = io.StringIO()
        dump_ir(sample_ir, stream)
        assert stream.getvalue() == dumps_ir(sample_ir)
        assert not stream.closed


class TestGenericSerializer:
    def test_primitives_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert serialize.decode(serialize.encode(value)) == value

    def test_int_key_dict(self):
        data = {1: "a", 2: "b"}
        assert serialize.decode(serialize.encode(data)) == data

    def test_str_key_dict(self):
        data = {"x": [1, 2], "y": None}
        assert serialize.decode(serialize.encode(data)) == data

    def test_unregistered_dataclass_raises(self):
        @dataclasses.dataclass
        class Unregistered:
            x: int = 1

        with pytest.raises(TypeError):
            serialize.encode(Unregistered())

    def test_unknown_type_tag_raises(self):
        with pytest.raises(TypeError):
            serialize.decode({"__t": "NoSuchClass"})

    def test_tuple_fields_restored_as_tuples(self, sample_ir):
        restored = loads_ir(dumps_ir(sample_ir))
        rule = restored.aut_nums[1].imports[0]
        assert isinstance(rule.afis, tuple)
        factor = rule.expr.factors[0]
        assert isinstance(factor.peerings, tuple)
        assert hash(factor)  # frozen dataclasses stay hashable
