"""Tests for IR JSON export/import and the generic serializer."""

import collections
import dataclasses
import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from test_property_roundtrip import irs

from repro import api
from repro.ir import serialize
from repro.ir.json_io import (
    certified_digest,
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


HEAD = '{"format":"rpslyzer-ir","version":1,"digest":"'


def _certified(member: str) -> str:
    """A compact document whose header is the SHA-256 of ``member``."""
    return HEAD + hashlib.sha256(member.encode()).hexdigest() + '","ir":' + member + "}"


def _header_and_member(text: str) -> tuple[str, str]:
    head, member = text.split('","ir":', 1)
    return head[len(HEAD) :], member[:-1]


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
        try:
            member = json.dumps(json.loads(text)["ir"], separators=(",", ":"))
        except (ValueError, TypeError, KeyError):
            return  # no "ir" member to re-lay out
        # The same member in the compact layouts the hook path reads, the
        # certified one with a header that holds: the hook declines or
        # fails, and the reference path names the defect.
        legacy = '{"format":"rpslyzer-ir","version":1,"ir":' + member + "}"
        for variant in (_certified(member), legacy):
            for load in (loads_ir, lambda text: load_ir(io.BytesIO(text.encode()))):
                with pytest.raises(ValueError) as caught:
                    load(variant)
                assert names in str(caught.value)

    def test_well_formed_input_is_unaffected(self, sample_ir):
        assert ir_from_jsonable(json.loads(dumps_ir(sample_ir))) == sample_ir
        assert loads_ir(_ir_document()) == Ir()


def _verdicts(session, routes):
    return [session.verify_route(str(route.prefix), route.as_path).statuses() for route in routes]


class TestTrustBoundary:
    """A digest is taken from a document only when it hashes the bytes decoded."""

    def test_a_certified_document_hands_over_its_digest_once(self, tiny_ir, tmp_path, monkeypatch):
        path = tmp_path / "ir.json"
        dump_ir(tiny_ir, path)
        digest = api.ir_digest(tiny_ir)

        def no_encoding(obj):
            raise AssertionError("the IR was re-encoded")

        monkeypatch.setattr(serialize, "encode", no_encoding)
        loaded = load_ir(path)
        assert loaded == tiny_ir
        assert certified_digest(loaded) == digest
        assert certified_digest(loaded) is None  # one-shot
        with api.open_session(path, use_cache=False, warm=False) as session:
            assert session.digest == digest

    def test_an_edited_member_is_not_trusted(self, tiny_ir, tiny_world, tiny_routes, tmp_path):
        """(a) One ASN digit changed, header stale: the cached original is not adopted."""
        cache, path = tmp_path / "cache", tmp_path / "ir.json"
        dump_ir(tiny_ir, path)
        counts = collections.Counter(asn for route in tiny_routes for asn in set(route.as_path))
        asn = max(tiny_ir.aut_nums, key=counts.__getitem__)
        routes = [route for route in tiny_routes if asn in route.as_path][:30]
        with api.open_session(path, as_rel=tiny_world.topology, cache_dir=cache) as original:
            before = _verdicts(original, routes)
            digest = original.digest
        assert digest == api.ir_digest(tiny_ir)

        text = path.read_text()
        needle = f'[{asn},{{"__t":"AutNum"'
        edited_asn = next(asn // 10 * 10 + d for d in range(10) if asn // 10 * 10 + d not in tiny_ir.aut_nums)
        assert text.count(needle) == 1
        path.write_text(text.replace(needle, f'[{edited_asn},{{"__t":"AutNum"'))
        with api.open_session(path, as_rel=tiny_world.topology, cache_dir=cache) as edited:
            assert edited_asn in edited.ir.aut_nums and asn not in edited.ir.aut_nums
            assert edited.digest == api.ir_digest(edited.ir) != digest
            assert edited.index.digest == edited.digest
            after = _verdicts(edited, routes)
            with api.open_session(edited.ir, as_rel=tiny_world.topology, use_cache=False) as fresh:
                assert after == _verdicts(fresh, routes)
        assert after != before
        assert len(list(cache.glob("index-*.pkl"))) == 2

    def test_a_forged_header_keys_what_was_decoded(self, tiny_ir, tiny_world, tmp_path):
        """(b) A header that hashes a non-canonical member (keys unsorted) is the key."""
        cache, path = tmp_path / "cache", tmp_path / "ir.json"
        member = json.dumps(serialize.encode(tiny_ir), separators=(",", ":"))
        assert member != _header_and_member(dumps_ir(tiny_ir))[1]
        forged = hashlib.sha256(member.encode()).hexdigest()
        path.write_text(_certified(member))
        with api.open_session(path, as_rel=tiny_world.topology, cache_dir=cache) as session:
            assert session.ir == tiny_ir
            assert session.digest == forged != api.ir_digest(tiny_ir)
            assert session.index.digest == forged
        assert api.index_cache_path(forged, cache).exists()
        assert not api.index_cache_path(api.ir_digest(tiny_ir), cache).exists()

    @pytest.mark.parametrize(
        "variant",
        ["duplicate ir key", "trailing bytes", "trailing newline", "indent=2", "legacy layout"],
    )
    def test_anything_else_computes_the_digest(self, variant, sample_ir, tiny_ir, tmp_path):
        """(c) Each of these loads the reference way and reports ``ir_digest``."""
        text, expected = dumps_ir(tiny_ir), tiny_ir
        if variant == "duplicate ir key":
            # The header hashes everything after it: both members, so the
            # hash holds, yet the decoded IR is the last member's.
            second = _header_and_member(dumps_ir(sample_ir))[1]
            text, expected = _certified(_header_and_member(text)[1] + ',"ir":' + second), sample_ir
        elif variant == "trailing bytes":
            text += "  "
        elif variant == "trailing newline":
            text += "\n"
        elif variant == "indent=2":
            text = dumps_ir(tiny_ir, indent=2)
        else:
            text = json.dumps(ir_to_jsonable(tiny_ir), separators=(",", ":"))
        path = tmp_path / "ir.json"
        path.write_text(text)
        loaded = load_ir(path)
        assert loaded == expected and certified_digest(loaded) is None
        with api.open_session(path, use_cache=False, warm=False) as session:
            assert session.ir == expected
            assert session.digest == api.ir_digest(expected)

    def test_trailing_garbage_is_still_an_error(self, tiny_ir):
        for suffix in ("x", "}"):
            with pytest.raises(ValueError, match="Extra data"):
                load_ir(io.BytesIO((dumps_ir(tiny_ir) + suffix).encode()))


class TestRoundTripFidelity:
    """(d) The header is what ``ir_digest`` recomputes from the loaded IR."""

    def test_tiny_world(self, tiny_ir, tmp_path):
        path = tmp_path / "ir.json"
        dump_ir(tiny_ir, path)
        header, _ = _header_and_member(path.read_text())
        assert api.ir_digest(load_ir(path)) == header == api.ir_digest(tiny_ir)

    @given(irs)
    @settings(max_examples=100)
    def test_generated_irs(self, ir):
        text = dumps_ir(ir)
        header, _ = _header_and_member(text)
        loaded = load_ir(io.BytesIO(text.encode()))
        assert certified_digest(loaded) == header
        assert api.ir_digest(loaded) == header


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
