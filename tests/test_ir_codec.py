"""The plan-compiled IR codec against the reflective one it replaced.

``repro.ir.serialize`` resolves an encoder per concrete class and a decode
plan per registered class instead of reflecting on every node.  The digest
(`ir_digest`) and the exported ``ir.json`` bytes are identifiers other runs
and other tools hold on to, so the rewrite has to produce *the same bytes*:

* digest and export values captured at the commit before the rewrite are
  pinned as constants.  The digest and the indented export have never
  changed since.  The compact export changed once, on purpose: it gained
  the ``"digest"`` header and its member became the canonical (sorted-key)
  text; the layout before that is pinned as the legacy layout, which
  still loads;
* the pre-rewrite ``encode``/``decode`` live on below, verbatim, as the
  reference, and the production codec is driven against them with the AST
  generators of ``test_property_roundtrip`` and with arbitrary tagged
  documents;
* the cases a type-keyed dispatch table can get wrong that an isinstance
  chain cannot — ``bool`` vs ``int``, subclasses, cached failures, a stale
  plan after re-registration — are named one by one.
"""

import dataclasses
import enum
import hashlib
import json
import tracemalloc
import types
import typing
from enum import Enum
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ir_json import SAMPLE_DUMP
from test_property_roundtrip import aut_nums, filters, irs, peerings, policy_rules, prefix_sets

from repro import api
from repro.ir import serialize
from repro.ir.json_io import dumps_ir, ir_from_jsonable, ir_to_jsonable, load_ir, loads_ir
from repro.ir.model import Ir
from repro.irr.dump import parse_dump_text
from repro.irr.synth import build_world, default_config
from repro.net.prefix import Prefix, RangeOp, RangeOpKind

# -- pinned at the parent commit (4b44057), before the codec was touched ---------

SAMPLE_DIGEST = "387d9182fa6775c79eec346727e9395b1e0a8154407ed423ee256f9ce3050164"
SAMPLE_DUMPS_INDENT2_SHA256 = "83d7188ecd8efd15170c2e39c7bba260a1671d63ff50f5e184c980b71a5ef7c1"
TINY_WORLD_DIGEST = "744de88e9d6b6588a611cb1af0765e788666947280cb9c89def17bb4b7c7d58c"
# The compact export before it carried its digest: {"format", "version", "ir"}
# in field order (the legacy layout, still read).
SAMPLE_LEGACY_DUMPS_SHA256 = "78b360dd5549d3055d78aed7b9f890cc8bc35d41bb4cb7a4dd311ea0154cd84a"
TINY_WORLD_LEGACY_DUMPS_SHA256 = "b2eb9c34a31bf4ce17567fe18541be50793645dba295014adad2e6674a95e16c"

# -- re-pinned on purpose: the compact export with its digest header ---------------

SAMPLE_DUMPS_SHA256 = "e47a8376c0b8c7ce14c41e3cc3107e051a1d4e2e2f624ade53c0d568fa857401"
TINY_WORLD_DUMPS_SHA256 = "79a60b3c10d181cfc9f32541290a4c57a7fae23f7da152e53341c3302df9e0b9"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def sample_ir():
    ir, _ = parse_dump_text(SAMPLE_DUMP, "TEST")
    return ir


class TestPinnedIdentifiers:
    def test_sample_digest(self, sample_ir):
        assert api.ir_digest(sample_ir) == SAMPLE_DIGEST

    def test_sample_export_bytes(self, sample_ir):
        assert _sha256(dumps_ir(sample_ir)) == SAMPLE_DUMPS_SHA256
        assert _sha256(dumps_ir(sample_ir, indent=2)) == SAMPLE_DUMPS_INDENT2_SHA256

    def test_tiny_world_digest_and_export(self, tiny_ir):
        assert api.ir_digest(tiny_ir) == TINY_WORLD_DIGEST
        assert _sha256(dumps_ir(tiny_ir)) == TINY_WORLD_DUMPS_SHA256

    def test_digest_survives_the_export(self, tiny_ir):
        assert api.ir_digest(loads_ir(dumps_ir(tiny_ir))) == TINY_WORLD_DIGEST

    def test_the_header_is_the_digest(self, sample_ir, tiny_ir):
        for ir, digest in ((sample_ir, SAMPLE_DIGEST), (tiny_ir, TINY_WORLD_DIGEST)):
            text = dumps_ir(ir)
            assert text.startswith(f'{{"format":"rpslyzer-ir","version":1,"digest":"{digest}","ir":')
            member = text[text.index('"ir":') + len('"ir":') : -1]
            assert _sha256(member) == digest

    def test_legacy_layout_pins_and_loads(self, sample_ir, tiny_ir, tmp_path):
        cases = (
            (sample_ir, SAMPLE_LEGACY_DUMPS_SHA256, SAMPLE_DIGEST),
            (tiny_ir, TINY_WORLD_LEGACY_DUMPS_SHA256, TINY_WORLD_DIGEST),
        )
        for ir, legacy_sha256, digest in cases:
            legacy = json.dumps(ir_to_jsonable(ir), separators=(",", ":"))
            assert _sha256(legacy) == legacy_sha256
            assert loads_ir(legacy) == ir
            path = tmp_path / "legacy.json"
            path.write_text(legacy)
            assert load_ir(path) == ir
            with api.open_session(path, use_cache=False, warm=False) as session:
                assert session.ir == ir and session.digest == digest


# -- the reference: the reflective codec, verbatim -------------------------------
# (only the two registries are shared with production, so both codecs know
# the same classes)

_DATACLASSES = serialize._DATACLASSES
_ENUMS = serialize._ENUMS


def reference_encode(obj: object) -> object:
    """Encode an object graph into JSON-compatible primitives."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Prefix):
        return {"__p": str(obj)}
    if isinstance(obj, Enum):
        return {"__e": type(obj).__name__, "v": obj.value}
    if isinstance(obj, (list, tuple)):
        return [reference_encode(item) for item in obj]
    if isinstance(obj, dict):
        if all(isinstance(key, str) for key in obj):
            return {"__d": None, **{key: reference_encode(value) for key, value in obj.items()}}
        return {
            "__kv": [[reference_encode(key), reference_encode(value)] for key, value in obj.items()]
        }
    if dataclasses.is_dataclass(obj):
        cls_name = type(obj).__name__
        if cls_name not in _DATACLASSES:
            raise TypeError(f"unregistered dataclass {cls_name}")
        encoded: dict[str, object] = {"__t": cls_name}
        for field in dataclasses.fields(obj):
            encoded[field.name] = reference_encode(getattr(obj, field.name))
        return encoded
    raise TypeError(f"cannot encode {type(obj).__name__}")


@lru_cache(maxsize=None)
def _field_hints(cls: type) -> dict[str, object]:
    return typing.get_type_hints(cls)


def _coerce_container(value: object, hint: object) -> object:
    """Convert decoded lists to tuples where the field type says tuple."""
    origin = typing.get_origin(hint)
    if origin is tuple and isinstance(value, list):
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            item_hint = args[0]
            return tuple(_coerce_container(item, item_hint) for item in value)
        if args and len(args) == len(value):
            return tuple(
                _coerce_container(item, arg) for item, arg in zip(value, args)
            )
        return tuple(value)
    if origin is list and isinstance(value, list):
        args = typing.get_args(hint)
        if args:
            return [_coerce_container(item, args[0]) for item in value]
    if origin is typing.Union or isinstance(hint, types.UnionType):
        for arg in typing.get_args(hint):
            if typing.get_origin(arg) in (tuple, list):
                return _coerce_container(value, arg)
    return value


def reference_decode(data: object) -> object:
    """Reconstruct an object graph produced by :func:`reference_encode`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [reference_decode(item) for item in data]
    if isinstance(data, dict):
        if "__p" in data:
            return Prefix.parse(data["__p"])
        if "__e" in data:
            enum_cls = _ENUMS.get(data["__e"])
            if enum_cls is None:
                raise TypeError(f"unregistered enum {data['__e']}")
            return enum_cls(data["v"])
        if "__kv" in data:
            return {
                reference_decode(key): reference_decode(value) for key, value in data["__kv"]
            }
        if "__d" in data:
            return {
                key: reference_decode(value) for key, value in data.items() if key != "__d"
            }
        if "__t" in data:
            cls = _DATACLASSES.get(data["__t"])
            if cls is None:
                raise TypeError(f"unregistered dataclass {data['__t']}")
            hints = _field_hints(cls)
            kwargs: dict[str, object] = {}
            for field in dataclasses.fields(cls):
                if field.name not in data:
                    continue
                value = reference_decode(data[field.name])
                hint = hints.get(field.name)
                if hint is not None:
                    value = _coerce_container(value, hint)
                kwargs[field.name] = value
            return cls(**kwargs)
        return {key: reference_decode(value) for key, value in data.items()}
    raise TypeError(f"cannot decode {type(data).__name__}")


# -- the differential -----------------------------------------------------------


def _outcome(function, argument):
    """What a codec call does: its value, or the exception it raises."""
    try:
        return "value", function(argument)
    except Exception as exc:  # noqa: BLE001 - the exception *is* the outcome compared
        return type(exc), str(exc)


def _typed(value: object) -> object:
    """A value with every container's type spelled out.

    ``==`` already tells ``(1,)`` from ``[1]``, but not ``True`` from ``1``
    nor a ``str`` subclass from ``str``.
    """
    if isinstance(value, (list, tuple)):
        return (type(value), [_typed(item) for item in value])
    if isinstance(value, dict):
        return (type(value), [(_typed(key), _typed(item)) for key, item in value.items()])
    return (type(value), value)


def _canonical_text(obj: object) -> str:
    return json.dumps(reference_encode(obj), sort_keys=True, separators=(",", ":"))


def assert_same_codec(obj: object) -> None:
    encoded = serialize.encode(obj)
    assert _typed(encoded) == _typed(reference_encode(obj))
    assert "".join(serialize.iter_canonical(obj)) == _canonical_text(obj)
    decoded = serialize.decode(encoded)
    assert decoded == reference_decode(encoded)
    assert decoded == obj
    assert reference_encode(decoded) == encoded  # fields ``==`` skips (compare=False) too


# Documents nobody encoded: any nesting of the five tags, known and
# unknown names, fields present, missing, extra and ill-typed.
_keys = st.sampled_from(
    ["__t", "__e", "__p", "__kv", "__d", "v", "kind", "low", "high", "asn", "op",
     "members", "afis", "prefix", "origin", "x"]
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70000),
    st.sampled_from(
        ["RangeOp", "RangeOpKind", "FilterPrefixSet", "PolicyRule", "RouteObject",
         "AutNum", "Ir", "Nope", "10.0.0.0/8", "2001:db8::/32", "exact", "none", ""]
    ),
)
_documents = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(_keys, children, max_size=4)
    ),
    max_leaves=12,
)


def reference_loads_ir(text: str):
    """``loads_ir`` as it was before the hook: the reference decoder over a plain ``json.loads``."""
    with mock.patch.object(serialize, "decode", reference_decode):
        return ir_from_jsonable(json.loads(text))


def _texts(member: object) -> list[str]:
    """The compact layouts ``loads_ir``'s hook path reads, around one ``"ir"`` member."""
    compact = json.dumps(member, separators=(",", ":"))
    return [
        '{"format":"rpslyzer-ir","version":1,"digest":"' + "0" * 64 + '","ir":' + compact + "}",
        '{"format":"rpslyzer-ir","version":1,"ir":' + compact + "}",
    ]


def _typed_ir(value: object) -> object:
    """``_typed`` that also spells out the types inside an Ir's fields."""
    if isinstance(value, Ir):
        return _typed([getattr(value, field.name) for field in dataclasses.fields(value)])
    return _typed(value)


def assert_loads_alike(text: str) -> None:
    """``loads_ir`` (hook, falling back) against the reference: equal values or the same error."""
    kind, detail = _outcome(loads_ir, text)
    reference_kind, reference_detail = _outcome(reference_loads_ir, text)
    assert kind == reference_kind
    if kind == "value":
        assert _typed_ir(detail) == _typed_ir(reference_detail)
    else:
        assert detail == reference_detail


class TestAgainstTheReference:
    @given(st.one_of(filters, peerings, prefix_sets, policy_rules, aut_nums, irs))
    @settings(max_examples=300)
    def test_generated_nodes(self, node):
        assert_same_codec(node)

    def test_whole_irs(self, sample_ir, tiny_ir):
        for ir in (sample_ir, tiny_ir):
            assert_same_codec(ir)
            assert json.dumps(serialize.encode(ir)) == json.dumps(reference_encode(ir))
            texts = [dumps_ir(ir), dumps_ir(ir, indent=2), *_texts(reference_encode(ir))]
            for text in texts:
                assert_loads_alike(text)
                assert loads_ir(text) == ir

    @given(_documents)
    @settings(max_examples=500)
    def test_arbitrary_documents_decode_alike(self, document):
        kind, detail = _outcome(serialize.decode, document)
        reference_kind, reference_detail = _outcome(reference_decode, document)
        assert kind == reference_kind
        if kind == "value":
            assert _typed(detail) == _typed(reference_detail)
        else:
            assert detail == reference_detail
        # Where the hook answers, it answers the reference's value.
        try:
            hooked = json.loads(json.dumps(document), object_hook=serialize.decode_hook)
        except Exception:  # noqa: BLE001 - declined: loads_ir takes the reference path
            pass
        else:
            assert reference_kind == "value" and _typed(hooked) == _typed(reference_detail)
        # The document as the member, and inside an Ir's route objects.
        in_an_ir = {**reference_encode(Ir()), "route_objects": [document]}
        for text in (*_texts(document), *_texts(in_an_ir)):
            assert_loads_alike(text)

    @pytest.mark.parametrize(
        "document",
        [
            {"__e": "RangeOpKind", "v": {"__e": "RangeOpKind", "v": "plus"}},  # rejected
            {"__p": {"__p": "10.0.0.0/8"}},
            {"__kv": ["ab"]},  # the reference unpacks the string: {"a": "b"}
            {"__kv": [[1, 2, 3]]},
            {"__d": 1, "a": [2]},
            {"__t": "RangeOp", "low": 24},  # missing fields take their defaults
            {**reference_encode(RangeOp()), "extra": 1},
            {"__t": "RangeOp", "__p": "10.0.0.0/8"},
            {"untagged": 1},
        ],
    )
    def test_the_hook_declines_every_shape_encode_does_not_emit(self, document):
        with pytest.raises(serialize.Unanswered):
            json.loads(json.dumps(document), object_hook=serialize.decode_hook)
        in_an_ir = {**reference_encode(Ir()), "route_objects": [document]}
        for text in (*_texts(document), *_texts(in_an_ir)):
            assert_loads_alike(text)


_plain = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3))
_keys_near_the_marker = st.one_of(
    st.sampled_from(["__d", "__e", "__t", "_", "", "A", "a", "~"]), st.text(max_size=3)
)


class TestStreamedCanonicalText:
    """``iter_canonical``'s pieces join to ``json.dumps(encode(x), sort_keys=True)``."""

    @given(
        st.one_of(
            st.lists(_plain, max_size=40),
            st.dictionaries(_keys_near_the_marker, st.lists(_plain, max_size=2), max_size=40),
            st.dictionaries(st.integers(), _plain, max_size=40),
            _plain,
        )
    )
    @settings(max_examples=300)
    def test_containers_across_batch_boundaries(self, value):
        assert "".join(serialize.iter_canonical(value)) == _canonical_text(value)

    def test_the_digest_never_holds_the_encoded_tree(self):
        ir = build_world(default_config()).merged_ir()

        def peak(function) -> int:
            tracemalloc.start()
            try:
                function(ir)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(api.ir_digest) < peak(serialize.encode) / 4


# -- what a dispatch table can get wrong -----------------------------------------


class Text(str):
    pass


class Items(list):
    pass


class Pair(tuple):
    pass


class Table(dict):
    pass


class SubPrefix(Prefix):
    pass


class Level(enum.IntEnum):
    LOW = 1


@pytest.fixture
def scratch_registry():
    """Let a test register classes; put the codec back as it was afterwards."""
    tables = (_DATACLASSES, _ENUMS, serialize._ENCODERS, serialize._PLANS)
    saved = [dict(table) for table in tables]
    yield
    for table, before in zip(tables, saved):
        table.clear()
        table.update(before)


class TestDispatchEdges:
    def test_bool_is_not_int(self):
        for value in (True, False, 0, 1, 1.0):
            encoded = serialize.encode(value)
            assert encoded is value or (encoded == value and type(encoded) is type(value))
            assert type(serialize.decode(value)) is type(value)
        assert_same_codec({True: "yes", 2: "two"})
        assert_same_codec([True, 1, 1.0, "1", None])
        assert json.dumps(serialize.encode((True, 1))) == "[true, 1]"

    @pytest.mark.parametrize(
        "value",
        [
            Text("x"),
            Level.LOW,
            Items([1, Text("y"), (2, 3)]),
            Pair((1, [2])),
            Table({"a": Items([1])}),
            Table({1: "a", "b": 2}),
            Table(),
            SubPrefix(4, 10 << 24, 8),
            [SubPrefix(4, 10 << 24, 8), Prefix(4, 10 << 24, 8)],
            {"__t": "looks like a tag but is a plain dict"},
        ],
    )
    def test_subclasses_take_their_base_class_path(self, value):
        assert _typed(serialize.encode(value)) == _typed(reference_encode(value))
        encoded = serialize.encode(value)
        assert _outcome(serialize.decode, encoded) == _outcome(reference_decode, encoded)

    def test_subclassed_input_to_decode(self):
        for document in (Text("x"), Items([Text("y"), Table({"__p": "10.0.0.0/8"})]), Table(a=1)):
            assert _typed(serialize.decode(document)) == _typed(reference_decode(document))

    def test_a_prefix_subclass_is_a_prefix_not_a_dataclass(self):
        assert serialize.encode(SubPrefix(4, 10 << 24, 8)) == {"__p": "10.0.0.0/8"}

    def test_tag_precedence_is_the_reference_s(self):
        for document in (
            {"__t": "RangeOp", "__p": "10.0.0.0/8"},
            {"__t": "RangeOp", "__e": "RangeOpKind", "v": "plus"},
            {"__d": None, "__t": "RangeOp"},
            {"__kv": [[1, 2]], "__d": None},
        ):
            assert serialize.decode(document) == reference_decode(document)

    def test_missing_fields_default_and_extra_keys_are_ignored(self):
        document = {"__t": "RangeOp", "low": 24, "unheard_of": [1, 2]}
        assert serialize.decode(document) == reference_decode(document) == RangeOp(low=24)

    def test_unencodable_values_raise_every_time(self):
        for _ in range(3):
            with pytest.raises(TypeError, match="cannot encode object"):
                serialize.encode(object())
            with pytest.raises(TypeError, match="cannot encode set"):
                serialize.encode([1, {2}])
            with pytest.raises(TypeError, match="cannot decode set"):
                serialize.decode([{1}])
            with pytest.raises(TypeError, match="unregistered enum Nope"):
                serialize.decode({"__e": "Nope", "v": 1})
            with pytest.raises(ValueError):
                serialize.decode({"__e": "RangeOpKind", "v": "bogus"})

    def test_an_unregistered_dataclass_fails_on_every_call(self, scratch_registry):
        @dataclasses.dataclass
        class Late:
            items: tuple[int, ...] = ()

        for _ in range(3):
            with pytest.raises(TypeError, match="unregistered dataclass Late"):
                serialize.encode(Late((1,)))
            with pytest.raises(TypeError, match="unregistered dataclass Late"):
                serialize.decode({"__t": "Late", "items": [1]})
        assert Late not in serialize._ENCODERS and "Late" not in serialize._PLANS
        # ... and the failure was not remembered: registration takes effect.
        serialize.register(Late)
        assert serialize.encode(Late((1,))) == {"__t": "Late", "items": [1]}
        assert serialize.decode({"__t": "Late", "items": [1]}) == Late((1,))

    def test_registering_a_same_named_class_drops_the_stale_plan(self, scratch_registry):
        def make(hint):
            @dataclasses.dataclass
            class Node:
                items: hint = ()
                note: str = ""

            return Node

        first, second = make(tuple[int, ...]), make(list[int])
        document = {"__t": "Node", "items": [1, 2], "note": "n"}

        serialize.register(first)
        decoded = serialize.decode(document)
        assert type(decoded) is first and decoded.items == (1, 2)

        serialize.register(second)
        decoded = serialize.decode(document)
        assert type(decoded) is second and decoded.items == [1, 2]
        assert decoded == reference_decode(document)
        # Encoding goes by class *name*, as it always has: instances of the
        # displaced class still encode.
        assert serialize.encode(first((1, 2), "n")) == document == reference_encode(first((1, 2), "n"))

    def test_hints_compile_to_the_reference_s_coercions(self, scratch_registry):
        @dataclasses.dataclass
        class Shapes:
            pairs: list[tuple[int, tuple[str, ...]]] = None
            fixed: tuple[int, list[tuple[int, ...]]] = None
            empty: tuple[()] = None
            maybe: tuple[int, ...] | None = None
            either: typing.Optional[list[tuple[int, ...]]] = None
            bare: tuple = None
            untyped_list: typing.List = None
            mapping: dict[str, tuple[int, ...]] = None

        serialize.register(Shapes)
        for document in (
            {"pairs": [[1, ["a", "b"]], [2, []]], "fixed": [1, [[2], [3, 4]]], "empty": []},
            {"fixed": [1, [[2]], "wrong arity"], "empty": [1], "maybe": [1], "either": [[1], []]},
            {"maybe": None, "either": None, "bare": [1], "untyped_list": [[1]]},
            {"mapping": {"__d": None, "k": [1, 2]}, "pairs": "not a list", "fixed": {"a": [1]}},
        ):
            document = {"__t": "Shapes", **document}
            assert _typed(dataclasses.astuple(serialize.decode(document))) == _typed(
                dataclasses.astuple(reference_decode(document))
            )

    def test_range_op_kinds_roundtrip(self):
        for kind in RangeOpKind:
            assert_same_codec(RangeOp(kind, 8, 24))
