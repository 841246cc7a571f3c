"""Plan-compiled JSON-able encoding of the IR and its embedded ASTs.

Every IR and AST node in this library is a dataclass whose fields are
primitives, enums, prefixes, other nodes, or containers of those.  The
encoding is a plain dict tree tagged with ``"__t"`` type markers:

* dataclass → ``{"__t": "ClassName", "<field>": ...}``;
* Enum → ``{"__e": "EnumName", "v": <value>}``;
* :class:`~repro.net.prefix.Prefix` → ``{"__p": "10.0.0.0/8"}`` (compact);
* tuples/lists → JSON arrays (field type hints restore tuples on decode);
* dicts with int keys → key-value pair arrays.

Nothing is reflected on per node: :func:`encode` dispatches on ``type(obj)``
to an *encoder* resolved once per concrete class (a dataclass's tag and
field-name tuple), and :func:`decode` runs a *plan* compiled once per
registered class — the constructor plus, per field, the list → tuple
restoration its type hint asks for.  Failures are never cached (a class that
cannot be coded raises ``TypeError`` on every call), and :func:`register`
drops the plan of a name it rebinds.

Two entry points skip the intermediate dict tree.  :func:`iter_canonical`
yields the canonical JSON text (what :func:`stable_digest` hashes) in
pieces, a batch of a container's elements at a time.  :func:`decode_hook`
is a ``json.loads`` ``object_hook`` that applies :func:`decode`'s rule to
one dict at a time, for the exact shapes :func:`encode` emits; it raises
:class:`Unanswered` on any other shape, and its caller then decodes the
document with :func:`decode`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from enum import Enum
from typing import Callable, Iterator

from repro.gcpause import cyclic_gc_paused
from repro.net.prefix import Prefix

__all__ = [
    "register",
    "encode",
    "decode",
    "decode_hook",
    "iter_canonical",
    "registered_types",
    "stable_digest",
    "Unanswered",
]

_DATACLASSES: dict[str, type] = {}
_ENUMS: dict[str, type] = {}

# Exact types both directions pass through untouched; their subclasses
# (and everything else) go through the dispatch below.
_PLAIN = frozenset({type(None), bool, int, float, str})
_ENCODERS: dict[type, Callable[[object], object]] = {}
# constructor, (field, coercer)s, and the exact key set encode emits for it
_Plan = tuple[type, tuple[tuple[str, Callable | None], ...], frozenset]
_PLANS: dict[str, _Plan] = {}
_MARKERS = frozenset({"__p", "__e", "__kv", "__d"})  # the tags that outrank "__t"
_ENUM_KEYS = frozenset({"__e", "v"})


def register(*classes: type) -> None:
    """Register dataclasses/enums so :func:`decode` can reconstruct them."""
    for cls in classes:
        if issubclass(cls, Enum):
            _ENUMS[cls.__name__] = cls
        elif dataclasses.is_dataclass(cls):
            _DATACLASSES[cls.__name__] = cls
            _PLANS.pop(cls.__name__, None)
        else:
            raise TypeError(f"{cls!r} is neither a dataclass nor an Enum")


def registered_types() -> dict[str, type]:
    """All registered types by name (dataclasses and enums)."""
    return {**_DATACLASSES, **_ENUMS}


def encode(obj: object) -> object:
    """Encode an object graph into JSON-compatible primitives."""
    cls = type(obj)
    if cls in _PLAIN:
        return obj
    try:
        encoder = _ENCODERS[cls]
    except KeyError:
        encoder = _ENCODERS[cls] = _resolve_encoder(cls)
    return encoder(obj)


def _encoder(cls: type) -> Callable[[object], object]:
    try:
        return _ENCODERS[cls]
    except KeyError:
        encoder = _ENCODERS[cls] = _resolve_encoder(cls)
        return encoder


def _encode_sequence(obj: list | tuple) -> list:
    return [encode(item) for item in obj]


def _encode_mapping(obj: dict) -> dict:
    if all(isinstance(key, str) for key in obj):
        return {"__d": None, **{key: encode(value) for key, value in obj.items()}}
    return {"__kv": [[encode(key), encode(value)] for key, value in obj.items()]}


def _resolve_encoder(cls: type) -> Callable[[object], object]:
    """The encoder of one concrete class, by the codec's type precedence."""
    if issubclass(cls, (bool, int, float, str)):
        return lambda obj: obj
    if issubclass(cls, Prefix):
        return lambda obj: {"__p": str(obj)}
    name = cls.__name__
    if issubclass(cls, Enum):
        return lambda obj: {"__e": name, "v": obj.value}
    if issubclass(cls, (list, tuple)):
        return _encode_sequence
    if issubclass(cls, dict):
        return _encode_mapping
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"cannot encode {name}")
    if name not in _DATACLASSES:
        raise TypeError(f"unregistered dataclass {name}")
    field_names = tuple(field.name for field in dataclasses.fields(cls))

    def encode_node(obj: object) -> dict:
        encoded: dict[str, object] = {"__t": name}
        for field_name in field_names:
            value = getattr(obj, field_name)
            encoded[field_name] = value if type(value) in _PLAIN else encode(value)
        return encoded

    encode_node.node = (name, field_names)  # what iter_canonical streams field by field
    return encode_node


_BATCH = 16  # container elements encoded per piece of iter_canonical


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def iter_canonical(obj: object) -> Iterator[str]:
    """The canonical JSON text of an object graph, in pieces.

    ``"".join(iter_canonical(obj))`` is exactly ``json.dumps(encode(obj),
    sort_keys=True, separators=(",", ":"))`` (ASCII, since ``ensure_ascii``
    holds), but the encoded tree never exists whole: a top-level
    dataclass's fields, and a container's elements :data:`_BATCH` at a
    time, are encoded and dumped one piece after the other.  The collector
    is paused until the generator finishes: a caller that may stop reading
    early closes it, or holds a pause of its own around the loop.
    """
    with cyclic_gc_paused():
        node = None if type(obj) in _PLAIN else getattr(_encoder(type(obj)), "node", None)
        if node is None:
            yield from _value_pieces(obj)
            return
        name, field_names = node
        for position, key in enumerate(sorted(("__t", *field_names))):
            yield ("{" if position == 0 else ",") + _canonical(key) + ":"
            if key == "__t":
                yield _canonical(name)
            else:
                yield from _value_pieces(getattr(obj, key))
        yield "}"


def _value_pieces(value: object) -> Iterator[str]:
    """One value's canonical text; a list or a dict a batch at a time."""
    encoder = None if type(value) in _PLAIN else _encoder(type(value))
    if encoder is _encode_sequence:
        items = list(value)
        yield "["
        for start in range(0, len(items), _BATCH):
            batch = [encode(item) for item in items[start : start + _BATCH]]
            yield ("," if start else "") + _canonical(batch)[1:-1]
        yield "]"
    elif encoder is _encode_mapping and all(isinstance(key, str) for key in value):
        # {"__d": null, **members}, its keys sorted with the marker among them
        keys = sorted({"__d", *value})
        yield "{"
        for start in range(0, len(keys), _BATCH):
            batch = {
                key: encode(value[key]) if key in value else None
                for key in keys[start : start + _BATCH]
            }
            yield ("," if start else "") + _canonical(batch)[1:-1]
        yield "}"
    elif encoder is _encode_mapping:
        items = list(value.items())
        yield '{"__kv":['
        for start in range(0, len(items), _BATCH):
            batch = [[encode(key), encode(item)] for key, item in items[start : start + _BATCH]]
            yield ("," if start else "") + _canonical(batch)[1:-1]
        yield "]}"
    else:
        yield _canonical(value if encoder is None else encoder(value))


def stable_digest(obj: object) -> str:
    """SHA-256 of an object graph's canonical JSON encoding.

    The content digest used to key derived artifacts (the compiled
    verification index): identical object graphs digest identically
    regardless of where or when they were built.  It hashes the pieces of
    :func:`iter_canonical`, so the encoded tree is never built whole.
    """
    digest = hashlib.sha256()
    for piece in iter_canonical(obj):
        digest.update(piece.encode("ascii"))
    return digest.hexdigest()


def _coercer(hint: object) -> Callable[[object], object] | None:
    """A type hint's list → tuple restoration of a decoded value (``None``: none)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            item = _coercer(args[0])

            def restore(value: list) -> tuple:
                return tuple(value) if item is None else tuple([item(v) for v in value])
        else:
            items = [_coercer(arg) for arg in args]

            def restore(value: list) -> tuple:
                if len(value) != len(items):
                    return tuple(value)
                return tuple(v if c is None else c(v) for c, v in zip(items, value))

        return lambda value: restore(value) if isinstance(value, list) else value
    if origin is list and args:
        item = _coercer(args[0])
        if item is None:
            return None
        return lambda value: [item(v) for v in value] if isinstance(value, list) else value
    if origin is typing.Union or isinstance(hint, types.UnionType):
        for arg in args:
            if typing.get_origin(arg) in (tuple, list):
                return _coercer(arg)
    return None


def _compile_plan(name: str) -> _Plan:
    cls = _DATACLASSES.get(name)
    if cls is None:
        raise TypeError(f"unregistered dataclass {name}")
    hints = typing.get_type_hints(cls)
    fields = tuple((field.name, _coercer(hints.get(field.name))) for field in dataclasses.fields(cls))
    keys = frozenset(("__t", *(field for field, _ in fields)))
    if not keys.isdisjoint(_MARKERS):
        keys = frozenset()  # a field shadows an outranking tag: no dict has the exact shape
    plan = _PLANS[name] = (cls, fields, keys)
    return plan


def _decode_mapping(data: dict) -> object:
    if "__p" in data:
        return Prefix.parse(data["__p"])
    if "__e" in data:
        enum_cls = _ENUMS.get(data["__e"])
        if enum_cls is None:
            raise TypeError(f"unregistered enum {data['__e']}")
        return enum_cls(data["v"])
    if "__kv" in data:
        return {decode(key): decode(value) for key, value in data["__kv"]}
    if "__d" in data:
        return {key: decode(value) for key, value in data.items() if key != "__d"}
    if "__t" not in data:
        return {key: decode(value) for key, value in data.items()}
    cls, fields, _ = _PLANS.get(data["__t"]) or _compile_plan(data["__t"])
    kwargs: dict[str, object] = {}
    for field_name, coerce in fields:
        if field_name in data:
            value = data[field_name]
            if type(value) not in _PLAIN:
                value = decode(value)
            kwargs[field_name] = value if coerce is None else coerce(value)
    return cls(**kwargs)


def decode(data: object) -> object:
    """Reconstruct an object graph produced by :func:`encode`."""
    if type(data) in _PLAIN:
        return data
    if isinstance(data, list):
        return [decode(item) for item in data]
    if isinstance(data, dict):
        return _decode_mapping(data)
    if isinstance(data, (bool, int, float, str)):
        return data
    raise TypeError(f"cannot decode {type(data).__name__}")


class Unanswered(Exception):
    """:func:`decode_hook` met a dict that is not in a shape :func:`encode` emits."""


def decode_hook(data: dict) -> object:
    """:func:`decode`'s rule for one dict whose children are decoded already.

    A ``json.loads`` ``object_hook``: ``json.loads(text,
    object_hook=decode_hook)`` equals ``decode(json.loads(text))`` whenever
    it returns.  It answers only for the exact shapes :func:`encode` emits
    -- ``{"__t", <every field>}``, ``{"__p": str}``, ``{"__e": str, "v":
    <plain value>}``, ``{"__kv": [[k, v], ...]}``, ``{"__d": null, ...}`` --
    and raises :class:`Unanswered` on any other dict.  That, or any other
    exception, means: decode this document with :func:`decode` over a
    plain ``json.loads``, whose value or error is the answer.  The tags
    keep :func:`decode`'s precedence (``__p``, ``__e``, ``__kv``, ``__d``,
    ``__t``): testing ``__t`` first is safe because its exact key set holds
    none of the others.
    """
    if "__t" in data:
        cls, fields, keys = _PLANS.get(data["__t"]) or _compile_plan(data["__t"])
        if data.keys() != keys:
            raise Unanswered(data["__t"])
        del data["__t"]
        for field_name, coerce in fields:
            if coerce is not None:
                data[field_name] = coerce(data[field_name])
        return cls(**data)
    if "__p" in data:
        text = data["__p"]
        if len(data) != 1 or type(text) is not str:
            raise Unanswered("__p")
        return Prefix.parse(text)
    if "__e" in data:
        name, value = data["__e"], data.get("v")
        if data.keys() != _ENUM_KEYS or type(name) is not str or type(value) not in _PLAIN:
            raise Unanswered("__e")
        enum_cls = _ENUMS.get(name)
        if enum_cls is None:
            raise Unanswered(name)
        return enum_cls(value)
    if "__kv" in data:
        pairs = data["__kv"]
        if len(data) != 1 or type(pairs) is not list or not all(
            type(pair) is list and len(pair) == 2 for pair in pairs
        ):
            raise Unanswered("__kv")
        return {key: value for key, value in pairs}
    if "__d" in data and data["__d"] is None:
        del data["__d"]
        return data
    raise Unanswered("untagged")
