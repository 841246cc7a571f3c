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
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from enum import Enum
from typing import Callable

from repro.gcpause import cyclic_gc_paused
from repro.net.prefix import Prefix

__all__ = ["register", "encode", "decode", "registered_types", "stable_digest"]

_DATACLASSES: dict[str, type] = {}
_ENUMS: dict[str, type] = {}

# Exact types both directions pass through untouched; their subclasses
# (and everything else) go through the dispatch below.
_PLAIN = frozenset({type(None), bool, int, float, str})
_ENCODERS: dict[type, Callable[[object], object]] = {}
_Plan = tuple[type, tuple[tuple[str, Callable | None], ...]]  # constructor, (field, coercer)s
_PLANS: dict[str, _Plan] = {}


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
        return lambda obj: [encode(item) for item in obj]
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

    return encode_node


def stable_digest(obj: object) -> str:
    """SHA-256 of an object graph's canonical JSON encoding.

    The content digest used to key derived artifacts (the compiled
    verification index): identical object graphs digest identically
    regardless of where or when they were built.
    """
    with cyclic_gc_paused():
        payload = json.dumps(encode(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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
    fields = ((field.name, _coercer(hints.get(field.name))) for field in dataclasses.fields(cls))
    plan = _PLANS[name] = (cls, tuple(fields))
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
    cls, fields = _PLANS.get(data["__t"]) or _compile_plan(data["__t"])
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
