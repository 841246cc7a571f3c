"""JSON export/import of the IR (the paper's integration interface).

RPSLyzer exports its intermediate representation to JSON so other tools can
consume RPSL semantics without reimplementing the parser; this module is
that interface.  :func:`dump_ir`/:func:`load_ir` round-trip the complete
:class:`~repro.ir.model.Ir`, including every parsed policy AST.

**The document.**  The compact export is exactly::

    {"format":"rpslyzer-ir","version":1,"digest":"<64 hex>","ir":<member>}

``<member>`` is the IR's canonical encoding (sorted keys, no whitespace:
the text :func:`repro.ir.serialize.stable_digest` hashes), so the
``digest`` header is the IR digest the compiled-index cache is keyed by.
``dumps_ir(ir, indent=N)`` writes the header-less layout ``{"format",
"version", "ir"}`` in field order, as it always has; so did the compact
export until it carried its digest.  Both layouts are format version 1: a
reader ignores members it does not know, so either loads under either
reader.

**The trust rule.**  :func:`load_ir` reads bytes, and believes the header
only when the document is that exact layout and the SHA-256 of the member
bytes equals it; it then decodes exactly those bytes (a duplicate ``"ir"``
key or trailing data cannot split what was hashed from what was decoded)
and keeps the digest for :func:`certified_digest`.  Anything else -- the
old layout, indented output, an edited member, a stale or forged header --
loads as before, and the digest is computed from the IR when asked for:
slower, never wrong.  A digest taken from a document is thus always the
hash of the bytes that were decoded, so a hand-made document can at worst
miss the index cache, never adopt another IR's artifact.

**Decoding** runs inside ``json.loads`` through
:func:`repro.ir.serialize.decode_hook`.  A document the hook does not
answer, or any exception, sends that document down the reference path,
:func:`ir_from_jsonable` over a plain ``json.loads``; values and errors are
always the reference's.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import tempfile
import weakref
from pathlib import Path
from typing import IO

from repro.gcpause import cyclic_gc_paused
from repro.ir import serialize
from repro.ir.model import (
    AsSet,
    AutNum,
    BadRule,
    FilterSet,
    Ir,
    PeeringSet,
    RouteObject,
    RouteSet,
    RouteSetMemberName,
)
from repro.net.afi import Afi, AfiFamily, AfiSafi
from repro.net.prefix import RangeOp, RangeOpKind
from repro.rpsl import aspath, filter as filter_mod, peering
from repro.rpsl.action import ActionItem
from repro.rpsl.names import NameKind
from repro.rpsl.policy import (
    DefaultRule,
    PeeringAction,
    PolicyExcept,
    PolicyFactor,
    PolicyRefine,
    PolicyRule,
    PolicyTerm,
)

__all__ = [
    "ir_to_jsonable",
    "ir_from_jsonable",
    "dump_ir",
    "load_ir",
    "dumps_ir",
    "loads_ir",
    "certified_digest",
]

serialize.register(
    # IR containers
    Ir,
    AutNum,
    AsSet,
    RouteSet,
    RouteSetMemberName,
    RouteObject,
    PeeringSet,
    FilterSet,
    BadRule,
    # policy AST
    PolicyRule,
    DefaultRule,
    PolicyTerm,
    PolicyExcept,
    PolicyRefine,
    PolicyFactor,
    PeeringAction,
    ActionItem,
    # peering AST
    peering.Peering,
    peering.PeerAsn,
    peering.PeerAsSet,
    peering.PeerAny,
    peering.PeeringSetRef,
    peering.PeerAnd,
    peering.PeerOr,
    peering.PeerExcept,
    # filter AST
    filter_mod.FilterAny,
    filter_mod.FilterPeerAs,
    filter_mod.FilterAsn,
    filter_mod.FilterAsSet,
    filter_mod.FilterRouteSet,
    filter_mod.FilterFltrSetRef,
    filter_mod.FilterPrefixSet,
    filter_mod.FilterAsPathRegex,
    filter_mod.FilterCommunity,
    filter_mod.FilterAnd,
    filter_mod.FilterOr,
    filter_mod.FilterNot,
    # as-path regex AST
    aspath.ReAsn,
    aspath.ReAsnRange,
    aspath.ReAsSet,
    aspath.RePeerAs,
    aspath.ReWildcard,
    aspath.ReCharSet,
    aspath.ReAlt,
    aspath.ReSeq,
    aspath.ReRepeat,
    aspath.ReBegin,
    aspath.ReEnd,
    # primitives
    RangeOp,
    Afi,
    # enums
    RangeOpKind,
    AfiFamily,
    AfiSafi,
    NameKind,
)

FORMAT_VERSION = 1

# The compact document up to its member: with the digest header (this
# release's export) or without it (the layout before it).
_HEAD = (
    r'\{"format":"rpslyzer-ir","version":%d,'
    r'(?:"digest":"([0-9a-f]{64})",)?"ir":' % FORMAT_VERSION
)
_TEXT_HEAD = re.compile(_HEAD)
_BYTES_HEAD = re.compile(_HEAD.encode("ascii"))
_CERTIFIED_HEAD = '{"format":"rpslyzer-ir","version":%d,"digest":"' % FORMAT_VERSION
_MEMBER_KEY = '","ir":'

# id(ir) -> (weak reference, digest): what load_ir verified, until
# certified_digest takes it or the IR is collected.
_CERTIFIED: dict[int, tuple[weakref.ref, str]] = {}


def ir_to_jsonable(ir: Ir) -> dict:
    """Encode an IR into a JSON-compatible dict with a format header."""
    return {"format": "rpslyzer-ir", "version": FORMAT_VERSION, "ir": serialize.encode(ir)}


def _int_keyed(ir: Ir) -> Ir:
    # Aut-num keys arrive as JSON pair-lists with int keys already; ensure so.
    ir.aut_nums = {int(asn): aut_num for asn, aut_num in ir.aut_nums.items()}
    return ir


def ir_from_jsonable(data: dict) -> Ir:
    """Decode the dict :func:`ir_to_jsonable` produces; ``ValueError`` if it is not one."""
    if not isinstance(data, dict):
        raise ValueError(f"IR document must be a JSON object, not {type(data).__name__}")
    if data.get("format") != "rpslyzer-ir":
        raise ValueError("not an RPSLyzer IR document")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported IR format version {data.get('version')!r}")
    if "ir" not in data:
        raise ValueError('IR document has no "ir" member')
    try:
        ir = serialize.decode(data["ir"])
        if not isinstance(ir, Ir):
            raise ValueError(f'"ir" member is a {type(ir).__name__}, not an Ir')
        return _int_keyed(ir)
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        # The codec's error says which: unregistered tag, missing field, bad key or prefix.
        raise ValueError(f"malformed IR document: {exc}") from exc


def _decode_member(member: str) -> Ir | None:
    """The IR a document's ``"ir"`` member decodes to through the hook;
    ``None`` when the hook does not answer it (the reference path will)."""
    try:
        ir = json.loads(member, object_hook=serialize.decode_hook)
        return _int_keyed(ir) if isinstance(ir, Ir) else None
    except Exception:  # noqa: BLE001 - any failure defers to the reference path
        return None


def dumps_ir(ir: Ir, *, indent: int | None = None) -> str:
    """Serialize an IR to a JSON string (see the module docstring for the layouts)."""
    if indent is not None:
        return json.dumps(ir_to_jsonable(ir), indent=indent, separators=(",", ":"))
    digest, pieces = hashlib.sha256(), []
    for piece in serialize.iter_canonical(ir):
        digest.update(piece.encode("ascii"))
        pieces.append(piece)
    return _CERTIFIED_HEAD + digest.hexdigest() + _MEMBER_KEY + "".join(pieces) + "}"


def loads_ir(text: str) -> Ir:
    """Parse an IR from a JSON string."""
    with cyclic_gc_paused():
        head = _TEXT_HEAD.match(text) if isinstance(text, str) else None
        if head is not None and text.endswith("}"):
            ir = _decode_member(text[head.end() : -1])
            if ir is not None:
                return ir
        return ir_from_jsonable(json.loads(text))


def dump_ir(ir: Ir, destination: str | Path | IO[str]) -> None:
    """Write an IR's compact document to a JSON file (path or open text stream).

    A path is written through a temp file, the member streamed and hashed
    piece by piece and the digest filled into the header last, then
    replaced atomically (write-temp-then-rename, as ``save_index`` does;
    like its artifacts the new file is private to the user), so a failing
    or interrupted export leaves the previous file as it was.  A stream
    gets the document encoded in full before anything is written.
    """
    if not isinstance(destination, (str, Path)):
        destination.write(dumps_ir(ir))
        return
    path = Path(destination)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        # The outer pause outlives the generator however the loop ends.
        with cyclic_gc_paused(), os.fdopen(handle, "wb") as stream:
            head = _CERTIFIED_HEAD.encode("ascii")
            stream.write(head + b"0" * 64 + _MEMBER_KEY.encode("ascii"))
            digest = hashlib.sha256()
            for piece in serialize.iter_canonical(ir):
                data = piece.encode("ascii")
                digest.update(data)
                stream.write(data)
            stream.write(b"}")
            stream.seek(len(head))
            stream.write(digest.hexdigest().encode("ascii"))
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def _load_certified(data: bytes) -> Ir | None:
    """The IR of a document whose header digest is the SHA-256 of its
    member bytes, decoded from exactly those bytes; else ``None``."""
    head = _BYTES_HEAD.match(data)
    if head is None or head[1] is None or not data.endswith(b"}"):
        return None
    member = memoryview(data)[head.end() : -1]
    digest = head[1].decode("ascii")
    if hashlib.sha256(member).hexdigest() != digest:
        return None
    try:
        text = str(member, "utf-8")
    except UnicodeDecodeError:
        return None
    ir = _decode_member(text)
    if ir is not None:
        _CERTIFIED[id(ir)] = (weakref.ref(ir), digest)
        weakref.finalize(ir, _CERTIFIED.pop, id(ir), None)
    return ir


def certified_digest(ir: Ir) -> str | None:
    """The digest :func:`load_ir` verified for ``ir``, handed over once.

    ``None`` when the document it came from carried no digest that held
    (the caller computes ``ir_digest``), or when it was taken already.
    Take it right after the load: a caller that edits the IR first must
    not use it.
    """
    entry = _CERTIFIED.pop(id(ir), None)
    return entry[1] if entry is not None and entry[0]() is ir else None


def load_ir(source: str | Path | IO[str]) -> Ir:
    """Read an IR from a JSON file (path or open stream).

    A path or binary stream is read as bytes and may certify its digest
    (module docstring); a text stream loads as :func:`loads_ir` does.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source.read()
        if isinstance(data, str):
            return loads_ir(data)
    with cyclic_gc_paused():
        ir = _load_certified(data)
    if ir is not None:
        return ir
    if isinstance(source, (str, Path)):
        data = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()  # as read_text
    return loads_ir(data)
