"""JSON export/import of the IR (the paper's integration interface).

RPSLyzer exports its intermediate representation to JSON so other tools can
consume RPSL semantics without reimplementing the parser; this module is
that interface.  :func:`dump_ir`/:func:`load_ir` round-trip the complete
:class:`~repro.ir.model.Ir`, including every parsed policy AST.
"""

from __future__ import annotations

import json
import os
import tempfile
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

__all__ = ["ir_to_jsonable", "ir_from_jsonable", "dump_ir", "load_ir", "dumps_ir", "loads_ir"]

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


def ir_to_jsonable(ir: Ir) -> dict:
    """Encode an IR into a JSON-compatible dict with a format header."""
    return {"format": "rpslyzer-ir", "version": FORMAT_VERSION, "ir": serialize.encode(ir)}


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
        # Aut-num keys arrive as JSON pair-lists with int keys already; ensure so.
        ir.aut_nums = {int(asn): aut_num for asn, aut_num in ir.aut_nums.items()}
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        # The codec's error says which: unregistered tag, missing field, bad key or prefix.
        raise ValueError(f"malformed IR document: {exc}") from exc
    return ir


def dumps_ir(ir: Ir, *, indent: int | None = None) -> str:
    """Serialize an IR to a JSON string."""
    return json.dumps(ir_to_jsonable(ir), indent=indent, separators=(",", ":"))


def loads_ir(text: str) -> Ir:
    """Parse an IR from a JSON string."""
    with cyclic_gc_paused():
        return ir_from_jsonable(json.loads(text))


def dump_ir(ir: Ir, destination: str | Path | IO[str]) -> None:
    """Write an IR to a JSON file (path or open text stream).

    The document is encoded in full before anything is written, and a path
    is replaced atomically (write-temp-then-rename, as ``save_index`` does;
    like its artifacts the new file is private to the user), so a failing
    or interrupted export leaves the previous file as it was.
    """
    text = dumps_ir(ir)
    if not isinstance(destination, (str, Path)):
        destination.write(text)
        return
    path = Path(destination)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def load_ir(source: str | Path | IO[str]) -> Ir:
    """Read an IR from a JSON file (path or open text stream)."""
    if isinstance(source, (str, Path)):
        return loads_ir(Path(source).read_text(encoding="utf-8"))
    return loads_ir(source.read())
