"""Reading RPSL dump files into the IR.

A dump file is the standard flat-text serialization IRRs publish: RPSL
paragraphs separated by blank lines.  The paper's Table 1 inputs ship
gzip-compressed (``ripe.db.gz``); :func:`parse_dump_file` opens both the
compressed and the uncompressed form transparently.

File ingestion is hardened against real-world damage (see
``docs/robustness.md``): a dump truncated mid-object drops only the
damaged final paragraph (recorded as a ``TRUNCATED``
:class:`~repro.rpsl.errors.ParseIssue`), a pathologically large object is
dropped as ``OVERSIZED``, and a garbage or corrupt-compressed file yields
whatever parsed before the damage plus an ``UNREADABLE_INPUT`` issue —
never an exception.
"""

from __future__ import annotations

import gzip
import io
import zlib
from pathlib import Path
from typing import IO

from repro.ir.model import Ir
from repro.obs import get_registry, timed_iter
from repro.rpsl.errors import ErrorCollector, ErrorKind
from repro.rpsl.lexer import LexLimits, split_dump
from repro.rpsl.objects import collect_into_ir

__all__ = ["parse_dump_text", "parse_dump_file"]

_GZIP_MAGIC = b"\x1f\x8b"
# What a damaged file raises mid-read: ``BadGzipFile``, a truncated gzip
# member (``EOFError``), zlib errors, undecodable bytes, I/O errors.
_READ_ERRORS = (OSError, EOFError, UnicodeError, zlib.error)


def _collect(
    stream: IO[str],
    source: str,
    errors: ErrorCollector,
    ir: Ir | None,
    limits: LexLimits | None = None,
    dump_name: str | None = None,
) -> Ir:
    """Lex and parse one dump; with metrics live, split lex/object time.

    The lexer feeds the object parser through a generator, so their work is
    interleaved; :func:`~repro.obs.timed_iter` charges the generator's
    production time to a ``lex`` sub-span of the enclosing span (the
    registry's ``parse/<irr>``) — the remainder of that span is object and
    policy construction.

    ``dump_name`` marks file ingestion: truncation detection is on, and a
    read failure (corrupt compressed data, I/O errors mid-read) keeps what
    parsed before the damage and records ``UNREADABLE_INPUT`` against it.
    """
    registry = get_registry()
    before = len(errors)
    paragraphs = split_dump(stream, limits=limits, detect_truncation=dump_name is not None)
    if registry.enabled:
        paragraphs = timed_iter(paragraphs, registry.spans, "lex")
    if ir is None:
        ir = Ir()
    try:
        collect_into_ir(paragraphs, source, errors, ir)
    except _READ_ERRORS as exc:  # only a file's stream can raise these
        errors.record(
            ErrorKind.UNREADABLE_INPUT,
            "dump",
            dump_name,
            source,
            f"unreadable input, kept what parsed before the damage: {exc}",
        )
    if registry.enabled:
        registry.counter("parse_errors_total", irr=source or "?").inc(len(errors) - before)
    return ir


def parse_dump_text(
    text: str,
    source: str = "",
    errors: ErrorCollector | None = None,
    ir: Ir | None = None,
    limits: LexLimits | None = None,
) -> tuple[Ir, ErrorCollector]:
    """Parse an in-memory dump into an IR.

    ``source`` tags every produced object with its registry name; ``ir`` may
    be supplied to accumulate several dumps into one IR.  In-memory text is
    trusted to be complete, so truncation detection stays off (a missing
    trailing newline in a Python string is a formatting quirk, not damage).
    """
    if errors is None:
        errors = ErrorCollector()
    ir = _collect(io.StringIO(text), source, errors, ir, limits=limits)
    return ir, errors


def _is_gzip(path: Path) -> bool:
    if path.suffix == ".gz":
        return True
    try:
        with open(path, "rb") as probe:
            return probe.read(2) == _GZIP_MAGIC
    except OSError:
        return False


def _open_dump(path: Path) -> IO[str]:
    """Open a dump for text reading, decompressing gzip transparently."""
    if _is_gzip(path):
        return gzip.open(path, "rt", encoding="utf-8", errors="replace")
    return open(path, encoding="utf-8", errors="replace")


def parse_dump_file(
    path: str | Path,
    source: str = "",
    errors: ErrorCollector | None = None,
    ir: Ir | None = None,
    limits: LexLimits | None = None,
) -> tuple[Ir, ErrorCollector]:
    """Parse a dump file from disk, streaming line by line.

    ``.gz`` dumps (by suffix or magic bytes) are decompressed on the fly.
    Unreadable files — garbage where gzip data should be, undecodable
    bytes, I/O errors mid-read — record an ``UNREADABLE_INPUT`` issue and
    return whatever parsed up to the damage instead of raising.
    """
    if errors is None:
        errors = ErrorCollector()
    path = Path(path)
    name = path.name
    source = source or name.removesuffix(".gz").rsplit(".", 1)[0].upper()
    try:
        stream = _open_dump(path)
    except OSError as exc:
        errors.record(
            ErrorKind.UNREADABLE_INPUT, "dump", name, source, f"cannot open: {exc}"
        )
        return (ir if ir is not None else Ir()), errors
    with stream:
        ir = _collect(stream, source, errors, ir, limits=limits, dump_name=name)
    return ir, errors
