"""The dump lexer as it was before the one-pass rewrite, kept as an oracle.

A generator chain: ``_track_termination`` -> ``iter_paragraphs`` (group
lines, apply the caps) -> ``_lex_stream`` (one-paragraph lookahead) ->
``lex_paragraph`` (fold continuations of the buffered lines).  Verbatim
except that the two ``LexLimits`` predicates it called (since removed) are
inlined; ``tests/test_lexer.py`` drives
:func:`repro.rpsl.lexer.split_dump` against :func:`reference_split_dump`.
Attribute names keep their case here.  One deliberate difference is *not*
reproduced by the oracle: the production lexer flags ``truncated`` only
when the stream's unterminated last line belongs to the final paragraph.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, TextIO

from repro.rpsl.lexer import DEFAULT_LIMITS, Attribute, LexLimits, RpslParagraph

_ATTR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_-]*):(.*)$")


def strip_comment(line: str) -> str:
    """Remove a trailing ``# ...`` comment."""
    position = line.find("#")
    if position < 0:
        return line
    return line[:position]


def iter_paragraphs(
    lines: Iterable[str], limits: LexLimits | None = None
) -> Iterator[tuple[int, list[str], bool]]:
    """Group raw dump lines into ``(first_line_number, lines, oversized)``."""
    if limits is None:
        limits = DEFAULT_LIMITS
    block: list[str] = []
    block_start = 0
    block_bytes = 0
    block_lines = 0
    oversized = False
    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if line.startswith("%"):
            continue
        if not line.strip():
            if block:
                yield block_start, block, oversized
                block = []
                block_bytes = 0
                block_lines = 0
                oversized = False
            continue
        if not block:
            block_start = number
        block_lines += 1
        block_bytes += len(line) + 1
        if oversized:
            continue  # drain the oversized paragraph without buffering
        if len(line) > limits.max_line_bytes:
            line = line[: limits.max_line_bytes]
            oversized = True
        if block_lines > limits.max_object_lines or block_bytes > limits.max_object_bytes:
            oversized = True
        if oversized:
            del block[1:]
            if not block:
                block.append(line)
            continue
        block.append(line)
    if block:
        yield block_start, block, oversized


def lex_paragraph(block_start: int, lines: list[str]) -> RpslParagraph:
    """Turn one paragraph's lines into attributes, folding continuations."""
    paragraph = RpslParagraph(first_line=block_start)
    current_name: str | None = None
    current_parts: list[str] = []

    def flush() -> None:
        nonlocal current_name, current_parts
        if current_name is not None:
            value = " ".join(part for part in current_parts if part)
            paragraph.attributes.append(Attribute(current_name, value.strip()))
        current_name = None
        current_parts = []

    for line in lines:
        if line[:1] in (" ", "\t", "+") and current_name is not None:
            # Continuation line; "+" means "continue with empty first column".
            continuation = line[1:] if line[0] == "+" else line
            current_parts.append(strip_comment(continuation).strip())
            continue
        match = _ATTR_RE.match(line)
        if match is None:
            flush()
            paragraph.stray_lines.append(line)
            continue
        flush()
        current_name = match.group(1)
        current_parts = [strip_comment(match.group(2)).strip()]
    flush()
    return paragraph


def _track_termination(stream: Iterable[str], state: dict) -> Iterator[str]:
    """Pass lines through, remembering whether the last one ended in ``\\n``."""
    for raw in stream:
        state["terminated"] = raw.endswith("\n")
        yield raw


def reference_split_dump(
    stream: TextIO | Iterable[str],
    limits: LexLimits | None = None,
    detect_truncation: bool = False,
) -> Iterator[RpslParagraph]:
    """The old ``_lex_stream``: paragraphs with a one-paragraph lookahead."""
    state = {"terminated": True}
    lines: Iterable[str] = (
        _track_termination(stream, state) if detect_truncation else stream
    )
    previous: RpslParagraph | None = None
    for block_start, block, oversized in iter_paragraphs(lines, limits):
        if previous is not None:
            yield previous
        previous = lex_paragraph(block_start, block)
        previous.oversized = oversized
    if previous is not None:
        if detect_truncation and not state["terminated"]:
            previous.truncated = True
        yield previous
