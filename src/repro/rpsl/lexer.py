"""Object-level lexing of RPSL dump files.

An IRR dump is a sequence of *paragraphs* separated by blank lines.  Each
paragraph is one RPSL object: a list of ``attribute: value`` lines, where a
value continues onto the next line if that line starts with whitespace or a
``+`` (RFC 2622 Section 2).  ``#`` starts a comment running to end of line;
lines starting with ``%`` are server remarks (IRRd/whois chatter) and are
ignored.

This module is deliberately tolerant: anything that does not look like an
attribute line becomes a *stray line*, which the object parsers report as a
syntax error — mirroring how RPSLyzer counts "out-of-place text".

Two ingestion hazards are handled here rather than upstream (see
``docs/robustness.md``):

* **oversized paragraphs** — an operator-typed (or hostile) dump can hold
  a multi-megabyte single object; :class:`LexLimits` caps the lines and
  bytes buffered per paragraph.  An over-cap paragraph keeps only its
  first line (so the object class and key survive for the error report),
  is flagged ``oversized``, and is dropped by the object parsers with an
  ``OVERSIZED`` :class:`~repro.rpsl.errors.ErrorKind`;
* **truncated dumps** — a download cut off mid-object ends with an
  unterminated line.  With ``detect_truncation`` enabled (file ingestion
  turns it on; in-memory text does not), the final paragraph of such a
  stream is flagged ``truncated`` and dropped with a ``TRUNCATED`` issue
  instead of silently producing a half-parsed object — but only when that
  unterminated line belongs to it: a trailing ``%`` remark or blank line
  cut short leaves the complete object before it alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, TextIO

__all__ = [
    "Attribute",
    "LexLimits",
    "DEFAULT_LIMITS",
    "RpslParagraph",
    "split_dump",
]

# Attribute names: letters, digits, hyphens; must start with a letter
# (RFC 2622 allows leading digits in practice for e.g. "*xxte" IRRd metadata,
# which we exclude on purpose).
_ATTR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_-]*):(.*)$")


class Attribute(NamedTuple):
    """One ``name: value`` pair: the name lower-cased, comments stripped, lines joined."""

    name: str
    value: str


@dataclass(frozen=True, slots=True)
class LexLimits:
    """Per-paragraph buffering caps applied while lexing a dump.

    Defaults are far above anything a legitimate registry object reaches
    (the largest real-world objects are sets with tens of thousands of
    members, well under a megabyte) while still bounding what one
    paragraph can make the lexer hold in memory.
    """

    max_object_lines: int = 100_000
    max_object_bytes: int = 16 << 20  # 16 MiB of buffered paragraph text
    max_line_bytes: int = 1 << 20  # one attribute line


DEFAULT_LIMITS = LexLimits()


@dataclass(slots=True)
class RpslParagraph:
    """One raw object: its attributes plus any stray (non-attribute) lines.

    ``oversized`` marks a paragraph whose body blew the :class:`LexLimits`
    caps (only its first line was kept); ``truncated`` marks the final
    paragraph of a stream that ended mid-line.  Both are dropped by
    :func:`~repro.rpsl.objects.collect_into_ir` with a recorded issue.
    """

    attributes: list[Attribute] = field(default_factory=list)
    stray_lines: list[str] = field(default_factory=list)
    first_line: int = 0
    oversized: bool = False
    truncated: bool = False

    @property
    def object_class(self) -> str:
        """The class (first attribute name, lower-case); '' if empty."""
        return self.attributes[0].name if self.attributes else ""

    @property
    def object_name(self) -> str:
        """The object key (first attribute value), whitespace-normalized."""
        return self.attributes[0].value.strip() if self.attributes else ""

    def get(self, name: str) -> str | None:
        """First value of the attribute ``name`` (lower-case), or None."""
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute.value
        return None

    def get_all(self, *names: str) -> list[Attribute]:
        """All attributes named any of ``names`` (lower-case), in order."""
        return [attribute for attribute in self.attributes if attribute.name in names]


def _keep_first_line(paragraph: RpslParagraph, line: str) -> None:
    """Reduce an over-cap paragraph to what its first line lexes to."""
    paragraph.oversized = True
    paragraph.attributes.clear()
    paragraph.stray_lines.clear()
    match = _ATTR_RE.match(line)
    if match is None:
        paragraph.stray_lines.append(line)
    else:
        paragraph.attributes.append(Attribute(match[1].lower(), match[2].partition("#")[0].strip()))


def _fold(attributes: list[Attribute], parts: list[str]) -> None:
    """Give the last attribute the value its continuation lines fold to."""
    attributes[-1] = Attribute(attributes[-1].name, " ".join(parts))


def split_dump(
    stream: TextIO | Iterable[str],
    limits: LexLimits | None = None,
    detect_truncation: bool = False,
) -> Iterator[RpslParagraph]:
    """Lex a whole dump file (or any iterable of lines) into paragraphs.

    One loop over the lines: server remarks (``%``) are skipped, a blank
    line closes the paragraph, continuation lines (leading whitespace or
    ``+``; comments cut) fold into the attribute above, anything else is
    an attribute or a stray line.  Attribute names are lower-cased here,
    once.  Line numbers are 1-based.

    ``limits`` caps per-paragraph buffering (default
    :data:`DEFAULT_LIMITS`): an over-cap paragraph is reduced to its first
    line and the rest of it is read without being kept, so a hostile
    multi-megabyte object costs one line of memory.  ``detect_truncation``
    flags the final paragraph when the stream's last line is one of its
    own and has no newline — file-based ingestion enables it, in-memory
    parsing (where a missing trailing newline is a formatting quirk, not
    damage) does not.  An exception from ``stream`` ends the input: the
    paragraph open at that point is still yielded, then the exception
    propagates.

    When a metrics registry is live, object, attribute and stray-line
    counts are folded in once at exhaustion.
    """
    from repro.obs import get_registry

    registry = get_registry()
    if limits is None:
        limits = DEFAULT_LIMITS
    max_lines = limits.max_object_lines
    max_bytes = limits.max_object_bytes
    max_line = limits.max_line_bytes
    match_attribute = _ATTR_RE.match
    make_attribute = Attribute._make
    paragraphs = attribute_count = stray_count = 0
    paragraph: RpslParagraph | None = None
    attributes: list[Attribute] = []
    strays: list[str] = []
    first = raw = ""
    lines = size = 0
    oversized = False
    open_attribute = False  # whether a continuation line folds into attributes[-1]
    parts: list[str] | None = None  # that attribute's value parts, once it has continuations
    failure: Exception | None = None
    try:
        try:
            for number, raw in enumerate(stream, 1):
                line = raw.rstrip("\n").rstrip("\r")
                if line[:1] == "%":
                    continue
                if not line or line.isspace():
                    if paragraph is not None:
                        if parts is not None:
                            _fold(attributes, parts)
                            parts = None
                        paragraphs += 1
                        attribute_count += len(attributes)
                        stray_count += len(strays)
                        yield paragraph
                        paragraph = None
                    continue
                if paragraph is None:
                    paragraph = RpslParagraph(first_line=number)
                    attributes = paragraph.attributes
                    strays = paragraph.stray_lines
                    first = line
                    lines = size = 0
                    oversized = open_attribute = False
                lines += 1
                size += len(line) + 1
                if oversized:
                    continue  # drain the over-cap paragraph without keeping it
                if len(line) > max_line or lines > max_lines or size > max_bytes:
                    _keep_first_line(paragraph, line[:max_line] if lines == 1 else first)
                    oversized = True
                    parts = None
                    continue
                if open_attribute and line[0] in " \t+":
                    # "+" continues with an empty first column.
                    part = (line[1:] if line[0] == "+" else line).partition("#")[0].strip()
                    if part:
                        if parts is None:
                            parts = [attributes[-1].value] if attributes[-1].value else []
                        parts.append(part)
                    continue
                if parts is not None:
                    _fold(attributes, parts)
                    parts = None
                match = match_attribute(line)
                if match is None:
                    strays.append(line)
                    open_attribute = False
                else:
                    attributes.append(
                        make_attribute((match[1].lower(), match[2].partition("#")[0].strip()))
                    )
                    open_attribute = True
        except Exception as exc:  # noqa: BLE001 - re-raised once the open paragraph is out
            failure = exc
        if paragraph is not None:
            if parts is not None:
                _fold(attributes, parts)
            if detect_truncation and not raw.endswith("\n") and raw[:1] != "%":
                paragraph.truncated = True
            paragraphs += 1
            attribute_count += len(attributes)
            stray_count += len(strays)
            yield paragraph
        if failure is not None:
            raise failure
    finally:
        if registry.enabled:
            registry.counter("lex_objects_total").inc(paragraphs)
            registry.counter("lex_attributes_total").inc(attribute_count)
            registry.counter("lex_stray_lines_total").inc(stray_count)
