"""AS-path regular expressions (RFC 2622 Section 5.4).

An RPSL *filter* may contain an AS-path regex delimited by angle brackets,
e.g. ``<^AS13911 AS6327+$>``.  Atoms are ASNs, ASN ranges (``AS1-AS5``),
*as-set* names, the ``PeerAS`` keyword, the ``.`` wildcard, and character
sets ``[...]`` (possibly complemented ``[^...]``).  Postfix operators are
``* + ?``, bounded repetitions ``{n}``/``{n,m}``/``{n,}``, and the
same-pattern variants prefixed with ``~``.

This module parses the regex into an AST and unparses it back; the symbolic
matcher that evaluates it against observed AS-paths (Appendix B of the
paper) lives in :mod:`repro.core.aspath_match`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.rpsl.errors import RpslSyntaxError

__all__ = [
    "AsPathRegexNode",
    "ReAsn",
    "ReAsnRange",
    "ReAsSet",
    "RePeerAs",
    "ReWildcard",
    "ReCharSet",
    "ReAlt",
    "ReSeq",
    "ReRepeat",
    "ReBegin",
    "ReEnd",
    "parse_as_path_regex",
    "iter_regex_nodes",
    "regex_flags",
]

_ASN_RE = re.compile(r"^AS(\d+)$", re.IGNORECASE)
_ASN_RANGE_RE = re.compile(r"^AS(\d+)-AS(\d+)$", re.IGNORECASE)
_WORD_CHARS = re.compile(r"[A-Za-z0-9:_-]")
_BOUND_RE = re.compile(r"^(\d+)(?:(,)(\d*))?$")


class AsPathRegexNode:
    """Base class for AS-path regex AST nodes."""

    __slots__ = ()

    def to_rpsl(self) -> str:
        """Render this node back to RPSL regex syntax."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class ReAsn(AsPathRegexNode):
    """A literal ASN atom, e.g. ``AS6327``."""

    asn: int

    def to_rpsl(self) -> str:
        return f"AS{self.asn}"


@dataclass(frozen=True, slots=True)
class ReAsnRange(AsPathRegexNode):
    """An ASN range atom, e.g. ``AS64512-AS65534`` (rare; skip-listed)."""

    low: int
    high: int

    def to_rpsl(self) -> str:
        return f"AS{self.low}-AS{self.high}"


@dataclass(frozen=True, slots=True)
class ReAsSet(AsPathRegexNode):
    """An *as-set* atom: matches any member AS of the (flattened) set."""

    name: str

    def to_rpsl(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class RePeerAs(AsPathRegexNode):
    """The ``PeerAS`` keyword: the neighbor AS the route came from."""

    def to_rpsl(self) -> str:
        return "PeerAS"


@dataclass(frozen=True, slots=True)
class ReWildcard(AsPathRegexNode):
    """The ``.`` wildcard: matches any single AS."""

    def to_rpsl(self) -> str:
        return "."


@dataclass(frozen=True, slots=True)
class ReCharSet(AsPathRegexNode):
    """A character-set atom ``[...]`` / ``[^...]`` over AS atoms."""

    items: tuple[AsPathRegexNode, ...]
    complemented: bool = False

    def to_rpsl(self) -> str:
        inner = " ".join(item.to_rpsl() for item in self.items)
        caret = "^" if self.complemented else ""
        return f"[{caret}{inner}]"


@dataclass(frozen=True, slots=True)
class ReAlt(AsPathRegexNode):
    """Alternation ``a | b | c``."""

    options: tuple[AsPathRegexNode, ...]

    def to_rpsl(self) -> str:
        return "(" + " | ".join(option.to_rpsl() for option in self.options) + ")"


@dataclass(frozen=True, slots=True)
class ReSeq(AsPathRegexNode):
    """Concatenation of parts."""

    parts: tuple[AsPathRegexNode, ...]

    def to_rpsl(self) -> str:
        return " ".join(part.to_rpsl() for part in self.parts)


@dataclass(frozen=True, slots=True)
class ReRepeat(AsPathRegexNode):
    """A postfix repetition.  ``high is None`` means unbounded.

    ``same_pattern`` marks the ``~``-prefixed operators (``~+``, ``~{2,3}``)
    that require every repetition to match the *same* AS; the paper leaves
    them as future work and skips rules containing them.
    """

    inner: AsPathRegexNode
    low: int
    high: int | None
    same_pattern: bool = False

    def to_rpsl(self) -> str:
        inner = self.inner.to_rpsl()
        if isinstance(self.inner, (ReSeq, ReAlt)) and not isinstance(self.inner, ReAlt):
            inner = f"({inner})"
        tilde = "~" if self.same_pattern else ""
        if (self.low, self.high) == (0, None):
            return f"{inner}{tilde}*"
        if (self.low, self.high) == (1, None):
            return f"{inner}{tilde}+"
        if (self.low, self.high) == (0, 1) and not self.same_pattern:
            return f"{inner}?"
        if self.high is None:
            return f"{inner}{tilde}{{{self.low},}}"
        if self.high == self.low:
            return f"{inner}{tilde}{{{self.low}}}"
        return f"{inner}{tilde}{{{self.low},{self.high}}}"


@dataclass(frozen=True, slots=True)
class ReBegin(AsPathRegexNode):
    """The ``^`` anchor (start of AS-path)."""

    def to_rpsl(self) -> str:
        return "^"


@dataclass(frozen=True, slots=True)
class ReEnd(AsPathRegexNode):
    """The ``$`` anchor (end of AS-path, i.e. the origin side)."""

    def to_rpsl(self) -> str:
        return "$"


class _RegexLexer:
    """Character-level cursor over the regex body."""

    def __init__(self, text: str):
        self.text = text
        self.index = 0

    def skip_spaces(self) -> None:
        while self.index < len(self.text) and self.text[self.index].isspace():
            self.index += 1

    def peek(self) -> str:
        self.skip_spaces()
        if self.index < len(self.text):
            return self.text[self.index]
        return ""

    def peek_raw(self) -> str:
        """Next character without skipping whitespace (postfix ops bind tight)."""
        if self.index < len(self.text):
            return self.text[self.index]
        return ""

    def advance(self) -> str:
        char = self.peek()
        if char:
            self.index += 1
        return char

    def word(self) -> str:
        self.skip_spaces()
        start = self.index
        while self.index < len(self.text) and _WORD_CHARS.match(self.text[self.index]):
            self.index += 1
        if start == self.index:
            raise RpslSyntaxError(
                f"expected AS atom at offset {self.index} in regex {self.text!r}"
            )
        return self.text[start : self.index]


def _atom_from_word(word: str) -> AsPathRegexNode:
    range_match = _ASN_RANGE_RE.match(word)
    if range_match is not None:
        low, high = int(range_match.group(1)), int(range_match.group(2))
        if high < low:
            raise RpslSyntaxError(f"inverted ASN range {word!r}")
        return ReAsnRange(low, high)
    asn_match = _ASN_RE.match(word)
    if asn_match is not None:
        return ReAsn(int(asn_match.group(1)))
    if word.lower() == "peeras":
        return RePeerAs()
    upper = word.upper()
    if any(component.startswith("AS-") for component in upper.split(":")) or upper.startswith("AS-"):
        return ReAsSet(upper)
    raise RpslSyntaxError(f"unrecognized AS-path atom {word!r}")


def _parse_char_set(lexer: _RegexLexer) -> ReCharSet:
    complemented = False
    if lexer.peek() == "^":
        lexer.advance()
        complemented = True
    items: list[AsPathRegexNode] = []
    while True:
        char = lexer.peek()
        if char == "]":
            lexer.advance()
            break
        if not char:
            raise RpslSyntaxError("unterminated character set in AS-path regex")
        if char == ".":
            lexer.advance()
            items.append(ReWildcard())
            continue
        items.append(_atom_from_word(lexer.word()))
    return ReCharSet(tuple(items), complemented)


def _parse_bound(lexer: _RegexLexer) -> tuple[int, int | None]:
    start = lexer.index
    end = lexer.text.find("}", start)
    if end < 0:
        raise RpslSyntaxError("unterminated {n,m} bound in AS-path regex")
    body = lexer.text[start:end].replace(" ", "")
    lexer.index = end + 1
    match = _BOUND_RE.match(body)
    if match is None:
        raise RpslSyntaxError(f"invalid repetition bound {{{body}}}")
    low = int(match.group(1))
    if match.group(2) is None:
        return low, low
    if match.group(3):
        high = int(match.group(3))
        if high < low:
            raise RpslSyntaxError(f"inverted repetition bound {{{body}}}")
        return low, high
    return low, None


def _parse_postfix(lexer: _RegexLexer, atom: AsPathRegexNode) -> AsPathRegexNode:
    while True:
        char = lexer.peek_raw()
        if char == "*":
            lexer.advance()
            atom = ReRepeat(atom, 0, None)
        elif char == "+":
            lexer.advance()
            atom = ReRepeat(atom, 1, None)
        elif char == "?":
            lexer.advance()
            atom = ReRepeat(atom, 0, 1)
        elif char == "{":
            lexer.advance()
            low, high = _parse_bound(lexer)
            atom = ReRepeat(atom, low, high)
        elif char == "~":
            lexer.advance()
            operator = lexer.peek_raw()
            if operator == "*":
                lexer.advance()
                atom = ReRepeat(atom, 0, None, same_pattern=True)
            elif operator == "+":
                lexer.advance()
                atom = ReRepeat(atom, 1, None, same_pattern=True)
            elif operator == "{":
                lexer.advance()
                low, high = _parse_bound(lexer)
                atom = ReRepeat(atom, low, high, same_pattern=True)
            else:
                raise RpslSyntaxError(f"invalid ~ operator in regex at offset {lexer.index}")
        else:
            return atom


def _parse_concat(lexer: _RegexLexer) -> AsPathRegexNode:
    parts: list[AsPathRegexNode] = []
    while True:
        char = lexer.peek()
        if char in ("", ")", "|"):
            break
        if char == "^":
            lexer.advance()
            parts.append(ReBegin())
            continue
        if char == "$":
            lexer.advance()
            parts.append(ReEnd())
            continue
        if char == ".":
            lexer.advance()
            parts.append(_parse_postfix(lexer, ReWildcard()))
            continue
        if char == "[":
            lexer.advance()
            parts.append(_parse_postfix(lexer, _parse_char_set(lexer)))
            continue
        if char == "(":
            lexer.advance()
            inner = _parse_alternation(lexer)
            if lexer.advance() != ")":
                raise RpslSyntaxError("unbalanced parenthesis in AS-path regex")
            parts.append(_parse_postfix(lexer, inner))
            continue
        parts.append(_parse_postfix(lexer, _atom_from_word(lexer.word())))
    if len(parts) == 1:
        return parts[0]
    return ReSeq(tuple(parts))


def _parse_alternation(lexer: _RegexLexer) -> AsPathRegexNode:
    options = [_parse_concat(lexer)]
    while lexer.peek() == "|":
        lexer.advance()
        options.append(_parse_concat(lexer))
    if len(options) == 1:
        return options[0]
    return ReAlt(tuple(options))


def parse_as_path_regex(text: str) -> AsPathRegexNode:
    """Parse an AS-path regex, with or without the ``<`` ``>`` delimiters."""
    body = text.strip()
    if body.startswith("<") and body.endswith(">"):
        body = body[1:-1]
    lexer = _RegexLexer(body)
    node = _parse_alternation(lexer)
    lexer.skip_spaces()
    if lexer.index != len(lexer.text):
        raise RpslSyntaxError(
            f"trailing characters in AS-path regex: {lexer.text[lexer.index:]!r}"
        )
    return node


def iter_regex_nodes(node: AsPathRegexNode):
    """Depth-first iteration over every node of an AS-path regex AST."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, ReRepeat):
            stack.append(current.inner)
        elif isinstance(current, ReSeq):
            stack.extend(current.parts)
        elif isinstance(current, ReAlt):
            stack.extend(current.options)
        elif isinstance(current, ReCharSet):
            stack.extend(current.items)


def regex_flags(node: AsPathRegexNode) -> tuple[bool, bool]:
    """Return ``(has_asn_range, has_same_pattern_op)`` for skip accounting.

    These are the two AS-path constructs the paper leaves unhandled (58
    rules total across the IRRs); the verifier classifies rules containing
    them as *skip* unless support is explicitly enabled.
    """
    has_range = False
    has_same_pattern = False
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ReAsnRange):
            has_range = True
        elif isinstance(current, ReRepeat):
            if current.same_pattern:
                has_same_pattern = True
            stack.append(current.inner)
        elif isinstance(current, (ReSeq, ReAlt)):
            stack.extend(current.parts if isinstance(current, ReSeq) else current.options)
        elif isinstance(current, ReCharSet):
            stack.extend(current.items)
    return has_range, has_same_pattern
