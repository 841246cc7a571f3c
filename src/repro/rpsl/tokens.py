"""Tokenizer for RPSL policy expressions.

The values of ``import``/``export`` attributes — and the peering, action,
and filter expressions inside them — share one lexical structure:

* punctuation ``{ } ( ) ; ,`` are single-character tokens,
* ``<...>`` is one token (an AS-path regular expression),
* everything else whitespace-separated is a *word* (``AS174``,
  ``AS-FOO^+``, ``pref=100``, ``192.0.2.0/24^24-28``, ``community.delete``).

Keyword comparisons are case-insensitive, as required by RFC 2622.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from repro.rpsl.errors import RpslSyntaxError

__all__ = ["TokenKind", "Token", "tokenize", "TokenStream"]


class TokenKind(Enum):
    """Lexical categories of policy-expression tokens."""

    WORD = "word"
    REGEX = "regex"
    LBRACE = "LBRACE"
    RBRACE = "RBRACE"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    SEMI = "SEMI"
    COMMA = "COMMA"


class Token(NamedTuple):
    """One token with its source offset (for error messages)."""

    kind: TokenKind
    text: str
    position: int

    def is_keyword(self, *keywords: str) -> bool:
        """Case-insensitive keyword test; only WORD tokens can be keywords."""
        return self.kind is TokenKind.WORD and self.text.lower() in keywords


# One alternative per token shape: punctuation, a ``<...>`` regex, a ``<``
# that never closes, a word.  Whitespace is what no alternative matches.
_TOKEN_RE = re.compile(r"[{}();,]|<[^>]*>|<|[^\s{}();,<]+")
# The kind of a token by its first character; anything else is a word.
_KIND_OF = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    "<": TokenKind.REGEX,
}


def tokenize(text: str) -> list[Token]:
    """Tokenize a policy/filter/peering expression string."""
    tokens: list[Token] = []
    make = Token._make
    kind_of = _KIND_OF.get
    word = TokenKind.WORD
    for match in _TOKEN_RE.finditer(text):
        token = match.group()
        if token == "<":
            raise RpslSyntaxError(f"unterminated AS-path regex at offset {match.start()}")
        tokens.append(make((kind_of(token[0], word), token, match.start())))
    return tokens


class TokenStream:
    """Cursor over a token list with the peek/next/expect trio."""

    __slots__ = ("tokens", "index")

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0

    @classmethod
    def of(cls, text: str) -> "TokenStream":
        """Tokenize ``text`` and wrap the result."""
        return cls(tokenize(text))

    def peek(self, ahead: int = 0) -> Token | None:
        """The token ``ahead`` positions from the cursor, or None at EOF."""
        position = self.index + ahead
        if position < len(self.tokens):
            return self.tokens[position]
        return None

    def next(self) -> Token:
        """Consume and return the next token; raise at EOF."""
        token = self.peek()
        if token is None:
            raise RpslSyntaxError("unexpected end of expression")
        self.index += 1
        return token

    def expect(self, kind: TokenKind) -> Token:
        """Consume the next token, requiring the given kind."""
        token = self.next()
        if token.kind is not kind:
            raise RpslSyntaxError(
                f"expected {kind.value}, found {token.text!r} at offset {token.position}"
            )
        return token

    def at_keyword(self, *keywords: str) -> bool:
        """Whether the next token is one of the given keywords."""
        token = self.peek()
        return token is not None and token.is_keyword(*keywords)

    def take_keyword(self, *keywords: str) -> bool:
        """Consume the next token if it is one of the keywords."""
        if self.at_keyword(*keywords):
            self.index += 1
            return True
        return False

    def exhausted(self) -> bool:
        """Whether the cursor is at EOF."""
        return self.index >= len(self.tokens)

    def rest_text(self) -> str:
        """The remaining tokens re-joined (used in error messages)."""
        return " ".join(token.text for token in self.tokens[self.index :])
