"""Symbolic AS-path regex matching (Appendix B of the paper).

To match an AS-path regex R against an observed AS-path A:

1. every distinct *AS token* in R (an ASN, an as-set, ``PeerAS``, or an ASN
   range) is assigned a private-use-plane symbol character, and R is
   compiled into a Python :mod:`re` pattern over those symbols (``.``
   wildcards stay ``.``; ``[...]`` sets become character classes);
2. each ASN n in A maps to the set N of symbols whose token matches n,
   plus a universal *other* symbol ω (so wildcards and complemented
   classes can match ASes no token names);
3. the Cartesian product of the per-position symbol sets yields candidate
   symbol strings; A matches R iff any candidate matches the compiled
   pattern.

The product is capped: beyond :attr:`AsPathMatcher.product_cap` candidate
strings the matcher samples deterministically and flags the evaluation as
approximate (real-world paths essentially never get there — positions
rarely map to more than two symbols).

Same-pattern operators (``~+``) compile to back-references, and ASN ranges
get their own symbols, so both *can* be evaluated — but the verifier skips
rules containing them by default, matching the paper's accounting.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from repro.core.query import QueryEngine
from repro.rpsl.aspath import (
    AsPathRegexNode,
    ReAlt,
    ReAsn,
    ReAsnRange,
    ReAsSet,
    ReBegin,
    ReCharSet,
    ReEnd,
    RePeerAs,
    ReRepeat,
    ReSeq,
    ReWildcard,
)

__all__ = ["CompiledAsPathRegex", "AsPathMatcher", "AsPathMatchResult", "compile_regex"]

_SYMBOL_BASE = 0xE000  # Unicode private use area


@dataclass(frozen=True, slots=True)
class AsPathMatchResult:
    """Outcome of one regex evaluation."""

    matched: bool
    approximate: bool = False
    unrecorded_sets: tuple[str, ...] = ()
    # How many candidate symbol strings were tried before matching (or
    # exhausting the product) — surfaced in decision traces.
    candidates_tried: int = 0


@dataclass(slots=True)
class CompiledAsPathRegex:
    """A regex compiled to symbols: the pattern plus the token table."""

    pattern: re.Pattern
    tokens: tuple[AsPathRegexNode, ...]
    symbols: dict[AsPathRegexNode, str]
    other_symbol: str


class _Compiler:
    def __init__(self) -> None:
        self.symbols: dict[AsPathRegexNode, str] = {}
        self.group_count = 0

    def _symbol(self, token: AsPathRegexNode) -> str:
        symbol = self.symbols.get(token)
        if symbol is None:
            symbol = chr(_SYMBOL_BASE + len(self.symbols))
            self.symbols[token] = symbol
        return symbol

    def build(self, node: AsPathRegexNode) -> str:
        """Recursively translate the AST into a Python regex string."""
        if isinstance(node, (ReAsn, ReAsSet, RePeerAs, ReAsnRange)):
            return self._symbol(node)
        if isinstance(node, ReWildcard):
            return "."
        if isinstance(node, ReBegin):
            return "^"
        if isinstance(node, ReEnd):
            return "$"
        if isinstance(node, ReCharSet):
            wildcard = any(isinstance(item, ReWildcard) for item in node.items)
            symbols = "".join(
                self._symbol(item) for item in node.items if not isinstance(item, ReWildcard)
            )
            if node.complemented:
                if wildcard:
                    return "(?!x)x"  # [^ . ...] can never match
                return f"[^{symbols}]" if symbols else "."
            if wildcard:
                return "."
            return f"[{symbols}]" if symbols else "(?!x)x"
        if isinstance(node, ReSeq):
            return "".join(self.build(part) for part in node.parts)
        if isinstance(node, ReAlt):
            return "(?:" + "|".join(self.build(option) for option in node.options) + ")"
        if isinstance(node, ReRepeat):
            return self._build_repeat(node)
        raise TypeError(f"unknown AS-path regex node {node!r}")

    def _build_repeat(self, node: ReRepeat) -> str:
        inner = self.build(node.inner)
        low, high = node.low, node.high
        if node.same_pattern:
            # ~+ / ~{n,m}: every repetition must be the *same* AS, which for
            # symbol strings means the same character: use a back-reference.
            self.group_count += 1
            group = self.group_count
            tail_low = max(low - 1, 0)
            tail = f"\\{group}{{{tail_low},{'' if high is None else high - 1}}}"
            body = f"({inner}){tail}"
            if low == 0:
                return f"(?:{body})?"
            return body
        if (low, high) == (0, None):
            return f"(?:{inner})*"
        if (low, high) == (1, None):
            return f"(?:{inner})+"
        if (low, high) == (0, 1):
            return f"(?:{inner})?"
        bound = f"{{{low},{'' if high is None else high}}}" if high != low else f"{{{low}}}"
        return f"(?:{inner}){bound}"


def compile_regex(node: AsPathRegexNode) -> CompiledAsPathRegex:
    """Lower a regex AST to a symbol pattern (raises if ``re`` refuses it)."""
    compiler = _Compiler()
    pattern_text = compiler.build(node)
    return CompiledAsPathRegex(
        pattern=re.compile(pattern_text),
        tokens=tuple(compiler.symbols),
        symbols=dict(compiler.symbols),
        other_symbol=chr(_SYMBOL_BASE + len(compiler.symbols)),
    )


class AsPathMatcher:
    """Evaluates AS-path regexes against observed paths via a QueryEngine.

    Programs come from the engine's compiled index, read in place; a regex
    the index does not hold (one that could not be lowered, or an ad-hoc
    filter's) is lowered per evaluation and never stored.
    """

    def __init__(self, query: QueryEngine, product_cap: int = 65536):
        self.query = query
        self.product_cap = product_cap
        self._compiled = query.index.aspath_regexes

    def compile(self, node: AsPathRegexNode) -> CompiledAsPathRegex:
        """The regex's program: the index's, else lowered now."""
        compiled = self._compiled.get(node)
        return compiled if compiled is not None else compile_regex(node)

    def _token_matches(
        self, token: AsPathRegexNode, asn: int, peer_asn: int, unrecorded: set[str]
    ) -> bool:
        if isinstance(token, ReAsn):
            return token.asn == asn
        if isinstance(token, RePeerAs):
            return asn == peer_asn
        if isinstance(token, ReAsnRange):
            return token.low <= asn <= token.high
        if isinstance(token, ReAsSet):
            resolution = self.query.flatten_as_set(token.name)
            if not resolution.recorded:
                unrecorded.add(token.name)
            if resolution.contains_any:
                return True
            return asn in resolution.members
        return False

    def match(
        self, node: AsPathRegexNode, as_path: tuple[int, ...], peer_asn: int
    ) -> AsPathMatchResult:
        """Match an AS-path (neighbor-first, origin-last) against the regex."""
        compiled = self.compile(node)
        unrecorded: set[str] = set()
        position_symbols: list[str] = []
        other_base = ord(compiled.other_symbol)
        other_by_asn: dict[int, str] = {}
        for asn in as_path:
            symbols = [
                compiled.symbols[token]
                for token in compiled.tokens
                if self._token_matches(token, asn, peer_asn, unrecorded)
            ]
            if not symbols:
                # ω_i: an AS no token names — matched only by wildcards and
                # complemented classes.  It must not be offered for ASes a
                # token *does* name, or "[^AS1]" would falsely match AS1;
                # and each distinct unnamed ASN gets its own ω so that
                # same-pattern back-references can tell them apart.
                other = other_by_asn.get(asn)
                if other is None:
                    other = chr(other_base + len(other_by_asn))
                    other_by_asn[asn] = other
                symbols.append(other)
            position_symbols.append("".join(symbols))

        total = 1
        approximate = False
        for symbols in position_symbols:
            total *= len(symbols)
            if total > self.product_cap:
                approximate = True
                break

        candidates = itertools.product(*position_symbols)
        if approximate:
            candidates = itertools.islice(candidates, self.product_cap)
        search = compiled.pattern.search
        tried = 0
        for candidate in candidates:
            tried += 1
            if search("".join(candidate)) is not None:
                return AsPathMatchResult(
                    True, approximate, tuple(sorted(unrecorded)), tried
                )
        return AsPathMatchResult(False, approximate, tuple(sorted(unrecorded)), tried)
