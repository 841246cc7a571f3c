"""Parsing of ``import``/``export`` rules, including Structured Policies.

This is the top of the RPSL expression grammar (RFC 2622 Section 6,
RFC 4012 for the ``mp-`` multiprotocol variants):

.. code-block:: text

    rule        := [protocol <p>] [into <p>] [afi <afi-list>] policy-expr
    policy-expr := policy-term
                 | policy-term EXCEPT [afi <afi-list>] policy-expr
                 | policy-term REFINE [afi <afi-list>] policy-expr
    policy-term := '{' (factor ';')* '}' | factor [';']
    factor      := peering-action+ (accept | announce) filter
    peering-action := (from | to) peering [action action-list]

``import`` rules use ``from``/``accept``; ``export`` rules use
``to``/``announce``.  A factor may carry several peering-action pairs that
share one filter (the AS8323 example in the paper's appendix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.net.afi import Afi, AfiError
from repro.rpsl.action import ActionItem, parse_action_tokens
from repro.rpsl.errors import RpslSyntaxError
from repro.rpsl.filter import Filter, parse_filter
from repro.rpsl.peering import Peering, parse_peering
from repro.rpsl.tokens import Token, TokenKind, TokenStream

__all__ = [
    "PeeringAction",
    "PolicyFactor",
    "PolicyTerm",
    "PolicyExcept",
    "PolicyRefine",
    "PolicyExpr",
    "PolicyRule",
    "DefaultRule",
    "parse_policy",
    "parse_default",
]

_FACTOR_KEYWORDS = ("from", "to", "action", "accept", "announce")
_OPERATOR_KEYWORDS = ("except", "refine")

_Node = TypeVar("_Node")


@dataclass(frozen=True, slots=True)
class PeeringAction:
    """One ``from``/``to`` clause: a peering plus its optional actions."""

    peering: Peering
    actions: tuple[ActionItem, ...] = ()

    def to_rpsl(self, direction: str) -> str:
        """Render as a ``from``/``to`` clause with its actions."""
        text = f"{direction} {self.peering.to_rpsl()}"
        if self.actions:
            actions = "; ".join(action.to_rpsl() for action in self.actions)
            text += f" action {actions};"
        return text


@dataclass(frozen=True, slots=True)
class PolicyFactor:
    """Peering-action pairs sharing one filter."""

    peerings: tuple[PeeringAction, ...]
    filter: Filter

    def to_rpsl(self, kind: str) -> str:
        """Render the factor for an import or export rule."""
        direction = "from" if kind == "import" else "to"
        verb = "accept" if kind == "import" else "announce"
        clauses = " ".join(pa.to_rpsl(direction) for pa in self.peerings)
        return f"{clauses} {verb} {self.filter.to_rpsl()}"


@dataclass(frozen=True, slots=True)
class PolicyTerm:
    """A policy term: one factor, or a braced group of factors."""

    factors: tuple[PolicyFactor, ...]
    braced: bool = False

    def to_rpsl(self, kind: str) -> str:
        """Render the term (braced when it groups several factors)."""
        if self.braced:
            inner = " ".join(f"{factor.to_rpsl(kind)};" for factor in self.factors)
            return f"{{ {inner} }}"
        return self.factors[0].to_rpsl(kind)


@dataclass(frozen=True, slots=True)
class PolicyExcept:
    """``term EXCEPT [afi ...] rest`` — the rest overrides matching routes."""

    term: PolicyTerm
    afis: tuple[Afi, ...]
    rest: "PolicyExpr"

    def to_rpsl(self, kind: str) -> str:
        """Render ``term EXCEPT [afi ...] rest``."""
        afi_text = _afi_text(self.afis)
        return f"{self.term.to_rpsl(kind)} EXCEPT {afi_text}{_expr_rpsl(self.rest, kind)}"


@dataclass(frozen=True, slots=True)
class PolicyRefine:
    """``term REFINE [afi ...] rest`` — routes must match both sides."""

    term: PolicyTerm
    afis: tuple[Afi, ...]
    rest: "PolicyExpr"

    def to_rpsl(self, kind: str) -> str:
        """Render ``term REFINE [afi ...] rest``."""
        afi_text = _afi_text(self.afis)
        return f"{self.term.to_rpsl(kind)} REFINE {afi_text}{_expr_rpsl(self.rest, kind)}"


PolicyExpr = PolicyTerm | PolicyExcept | PolicyRefine


def _afi_text(afis: tuple[Afi, ...]) -> str:
    if not afis:
        return ""
    return "afi " + ", ".join(str(afi) for afi in afis) + " "


def _expr_rpsl(expr: PolicyExpr, kind: str) -> str:
    return expr.to_rpsl(kind)


@dataclass(frozen=True, slots=True)
class PolicyRule:
    """One fully parsed ``import``/``export``/``mp-import``/``mp-export``."""

    kind: str  # "import" or "export"
    expr: PolicyExpr
    afis: tuple[Afi, ...] = ()
    protocol: str | None = None
    into_protocol: str | None = None
    multiprotocol: bool = False
    raw: str = field(default="", compare=False)

    @property
    def attribute_name(self) -> str:
        """The RPSL attribute this rule belongs under."""
        return f"mp-{self.kind}" if self.multiprotocol else self.kind

    def effective_afis(self) -> tuple[Afi, ...]:
        """The address families this rule covers.

        A non-multiprotocol rule is implicitly IPv4 unicast; an ``mp-`` rule
        with no afi list covers any family (RFC 4012 defaults to any).
        """
        if self.afis:
            return self.afis
        if self.multiprotocol:
            return (Afi(),)
        return (Afi.IPV4_UNICAST,)

    def to_rpsl(self) -> str:
        """Render the whole rule (attribute value, without the name)."""
        parts: list[str] = []
        if self.protocol:
            parts.append(f"protocol {self.protocol}")
        if self.into_protocol:
            parts.append(f"into {self.into_protocol}")
        if self.afis:
            parts.append(_afi_text(self.afis).strip())
        parts.append(_expr_rpsl(self.expr, self.kind))
        return " ".join(parts)


@dataclass(frozen=True, slots=True)
class DefaultRule:
    """A ``default:`` attribute (RFC 2622 Section 6.5).

    ``default: to <peering> [action <actions>] [networks <filter>]`` —
    the AS defaults traffic toward the peering; ``networks`` limits the
    destinations the default covers.
    """

    peering: Peering
    actions: tuple[ActionItem, ...] = ()
    networks: Filter | None = None
    afis: tuple[Afi, ...] = ()
    multiprotocol: bool = False
    raw: str = field(default="", compare=False)

    def to_rpsl(self) -> str:
        """Render the default rule (attribute value, without the name)."""
        parts = []
        if self.afis:
            parts.append(_afi_text(self.afis).strip())
        parts.append(f"to {self.peering.to_rpsl()}")
        if self.actions:
            actions = "; ".join(action.to_rpsl() for action in self.actions)
            parts.append(f"action {actions};")
        if self.networks is not None:
            parts.append(f"networks {self.networks.to_rpsl()}")
        return " ".join(parts)


def parse_default(text: str, multiprotocol: bool = False, memo: dict | None = None) -> DefaultRule:
    """Parse the value of a ``default``/``mp-default`` attribute.

    ``memo`` is the same per-ingest table :func:`parse_policy` takes.
    """
    stream = TokenStream.of(text)
    afis: tuple[Afi, ...] = ()
    if stream.take_keyword("afi"):
        afis = _parse_afi_list(stream)
    if not stream.take_keyword("to"):
        raise RpslSyntaxError("default rule must start with 'to'")
    peering_tokens = _slice_until(stream, ("action", "networks"), ())
    if not peering_tokens:
        raise RpslSyntaxError("empty peering in default rule")
    peering = _parse_once(parse_peering, peering_tokens, memo)
    actions: tuple[ActionItem, ...] = ()
    if stream.take_keyword("action"):
        actions = parse_action_tokens(_slice_until(stream, ("networks",), ()))
    networks: Filter | None = None
    if stream.take_keyword("networks"):
        networks = parse_filter(stream)
    if not stream.exhausted():
        raise RpslSyntaxError(f"trailing tokens in default rule: {stream.rest_text()!r}")
    return DefaultRule(
        peering=peering,
        actions=actions,
        networks=networks,
        afis=afis,
        multiprotocol=multiprotocol,
        raw=text,
    )


def _slice_until(
    stream: TokenStream, stop_keywords: tuple[str, ...], stop_kinds: tuple[TokenKind, ...]
) -> list[Token]:
    """Collect tokens until a stop keyword/kind at bracket depth zero.

    The stopping token is *not* consumed.
    """
    collected: list[Token] = []
    depth = 0
    while True:
        token = stream.peek()
        if token is None:
            return collected
        if depth == 0:
            if token.kind in stop_kinds:
                return collected
            if token.kind is TokenKind.WORD and token.text.lower() in stop_keywords:
                return collected
        if token.kind in (TokenKind.LPAREN, TokenKind.LBRACE):
            depth += 1
        elif token.kind in (TokenKind.RPAREN, TokenKind.RBRACE):
            if depth == 0:
                return collected
            depth -= 1
        collected.append(stream.next())


def _parse_afi_list(stream: TokenStream) -> tuple[Afi, ...]:
    """Parse a comma-separated afi list following the ``afi`` keyword."""
    afis: list[Afi] = []
    expecting = True
    while True:
        token = stream.peek()
        if token is None:
            break
        if token.kind is TokenKind.COMMA:
            stream.next()
            expecting = True
            continue
        if not expecting or token.kind is not TokenKind.WORD:
            break
        had_comma = token.text.endswith(",")
        try:
            afis.append(Afi.parse(token.text))
        except AfiError as exc:
            if not afis:
                raise RpslSyntaxError(str(exc)) from exc
            break
        stream.next()
        expecting = had_comma
    if not afis:
        raise RpslSyntaxError("empty afi list")
    return tuple(afis)


def _parse_once(
    parse: Callable[[TokenStream], _Node], tokens: list[Token], memo: dict | None
) -> _Node:
    """``parse`` a sub-expression, or share the node the same tokens gave before.

    The key is the token texts joined by single spaces, which tokenizes
    back to the same tokens; the nodes are frozen, so sharing one between
    rules is safe.  A failure raises as usual and is never stored: every
    bad occurrence is parsed, and reported, on its own.
    """
    if memo is None:
        return parse(TokenStream(tokens))
    key = (parse, " ".join([token.text for token in tokens]))
    node = memo.get(key)
    if node is None:
        node = memo[key] = parse(TokenStream(tokens))
    return node


def _parse_factor(stream: TokenStream, kind: str, memo: dict | None) -> PolicyFactor:
    direction = "from" if kind == "import" else "to"
    wrong_direction = "to" if kind == "import" else "from"
    verb = "accept" if kind == "import" else "announce"
    wrong_verb = "announce" if kind == "import" else "accept"

    peerings: list[PeeringAction] = []
    while True:
        token = stream.peek()
        if token is None:
            raise RpslSyntaxError(f"missing '{verb}' in {kind} rule")
        if token.is_keyword(wrong_direction):
            raise RpslSyntaxError(
                f"'{wrong_direction}' keyword is invalid in an {kind} rule"
            )
        if not token.is_keyword(direction):
            break
        stream.next()
        peering_tokens = _slice_until(stream, _FACTOR_KEYWORDS, ())
        if not peering_tokens:
            raise RpslSyntaxError(f"empty peering after '{direction}'")
        peering = _parse_once(parse_peering, peering_tokens, memo)
        actions: tuple[ActionItem, ...] = ()
        if stream.take_keyword("action"):
            action_tokens = _slice_until(stream, _FACTOR_KEYWORDS, ())
            actions = parse_action_tokens(action_tokens)
        peerings.append(PeeringAction(peering, actions))

    if not peerings:
        token = stream.peek()
        found = token.text if token is not None else "end of rule"
        raise RpslSyntaxError(f"expected '{direction}', found {found!r}")

    token = stream.peek()
    if token is not None and token.is_keyword(wrong_verb):
        raise RpslSyntaxError(f"'{wrong_verb}' keyword is invalid in an {kind} rule")
    if token is None or not token.is_keyword(verb):
        found = token.text if token is not None else "end of rule"
        raise RpslSyntaxError(f"expected '{verb}', found {found!r}")
    stream.next()
    filter_tokens = _slice_until(stream, _OPERATOR_KEYWORDS, (TokenKind.SEMI,))
    if not filter_tokens:
        raise RpslSyntaxError(f"empty filter after '{verb}'")
    return PolicyFactor(tuple(peerings), _parse_once(parse_filter, filter_tokens, memo))


def _parse_term(stream: TokenStream, kind: str, memo: dict | None) -> PolicyExpr:
    """Parse a term; braces may also enclose a whole nested expression.

    RFC 2622 §6.6 writes nested Structured Policies with the operator
    *inside* the braces (``except { <factor>; except { ... } }``), so a
    braced group that runs into EXCEPT/REFINE closes its factors into a
    term and continues as an expression.
    """
    token = stream.peek()
    if token is not None and token.kind is TokenKind.LBRACE:
        stream.next()
        factors: list[PolicyFactor] = []
        while True:
            token = stream.peek()
            if token is None:
                raise RpslSyntaxError("unterminated '{' in structured policy")
            if token.kind is TokenKind.RBRACE:
                stream.next()
                break
            if token.kind is TokenKind.SEMI:
                stream.next()
                continue
            if token.is_keyword("except", "refine") and factors:
                operator = stream.next().text.lower()
                afis = _parse_afi_list(stream) if stream.take_keyword("afi") else ()
                rest = _parse_expr(stream, kind, memo)
                stream.expect(TokenKind.RBRACE)
                left = PolicyTerm(tuple(factors), braced=True)
                if operator == "except":
                    return PolicyExcept(left, afis, rest)
                return PolicyRefine(left, afis, rest)
            factors.append(_parse_factor(stream, kind, memo))
        if not factors:
            raise RpslSyntaxError("empty structured policy term")
        return PolicyTerm(tuple(factors), braced=True)
    factor = _parse_factor(stream, kind, memo)
    while stream.peek() is not None and stream.peek().kind is TokenKind.SEMI:
        stream.next()
    return PolicyTerm((factor,), braced=False)


def _parse_expr(stream: TokenStream, kind: str, memo: dict | None) -> PolicyExpr:
    term = _parse_term(stream, kind, memo)
    if not isinstance(term, PolicyTerm):
        # the braces already contained a full nested expression
        return term
    if stream.take_keyword("except"):
        afis = _parse_afi_list(stream) if stream.take_keyword("afi") else ()
        return PolicyExcept(term, afis, _parse_expr(stream, kind, memo))
    if stream.take_keyword("refine"):
        afis = _parse_afi_list(stream) if stream.take_keyword("afi") else ()
        return PolicyRefine(term, afis, _parse_expr(stream, kind, memo))
    return term


def parse_policy(
    kind: str, text: str, multiprotocol: bool = False, memo: dict | None = None
) -> PolicyRule:
    """Parse the value of an ``import``/``export`` (or ``mp-``) attribute.

    ``kind`` must be ``"import"`` or ``"export"``.  Raises
    :class:`~repro.rpsl.errors.RpslSyntaxError` on malformed input; the
    object-level parser converts that into a recorded issue.

    ``memo`` — one dict per ingest, owned by the caller — makes each
    distinct filter and peering parse once: later rules with the same
    tokens share the first one's node.
    """
    if kind not in ("import", "export"):
        raise ValueError(f"kind must be 'import' or 'export', not {kind!r}")
    stream = TokenStream.of(text)
    protocol = None
    into_protocol = None
    if stream.take_keyword("protocol"):
        protocol = stream.expect(TokenKind.WORD).text
    if stream.take_keyword("into"):
        into_protocol = stream.expect(TokenKind.WORD).text
    afis: tuple[Afi, ...] = ()
    if stream.take_keyword("afi"):
        afis = _parse_afi_list(stream)
    expr = _parse_expr(stream, kind, memo)
    if not stream.exhausted():
        raise RpslSyntaxError(f"trailing tokens in {kind} rule: {stream.rest_text()!r}")
    return PolicyRule(
        kind=kind,
        expr=expr,
        afis=afis,
        protocol=protocol,
        into_protocol=into_protocol,
        multiprotocol=multiprotocol,
        raw=text,
    )
