"""The regex tokenizer against the character loop it replaced.

``reference_tokenize`` is the pre-rewrite ``repro.rpsl.tokens.tokenize``,
verbatim.  Both are driven with rendered policy ASTs (the strategies of
``test_property_roundtrip``) and with arbitrary text — Unicode whitespace,
lone ``<``, stray ``>`` — and must agree on every (kind, text, position)
or raise the same error.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from test_property_roundtrip import filters, peerings

from repro.rpsl.errors import RpslSyntaxError
from repro.rpsl.policy import PeeringAction, PolicyFactor, PolicyTerm
from repro.rpsl.tokens import Token, TokenKind, tokenize

_PUNCT = {
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    ";": "SEMI",
    ",": "COMMA",
}


def reference_tokenize(text: str) -> list[Token]:
    """Tokenize a policy/filter/peering expression string."""
    tokens: list[Token] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char in _PUNCT:
            tokens.append(Token(TokenKind(_PUNCT[char]), char, index))
            index += 1
            continue
        if char == "<":
            end = text.find(">", index + 1)
            if end < 0:
                raise RpslSyntaxError(f"unterminated AS-path regex at offset {index}")
            tokens.append(Token(TokenKind.REGEX, text[index : end + 1], index))
            index = end + 1
            continue
        start = index
        while index < length and not text[index].isspace() and text[index] not in _PUNCT and text[index] != "<":
            index += 1
        tokens.append(Token(TokenKind.WORD, text[start:index], start))
    return tokens


def _outcome(function, text: str):
    try:
        return [(token.kind, token.text, token.position) for token in function(text)]
    except RpslSyntaxError as exc:
        return ("raises", str(exc))


def assert_same_tokens(text: str) -> None:
    assert _outcome(tokenize, text) == _outcome(reference_tokenize, text)


_policies = st.builds(
    lambda pairs, kind: PolicyTerm(
        tuple(PolicyFactor((PeeringAction(p),), f) for p, f in pairs), braced=len(pairs) > 1
    ).to_rpsl(kind),
    st.lists(st.tuples(peerings, filters), min_size=1, max_size=3),
    st.sampled_from(["import", "export"]),
)

# Every Unicode whitespace class the two notions of "space" could split on,
# plus the characters the tokenizer treats specially.
_SPECIAL = list("{}();,<>^+- \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u202f\u205f\u3000\u200b\ufeff")
_odd_text = st.lists(
    st.one_of(st.sampled_from(_SPECIAL), st.text(max_size=4), st.sampled_from(["AS1", "<^AS1$>", "pref=1"])),
    max_size=30,
).map("".join)


@given(st.one_of(_policies, filters.map(lambda f: f.to_rpsl()), peerings.map(lambda p: p.to_rpsl())))
@settings(max_examples=300)
def test_rendered_asts_tokenize_alike(text):
    assert_same_tokens(text)


@given(st.one_of(_odd_text, st.text(max_size=60)))
@settings(max_examples=500)
def test_arbitrary_text_tokenizes_alike(text):
    assert_same_tokens(text)


def test_named_edges():
    for text in ("", " ", "<", "a <", "<a", ">", "a>b", "<>", "<<a>", "a<b>c", "{<a b>}",
                 "x\xa0y", "x\u200by", "<a\nb>", "a<b", "AS1 < AS2 >", "pref=1;}"):
        assert_same_tokens(text)
