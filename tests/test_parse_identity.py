"""Parse identity: the dump lexer and the policy parser, pinned.

``ir_digest`` names an IR everywhere else (index cache, warm open, the
serve daemon's ``/healthz``), so a change to the lexer or the expression
parsers that moves it is a format change, not a speed-up.  The digest and
the rendered issue list of an edge-case corpus were captured at e302132,
before the one-pass lexer, the regex tokenizer and the per-ingest parse
memo, and are pinned here for both ingestion paths (in-memory text and a
file, plain and gzip), with default and with deliberately small
:class:`~repro.rpsl.lexer.LexLimits`.
"""

import gzip

import pytest
from test_ir_codec import TINY_WORLD_DIGEST

from repro import api
from repro.irr.dump import parse_dump_file, parse_dump_text
from repro.irr.registry import parse_registry_dir
from repro.rpsl.lexer import LexLimits

# CRLF endings, continuations by space / tab / "+", "#" inside a
# continuation, a "%" remark mid-paragraph, stray lines, upper-case
# attribute names, empty values, repeated and repeated-malformed filters
# and peerings, and every routing class.
EDGE_CORPUS = (
    "% server banner\r\n"
    "\r\n"
    "aut-num:        AS64500\r\n"
    "as-name:        EDGE-ONE\r\n"
    "IMPORT:         from AS64501 accept AS-CUST\r\n"
    "import:         from AS64502\r\n"
    "                action pref=10;\r\n"
    "\taccept AS-CUST # a comment inside the rule\r\n"
    "export:         to AS64501\r\n"
    "+announce AS64500\r\n"
    "% a remark inside the object\r\n"
    "mp-import:      afi ipv6.unicast from AS64501 accept <^AS64501+$>\r\n"
    "export:         to AS64501 announce {192.0.2.0/24^+, 198.51.100.0/24}\r\n"
    "default:        to AS64501 action pref=100; networks ANY\r\n"
    "remarks:\r\n"
    "!!! out-of-place text\r\n"
    " continuation of nothing\r\n"
    "MNT-BY:         MAINT-ONE, maint-two\r\n"
    "\r\n"
    "aut-num:        AS64501\r\n"
    "as-name:\r\n"
    "import:         from AS64500 accept AS-CUST\r\n"
    "import:         from AS64500 accept AS-CUST AND {\r\n"
    "import:         from AS64500 accept FLTR-BAD^+\r\n"
    "export:         to AS64500 announce AS64501\r\n"
    "export:         to AS64500 from AS64502 announce ANY\r\n"
    "member-of:      AS-EDGE\r\n"
    "\r\n"
    "aut-num:        AS64502\r\n"
    "import:         from AS64500 accept AS-CUST AND {\r\n"
    "import:         from AS64500 accept AS-CUST\r\n"
    "import:         { from AS64500 accept ANY; } REFINE from AS64500 accept AS-CUST\r\n"
    "export:         protocol BGP4 into OSPF to AS64500 announce AS64502\r\n"
    "default:        to AS64500\r\n"
    "default:        networks ANY\r\n"
    "\r\n"
    "aut-num:        ASX\r\n"
    "\r\n"
    "AS-SET:         AS-CUST\r\n"
    "members:        AS64500, AS64501,\r\n"
    "                AS-EDGE  # nested\r\n"
    "members:\r\n"
    "members:        ANY, 10.0.0.0/8\r\n"
    "mbrs-by-ref:    MAINT-ONE\r\n"
    "\r\n"
    "as-set:         AS64500:AS-EDGE:AS64501\r\n"
    "as-set:         AS-SECOND-KEY\r\n"
    "\r\n"
    "as-set:         AS64500\r\n"
    "\r\n"
    "route-set:      RS-EDGE\r\n"
    "members:        192.0.2.0/24^24-26, AS64500^+, RS-OTHER, 300.0.0.0/8, junk\r\n"
    "mp-members:     2001:db8::/32^+\r\n"
    "\r\n"
    "route:          192.0.2.0/24\r\n"
    "origin:         AS64500\r\n"
    "member-of:      RS-EDGE\r\n"
    "\r\n"
    "route6:         2001:db8::/32\r\n"
    "origin:         AS64501 # trailing comment\r\n"
    "\r\n"
    "route:          198.51.100.0/24\r\n"
    "\r\n"
    "route:          not-a-prefix\r\n"
    "origin:         AS64500\r\n"
    "\r\n"
    "peering-set:    PRNG-EDGE\r\n"
    "peering:        AS64500 at 192.0.2.1\r\n"
    "peering:        AS64500 at 192.0.2.1\r\n"
    "mp-peering:     AS64501 AND (AS64502 OR AS-CUST)\r\n"
    "peering:        AS64500 at\r\n"
    "\r\n"
    "filter-set:     FLTR-EDGE\r\n"
    "filter:         AS-CUST AND NOT {0.0.0.0/0}\r\n"
    "\r\n"
    "filter-set:     FLTR-EMPTY\r\n"
    "\r\n"
    "person:         Not Routing\r\n"
    "\r\n"
    "stray first line\r\n"
    "aut-num:        AS64503\r\n"
    "\r\n"
    "aut-num:        AS64504\r\n"
    "as-name:        CUT-SHORT\r\n"
    "import:         from AS64500 accept ANY"  # no final newline
)

# Each LexLimits cap overrun once under ``SMALL_LIMITS``; the objects
# around them must survive.
SMALL_LIMITS = LexLimits(max_object_lines=6, max_object_bytes=400, max_line_bytes=120)
LIMITS_CORPUS = (
    "aut-num: AS64510\n"
    "import: from AS64511 accept ANY\n"
    "\n"
    "as-set: AS-TOO-MANY-LINES\n"
    + "".join(f"members: AS{64520 + n}\n" for n in range(8))
    + "\n"
    "as-set: AS-TOO-MANY-BYTES\n"
    + "".join(f"members: {', '.join(f'AS{64600 + n * 10 + k}' for k in range(9))}\n" for n in range(5))
    + "\n"
    "route-set: RS-TOO-LONG-A-LINE\n"
    "members: " + ", ".join(f"10.{n}.0.0/16" for n in range(12)) + "\n"
    "\n"
    "aut-num: AS64512 " + "x" * 200 + "\n"
    "as-name: FIRST-LINE-OVER-CAP\n"
    "\n"
    "route: 192.0.2.0/24\n"
    "origin: AS64510\n"
)

# -- captured at e302132 ---------------------------------------------------------

EDGE_ISSUES = [
    "[syntax] aut-num AS64500 (EDGE): out-of-place text: '!!! out-of-place text'",
    "[syntax] aut-num AS64500 (EDGE): out-of-place text: 'continuation of nothing'",
    "[syntax] aut-num AS64501 (EDGE): unexpected end of expression",
    "[syntax] aut-num AS64501 (EDGE): range operator not allowed on filter-set 'FLTR-BAD'",
    "[syntax] aut-num AS64501 (EDGE): 'from' keyword is invalid in an export rule",
    "[syntax] aut-num AS64502 (EDGE): unexpected end of expression",
    "[syntax] aut-num AS64502 (EDGE): default rule must start with 'to'",
    "[invalid-asn] aut-num ASX (EDGE): invalid AS number: 'ASX'",
    "[reserved-name] as-set AS-CUST (EDGE): reserved keyword 'ANY' used as a member",
    "[syntax] as-set AS-CUST (EDGE): invalid as-set member '10.0.0.0/8'",
    "[invalid-as-set-name] as-set AS64500 (EDGE): invalid as-set name",
    "[invalid-prefix] route-set RS-EDGE (EDGE): invalid prefix: '300.0.0.0/8'",
    "[syntax] route-set RS-EDGE (EDGE): invalid route-set member 'junk'",
    "[syntax] route 198.51.100.0/24 (EDGE): route object without origin",
    "[invalid-prefix] route not-a-prefix (EDGE): invalid prefix: 'not-a-prefix'",
    "[syntax] peering-set PRNG-EDGE (EDGE): 'at' with no router expression in peering",
    "[syntax] filter-set FLTR-EMPTY (EDGE): filter-set without filter",
    "[syntax] aut-num AS64503 (EDGE): out-of-place text: 'stray first line'",
]
# A file's unterminated last line is damage; a string's is formatting.
EDGE_FILE_ISSUES = EDGE_ISSUES + [
    "[truncated] aut-num AS64504 (EDGE): dump ended mid-object; dropped the partial paragraph"
]
_DROPPED = "object exceeded the per-paragraph size cap; dropped"
LIMITS_ISSUES = [
    f"[oversized] as-set AS-TOO-MANY-LINES (EDGE): {_DROPPED}",
    f"[oversized] as-set AS-TOO-MANY-BYTES (EDGE): {_DROPPED}",
    f"[oversized] route-set RS-TOO-LONG-A-LINE (EDGE): {_DROPPED}",
    f"[oversized] aut-num AS64512 {'x' * 103} (EDGE): {_DROPPED}",  # cut at max_line_bytes
]
EDGE_TEXT_DIGEST = "5dbff999af933b5b32ea77ea4c8e55562640a8bdfa41d2a0f08909f3ae041aac"
EDGE_FILE_DIGEST = "36191260b34831ea16da206e9121c27f5a4c4953e893210649b09f10286c6a63"
LIMITS_DIGEST = "29ce55d4cd454cdba255bc5c8f2ad8ce4e6dddde633d23ce5d5983f7df547a1a"

PINS = {
    "edge/text": (EDGE_TEXT_DIGEST, EDGE_ISSUES),
    "edge/file": (EDGE_FILE_DIGEST, EDGE_FILE_ISSUES),
    "edge/gzip": (EDGE_FILE_DIGEST, EDGE_FILE_ISSUES),
    "limits/text": (LIMITS_DIGEST, LIMITS_ISSUES),
    "limits/file": (LIMITS_DIGEST, LIMITS_ISSUES),
    "limits/gzip": (LIMITS_DIGEST, LIMITS_ISSUES),
}


def _outcome(ir, errors) -> tuple[str, list[str]]:
    return api.ir_digest(ir), [str(issue) for issue in errors.issues]


def _parse(name: str, tmp_path) -> tuple[str, list[str]]:
    corpus, limits = (LIMITS_CORPUS, SMALL_LIMITS) if name.startswith("limits") else (EDGE_CORPUS, None)
    path = name.split("/")[1]
    if path == "text":
        return _outcome(*parse_dump_text(corpus, "EDGE", limits=limits))
    if path == "gzip":
        dump = tmp_path / "edge.db.gz"
        with gzip.open(dump, "wb") as stream:
            stream.write(corpus.encode("utf-8"))
    else:
        dump = tmp_path / "edge.db"
        dump.write_bytes(corpus.encode("utf-8"))
    return _outcome(*parse_dump_file(dump, "EDGE", limits=limits))


@pytest.mark.parametrize("name", sorted(PINS))
def test_parse_is_pinned(name, tmp_path):
    digest, issues = _parse(name, tmp_path)
    pinned_digest, pinned_issues = PINS[name]
    assert issues == pinned_issues
    assert digest == pinned_digest


def test_the_tiny_world_from_disk_is_the_pinned_ir(tiny_world_dir):
    assert api.ir_digest(parse_registry_dir(tiny_world_dir).merged()) == TINY_WORLD_DIGEST
