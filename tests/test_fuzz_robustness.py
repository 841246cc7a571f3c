"""Fuzz tests: the parsers must never crash on arbitrary input.

Registry dumps contain operator-typed text; the contract is that the
object parsers record issues and keep going, and the expression parsers
raise :class:`RpslSyntaxError` (never anything else) on garbage.  On top
of free-form text, the chaos mutators supply *structured* damage —
truncation and binary splices over realistic dumps and TABLE_DUMP2 /
BGP4MP text — so the fuzzer also exercises the almost-valid neighborhood
real corruption lives in.

Example counts follow the loaded hypothesis profile (see
``tests/conftest.py``): ``HYPOTHESIS_PROFILE=nightly`` raises them in the
scheduled CI run.
"""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.table import parse_table_text
from repro.bgp.updates import parse_update_text
from chaos.mutators import corrupt_table, splice_binary, truncate_mid_paragraph
from repro.irr.dump import parse_dump_text
from repro.rpsl.errors import RpslSyntaxError
from repro.rpsl.lexer import split_dump
from repro.rpsl.policy import parse_default, parse_policy

# Text biased toward RPSL-looking tokens so the fuzzer reaches deep paths.
_TOKENS = (
    list("abcdefgzAS0123456789-:./^+*?~$(){};,<>| \n\t#%=")
    + ["from ", "to ", "accept ", "announce ", "action ", "AS-", "AS1 ",
       "ANY ", "REFINE ", "EXCEPT ", "afi ", "ipv4", "pref=10; ", "<^AS1$>"]
)
rpsl_ish = st.lists(st.sampled_from(_TOKENS), max_size=60).map("".join)


@given(rpsl_ish)
@settings(max_examples=300)
def test_policy_parser_total(text):
    for kind in ("import", "export"):
        try:
            rule = parse_policy(kind, text)
        except RpslSyntaxError:
            continue
        # Success must yield a renderable, re-parseable rule.
        rendered = rule.to_rpsl()
        assert parse_policy(kind, rendered, multiprotocol=True).to_rpsl() == rendered


@given(rpsl_ish)
@settings(max_examples=150)
def test_default_parser_total(text):
    try:
        rule = parse_default(text)
    except RpslSyntaxError:
        return
    assert rule.to_rpsl()


@given(st.text(max_size=400))
@settings(max_examples=200)
def test_dump_parser_never_raises(text):
    ir, errors = parse_dump_text(text, "FUZZ")
    # Every produced aut-num must be internally consistent.
    for asn, aut_num in ir.aut_nums.items():
        assert aut_num.asn == asn


@given(rpsl_ish)
@settings(max_examples=200)
def test_dump_parser_never_raises_rpsl_ish(text):
    dump = f"aut-num: AS1\nimport: {text}\n\nas-set: AS-X\nmembers: {text}\n"
    ir, errors = parse_dump_text(dump, "FUZZ")
    assert 1 in ir.aut_nums or errors.issues


@given(st.text(max_size=300))
@settings(max_examples=200)
def test_lexer_total(text):
    paragraphs = list(split_dump(io.StringIO(text)))
    for paragraph in paragraphs:
        assert paragraph.attributes or paragraph.stray_lines


@given(st.text(alphabet="TABLEDUMP2BGP4MW|0123456789./: abc{},", max_size=200))
@settings(max_examples=200)
def test_table_and_update_parsers_total(text):
    for entry in parse_table_text(text):
        assert entry.as_path or entry.as_set
    for update in parse_update_text(text):
        assert update.kind in ("A", "W")


# -- structured damage: the chaos mutators over realistic inputs -------------

_DUMP = (
    "aut-num:        AS64500\n"
    "import:         from AS64501 accept ANY\n"
    "export:         to AS64501 announce AS64500\n\n"
    "as-set:         AS-FUZZ\n"
    "members:        AS64500, AS64501\n\n"
    "route:          192.0.2.0/24\n"
    "origin:         AS64500\n"
) * 3

_TABLE = "\n".join(
    f"TABLE_DUMP2|1696000000|B|rrc00|64500|10.{i}.0.0/16|64500 6450{i % 10}|IGP"
    for i in range(24)
) + "\n"

_UPDATES = "\n".join(
    f"BGP4MP|1696000000|A|rrc00|64500|10.{i}.0.0/16|64500 6450{i % 10}|IGP"
    if i % 3
    else f"BGP4MP|1696000000|W|rrc00|64500|10.{i}.0.0/16"
    for i in range(24)
) + "\n"


@given(st.integers(min_value=0, max_value=len(_DUMP)))
def test_dump_truncated_at_any_offset_never_raises(cut):
    ir, errors = parse_dump_text(_DUMP[:cut], "FUZZ")
    for asn, aut_num in ir.aut_nums.items():
        assert aut_num.asn == asn


@given(st.randoms(use_true_random=False))
def test_dump_binary_splice_never_raises(rng):
    text = splice_binary(rng, _DUMP).decode("utf-8", errors="replace")
    ir, errors = parse_dump_text(text, "FUZZ")
    for asn, aut_num in ir.aut_nums.items():
        assert aut_num.asn == asn


@given(st.randoms(use_true_random=False))
def test_dump_truncation_mutator_never_raises(rng):
    text = truncate_mid_paragraph(rng, _DUMP).decode("utf-8", errors="replace")
    ir, errors = parse_dump_text(text, "FUZZ")
    assert sum(ir.counts().values()) <= 9  # never *more* objects than clean


@given(st.randoms(use_true_random=False), st.integers(min_value=0, max_value=2))
def test_corrupted_table_and_updates_never_raise(rng, flavor):
    for clean, parser in ((_TABLE, parse_table_text), (_UPDATES, parse_update_text)):
        damaged = corrupt_table(rng, clean)
        if flavor == 1:
            damaged = splice_binary(rng, damaged.decode("utf-8", errors="replace"))
        elif flavor == 2:
            damaged = damaged[: rng.randrange(len(damaged) + 1)]
        text = damaged.decode("utf-8", errors="replace")
        for record in parser(text):
            assert record is not None
