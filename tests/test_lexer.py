"""Tests for the dump lexer: paragraphs, continuations, comments, damage."""

import gzip
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lexer_reference import reference_split_dump

from repro.irr.dump import parse_dump_file
from repro.rpsl.errors import ErrorKind
from repro.rpsl.lexer import LexLimits, split_dump


def lex(text: str):
    return list(split_dump(io.StringIO(text)))


class TestParagraphSplitting:
    def test_two_objects(self):
        paragraphs = lex("aut-num: AS1\nas-name: ONE\n\nroute: 10.0.0.0/8\norigin: AS1\n")
        assert len(paragraphs) == 2
        assert paragraphs[0].object_class == "aut-num"
        assert paragraphs[1].object_class == "route"

    def test_blank_lines_collapsed(self):
        paragraphs = lex("aut-num: AS1\n\n\n\nroute: 10.0.0.0/8\norigin: AS1\n")
        assert len(paragraphs) == 2

    def test_server_remarks_ignored(self):
        paragraphs = lex("% RIPE header\n% more\n\naut-num: AS1\n")
        assert len(paragraphs) == 1
        assert paragraphs[0].object_name == "AS1"

    def test_empty_input(self):
        assert lex("") == []
        assert lex("\n\n\n") == []


class TestAttributeLexing:
    def test_value_whitespace_normalized(self):
        paragraph = lex("aut-num:     AS1   \n")[0]
        assert paragraph.object_name == "AS1"

    def test_continuation_with_space(self):
        paragraph = lex("import: from AS1\n  accept ANY\n")[0]
        assert paragraph.attributes[0].value == "from AS1 accept ANY"

    def test_continuation_with_plus(self):
        paragraph = lex("import: from AS1\n+accept ANY\n")[0]
        assert paragraph.attributes[0].value == "from AS1 accept ANY"

    def test_continuation_with_tab(self):
        paragraph = lex("import: from AS1\n\taccept ANY\n")[0]
        assert paragraph.attributes[0].value == "from AS1 accept ANY"

    def test_comment_stripped(self):
        paragraph = lex("import: from AS1 accept ANY # trust them\n")[0]
        assert paragraph.attributes[0].value == "from AS1 accept ANY"

    def test_comment_in_continuation(self):
        paragraph = lex("import: from AS1 # peer\n  accept ANY # all\n")[0]
        assert paragraph.attributes[0].value == "from AS1 accept ANY"

    def test_stray_line_recorded(self):
        paragraph = lex("aut-num: AS1\n!!! broken\nas-name: X\n")[0]
        assert paragraph.stray_lines == ["!!! broken"]
        assert paragraph.get("as-name") == "X"

    def test_get_case_insensitive(self):
        paragraph = lex("aut-num: AS1\nAS-NAME: X\n")[0]
        assert paragraph.get("as-name") == "X"
        assert paragraph.get("missing") is None

    def test_names_are_lower_cased_once_at_lex_time(self):
        paragraph = lex("AUT-NUM: AS1\nMp-Import: a\nimport: b\n")[0]
        assert [a.name for a in paragraph.attributes] == ["aut-num", "mp-import", "import"]
        assert paragraph.object_class == "aut-num"
        assert [a.value for a in paragraph.get_all("import", "mp-import")] == ["a", "b"]

    def test_get_all_ordered(self):
        paragraph = lex("aut-num: AS1\nimport: a\nmp-import: b\nimport: c\n")[0]
        values = [a.value for a in paragraph.get_all("import", "mp-import")]
        assert values == ["a", "b", "c"]

    def test_first_line_number(self):
        paragraphs = lex("\naut-num: AS1\n\nroute: 10.0.0.0/8\norigin: AS1\n")
        assert paragraphs[0].first_line == 2
        assert paragraphs[1].first_line == 4

    def test_strip_comment(self):
        paragraph = lex("remarks: value # comment\nremarks: no comment\nremarks: # only\n")[0]
        assert [a.value for a in paragraph.attributes] == ["value", "no comment", ""]

    def test_lex_paragraph_direct(self):
        # Any iterable of lines lexes, newlines or not.
        paragraph = next(split_dump(["as-set: AS-X", "members: AS1,", " AS2"]))
        assert paragraph.get("members") == "AS1, AS2"


# -- truncation: only a final line of the final paragraph is damage -------------

_COMPLETE = "aut-num: AS1\nas-name: ONE\n"


def _write(tmp_path, text: str, compressed: bool):
    if compressed:
        path = tmp_path / "cut.db.gz"
        with gzip.open(path, "wb") as stream:
            stream.write(text.encode("utf-8"))
    else:
        path = tmp_path / "cut.db"
        path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize(
    "tail",
    ["", "\n% end of dump", "\n\n   ", "\n%", "% remark inside the object"],
    ids=["terminated", "trailing-remark", "trailing-blank", "bare-percent", "remark-in-object"],
)
def test_an_unterminated_trailer_keeps_the_complete_object(tmp_path, tail, compressed):
    ir, errors = parse_dump_file(_write(tmp_path, _COMPLETE + tail, compressed), "TEST")
    assert list(ir.aut_nums) == [1]
    assert not len(errors)


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize(
    "tail",
    ["import: from AS2 accept ANY", "% remark\nimport: from AS2 accept ANY", " ANY"],
    ids=["attribute", "after-a-remark", "continuation"],
)
def test_an_unterminated_line_of_the_final_object_is_truncation(tmp_path, tail, compressed):
    ir, errors = parse_dump_file(_write(tmp_path, _COMPLETE + tail, compressed), "TEST")
    assert not ir.aut_nums
    assert errors.count_by_kind() == {ErrorKind.TRUNCATED: 1}
    assert str(errors.issues[0]).startswith("[truncated] aut-num AS1 (TEST)")


def test_a_read_error_keeps_what_was_read_before_it(tmp_path):
    dump = "".join(f"aut-num: AS{n}\nas-name: N{n}\nremarks: {'x' * 60}\n\n" for n in range(1, 2001))
    packed = gzip.compress(dump.encode("utf-8"))
    path = tmp_path / "cut.db.gz"
    path.write_bytes(packed[: len(packed) // 2])  # the gzip stream ends early
    ir, errors = parse_dump_file(path, "TEST")
    assert errors.count_by_kind() == {ErrorKind.UNREADABLE_INPUT: 1}
    assert 0 < len(ir.aut_nums) < 2000
    assert list(ir.aut_nums) == list(range(1, len(ir.aut_nums) + 1))


# -- the one-pass lexer against the generator chain it replaced ------------------

_PIECES = [
    "aut-num: AS1", "AS-SET: AS-X", "import: from AS1 accept ANY", "members: AS1,",
    " AS2", "\tAS3 # c", "+AS4", "+", " ", "\t", "# only a comment", "remarks:",
    "%", "% remark", "!!! stray", "x", "a:b", "1bad: x", "A_B-c: d", " ", " ",
    "\x0c", "\r", "x" * 30, "name: " + "y" * 25,
]
_lines = st.lists(
    st.one_of(st.sampled_from(_PIECES), st.text(max_size=12)), max_size=25
)
_endings = st.sampled_from(["\n", "\r\n", ""])
_limits = st.one_of(
    st.none(),
    st.builds(
        LexLimits,
        max_object_lines=st.integers(0, 6),
        max_object_bytes=st.integers(0, 120),
        max_line_bytes=st.integers(0, 40),
    ),
)


def _shape(paragraphs) -> list[tuple]:
    return [
        (
            [(a.name.lower(), a.value) for a in p.attributes],
            p.stray_lines,
            p.first_line,
            p.oversized,
            p.truncated,
        )
        for p in paragraphs
    ]


@given(_lines, st.lists(_endings, min_size=25, max_size=25), _limits, st.booleans())
@settings(max_examples=300)
def test_one_pass_lexer_matches_the_generator_chain(lines, endings, limits, detect):
    raw = [line + ending for line, ending in zip(lines, endings)]
    expected = _shape(reference_split_dump(iter(raw), limits, detect))
    if expected and raw and not raw[-1].endswith("\n"):
        last = raw[-1].rstrip("\r")
        if last.startswith("%") or not last.strip():
            # The one deliberate change: a trailing remark or blank line
            # cut short is not damage to the object before it.
            expected[-1] = expected[-1][:4] + (False,)
    assert _shape(split_dump(iter(raw), limits, detect)) == expected


@pytest.mark.parametrize(
    "lines, limits",
    [
        # the cap falls inside a continued attribute
        (["aut-num: AS1", "remarks: a", " b", " c", "as-name: X"], LexLimits(max_object_lines=3)),
        (["aut-num: AS1", "remarks: a", "+b", " " + "c" * 50], LexLimits(max_line_bytes=40)),
        (["aut-num: AS1", "remarks: a", " b", "", "as-set: AS-X", " c"], LexLimits(max_object_bytes=30)),
        # the first line is itself over the cap, or a stray
        (["x" * 50 + ": v", "a: b"], LexLimits(max_line_bytes=20)),
        ([" stray: v", "a: b", "c: d"], LexLimits(max_object_lines=2)),
        # continuations of nothing, empty parts, comment-only parts
        (["a:", " # c", "+", " x # y", "!stray", " z", "b: # only", " w"], None),
    ],
)
def test_named_edges_match_the_generator_chain(lines, limits):
    for detect in (False, True):
        expected = _shape(reference_split_dump(iter(lines), limits, detect))
        assert _shape(split_dump(iter(lines), limits, detect)) == expected


@given(st.text(max_size=300), _limits)
@settings(max_examples=200)
def test_one_pass_lexer_matches_the_generator_chain_on_text(text, limits):
    expected = _shape(reference_split_dump(io.StringIO(text), limits))
    assert _shape(split_dump(io.StringIO(text), limits)) == expected
