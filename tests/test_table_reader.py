"""The table reader parses each distinct prefix and AS-path text once.

``repro.bgp.table`` keeps a memo of one dict per column (prefix texts,
AS-path texts) across a file's batches.  The file reader must give
exactly what a line-by-line ``parse_table_text`` gives, entries with
equal text must share one object, and a memo cleared at its bound must
change nothing but the sharing.
"""

from collections import defaultdict
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

import repro.bgp.table as reader
from repro.bgp.table import RouteEntry, parse_table_file, parse_table_text
from repro.net.prefix import Prefix

asns = st.integers(min_value=1, max_value=2**32 - 1)


@st.composite
def prefixes(draw) -> Prefix:
    version = draw(st.sampled_from((4, 6)))
    max_len = 32 if version == 4 else 128
    length = draw(st.integers(min_value=0, max_value=max_len))
    network = draw(st.integers(min_value=0, max_value=2**length - 1)) << (max_len - length)
    return Prefix(version, network, length)


@st.composite
def paths(draw) -> tuple[tuple[int, ...], frozenset[int] | None]:
    """A neighbour-first AS-path with prepending, maybe a trailing AS_SET."""
    runs = draw(st.lists(st.tuples(asns, st.integers(1, 3)), min_size=1, max_size=5))
    as_path = tuple(asn for asn, repeat in runs for _ in range(repeat))
    as_set = draw(st.none() | st.frozensets(asns, min_size=1, max_size=3))
    return as_path, as_set


communities = st.frozensets(
    st.tuples(st.integers(0, 65535), st.integers(0, 65535)), max_size=3
)

NOISE = (
    "",
    "   ",
    "# a comment",
    "garbage",
    "TABLE_DUMP2|0|B|rrc00|x|10.0.0.0/8|1 2|IGP",
    "TABLE_DUMP2|0|B|rrc00|1|10.0.0.0/33|1 2|IGP",
    "TABLE_DUMP2|0|B|rrc00|1|not-a-prefix|1 2|IGP",
    "TABLE_DUMP2|0|B|rrc00|1|10.0.0.0/8|1 x|IGP",
    "TABLE_DUMP2|0|B|rrc00|1|10.0.0.0/8||IGP",
    "TABLE_DUMP2|0|B|rrc00|1|10.0.0.0/8|1 {x}|IGP",
    "TABLE_DUMP2|0|B|rrc00|1|10.0.0.0/8",
    "BGP4MP|0|A|rrc00|1|10.0.0.0/8|1 2|IGP",
)


@st.composite
def table_files(draw) -> tuple[list[str], list[RouteEntry]]:
    """Dump lines and the entries among them: at least 5 distinct paths,
    repeated texts, noise, and one line whose prefix column is an earlier
    line's AS-path text."""
    distinct = draw(st.lists(paths(), min_size=5, max_size=8, unique=True))
    prefix_pool = draw(st.lists(prefixes(), min_size=1, max_size=6, unique=True))
    count = draw(st.integers(min_value=len(distinct), max_value=30))
    entries = []
    for index in range(count):
        if index < len(distinct):
            as_path, as_set = distinct[index]
        else:
            as_path, as_set = draw(st.sampled_from(distinct))
        entry = RouteEntry(
            draw(st.sampled_from(("rrc00", "rrc01"))),
            draw(asns),
            draw(st.sampled_from(prefix_pool)),
            as_path,
            as_set,
            draw(communities),
        )
        entries.append(entry)
    lines = [entry.to_line() for entry in entries]
    earlier = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    path_text = lines[earlier].split("|")[6]
    collision = f"TABLE_DUMP2|0|B|rrc00|1|{path_text}|{path_text}|IGP"
    lines.insert(draw(st.integers(min_value=earlier + 1, max_value=len(lines))), collision)
    for noise in draw(st.lists(st.sampled_from(NOISE), max_size=6)):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), noise)
    return lines, entries


def _groups(entries, key):
    grouped = defaultdict(list)
    for entry in entries:
        grouped[key(entry)].append(entry)
    return grouped.values()


@given(table=table_files())
def test_the_file_reader_parses_like_the_line_reader(table, tmp_path_factory):
    lines, written = table
    path = tmp_path_factory.getbasetemp() / "table-reader.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected = [entry for line in lines for entry in parse_table_text(line)]
    assert expected == written

    entries = list(parse_table_file(path))
    assert entries == expected

    # Equal text, one object: prefixes and paths are rendered canonically,
    # so equal values here mean equal column texts.
    for group in _groups(entries, lambda entry: entry.prefix):
        assert all(entry.prefix is group[0].prefix for entry in group)
    for group in _groups(entries, lambda entry: (entry.as_path, entry.as_set)):
        assert all(entry.as_path is group[0].as_path for entry in group)

    # A memo cleared at every batch boundary parses the same.
    with mock.patch.object(reader, "_MEMO_ENTRIES", 2), mock.patch.object(
        reader, "_GC_PAUSE_LINES", 3
    ):
        assert list(parse_table_file(path)) == expected


def test_a_prefix_column_never_reads_the_path_memo(tmp_path):
    """``…|64500|64500|IGP`` has no prefix; an earlier path ``64500`` must
    not lend it one."""
    path = tmp_path / "table.txt"
    path.write_text(
        "TABLE_DUMP2|0|B|rrc00|1|10.0.0.0/8|64500|IGP\n"
        "TABLE_DUMP2|0|B|rrc00|1|64500|64500|IGP\n"
    )
    (entry,) = parse_table_file(path)
    assert entry.prefix == Prefix.parse("10.0.0.0/8")
    assert entry.as_path == (64500,)
