"""The per-ingest parse memo: shared within one ingest, never across two.

``collect_into_ir`` hands ``parse_policy`` / ``parse_default`` one dict for
the whole dump, so a filter or peering spelled alike in many rules is
parsed once and its (frozen) node shared.  The memo dies with the call: a
second ingest — the next benchmark round, the next ``open_session`` of a
daemon — parses everything again.  Failures are never remembered.
"""

import pytest

from repro.irr.dump import parse_dump_file, parse_dump_text
from repro.irr.registry import parse_registry_dir
from repro.obs import MetricsRegistry, use_registry
from repro.rpsl.errors import ErrorKind
from repro.rpsl.policy import parse_policy

DUMP = """\
aut-num: AS1
import: from AS3 accept AS-CUST AND NOT {0.0.0.0/0}
export: to AS3 announce AS1
default: to AS3 networks ANY

aut-num: AS2
import: from AS3 accept AS-CUST AND NOT {0.0.0.0/0}
mp-import: afi ipv6 from AS3 accept ANY
export: to AS3 action pref=10; announce AS1
export: to AS3 announce AS3
default: to AS3

aut-num: AS4
import: from AS3 accept AS-CUST AND {
export: to AS3 announce AS1

aut-num: AS5
import: from AS3 accept AS-CUST AND {
"""


def _factor(rule):
    return rule.expr.factors[0]


def _nodes(ir):
    """Every filter and peering node of an IR, by identity."""
    nodes = []
    for aut_num in ir.aut_nums.values():
        for rule in aut_num.imports + aut_num.exports:
            for factor in rule.expr.factors:
                nodes.append(factor.filter)
                nodes.extend(pa.peering for pa in factor.peerings)
        nodes.extend(default.peering for default in aut_num.defaults)
    return nodes


def test_one_ingest_shares_the_node_of_a_repeated_filter_and_peering():
    ir, _ = parse_dump_text(DUMP, "TEST")
    one, two = ir.aut_nums[1], ir.aut_nums[2]
    assert _factor(one.imports[0]).filter is _factor(two.imports[0]).filter
    assert _factor(one.imports[0]).peerings[0].peering is _factor(two.imports[0]).peerings[0].peering
    # Same peering under an action, an mp- rule, and a default rule.
    assert _factor(two.exports[0]).peerings[0].peering is _factor(one.exports[0]).peerings[0].peering
    assert one.defaults[0].peering is two.defaults[0].peering is _factor(one.exports[0]).peerings[0].peering
    assert _factor(one.exports[0]).filter is _factor(two.exports[0]).filter
    assert _factor(two.imports[1]).filter is not _factor(one.imports[0]).filter
    # "AS3" as a filter and "AS3" as a peering are two entries.
    as3 = _factor(two.exports[1])
    assert type(as3.filter).__name__ == "FilterAsn"
    assert as3.peerings[0].peering is one.defaults[0].peering


def test_the_filter_key_is_its_tokens_not_its_spelling():
    ir, _ = parse_dump_text(
        "aut-num: AS1\nimport: from AS3 accept {0.0.0.0/0}\n\n"
        "aut-num: AS2\nimport: from   AS3 accept{ 0.0.0.0/0 }\n",
        "TEST",
    )
    assert _factor(ir.aut_nums[1].imports[0]).filter is _factor(ir.aut_nums[2].imports[0]).filter


def test_two_ingests_share_no_node(tmp_path):
    (tmp_path / "test.db").write_text(DUMP, encoding="utf-8")
    first = _nodes(parse_registry_dir(tmp_path).merged())
    second = _nodes(parse_registry_dir(tmp_path).merged())
    assert first == second
    assert not {id(node) for node in first} & {id(node) for node in second}
    assert len({id(node) for node in first}) < len(first)  # shared within each


def test_parse_policy_without_a_memo_shares_nothing():
    text = "from AS3 accept AS-CUST"
    assert _factor(parse_policy("import", text)).filter is not _factor(parse_policy("import", text)).filter
    memo: dict = {}
    assert (
        _factor(parse_policy("import", text, memo=memo)).filter
        is _factor(parse_policy("import", text, memo=memo)).filter
    )


def test_a_repeated_malformed_filter_is_reported_per_object():
    ir, errors = parse_dump_text(DUMP, "TEST")
    syntax = [issue for issue in errors.issues if issue.kind is ErrorKind.SYNTAX]
    assert [(issue.object_name, issue.message) for issue in syntax] == [
        ("AS4", "unexpected end of expression"),
        ("AS5", "unexpected end of expression"),
    ]
    assert [rule.attribute for rule in ir.aut_nums[4].bad_rules] == ["import"]
    assert [rule.attribute for rule in ir.aut_nums[5].bad_rules] == ["import"]
    assert len(ir.aut_nums[4].exports) == 1


@pytest.mark.parametrize("path", ["text", "file"])
def test_lex_and_parse_counts_are_still_reported(tmp_path, path):
    with use_registry(MetricsRegistry()) as registry:
        with registry.span("parse"):
            if path == "text":
                parse_dump_text(DUMP, "TEST")
            else:
                (tmp_path / "test.db").write_text(DUMP, encoding="utf-8")
                parse_dump_file(tmp_path / "test.db", "TEST")
        snapshot = registry.snapshot()
    lex_spans = [span for span in snapshot["spans"] if span["path"] == "parse/lex"]
    assert len(lex_spans) == 1 and lex_spans[0]["wall_s"] > 0
    assert registry.counter("lex_objects_total").value == 4
    assert registry.counter("lex_attributes_total").value == 15
    assert registry.counter("parse_errors_total", irr="TEST").value == 2
