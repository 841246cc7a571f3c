"""A2 — Ablation: symbolic-regex Cartesian-product cap sensitivity.

Appendix B's matcher enumerates the product of per-position symbol sets.
This ablation measures match cost and result stability across caps, using
adversarial paths whose ASes map to several symbols each.
"""

from conftest import emit

from repro.core.aspath_match import AsPathMatcher
from repro.core.compiled import compile_index
from repro.core.query import QueryEngine
from repro.irr.dump import parse_dump_text
from repro.rpsl.aspath import parse_as_path_regex

DUMP = """
as-set:  AS-A
members: AS1, AS2, AS3, AS4

as-set:  AS-B
members: AS2, AS3, AS4, AS5

as-set:  AS-C
members: AS3, AS4, AS5, AS6
"""

REGEX = parse_as_path_regex("<^AS-A (AS-B | AS-C)* AS6$>")
PATH = (3, 4, 3, 4, 3, 4, 3, 4, 6)  # every position maps to 3-4 symbols


def run_matches(matcher) -> bool:
    result = None
    for _ in range(20):
        result = matcher.match(REGEX, PATH, peer_asn=3)
    return result.matched


def test_regex_cap_sensitivity(benchmark, capsys):
    ir, _ = parse_dump_text(DUMP, "T")
    query = QueryEngine(ir, compile_index(ir))

    outcomes = {}
    for cap in (16, 256, 65536):
        matcher = AsPathMatcher(query, product_cap=cap)
        result = matcher.match(REGEX, PATH, peer_asn=3)
        outcomes[cap] = (result.matched, result.approximate)

    matcher = AsPathMatcher(query, product_cap=65536)
    matched = benchmark(run_matches, matcher)

    lines = [f"{'cap':>8} {'matched':>8} {'approximate':>12}"]
    for cap, (hit, approximate) in outcomes.items():
        lines.append(f"{cap:>8} {str(hit):>8} {str(approximate):>12}")
    emit("ablation_regex_cap", "\n".join(lines))

    # The exact (uncapped) evaluation matches; tiny caps may only flag
    # approximation, never flip a found match to a false positive.
    assert outcomes[65536] == (True, False)
    assert matched is True
    for cap, (hit, approximate) in outcomes.items():
        if not approximate:
            assert hit is True
