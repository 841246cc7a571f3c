"""Tests for peering evaluation against remote ASNs."""

import pytest

from repro.core.filter_match import Val
from repro.core.peering_match import PeeringEvaluator
from repro.core.compiled import compile_index
from repro.core.query import QueryEngine
from repro.core.report import ItemKind
from repro.irr.dump import parse_dump_text
from repro.rpsl.peering import parse_peering_text

DUMP = """
as-set:  AS-PEERS
members: AS10, AS11

peering-set: PRNG-GROUP
peering:     AS20
peering:     AS21 192.0.2.1

peering-set: PRNG-NESTED
peering:     PRNG-GROUP
peering:     AS22

peering-set: PRNG-SELF
peering:     PRNG-SELF
"""


@pytest.fixture(scope="module")
def evaluator():
    ir, _ = parse_dump_text(DUMP, "TEST")
    return PeeringEvaluator(QueryEngine(ir, compile_index(ir)))


def evaluate(evaluator, text: str, remote: int):
    return evaluator.evaluate(parse_peering_text(text), remote)


class TestPeeringEvaluation:
    def test_single_asn(self, evaluator):
        assert evaluate(evaluator, "AS5", 5).value is Val.TRUE
        result = evaluate(evaluator, "AS5", 6)
        assert result.value is Val.FALSE
        assert result.items[0] .kind is ItemKind.MATCH_REMOTE_AS_NUM
        assert result.items[0].asn == 5

    def test_as_any(self, evaluator):
        assert evaluate(evaluator, "AS-ANY", 12345).value is Val.TRUE

    def test_as_set_membership(self, evaluator):
        assert evaluate(evaluator, "AS-PEERS", 10).value is Val.TRUE
        result = evaluate(evaluator, "AS-PEERS", 12)
        assert result.value is Val.FALSE
        assert result.items[0].kind is ItemKind.MATCH_REMOTE_AS_SET

    def test_unrecorded_as_set(self, evaluator):
        result = evaluate(evaluator, "AS-MISSING", 10)
        assert result.value is Val.UNREC
        assert result.items[0].kind is ItemKind.UNRECORDED_AS_SET

    def test_or(self, evaluator):
        assert evaluate(evaluator, "AS1 OR AS2", 2).value is Val.TRUE
        assert evaluate(evaluator, "AS1 OR AS2", 3).value is Val.FALSE

    def test_and(self, evaluator):
        assert evaluate(evaluator, "AS10 AND AS-PEERS", 10).value is Val.TRUE
        assert evaluate(evaluator, "AS10 AND AS-PEERS", 11).value is Val.FALSE

    def test_except(self, evaluator):
        text = "AS-ANY EXCEPT AS-PEERS"
        assert evaluate(evaluator, text, 12).value is Val.TRUE
        assert evaluate(evaluator, text, 10).value is Val.FALSE

    def test_peering_set_resolution(self, evaluator):
        assert evaluate(evaluator, "PRNG-GROUP", 20).value is Val.TRUE
        assert evaluate(evaluator, "PRNG-GROUP", 21).value is Val.TRUE
        assert evaluate(evaluator, "PRNG-GROUP", 23).value is Val.FALSE

    def test_nested_peering_set(self, evaluator):
        assert evaluate(evaluator, "PRNG-NESTED", 20).value is Val.TRUE
        assert evaluate(evaluator, "PRNG-NESTED", 22).value is Val.TRUE

    def test_unrecorded_peering_set(self, evaluator):
        result = evaluate(evaluator, "PRNG-MISSING", 20)
        assert result.value is Val.UNREC
        assert result.items[0].kind is ItemKind.UNRECORDED_PEERING_SET

    def test_self_referential_peering_set_terminates(self, evaluator):
        result = evaluate(evaluator, "PRNG-SELF", 20)
        assert result.value in (Val.FALSE, Val.UNREC)

    def test_router_expressions_ignored(self, evaluator):
        assert evaluate(evaluator, "AS5 192.0.2.1 at 192.0.2.2", 5).value is Val.TRUE
