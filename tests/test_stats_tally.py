"""The fold as a tally: one increment per hop, the figures' tables derived on read.

``VerificationStats`` counts a hop under its ``HopReport.tally_key`` and
expands ``hop_totals`` / ``per_as`` / ``per_pair`` / … from that tally on the
first read after a change.  What can go wrong with that is pinned here:

* the specification — any reports, folded in any split and merge order,
  give the aggregates of ``test_verification_stats._recount`` (the slow
  recount, independent of production), first-seen order included;
* a stale view — a table read before ``add_report`` / ``merge`` and served
  again after it;
* the wire form — what a pool worker sends back is the tally and the
  per-route counters, never a derived table or the key-sharing table;
* operation counts — a report's detail is worked out once per report
  object, whatever number of routes and folds it takes part in.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.report import HopReport, RouteReport
from repro.core.status import VerifyStatus
from repro.core.verify import Verifier
from repro.stats.verification import VerificationStats

from test_hop_hit_path import _ENTRIES, _HOPS
from test_verification_stats import _AGGREGATES, _ordered, _recount, _snapshot

_VIEWS = (
    "hop_totals", "per_as", "per_pair", "unrec_reasons_per_as", "special_per_as",
    "unverified_hops", "unverified_peering_only",
)
# pickle.dumps of the whole tiny table's stats at 4ffc3f1, the last commit
# that kept (and sent) the per-AS and per-pair tables themselves.
_PARENT_PICKLE_BYTES = 13_989


def _fold(reports, into=None):
    stats = VerificationStats() if into is None else into
    for report in reports:
        stats.add_report(report)
    return stats


def _expected(reports):
    recount = _recount(reports)
    return {name: _ordered(recount[name]) for name in _AGGREGATES}


def _twin(hop: HopReport) -> HopReport:
    """An equal report that is another object, its memo slots empty."""
    return HopReport(
        hop.direction, hop.from_asn, hop.to_asn, hop.status, hop.items,
        hop.peer_matched, hop.rule_index, hop.rule_source,
    )


@st.composite
def _folds(draw):
    """Chunks of reports in the order they are merged, and where a view is read.

    Hops come from a small pool — the same object in several routes, as the
    hop cache shares them — as equal-but-distinct twins, and fresh.
    """
    pool = draw(st.lists(_HOPS, min_size=1, max_size=6))
    hops = st.lists(
        st.sampled_from(pool) | st.sampled_from(pool).map(_twin) | _HOPS, max_size=8
    )
    reports = draw(
        st.lists(
            st.builds(
                RouteReport,
                entry=_ENTRIES,
                hops=hops,
                ignored=st.none() | st.none() | st.sampled_from(["as-set-path", "single-as"]),
            ),
            max_size=10,
        )
    )
    cuts = sorted(draw(st.lists(st.integers(0, len(reports)), max_size=3)))
    chunks = [reports[a:b] for a, b in zip([0, *cuts], [*cuts, len(reports)])]
    order = draw(st.permutations(range(len(chunks))))
    reads = draw(st.lists(st.booleans(), min_size=len(chunks), max_size=len(chunks)))
    return [chunks[index] for index in order], reads


class TestTheFoldMeetsItsSpecification:
    @settings(max_examples=200, deadline=None)
    @given(fold=_folds())
    def test_any_split_and_merge_order_equals_the_recount(self, fold):
        chunks, reads = fold
        merged = VerificationStats()
        for chunk, read in zip(chunks, reads):
            partial = _fold(chunk)
            if read:  # a view read on either side must not outlive the merge
                _snapshot(partial), _snapshot(merged)
            merged.merge(partial)
            assert _snapshot(partial) == _expected(chunk)
        everything = [report for chunk in chunks for report in chunk]
        assert _snapshot(merged) == _expected(everything)
        assert _snapshot(_fold(everything)) == _expected(everything)

    @settings(max_examples=100, deadline=None)
    @given(fold=_folds())
    def test_a_view_is_recounted_after_every_change(self, fold):
        chunks, reads = fold
        stats = VerificationStats()
        seen = []
        for chunk, read in zip(chunks, reads):
            for report in chunk:
                stats.add_report(report)
                seen.append(report)
                if read:
                    assert _snapshot(stats) == _expected(seen)
        assert _snapshot(stats) == _expected(seen)

    def test_the_views_cannot_be_assigned(self):
        stats = VerificationStats()
        for name in _VIEWS:
            with pytest.raises(AttributeError):
                setattr(stats, name, {})


@pytest.fixture(scope="module")
def reports(tiny_ir, tiny_world, tiny_routes):
    # Its own verifier: no report here has been folded by another test.
    verifier = Verifier(tiny_ir, tiny_world.topology)
    return [verifier.verify_entry(entry) for entry in tiny_routes]


def _quarters(reports):
    size = -(-len(reports) // 4)
    return [reports[start : start + size] for start in range(0, len(reports), size)]


class TestStaleViews:
    def test_a_table_read_before_a_change_is_not_served_after_it(self, reports):
        first, second, third, fourth = _quarters(reports)
        stats = _fold(first)
        before = _snapshot(stats)
        assert before == _expected(first)
        held = stats.per_pair  # a caller may keep what it read; it is not updated
        _fold(second, into=stats)
        assert _snapshot(stats) == _expected(first + second) != before
        assert _ordered(held) == before["per_pair"]
        stats.merge(_fold(third))
        assert _snapshot(stats) == _expected(first + second + third)
        stats.add_report(fourth[0])
        assert stats.hop_totals == _recount(reports[: len(reports) - len(fourth) + 1])["hop_totals"]

    def test_an_ignored_route_changes_no_view(self, reports):
        stats = _fold(reports[:300])
        table = stats.per_as
        stats.add_report(next(r for r in reports if r.ignored is not None))
        assert stats.per_as is table  # nothing to recount

    def test_reading_twice_expands_once(self, reports):
        stats = _fold(reports[:300])
        assert stats.per_as is stats.per_as
        assert stats.per_pair is stats.per_pair


class TestTheWireForm:
    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "views-read"])
    def test_pickled_chunks_merge_to_the_serial_fold(self, reports, read_first):
        serial = _fold(reports)
        merged = VerificationStats()
        for chunk in _quarters(reports):
            partial = _fold(chunk)
            if read_first:
                _snapshot(partial)
            merged.merge(pickle.loads(pickle.dumps(partial)))
        assert _snapshot(merged) == _snapshot(serial) == _expected(reports)
        assert merged.summary() == serial.summary()

    def test_the_pickle_holds_the_counts_and_nothing_derived(
        self, tiny_ir, tiny_world, tiny_routes
    ):
        # Fresh reports: one folded before keeps the key it was given then.
        verifier = Verifier(tiny_ir, tiny_world.topology)
        reports = [verifier.verify_entry(entry) for entry in tiny_routes]
        stats = _fold(reports)
        _snapshot(stats)
        assert stats._views is not None and len(stats._keys) == len(stats._tally) > 0
        state = stats.__getstate__()
        assert state["_views"] is None and state["_keys"] == {}
        assert set(state) == {
            "routes_total", "routes_ignored", "route_single_status",
            "route_status_count_hist", "first_hop_statuses", "degradation",
            "_tally", "_keys", "_views",
        }
        # ... and taking the state took nothing from the live object.
        assert stats._views is not None and len(stats._keys) == len(stats._tally)
        wire = pickle.dumps(stats)
        assert len(wire) < _PARENT_PICKLE_BYTES
        restored = pickle.loads(wire)
        assert restored._views is None and restored._keys == {}
        assert _snapshot(restored) == _snapshot(stats)
        # What comes off the wire folds on like any other.
        restored.add_report(reports[0])
        assert _snapshot(restored) == _expected([*reports, reports[0]])

    def test_merge_copies_counts_in_and_shares_nothing(self, reports):
        middle = len(reports) // 2
        merged, second = _fold(reports[:middle]), _fold(reports[middle:])
        untouched = _snapshot(second)
        merged.merge(second)
        assert merged._tally is not second._tally and merged._keys is not second._keys
        for name in _AGGREGATES:
            mine, theirs = getattr(merged, name), getattr(second, name)
            assert isinstance(mine, int) or mine is not theirs, name
        assert not any(
            merged.per_pair[pair].counts is mix.counts for pair, mix in second.per_pair.items()
        )
        _fold(reports[:middle], into=merged)  # changing the result ...
        assert _snapshot(second) == untouched  # ... leaves the folded-in side alone


class _Reads:
    """Count reads of the property ``HopReport.<name>`` for the length of a test."""

    def __init__(self, monkeypatch, name):
        original = getattr(HopReport, name)
        self.count = 0

        def counting(hop):
            self.count += 1
            return original.fget(hop)

        monkeypatch.setattr(HopReport, name, property(counting))


class TestOperationCounts:
    def test_a_reports_detail_is_worked_out_once_per_object(
        self, tiny_ir, tiny_world, tiny_routes, monkeypatch
    ):
        verifier = Verifier(tiny_ir, tiny_world.topology)
        found = [verifier.verify_entry(entry) for entry in tiny_routes]
        distinct = {id(hop): hop for route in found for hop in route.hops}
        uses = sum(len(route.hops) for route in found)
        assert len(distinct) < uses // 2  # the hop cache and the plans share reports

        def with_status(*statuses):
            return sum(hop.status in statuses for hop in distinct.values())

        reasons = _Reads(monkeypatch, "unrecorded_reason")
        cases = _Reads(monkeypatch, "special_case")
        first = _fold(found)
        assert reasons.count == with_status(VerifyStatus.UNRECORDED) > 0
        assert cases.count == with_status(VerifyStatus.RELAXED, VerifyStatus.SAFELISTED) > 0
        reasons.count = cases.count = 0
        # A second fold — another aggregator, another order — reads the slot.
        second = _fold(reversed(found))
        assert (reasons.count, cases.count) == (0, 0)
        assert second.summary() == first.summary()
        # Every report took the table's one tuple for its key.
        assert len(first._keys) == len(first._tally) < len(distinct)
        assert all(hop._tally_key is first._keys[hop._tally_key] for hop in distinct.values())
