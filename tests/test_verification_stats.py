"""Tests for the Figures 2–6 aggregation of verification results."""

import pytest

from repro.bgp.table import RouteEntry
from repro.core.report import HopReport, ItemKind, ReportItem, RouteReport
from repro.core.status import SpecialCase, UnrecordedReason, VerifyStatus
from repro.net.prefix import Prefix
from repro.stats.verification import StatusMix, VerificationStats


def entry(path=(1, 2, 3)):
    return RouteEntry("c", path[0], Prefix.parse("10.0.0.0/16"), tuple(path))


def hop(direction, from_asn, to_asn, status, items=()):
    return HopReport(direction, from_asn, to_asn, status, tuple(items))


def report(*hops, path=(1, 2, 3), ignored=None):
    result = RouteReport(entry(path))
    result.ignored = ignored
    result.hops.extend(hops)
    return result


class TestStatusMix:
    def test_fractions(self):
        mix = StatusMix()
        mix.add(VerifyStatus.VERIFIED)
        mix.add(VerifyStatus.VERIFIED)
        mix.add(VerifyStatus.UNVERIFIED)
        fractions = mix.fractions()
        assert fractions[VerifyStatus.VERIFIED] == pytest.approx(2 / 3)

    def test_single_status(self):
        mix = StatusMix()
        assert mix.single_status() is None
        mix.add(VerifyStatus.SKIP)
        assert mix.single_status() is VerifyStatus.SKIP
        mix.add(VerifyStatus.VERIFIED)
        assert mix.single_status() is None


class TestAggregation:
    def make_stats(self):
        stats = VerificationStats()
        stats.add_report(
            report(
                hop("export", 3, 2, VerifyStatus.VERIFIED),
                hop("import", 3, 2, VerifyStatus.VERIFIED),
                hop("export", 2, 1, VerifyStatus.UNRECORDED,
                    [ReportItem.of(ItemKind.UNRECORDED_AUT_NUM, asn=2)]),
                hop("import", 2, 1, VerifyStatus.SAFELISTED,
                    [ReportItem.of(ItemKind.SPEC_UPHILL)]),
            )
        )
        stats.add_report(
            report(
                hop("export", 3, 2, VerifyStatus.VERIFIED),
                hop("import", 3, 2, VerifyStatus.VERIFIED),
            )
        )
        stats.add_report(report(ignored="as-set-path"))
        return stats

    def test_route_counts(self):
        stats = self.make_stats()
        assert stats.routes_total == 3
        assert stats.routes_verified() == 2
        assert stats.routes_ignored["as-set-path"] == 1

    def test_hop_totals(self):
        stats = self.make_stats()
        assert stats.hop_totals[VerifyStatus.VERIFIED] == 4
        assert stats.hop_totals[VerifyStatus.UNRECORDED] == 1

    def test_per_as_subject_attribution(self):
        stats = self.make_stats()
        # import hop's subject is the importer (to_asn).
        assert stats.per_as[2].counts[VerifyStatus.VERIFIED] == 2
        assert stats.per_as[1].counts[VerifyStatus.SAFELISTED] == 1
        # export hop's subject is the exporter (from_asn).
        assert stats.per_as[3].counts[VerifyStatus.VERIFIED] == 2

    def test_single_status_ases(self):
        stats = self.make_stats()
        singles = stats.ases_with_single_status()
        assert singles[VerifyStatus.VERIFIED] == 1  # AS3

    def test_pairs(self):
        stats = self.make_stats()
        assert stats.total_pairs() == 2
        single, total = stats.pairs_with_single_status("import")
        assert (single, total) == (2, 2)
        assert stats.pairs_with_status(VerifyStatus.UNRECORDED) == 1

    def test_route_status_mix(self):
        stats = self.make_stats()
        assert stats.route_single_status[VerifyStatus.VERIFIED] == 1
        assert stats.route_status_count_hist[3] == 1  # first route: 3 statuses
        fractions = stats.single_status_route_fractions()
        assert fractions[VerifyStatus.VERIFIED] == pytest.approx(0.5)

    def test_unrecorded_breakdown(self):
        stats = self.make_stats()
        assert stats.unrecorded_breakdown()[UnrecordedReason.NO_AUT_NUM] == 1

    def test_special_breakdown(self):
        stats = self.make_stats()
        assert stats.special_breakdown()[SpecialCase.UPHILL] == 1
        assert stats.ases_with_special_cases() == 1

    def test_unverified_peering_analysis(self):
        stats = VerificationStats()
        undeclared = hop(
            "export", 3, 2, VerifyStatus.UNVERIFIED,
            [ReportItem.of(ItemKind.MATCH_REMOTE_AS_NUM, asn=7)],
        )
        filter_mismatch = HopReport(
            "import", 3, 2, VerifyStatus.UNVERIFIED,
            (ReportItem.of(ItemKind.MATCH_FILTER_AS_NUM, asn=3),),
            peer_matched=True,
        )
        stats.add_report(report(undeclared, filter_mismatch))
        assert stats.unverified_hops == 2
        assert stats.unverified_peering_only == 1

    def test_first_hop_statuses(self):
        stats = self.make_stats()
        # hops[0] and hops[1] of each non-ignored route.
        assert stats.first_hop_statuses[VerifyStatus.VERIFIED] == 4

    def test_summary_keys(self):
        summary = self.make_stats().summary()
        assert summary["routes"] == 2
        assert summary["hops"] == 6
        assert 0 <= summary["routes_single_status_fraction"] <= 1
        assert set(summary["hop_fractions"]) == {
            status.label for status in VerifyStatus
        }


# -- parity with a straightforward recount over the synthetic table -----------

_AGGREGATES = (
    "routes_total",
    "routes_ignored",
    "hop_totals",
    "per_as",
    "per_pair",
    "route_single_status",
    "route_status_count_hist",
    "first_hop_statuses",
    "unrec_reasons_per_as",
    "special_per_as",
    "unverified_hops",
    "unverified_peering_only",
)


def _ordered(value):
    """Dicts as item lists, recursively: ``==`` on dicts ignores order, and
    first-seen order is part of what a serial and a merged fold agree on."""
    if isinstance(value, StatusMix):
        value = value.counts
    if isinstance(value, dict):
        return [(key, _ordered(inner)) for key, inner in value.items()]
    return value


def _snapshot(stats):
    """Every public aggregate of ``stats``, order included."""
    return {name: _ordered(getattr(stats, name)) for name in _AGGREGATES}


def _recount(reports):
    """The aggregates, recounted the slow obvious way from the reports."""
    hops = [
        (route, index, hop)
        for route in reports
        if route.ignored is None
        for index, hop in enumerate(route.hops)
    ]

    def tally(keys):
        counts = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        return counts

    def nested(pairs):
        table = {}
        for outer, inner in pairs:
            table.setdefault(outer, {})
            table[outer][inner] = table[outer].get(inner, 0) + 1
        return table

    verified = [route for route in reports if route.ignored is None]
    unverified = [hop for _, _, hop in hops if hop.status is VerifyStatus.UNVERIFIED]
    return {
        "routes_total": len(reports),
        "routes_ignored": tally(r.ignored for r in reports if r.ignored is not None),
        "hop_totals": tally(hop.status for _, _, hop in hops),
        "per_as": nested((hop.subject_asn, hop.status) for _, _, hop in hops),
        "per_pair": nested(
            ((hop.from_asn, hop.to_asn, hop.direction), hop.status) for _, _, hop in hops
        ),
        "route_single_status": tally(
            route.hops[0].status for route in verified if len(set(route.statuses())) == 1
        ),
        "route_status_count_hist": tally(len(set(route.statuses())) for route in verified),
        "first_hop_statuses": tally(hop.status for _, index, hop in hops if index < 2),
        "unrec_reasons_per_as": nested(
            (hop.subject_asn, hop.unrecorded_reason)
            for _, _, hop in hops
            if hop.status is VerifyStatus.UNRECORDED and hop.unrecorded_reason is not None
        ),
        "special_per_as": nested(
            (hop.subject_asn, hop.special_case)
            for _, _, hop in hops
            if hop.status in (VerifyStatus.RELAXED, VerifyStatus.SAFELISTED)
            and hop.special_case is not None
        ),
        "unverified_hops": len(unverified),
        "unverified_peering_only": sum(not hop.peer_matched for hop in unverified),
    }


class TestParityOverTheSyntheticTable:
    @pytest.fixture(scope="class")
    def reports(self, tiny_verifier, tiny_routes):
        found = [tiny_verifier.verify_entry(entry) for entry in tiny_routes]
        statuses = {hop.status for route in found for hop in route.hops}
        # Every branch of add_report (SKIP has none of its own).
        assert statuses >= set(VerifyStatus) - {VerifyStatus.SKIP}
        assert any(route.ignored for route in found)
        return found

    def test_every_aggregate_equals_the_recount(self, reports):
        stats = VerificationStats()
        for route in reports:
            stats.add_report(route)
        recount = _recount(reports)
        assert _snapshot(stats) == {name: _ordered(recount[name]) for name in _AGGREGATES}
        assert all(type(mix) is StatusMix for mix in stats.per_as.values())
        assert all(type(mix) is StatusMix for mix in stats.per_pair.values())

    def test_merge_of_two_halves_equals_the_serial_fold(self, reports):
        serial = VerificationStats()
        for route in reports:
            serial.add_report(route)
        middle = len(reports) // 2
        merged, second = VerificationStats(), VerificationStats()
        for route in reports[:middle]:
            merged.add_report(route)
        for route in reports[middle:]:
            second.add_report(route)
        untouched = _snapshot(second)
        merged.merge(second)
        assert _snapshot(merged) == _snapshot(serial)
        assert merged.summary() == serial.summary()
        # merge copies counts in: the folded-in aggregator is left as it was
        # and shares no counter with the result.
        assert _snapshot(second) == untouched
        assert not any(
            merged.per_as[asn].counts is mix.counts for asn, mix in second.per_as.items()
        )

    def test_merge_into_empty_and_of_empty(self, reports):
        serial = VerificationStats()
        for route in reports:
            serial.add_report(route)
        into_empty = VerificationStats()
        into_empty.merge(serial)
        assert _snapshot(into_empty) == _snapshot(serial)
        serial.merge(VerificationStats())
        assert _snapshot(into_empty) == _snapshot(serial)
