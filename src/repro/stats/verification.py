"""Aggregation of verification results at three granularities.

The paper reports verification statuses per AS (Figure 2), per AS pair
(Figure 3), and per route (Figure 4), plus breakdowns of unrecorded
reasons (Figure 5) and special cases (Figure 6).  This module is a
streaming aggregator: feed it every :class:`~repro.core.report.RouteReport`
and read the figure data afterwards — it never stores per-route state, so
memory stays flat over hundreds of millions of hops.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.degradation import DegradationReport
from repro.core.report import RouteReport
from repro.core.status import SpecialCase, UnrecordedReason, VerifyStatus

__all__ = ["VerificationStats", "StatusMix"]

_STATUSES = tuple(VerifyStatus)


@dataclass(slots=True)
class StatusMix:
    """Distribution of statuses over some grouping key."""

    counts: Counter = field(default_factory=Counter)

    def add(self, status: VerifyStatus) -> None:
        """Count one hop check with the given status."""
        self.counts[status] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fractions(self) -> dict[VerifyStatus, float]:
        """Per-status fractions — one stacked bar of Figures 2–4."""
        total = self.total
        if total == 0:
            return {}
        return {status: count / total for status, count in self.counts.items()}

    def single_status(self) -> VerifyStatus | None:
        """The only status present, or None if mixed (or empty)."""
        if len(self.counts) == 1:
            return next(iter(self.counts))
        return None


def _at(table: dict, key, factory):
    """``table[key]``, made by ``factory`` on first use only."""
    found = table.get(key)
    if found is None:
        found = table[key] = factory()
    return found


def _expand(tally: Counter) -> dict[str, object]:
    """Every per-hop aggregate, from the tally.

    Keys are visited in first-seen order, so each table's keys come out in
    the order a hop-by-hop count would have met them.
    """
    hop_totals: Counter = Counter()
    per_as: dict[int, StatusMix] = {}
    per_pair: dict[tuple[int, int, str], StatusMix] = {}
    unrec_reasons_per_as: dict[int, Counter] = {}
    special_per_as: dict[int, Counter] = {}
    unverified_hops = unverified_peering_only = 0
    for (from_asn, to_asn, direction, status, detail), count in tally.items():
        subject = to_asn if direction == "import" else from_asn
        hop_totals[status] += count
        _at(per_as, subject, StatusMix).counts[status] += count
        _at(per_pair, (from_asn, to_asn, direction), StatusMix).counts[status] += count
        if status is VerifyStatus.UNRECORDED:
            if detail is not None:
                _at(unrec_reasons_per_as, subject, Counter)[detail] += count
        elif status is VerifyStatus.RELAXED or status is VerifyStatus.SAFELISTED:
            if detail is not None:
                _at(special_per_as, subject, Counter)[detail] += count
        elif status is VerifyStatus.UNVERIFIED:
            unverified_hops += count
            if not detail:
                # No rule's peering covered the remote AS: the
                # relationship itself is undeclared (paper: 98.98% of
                # unverified cases).
                unverified_peering_only += count
    return {
        "hop_totals": hop_totals,
        "per_as": per_as,
        "per_pair": per_pair,
        "unrec_reasons_per_as": unrec_reasons_per_as,
        "special_per_as": special_per_as,
        "unverified_hops": unverified_hops,
        "unverified_peering_only": unverified_peering_only,
    }


def _view(name: str) -> property:
    """A read-only aggregate, expanded with the others on the first read after a change."""

    def read(self: "VerificationStats"):
        if self._views is None:
            self._views = _expand(self._tally)
        return self._views[name]

    return property(read)


class VerificationStats:
    """Streaming aggregation of route reports into the paper's figures.

    A hop is counted once, under its :meth:`HopReport.tally_key`; the
    per-hop aggregates (``hop_totals``, ``per_as``, ``per_pair``,
    ``unrec_reasons_per_as``, ``special_per_as``, ``unverified_hops``,
    ``unverified_peering_only``) are read-only views expanded from that
    tally on the first read after a change.  Change what they show through
    :meth:`add_report` / :meth:`merge`, never by writing to a view.
    """

    hop_totals = _view("hop_totals")  # status -> hops
    per_as = _view("per_as")  # subject AS -> StatusMix
    per_pair = _view("per_pair")  # (from, to, direction) -> StatusMix
    unrec_reasons_per_as = _view("unrec_reasons_per_as")
    special_per_as = _view("special_per_as")
    # unverified-peering analysis ("most unverified routes traverse
    # undeclared peerings")
    unverified_hops = _view("unverified_hops")
    unverified_peering_only = _view("unverified_peering_only")

    def __init__(self) -> None:
        self.routes_total = 0
        self.routes_ignored: Counter = Counter()
        # per-route summaries (no per-route storage: fold immediately)
        self.route_single_status: Counter = Counter()  # status -> routes
        self.route_status_count_hist: Counter = Counter()  # #distinct statuses -> routes
        self.first_hop_statuses: Counter = Counter()
        # how the run degraded (requeued chunks, serial fallbacks, ...);
        # empty on a clean run
        self.degradation = DegradationReport()
        self._tally: Counter = Counter()  # HopReport.tally_key -> hops
        self._keys: dict[tuple, tuple] = {}  # what HopReport.tally_key shares
        self._views: dict[str, object] | None = None

    def __getstate__(self) -> dict:
        """The counts alone: views are re-derived, keys re-shared, where they land."""
        return {**self.__dict__, "_keys": {}, "_views": None}

    # -- ingestion ---------------------------------------------------------

    def add_report(self, report: RouteReport) -> None:
        """Fold one route report in: one tally increment per hop."""
        self.routes_total += 1
        if report.ignored is not None:
            self.routes_ignored[report.ignored] += 1
            return
        self._views = None
        keys = self._keys
        hops = report.hops
        for hop in hops[:2]:
            # hops[0]/hops[1] are the origin-side export and import — the
            # "first hop" the paper examines for leak prevention.
            self.first_hop_statuses[hop.status] += 1
        # A verifier interns its reports, so a key is worked out once per
        # distinct verdict and every other hop reads it back; each key
        # hashes in C (ints, a str, an IntEnum and an identity-hashed detail).
        route_keys = [hop.tally_key(keys) for hop in hops]
        self._tally.update(route_keys)
        seen_statuses = {key[3] for key in route_keys}
        self.route_status_count_hist[len(seen_statuses)] += 1
        if len(seen_statuses) == 1:
            self.route_single_status[next(iter(seen_statuses))] += 1

    def merge(self, other: "VerificationStats") -> None:
        """Fold another aggregator into this one (parallel verification)."""
        self._views = None
        self._tally.update(other._tally)
        self.routes_total += other.routes_total
        self.routes_ignored.update(other.routes_ignored)
        self.route_single_status.update(other.route_single_status)
        self.route_status_count_hist.update(other.route_status_count_hist)
        self.first_hop_statuses.update(other.first_hop_statuses)
        self.degradation.merge(other.degradation)

    # -- Figure 2: per AS -----------------------------------------------

    def ases_with_single_status(self) -> dict[VerifyStatus, int]:
        """ASes whose every import/export got the same status."""
        result: Counter = Counter()
        for mix in self.per_as.values():
            single = mix.single_status()
            if single is not None:
                result[single] += 1
        return dict(result)

    # -- Figure 3: per AS pair --------------------------------------------

    def pairs_with_single_status(self, direction: str) -> tuple[int, int]:
        """``(single-status pairs, all pairs)`` for one direction."""
        total = 0
        single = 0
        for (_, _, pair_direction), mix in self.per_pair.items():
            if pair_direction != direction:
                continue
            total += 1
            if mix.single_status() is not None:
                single += 1
        return single, total

    def pairs_with_status(self, status: VerifyStatus) -> int:
        """AS pairs (direction-collapsed) with ≥1 hop of the status."""
        pairs: set[tuple[int, int]] = set()
        for (from_asn, to_asn, _), mix in self.per_pair.items():
            if mix.counts.get(status):
                pairs.add((from_asn, to_asn))
        return len(pairs)

    def total_pairs(self) -> int:
        """Distinct AS pairs observed (direction-collapsed)."""
        return len({(f, t) for (f, t, _) in self.per_pair})

    # -- Figure 4: per route ------------------------------------------------

    def routes_verified(self) -> int:
        """Routes counted (ignored ones excluded)."""
        return self.routes_total - sum(self.routes_ignored.values())

    def single_status_route_fractions(self) -> dict[VerifyStatus, float]:
        """Fraction of routes whose hops all share one status (Figure 4)."""
        total = self.routes_verified()
        if total == 0:
            return {}
        return {
            status: count / total for status, count in self.route_single_status.items()
        }

    # -- Figures 5 and 6: breakdowns ----------------------------------------

    def unrecorded_breakdown(self) -> dict[UnrecordedReason, int]:
        """ASes per unrecorded sub-reason (an AS may appear in several)."""
        result: Counter = Counter()
        for reasons in self.unrec_reasons_per_as.values():
            for reason in reasons:
                result[reason] += 1
        return dict(result)

    def special_breakdown(self) -> dict[SpecialCase, int]:
        """ASes per special case (an AS may appear in several)."""
        result: Counter = Counter()
        for cases in self.special_per_as.values():
            for case in cases:
                result[case] += 1
        return dict(result)

    def ases_with_special_cases(self) -> int:
        """ASes with at least one relaxed or safelisted import/export."""
        return len(self.special_per_as)

    # -- headline summary -----------------------------------------------------

    def summary(self) -> dict[str, object]:
        """The headline numbers of Section 5.2 in one dict."""
        hop_total = sum(self.hop_totals.values()) or 1
        routes = self.routes_verified()
        import_single, import_total = self.pairs_with_single_status("import")
        export_single, export_total = self.pairs_with_single_status("export")
        return {
            "routes": self.routes_verified(),
            "routes_ignored": dict(self.routes_ignored),
            "hops": sum(self.hop_totals.values()),
            "hop_fractions": {
                status.label: self.hop_totals.get(status, 0) / hop_total
                for status in _STATUSES
            },
            "ases": len(self.per_as),
            "ases_single_status": sum(self.ases_with_single_status().values()),
            "pairs": self.total_pairs(),
            "import_pairs_single_status_fraction": (
                import_single / import_total if import_total else 0.0
            ),
            "export_pairs_single_status_fraction": (
                export_single / export_total if export_total else 0.0
            ),
            # one division, not a sum of per-status floats: float addition
            # is order-sensitive and merge order differs between serial and
            # parallel runs, which must produce bit-identical summaries
            "routes_single_status_fraction": (
                sum(self.route_single_status.values()) / routes if routes else 0.0
            ),
            "unverified_hops_peering_only_fraction": (
                self.unverified_peering_only / self.unverified_hops
                if self.unverified_hops
                else 0.0
            ),
            "ases_with_special_cases": self.ases_with_special_cases(),
            "degradation": self.degradation.as_dict(),
        }
