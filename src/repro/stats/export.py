"""Exporting figure data as CSV for external plotting.

Each function returns the rows behind one paper figure as a list of dicts
(one per point/bar) and can write them as CSV — the hand-off format for
gnuplot/matplotlib/R, mirroring how measurement papers archive their
figure data.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import IO

from repro.core.status import SpecialCase, UnrecordedReason, VerifyStatus
from repro.ir.model import Ir
from repro.stats.verification import VerificationStats

__all__ = [
    "fig1_rows",
    "fig2_rows",
    "fig3_rows",
    "fig4_rows",
    "fig5_rows",
    "fig6_rows",
    "write_csv",
]


def fig1_rows(ir: Ir) -> list[dict]:
    """Figure 1: the CCDF points, for all rules and BGPq4-compatible ones.

    Both curves are sampled on the union grid of observed rule counts;
    each sample is the exact ``P[rules ≥ x]``.
    """
    from repro.stats.ccdf import fraction_at_least
    from repro.stats.usage import rules_per_aut_num

    all_counts = list(rules_per_aut_num(ir).values())
    compatible_counts = list(
        rules_per_aut_num(ir, bgpq4_compatible_only=True).values()
    )
    xs = sorted(set(all_counts) | set(compatible_counts))
    return [
        {
            "rules": x,
            "ccdf_all": fraction_at_least(all_counts, x),
            "ccdf_bgpq4": fraction_at_least(compatible_counts, x),
        }
        for x in xs
    ]


def _status_columns(fractions: dict[VerifyStatus, float]) -> dict[str, float]:
    return {status.label: round(fractions.get(status, 0.0), 6) for status in VerifyStatus}


def fig2_rows(stats: VerificationStats) -> list[dict]:
    """Figure 2: one stacked bar per AS, ordered by correctness.

    The x-order matches the paper: sort by (verified-fraction descending,
    then special, then unverified ascending) so colors band together.
    """
    rows = []
    for asn, mix in stats.per_as.items():
        fractions = mix.fractions()
        rows.append({"asn": asn, "hops": mix.total, **_status_columns(fractions)})
    rows.sort(
        key=lambda row: (
            -row["verified"],
            -(row["relaxed"] + row["safelisted"]),
            row["unverified"],
            -row["unrecorded"],
            row["asn"],
        )
    )
    for index, row in enumerate(rows):
        row["x"] = index
    return rows


def fig3_rows(stats: VerificationStats) -> list[dict]:
    """Figure 3: one bar per (AS pair, direction)."""
    rows = []
    for (from_asn, to_asn, direction), mix in stats.per_pair.items():
        rows.append(
            {
                "from_asn": from_asn,
                "to_asn": to_asn,
                "direction": direction,
                "hops": mix.total,
                **_status_columns(mix.fractions()),
            }
        )
    # Ends in the pair itself: a total order, whatever order the pairs were met in.
    rows.sort(
        key=lambda row: (
            -row["verified"], row["unverified"],
            row["from_asn"], row["to_asn"], row["direction"],
        )
    )
    for index, row in enumerate(rows):
        row["x"] = index
    return rows


def fig4_rows(stats: VerificationStats) -> list[dict]:
    """Figure 4 summary: per-status hop fractions plus route-mix histogram."""
    hop_total = sum(stats.hop_totals.values()) or 1
    rows = [
        {
            "series": "hop_fraction",
            "key": status.label,
            "value": stats.hop_totals.get(status, 0) / hop_total,
        }
        for status in VerifyStatus
    ]
    routes = stats.routes_verified() or 1
    for count, n_routes in sorted(stats.route_status_count_hist.items()):
        rows.append(
            {"series": "statuses_per_route", "key": str(count), "value": n_routes / routes}
        )
    for status, n_routes in sorted(stats.route_single_status.items()):
        rows.append(
            {"series": "single_status_route", "key": status.label, "value": n_routes / routes}
        )
    return rows


def fig5_rows(stats: VerificationStats) -> list[dict]:
    """Figure 5: ASes per unrecorded sub-reason."""
    breakdown = stats.unrecorded_breakdown()
    return [
        {"reason": reason.value, "ases": breakdown.get(reason, 0)}
        for reason in UnrecordedReason
    ]


def fig6_rows(stats: VerificationStats) -> list[dict]:
    """Figure 6: ASes per special case."""
    breakdown = stats.special_breakdown()
    return [
        {"case": case.value, "ases": breakdown.get(case, 0)}
        for case in SpecialCase
    ]


def write_csv(rows: list[dict], destination: str | Path | IO[str]) -> None:
    """Write rows as CSV; the header is the union of keys, first-row order."""
    if not rows:
        raise ValueError("no rows to write")
    field_names = list(rows[0])
    for row in rows[1:]:
        for key in row:
            if key not in field_names:
                field_names.append(key)
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as stream:
            _write(rows, field_names, stream)
    else:
        _write(rows, field_names, destination)


def _write(rows: list[dict], field_names: list[str], stream: IO[str]) -> None:
    writer = csv.DictWriter(stream, fieldnames=field_names, restval="")
    writer.writeheader()
    writer.writerows(rows)
