"""BGP update streams: incremental route churn.

RIS and RouteViews publish both table snapshots and *update* feeds;
the paper argues RPSLyzer's throughput "allows processing large volumes
of BGP updates such as those collected by BGP collectors".  This module
provides that workload offline:

* :class:`UpdateEntry` — one announcement or withdrawal, serialized in
  the bgpdump update format (``BGP4MP|<ts>|A|...`` / ``|W|...``);
* :func:`synthesize_updates` — a churn generator over a route table:
  flaps (withdraw + re-announce), path changes (the AS picks its next
  best route), and new-prefix announcements, in timestamp order.

An announcement is verified like a table entry —
``verifier.verify_entry(update.to_route_entry())``; the hop cache makes
re-announcements nearly free.  A withdrawal carries no route to verify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.bgp.table import DUMP_TIMESTAMP, RouteEntry, _parse_path
from repro.net.prefix import Prefix, PrefixError

__all__ = ["UpdateEntry", "synthesize_updates", "parse_update_text"]


@dataclass(frozen=True, slots=True)
class UpdateEntry:
    """One BGP update: an announcement (with a route) or a withdrawal."""

    timestamp: int
    kind: str  # "A" (announce) or "W" (withdraw)
    collector: str
    peer_asn: int
    prefix: Prefix
    as_path: tuple[int, ...] = ()  # empty for withdrawals

    def to_line(self) -> str:
        """Render in bgpdump's one-line update format."""
        if self.kind == "W":
            return (
                f"BGP4MP|{self.timestamp}|W|{self.collector}|{self.peer_asn}|{self.prefix}"
            )
        path_text = " ".join(str(asn) for asn in self.as_path)
        return (
            f"BGP4MP|{self.timestamp}|A|{self.collector}|{self.peer_asn}|"
            f"{self.prefix}|{path_text}|IGP"
        )

    def to_route_entry(self) -> RouteEntry:
        """The announcement as a table entry (announcements only)."""
        if self.kind != "A":
            raise ValueError("withdrawals carry no route")
        return RouteEntry(
            collector=self.collector,
            peer_asn=self.peer_asn,
            prefix=self.prefix,
            as_path=self.as_path,
        )


def parse_update_text(text: str | Iterable[str]) -> Iterator[UpdateEntry]:
    """Parse bgpdump-style update lines; malformed lines are skipped."""
    lines = text.splitlines() if isinstance(text, str) else text
    for line in lines:
        parts = line.strip().split("|")
        if len(parts) < 6 or parts[0] != "BGP4MP" or parts[2] not in ("A", "W"):
            continue
        try:
            timestamp = int(parts[1])
            peer_asn = int(parts[4])
            prefix = Prefix.parse(parts[5])
        except (ValueError, PrefixError):
            continue
        if parts[2] == "W":
            yield UpdateEntry(timestamp, "W", parts[3], peer_asn, prefix)
            continue
        if len(parts) < 7:
            continue
        try:
            path, as_set = _parse_path(parts[6])
        except ValueError:  # garbage in the as-path field: skip the line
            continue
        if not path or as_set is not None:
            continue
        yield UpdateEntry(timestamp, "A", parts[3], peer_asn, prefix, path)


def synthesize_updates(
    table: Iterable[RouteEntry],
    duration: int = 3600,
    flap_probability: float = 0.05,
    path_change_probability: float = 0.03,
    seed: int = 13,
    start_timestamp: int = DUMP_TIMESTAMP,
) -> list[UpdateEntry]:
    """Churn a table into a timestamp-ordered update stream.

    Flapping routes withdraw then re-announce; path changes re-announce
    with the first transit hop replaced (the peer switched best route).
    """
    rng = random.Random(seed)
    updates: list[UpdateEntry] = []
    for entry in table:
        if entry.as_set is not None or len(entry.as_path) < 2:
            continue
        if rng.random() < flap_probability:
            down = start_timestamp + rng.randrange(duration)
            up = min(down + rng.randrange(30, 600), start_timestamp + duration)
            updates.append(
                UpdateEntry(down, "W", entry.collector, entry.peer_asn, entry.prefix)
            )
            updates.append(
                UpdateEntry(
                    up, "A", entry.collector, entry.peer_asn, entry.prefix, entry.as_path
                )
            )
        elif rng.random() < path_change_probability and len(entry.as_path) >= 3:
            when = start_timestamp + rng.randrange(duration)
            detour = (entry.as_path[0], entry.as_path[1] + 1, *entry.as_path[1:])
            updates.append(
                UpdateEntry(
                    when, "A", entry.collector, entry.peer_asn, entry.prefix, detour
                )
            )
    updates.sort(key=lambda update: (update.timestamp, update.peer_asn, str(update.prefix)))
    return updates
