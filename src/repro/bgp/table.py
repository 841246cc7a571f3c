"""BGP table dump I/O in a bgpdump-style one-line format.

Routes are serialized the way ``bgpdump -m`` renders MRT TABLE_DUMP2
records, which is the de-facto interchange format for RIS/RouteViews data::

    TABLE_DUMP2|<unix-time>|B|<collector>|<peer-asn>|<prefix>|<as-path>|IGP

AS_SET segments inside an AS-path appear as ``{1,2,3}``; the paper ignores
routes containing them (their use is deprecated), and the verifier does the
same, so the parser preserves them as a marker rather than dropping the
route silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from repro.gcpause import cyclic_gc_paused
from repro.net.prefix import Prefix, PrefixError

__all__ = ["RouteEntry", "route_entry_lines", "parse_table_text", "parse_table_file", "write_table_file"]

_AS_SET_RE = re.compile(r"\{([0-9,\s]+)\}")

DUMP_TIMESTAMP = 1687478400  # 2023-06-23, the paper's BGP snapshot date.


@dataclass(frozen=True, slots=True)
class RouteEntry:
    """One observed route: ⟨prefix, AS-path⟩ plus collection metadata.

    ``as_path`` is neighbor-first, origin-last, *with* any prepending as
    observed.  ``as_set`` holds the members of a trailing AS_SET aggregate
    segment if one was present (None otherwise).
    """

    collector: str
    peer_asn: int
    prefix: Prefix
    as_path: tuple[int, ...]
    as_set: frozenset[int] | None = None
    communities: frozenset[tuple[int, int]] = frozenset()

    @property
    def origin(self) -> int:
        """The origin AS (last ASN on the path)."""
        return self.as_path[-1]

    def deprepended_path(self) -> tuple[int, ...]:
        """The AS-path with consecutive duplicates collapsed."""
        collapsed: list[int] = []
        for asn in self.as_path:
            if not collapsed or collapsed[-1] != asn:
                collapsed.append(asn)
        return tuple(collapsed)

    def to_line(self, timestamp: int = DUMP_TIMESTAMP) -> str:
        """Render the bgpdump-style line."""
        path_text = " ".join(str(asn) for asn in self.as_path)
        if self.as_set:
            members = ",".join(str(asn) for asn in sorted(self.as_set))
            path_text = f"{path_text} {{{members}}}"
        line = (
            f"TABLE_DUMP2|{timestamp}|B|{self.collector}|{self.peer_asn}|"
            f"{self.prefix}|{path_text}|IGP"
        )
        if self.communities:
            tags = " ".join(
                f"{high}:{low}" for high, low in sorted(self.communities)
            )
            line += f"|{tags}"
        return line


def route_entry_lines(entries: Iterable[RouteEntry]) -> Iterator[str]:
    """Render entries to dump lines."""
    for entry in entries:
        yield entry.to_line()


def _parse_path(text: str) -> tuple[tuple[int, ...], frozenset[int] | None]:
    as_set: frozenset[int] | None = None
    match = _AS_SET_RE.search(text)
    if match is not None:
        members = frozenset(
            int(token) for token in match.group(1).replace(",", " ").split()
        )
        as_set = members
        text = _AS_SET_RE.sub(" ", text)
    path = tuple(int(token) for token in text.split())
    return path, as_set


def _parse_communities(text: str) -> frozenset[tuple[int, int]]:
    tags = set()
    for token in text.split():
        high, _, low = token.partition(":")
        if high.isdigit() and low.isdigit():
            tags.add((int(high), int(low)))
    return frozenset(tags)


def parse_table_text(text: str | Iterable[str]) -> Iterator[RouteEntry]:
    """Parse dump lines; malformed lines are skipped (as bgpdump users do)."""
    lines = text.splitlines() if isinstance(text, str) else text
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) < 7 or parts[0] != "TABLE_DUMP2":
            continue
        try:
            prefix = Prefix.parse(parts[5])
            path, as_set = _parse_path(parts[6])
            peer_asn = int(parts[4])
            communities = _parse_communities(parts[8]) if len(parts) > 8 else frozenset()
        except (PrefixError, ValueError):
            continue
        if not path and as_set is None:
            continue
        yield RouteEntry(
            collector=parts[3],
            peer_asn=peer_asn,
            prefix=prefix,
            as_path=path,
            as_set=as_set,
            communities=communities,
        )


# Lines parsed between two opportunities for the cyclic collector to run.
_GC_PAUSE_LINES = 8192


def parse_table_file(path: str | Path) -> Iterator[RouteEntry]:
    """Stream-parse a dump file, a bounded batch of lines at a time.

    Each batch's entries are built with the cyclic collector paused
    (:func:`~repro.gcpause.cyclic_gc_paused`: tens of thousands of acyclic
    objects that all live on); the consumer's code between two entries
    runs with it on.
    """
    with open(path, encoding="utf-8") as stream:
        while lines := list(islice(stream, _GC_PAUSE_LINES)):
            with cyclic_gc_paused():
                entries = list(parse_table_text(lines))
            yield from entries


def write_table_file(path: str | Path, entries: Iterable[RouteEntry]) -> int:
    """Write entries to a dump file; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as stream:
        for entry in entries:
            stream.write(entry.to_line())
            stream.write("\n")
            count += 1
    return count
