"""Structured degradation reporting for the resilient pipeline.

The pipeline's robustness contract (see ``docs/robustness.md``) is that a
fault — a truncated dump, a killed verification worker, a flaky whois
connection — never crashes or hangs a run; instead the affected work is
skipped, quarantined, or retried, and the *fact* of the degradation is
recorded so an operator can tell a clean run from a limped-through one.

A :class:`DegradationReport` is that record: a multiset of
``(component, kind, detail)`` events.  It rides on
:class:`~repro.stats.verification.VerificationStats`, merges across
worker processes exactly like the stats themselves, and is embedded in
the run manifest (``build_manifest(..., degradation=...)``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

__all__ = ["DegradationEvent", "DegradationReport"]


@dataclass(frozen=True, slots=True)
class DegradationEvent:
    """One kind of degradation observed, with an occurrence count.

    ``component`` names the pipeline layer (``ingest``, ``verify``,
    ``whois``); ``kind`` the fault handling that happened
    (``chunk-requeued``, ``worker-lost``, ``truncated-object``, ...);
    ``detail`` is free-form context for humans.
    """

    component: str
    kind: str
    detail: str = ""
    count: int = 1

    def as_dict(self) -> dict:
        """JSON-able form of the event."""
        return {
            "component": self.component,
            "kind": self.kind,
            "detail": self.detail,
            "count": self.count,
        }

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        times = f" x{self.count}" if self.count != 1 else ""
        return f"[{self.component}/{self.kind}]{suffix}{times}"


class DegradationReport:
    """An accumulating, mergeable multiset of degradation events."""

    def __init__(self) -> None:
        self._counts: Counter = Counter()

    def record(
        self, component: str, kind: str, detail: str = "", count: int = 1
    ) -> None:
        """Count one (or ``count``) occurrences of a degradation."""
        self._counts[(component, kind, detail)] += count

    def merge(self, other: "DegradationReport") -> None:
        """Fold another report into this one (parallel verification)."""
        self._counts.update(dict(other._counts))  # one snapshot, see by_kind

    def events(self) -> list[DegradationEvent]:
        """All events, deterministically ordered."""
        return [
            DegradationEvent(component, kind, detail, count)
            for (component, kind, detail), count in sorted(self._counts.items())
        ]

    def by_kind(self) -> dict[str, int]:
        """Occurrence totals keyed ``component/kind`` (detail collapsed).

        Safe from another thread while the owner's loop records: the
        events are copied in one C-level step before they are summed.
        """
        totals: Counter = Counter()
        for (component, kind, _), count in list(self._counts.items()):
            totals[f"{component}/{kind}"] += count
        return dict(sorted(totals.items()))

    def as_dict(self) -> dict:
        """JSON-able form, stable across runs with the same events."""
        return {
            "total": len(self),
            "events": [event.as_dict() for event in self.events()],
        }

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __str__(self) -> str:
        if not self._counts:
            return "no degradation"
        return "; ".join(str(event) for event in self.events())
