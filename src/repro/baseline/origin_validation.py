"""IRR-based route-origin validation: the prior-work baseline.

The studies closest to the paper "combine RPSL and BGP dumps to verify
route origins ... and are limited to binary validation" (Section 6).
This module implements that baseline — an RPKI-ROV-shaped check against
*route* objects instead of ROAs — so the benchmarks can quantify what
full-path policy verification adds over it:

* **valid** — a route object registers exactly ⟨prefix, origin⟩;
* **valid-covering** — a less-specific route object of the same origin
  covers the prefix (IRR practice registers aggregates);
* **invalid-origin** — the prefix (or a covering prefix) is registered,
  but only with *other* origins — the hijack-shaped signal;
* **unknown** — nothing registered covers the prefix.

Origin validation sees only the first AS of the path: a leak with a
legitimate origin is *valid* here while path verification flags it.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Iterable

from repro.bgp.table import RouteEntry
from repro.core.compiled import compile_index
from repro.core.query import QueryEngine
from repro.ir.model import Ir
from repro.net.prefix import Prefix

__all__ = ["OriginStatus", "OriginValidator"]


class OriginStatus(Enum):
    """The four binary-validation outcomes, best first."""

    VALID = "valid"
    VALID_COVERING = "valid-covering"
    INVALID_ORIGIN = "invalid-origin"
    UNKNOWN = "unknown"


class OriginValidator:
    """Validates ⟨prefix, origin⟩ pairs against registered route objects."""

    def __init__(self, ir: Ir, query: QueryEngine | None = None):
        self.query = query if query is not None else QueryEngine(ir, compile_index(ir))

    def validate(self, prefix: Prefix, origin: int) -> OriginStatus:
        """Classify one ⟨prefix, origin⟩ pair.

        One trie walk collects every registered covering prefix (exact
        included); two passes over that short list rank the outcome.
        """
        covering = self.query.routes.covering_origins(
            prefix.version, prefix.network, prefix.length
        )
        if not covering:
            return OriginStatus.UNKNOWN
        announced = prefix.length
        for length, origins in covering:
            if length == announced and origin in origins:
                return OriginStatus.VALID
        for length, origins in covering:
            if length != announced and origin in origins:
                return OriginStatus.VALID_COVERING
        return OriginStatus.INVALID_ORIGIN

    def validate_entry(self, entry: RouteEntry) -> OriginStatus:
        """Classify one observed route by its origin AS."""
        return self.validate(entry.prefix, entry.origin)

    def census(self, entries: Iterable[RouteEntry]) -> Counter:
        """Status counts over a route table."""
        counts: Counter = Counter()
        for entry in entries:
            counts[self.validate_entry(entry)] += 1
        return counts
