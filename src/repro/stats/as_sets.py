"""As-set structure statistics (the Section 4 "opaqueness of as-sets"
analysis): empty sets, singletons, reserved-keyword members, giant sets,
recursion, loops, and nesting depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compiled import compile_index
from repro.core.query import QueryEngine
from repro.ir.model import Ir

__all__ = ["AsSetStats", "as_set_stats"]


@dataclass(frozen=True, slots=True)
class AsSetStats:
    """The counters quoted in Section 4's as-set paragraph."""

    total: int
    empty: int
    single_member: int
    with_any_member: int
    huge: int  # flattened membership above `huge_threshold`
    recursive: int  # contain at least one other as-set
    looping: int  # a cycle is reachable (subset of recursive)
    deep: int  # nesting depth >= `deep_threshold` (subset of recursive)
    huge_threshold: int
    deep_threshold: int

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for report printing."""
        return {
            "as-sets": self.total,
            "empty": self.empty,
            "single-member": self.single_member,
            "with ANY member": self.with_any_member,
            f">{self.huge_threshold} members": self.huge,
            "recursive": self.recursive,
            "looping": self.looping,
            f"depth >= {self.deep_threshold}": self.deep,
        }


def as_set_stats(
    ir: Ir,
    query: QueryEngine | None = None,
    huge_threshold: int = 10000,
    deep_threshold: int = 5,
) -> AsSetStats:
    """Compute as-set structure statistics over a merged IR.

    "Empty" and "single member" consider *direct* members, as in the
    paper's framing (a single-member set "could be replaced by the member");
    "huge" considers the flattened membership.  ``query`` is an engine
    over ``ir`` (a session's); without one, an index is compiled now.
    """
    if query is None:
        query = QueryEngine(ir, compile_index(ir))
    empty = 0
    single = 0
    with_any = 0
    huge = 0
    recursive = 0
    looping = 0
    deep = 0
    for name, as_set in ir.as_sets.items():
        direct = as_set.member_count
        if direct == 0:
            empty += 1
        elif direct == 1 and not as_set.contains_any:
            single += 1
        if as_set.contains_any:
            with_any += 1
        resolution = query.flatten_as_set(name)
        if len(resolution.members) > huge_threshold:
            huge += 1
        if as_set.members_set:
            recursive += 1
            if resolution.has_loop:
                looping += 1
            if resolution.depth >= deep_threshold:
                deep += 1
    return AsSetStats(
        total=len(ir.as_sets),
        empty=empty,
        single_member=single,
        with_any_member=with_any,
        huge=huge,
        recursive=recursive,
        looping=looping,
        deep=deep,
        huge_threshold=huge_threshold,
        deep_threshold=deep_threshold,
    )
