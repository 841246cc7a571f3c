"""An independent set-closure reference: DESIGN.md §4a, computed by fixpoint.

Production resolves each set name once (``repro.core.compiled``) and stores
it in the compiled index.  This module re-derives the same facts from the IR
alone, with no import from ``repro.core``, by the slowest obvious algorithm:
grow the reached nodes until a pass adds nothing.  :func:`index_mismatches`
compares it, field by field and order-insensitively, with an index's tables.
"""

from __future__ import annotations

from repro.ir.model import Ir
from repro.net.prefix import Prefix, RangeOp


def _by_reference(objects, sets: dict, value) -> dict:
    """set name → ``value(obj)`` of every object joining it by reference: it
    lists the set in ``member-of``, and the set's ``mbrs-by-ref`` names ANY
    or one of the object's ``mnt-by`` maintainers (RFC 2622)."""
    joined: dict = {}
    for obj in objects:
        for name in obj.member_of:
            admits = set(sets[name].mbrs_by_ref) if name in sets else set()
            if "ANY" in admits or admits & set(obj.mnt_by):
                joined.setdefault(name, set()).add(value(obj))
    return joined


def _fixpoint(start: set, step) -> set:
    """The least set holding ``start`` and closed under ``step``."""
    reached = set(start)
    while True:
        grown = reached | {new for node in reached for new in step(node)}
        if grown == reached:
            return reached
        reached = grown


class SetOracle:
    """Closures of one IR's as-sets and route-sets, as plain values."""

    def __init__(self, ir: Ir):
        self.ir = ir
        self.as_byref = _by_reference(ir.aut_nums.values(), ir.as_sets, lambda a: a.asn)
        self.route_byref = _by_reference(ir.route_objects, ir.route_sets, lambda r: r.prefix)

    def _children(self, name: str) -> list[str]:
        return self.ir.as_sets[name].members_set if name in self.ir.as_sets else []

    def as_set(self, name: str) -> dict:
        """The flattened as-set ``name``."""
        sets = self.ir.as_sets
        reached = _fixpoint({name}, self._children)
        recorded = {s for s in reached if s in sets}
        members = {
            asn for s in recorded for asn in (*sets[s].members_asn, *self.as_byref.get(s, ()))
        }
        below = {s: _fixpoint(set(self._children(s)), self._children) for s in recorded}
        return {
            "members": members,
            "unrecorded": reached - recorded,
            "contains_any": any(sets[s].contains_any for s in recorded),
            "has_loop": any(s in below[s] for s in recorded),
            "depth": self._depth(name, set(), {}),
            "recorded": name in sets,
        }

    def _depth(self, name: str, path: set, finished: dict) -> int:
        """DESIGN.md §4a, "depth", one clause per line."""
        if name not in self.ir.as_sets or name in path:
            return 0
        if name in finished:
            return finished[name]
        path.add(name)
        deepest = max((self._depth(c, path, finished) for c in self._children(name)), default=0)
        path.discard(name)
        finished[name] = deepest + 1
        return deepest + 1

    def _nested(self, node: tuple) -> list[tuple]:
        """⟨set, outer operator⟩ → the ⟨member set, composed operator⟩ pairs."""
        current, outer = node
        route_set = self.ir.route_sets.get(current)
        members = route_set.name_members if route_set is not None else ()
        return [(m.name, m.op.compose(outer)) for m in members if m.kind.name == "ROUTE_SET"]

    def route_set(self, name: str) -> dict:
        """The resolved route-set ``name``; operators compared as text."""
        sets = self.ir.route_sets
        reached = _fixpoint({(name, RangeOp())}, self._nested)
        found = {"prefixes": set(), "asns": set(), "as_sets": set(), "contains_any": False}
        for current, outer in reached:
            if current not in sets:
                continue
            for prefix, op in sets[current].prefix_members:
                found["prefixes"].add((prefix, str(op.compose(outer))))
            for prefix in self.route_byref.get(current, ()):
                found["prefixes"].add((prefix, str(outer)))
            for member in sets[current].name_members:
                op = str(member.op.compose(outer))
                if member.kind.name == "ASN":
                    found["asns"].add((int(member.name[2:]), op))
                elif member.kind.name == "AS_SET":
                    found["as_sets"].add((member.name, op))
                elif member.kind.name == "RS_ANY":
                    found["contains_any"] = True
        found["unrecorded"] = {current for current, _ in reached if current not in sets}
        found["recorded"] = name in sets
        return found


def _stored(resolution) -> dict:
    """An index entry (either kind) in the oracle's terms."""
    if not hasattr(resolution, "index"):  # an as-set
        fields = ("members", "contains_any", "has_loop", "depth", "recorded")
        return {f: getattr(resolution, f) for f in fields} | {
            "unrecorded": set(resolution.unrecorded)
        }
    entries = resolution.index.entries
    return {
        "prefixes": {(Prefix(*k), str(op)) for k, ops in entries.items() for op in ops},
        "asns": {(asn, str(op)) for asn, op in resolution.asn_members},
        "as_sets": {(name, str(op)) for name, op in resolution.as_set_members},
        "contains_any": resolution.contains_any,
        "unrecorded": set(resolution.unrecorded),
        "recorded": resolution.recorded,
    }


def index_mismatches(ir: Ir, index, as_sets, route_sets) -> list[tuple]:
    """``(table, name, field, oracle, index)`` for every disagreement; a name
    missing from the index table is one disagreement on field ``None``."""
    oracle = SetOracle(ir)
    found = []
    for table, names, derive in (
        ("as_sets", as_sets, oracle.as_set),
        ("route_sets", route_sets, oracle.route_set),
    ):
        for name in sorted(names):
            stored = getattr(index, table).get(name)
            if stored is None:
                found.append((table, name, None, "present", "missing"))
                continue
            expected, actual = derive(name), _stored(stored)
            found.extend(
                (table, name, field, expected[field], actual[field])
                for field in expected
                if expected[field] != actual[field]
            )
    return found
