"""The compile-once verification index (see ``docs/performance.md``).

Bulk verification evaluates the same immutable IR hundreds of millions of
times, yet the :class:`~repro.core.query.QueryEngine` resolves as-sets,
route-sets, and AS-path regexes *lazily per process*: every pool worker
re-derives the same memo caches cold, and every run re-derives them from
zero.  This module adds the missing compilation pass:

* :func:`compile_index` turns an :class:`~repro.ir.model.Ir` into an
  immutable, picklable :class:`CompiledIndex` — the frozen
  :class:`~repro.core.prefixtrie.RouteTrie` over every declared
  ⟨prefix, origin⟩ pair, members-by-reference maps, fully flattened
  as-set closures, resolved route-/peering-sets (their member tries
  pre-frozen), and AS-path regexes pre-lowered to matcher programs;
* a :class:`~repro.core.verify.Verifier` (or ``QueryEngine``/
  ``AsPathMatcher``) built with ``index=`` starts with every one of those
  tables warm, so the hot loop is pure lookups;
* :func:`verify_table <repro.core.parallel.verify_table>` ships the
  artifact to workers instead of letting each worker re-derive it
  (``fork``: built pre-fork, the flat planes shared copy-on-write;
  ``spawn``: pickled once per worker);
* :func:`get_or_compile` persists the artifact under
  ``~/.cache/rpslyzer/`` keyed by the IR content digest, so later runs
  over the same IR start warm too (``rpslyzer compile`` /
  ``--no-index-cache`` are the CLI knobs).

The on-disk envelope (format 3) is *flat*: a JSON header describing the
trie planes, the plane bytes 16-aligned, then one pickle blob for the
residual tables.  :func:`load_index` maps the file with ``mmap`` and
casts the planes to zero-copy memoryviews — warm start skips
deserializing the largest tables entirely, and the pages stay shared
between every process mapping the same artifact.  The mapping holds a
file descriptor until :meth:`CompiledIndex.close` releases it (Session
close / index eviction call this for indexes they own).

Everything in the artifact is produced by the *same* resolution code the
lazy path runs on demand, so verification over a compiled index is
bit-identical to the lazy path — ``tests/test_compiled_index.py`` checks
this differentially, including under injected worker death.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import mmap
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.aspath_match import AsPathMatcher, CompiledAsPathRegex
from repro.core.prefixtrie import RouteTrie
from repro.core.query import (
    AsSetResolution,
    QueryEngine,
    ResolvedRouteSet,
    _byref_allowed,
)
from repro.ir import serialize
from repro.ir.json_io import ir_to_jsonable  # noqa: F401 - registers IR classes
from repro.ir.model import Ir
from repro.net.prefix import Prefix, PrefixError
from repro.obs import get_registry
from repro.rpsl.aspath import AsPathRegexNode, ReAsSet, iter_regex_nodes
from repro.rpsl.filter import (
    Filter,
    FilterAsn,
    FilterAsPathRegex,
    FilterAsSet,
    FilterFltrSetRef,
    FilterRouteSet,
)
from repro.rpsl.names import NameKind
from repro.rpsl.peering import PeerAsSet, Peering, PeeringSetRef
from repro.rpsl.walk import iter_as_expr_nodes, iter_filter_nodes, iter_policy_factors

__all__ = [
    "INDEX_FORMAT",
    "CompiledIndex",
    "IndexCacheError",
    "PatchEffects",
    "compile_index",
    "patch_index",
    "ir_digest",
    "default_cache_dir",
    "index_cache_path",
    "save_index",
    "load_index",
    "get_or_compile",
]

# Bump whenever the artifact layout (or the dataclasses inside it) changes
# incompatibly; mismatched cache files are recompiled, never half-read.
# Format 2: flat mmap-able envelope (magic + JSON header + aligned plane
# region + residual pickle) replacing the format-1 whole-pickle envelope.
# Format 3: the tries persist their hash planes only (format 2 carried
# patricia node planes beside them, in the envelope and in every pickled
# route-set member trie).
INDEX_FORMAT = "rpslyzer-compiled-index/3"

_MAGIC = b"RPSLIDX3"
_ALIGN = 16  # plane alignment; mmap bases are page-aligned so this holds
_MAX_HEADER_BYTES = 1 << 24


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class IndexCacheError(RuntimeError):
    """A cache file exists but cannot be used (format/digest mismatch)."""


class _MmapResource:
    """The mmap behind a loaded artifact plus every exported view.

    ``mmap.mmap`` dups the file descriptor internally, so the mapping —
    not the ``open()`` handle, which closes right after mapping — is what
    pins an fd per loaded artifact.  ``close()`` releases the views first
    (an exported memoryview keeps the map alive) and then the map.
    """

    __slots__ = ("_mapped", "_views")

    def __init__(self, mapped: mmap.mmap, views: list):
        self._mapped = mapped
        self._views = views

    def close(self) -> None:
        views, self._views = self._views, []
        for view in views:
            view.release()
        mapped, self._mapped = self._mapped, None
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:  # a caller still holds a sub-view
                pass


@dataclass(frozen=True, slots=True)
class PatchEffects:
    """What one :func:`patch_index` step can have changed under a verdict.

    Derived statically from the journal and the policy ASTs — nothing is
    recorded while verifying — and consumed by
    :meth:`repro.core.verify.Verifier.adopt_hop_cache` to decide which
    cached hop checks survive the step ("What a delta invalidates" in
    ``docs/incremental.md`` states the rule and why it covers every read
    the verifier makes):

    * ``subjects`` — aut-nums that were rewritten, or whose rules can
      reach a changed set name — or an ``AS<n>`` atom of a flipped origin
      *n* — through any chain of set references;
    * ``import_subjects`` — rewritten aut-nums whose ``exports``,
      ``bad_rules`` and ``source`` stayed as they were: an export check
      reads nothing else of the object, so only their import checks go;
    * ``member_subjects`` / ``member_asns`` — aut-nums whose rules reach
      the journal only through as-sets whose flattened closure moved in
      nothing but its member ASNs, and those ASNs (:func:`_closure_effects`).
      Every reader of a closure asks whether one AS is a member — an
      endpoint of the hop, an AS on the path, the origin of a route
      object at or above *P* — so such a check is stale iff one of
      ``member_asns`` is among the ASes it can have asked about;
    * ``prefixes`` — route prefixes whose trie entry changed: a cached
      check on prefix *P* read the trie only at *P* and its ancestors,
      so it is stale iff some changed *Q* covers *P*;
    * ``flipped_origins`` — ASes that gained their first or lost their
      last route.  ``has_any_routes(n)`` is read from two places: an
      ``AS<n>`` filter atom (static, hence an edge of the reference
      graph and already folded into ``subjects``) and ``PeerAS``, which
      names the hop's other endpoint — so beyond ``subjects`` a check
      is stale iff *n* is one of its two endpoints.
    """

    subjects: frozenset[int]
    import_subjects: frozenset[int]
    member_subjects: frozenset[int]
    member_asns: frozenset[int]
    prefixes: frozenset[Prefix]
    flipped_origins: frozenset[int]


# Per-process state that never travels with an artifact (pickle / disk).
_TRANSIENT_FIELDS = ("resource", "dependents", "effects")


@dataclass(slots=True)
class CompiledIndex:
    """Every query-engine table, materialized eagerly from one IR.

    Instances are treated as immutable once built: engines adopting one
    copy the memo-cache dicts (cheap, shallow) and share the read-only
    route trie, so a single artifact can back the parent's serial
    fallback and every worker simultaneously.  An index loaded from the
    disk cache keeps its planes mapped from the file; ``close()``
    releases the mapping (and its file descriptor) and must only be
    called by the owner once no engine uses it anymore.
    """

    digest: str | None
    route_trie: RouteTrie
    as_set_byref: dict[str, set[int]]
    route_set_byref: dict[str, list]
    as_sets: dict[str, AsSetResolution]
    route_sets: dict[str, ResolvedRouteSet]
    peering_sets: dict[str, tuple[Peering, ...] | None]
    aspath_regexes: dict[AsPathRegexNode, CompiledAsPathRegex]
    compile_seconds: float = 0.0
    skipped_regexes: int = 0
    # Incremental-ingestion lineage: ``generation`` counts patch_index
    # applications since the from-scratch compile (0), ``serials`` is the
    # highest journal serial absorbed per source registry.
    generation: int = 0
    serials: dict = field(default_factory=dict)
    format: str = INDEX_FORMAT
    resource: _MmapResource | None = field(default=None, repr=False, compare=False)
    # Incremental-ingestion bookkeeping, both None on a from-scratch
    # compile or a loaded artifact: the reverse reference graph
    # (:func:`_build_dependents`, built by the first patch that needs it
    # and carried along the lineage) and what the patch that produced
    # this index can have invalidated relative to its predecessor.
    dependents: dict | None = field(default=None, repr=False, compare=False)
    effects: PatchEffects | None = field(default=None, repr=False, compare=False)

    def stats(self) -> dict:
        """Entry counts per table (for logs, manifests, and tests)."""
        trie_stats = self.route_trie.stats()
        return {
            "route_index": trie_stats["prefixes"],
            "origins": trie_stats["origins"],
            "plane_bytes": trie_stats["plane_bytes"],
            "as_sets": len(self.as_sets),
            "route_sets": len(self.route_sets),
            "peering_sets": len(self.peering_sets),
            "aspath_regexes": len(self.aspath_regexes),
            "skipped_regexes": self.skipped_regexes,
            "compile_seconds": self.compile_seconds,
        }

    def close(self) -> None:
        """Release the mmap behind a cache-loaded artifact (idempotent).

        No-op for an index compiled in memory.  After closing, the trie
        planes are gone — every engine adopting this index must be done.
        """
        resource, self.resource = self.resource, None
        if resource is None:
            return
        self.route_trie.detach()
        resource.close()

    def __getstate__(self):
        # The mmap resource never travels: pickling (spawn workers,
        # re-saving) materializes the trie planes into arrays instead.
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in _TRANSIENT_FIELDS
        }

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        for name in _TRANSIENT_FIELDS:
            setattr(self, name, None)


# The IR table behind each keyed journal class (routes are a list, not a
# table, and are patched through the trie instead).
_IR_TABLES = {
    "aut-num": "aut_nums",
    "as-set": "as_sets",
    "route-set": "route_sets",
    "peering-set": "peering_sets",
    "filter-set": "filter_sets",
}


@dataclass(slots=True)
class _Referenced:
    """Set names and regex nodes collected from policy objects.

    ``as_sets``/``route_sets``/``peering_sets``/``regexes`` are what the
    compile pass resolves eagerly; ``filter_sets``, ``regex_as_sets``
    (as-set tokens inside AS-path regexes) and ``origins`` (``AS<n>``
    atoms, which read whether *n* originates anything at all) resolve
    straight off the IR or the trie, and are collected only as
    dependency edges (:meth:`nodes`).
    """

    as_sets: set[str] = field(default_factory=set)
    route_sets: set[str] = field(default_factory=set)
    peering_sets: set[str] = field(default_factory=set)
    filter_sets: set[str] = field(default_factory=set)
    regex_as_sets: set[str] = field(default_factory=set)
    origins: set[int] = field(default_factory=set)
    regexes: list[AsPathRegexNode] = field(default_factory=list)
    _seen_regexes: set[AsPathRegexNode] = field(default_factory=set)

    def add_filter(self, node: Filter) -> None:
        for inner in iter_filter_nodes(node):
            if isinstance(inner, FilterAsSet) and not inner.any_member:
                self.as_sets.add(inner.name)
            elif isinstance(inner, FilterRouteSet) and not inner.any_member:
                self.route_sets.add(inner.name)
            elif isinstance(inner, FilterFltrSetRef):
                self.filter_sets.add(inner.name)
            elif isinstance(inner, FilterAsn):
                self.origins.add(inner.asn)
            elif isinstance(inner, FilterAsPathRegex):
                if inner.regex not in self._seen_regexes:
                    self._seen_regexes.add(inner.regex)
                    self.regexes.append(inner.regex)
                    for token in iter_regex_nodes(inner.regex):
                        if isinstance(token, ReAsSet):
                            self.regex_as_sets.add(token.name)

    def add_peering(self, peering: Peering) -> None:
        for inner in iter_as_expr_nodes(peering.as_expr):
            if isinstance(inner, PeerAsSet):
                self.as_sets.add(inner.name)
            elif isinstance(inner, PeeringSetRef):
                self.peering_sets.add(inner.name)

    def add_object(self, cls: str, obj) -> None:
        """Everything one keyed IR object names directly."""
        if cls == "aut-num":
            for rule in (*obj.imports, *obj.exports):
                for factor in iter_policy_factors(rule.expr):
                    self.add_filter(factor.filter)
                    for peering_action in factor.peerings:
                        self.add_peering(peering_action.peering)
        elif cls == "as-set":
            self.as_sets.update(obj.members_set)
        elif cls == "route-set":
            for member in obj.name_members:
                if member.kind is NameKind.AS_SET:
                    self.as_sets.add(member.name)
                elif member.kind is NameKind.ROUTE_SET:
                    self.route_sets.add(member.name)
        elif cls == "filter-set":
            if obj.filter is not None:
                self.add_filter(obj.filter)
        elif cls == "peering-set":
            for peering in obj.peerings:
                self.add_peering(peering)

    def nodes(self) -> set[tuple]:
        """Everything referenced, as ``(class, name)`` graph nodes."""
        found: set[tuple] = {("as-set", name) for name in self.as_sets}
        found.update(("as-set", name) for name in self.regex_as_sets)
        found.update(("route-set", name) for name in self.route_sets)
        found.update(("peering-set", name) for name in self.peering_sets)
        found.update(("filter-set", name) for name in self.filter_sets)
        found.update(("origin", asn) for asn in self.origins)
        return found


def _collect_references(ir: Ir) -> _Referenced:
    """Every set name and regex any verification check could resolve.

    Referenced-but-unrecorded names matter too: their (negative)
    resolutions are memoized by the lazy engine, so the compiled artifact
    carries them as well.
    """
    refs = _Referenced()
    refs.as_sets.update(ir.as_sets)
    refs.route_sets.update(ir.route_sets)
    refs.peering_sets.update(ir.peering_sets)
    # as-set members resolve inside their owner's flattening, never alone.
    for cls in ("aut-num", "filter-set", "peering-set", "route-set"):
        for obj in getattr(ir, _IR_TABLES[cls]).values():
            refs.add_object(cls, obj)
    return refs


def _resolve_references(engine: QueryEngine, matcher: AsPathMatcher, refs) -> int:
    """Warm the engine/matcher memo tables for ``refs`` (cached names no-op).

    Returns how many of the regexes could not be lowered: those compile
    lazily (and fail identically) if a check ever reaches them.
    """
    for name in sorted(refs.as_sets):
        engine.flatten_as_set(name)
    for name in sorted(refs.route_sets):
        engine.resolve_route_set(name)
    for name in sorted(refs.peering_sets):
        engine.resolve_peering_set(name)
    skipped = 0
    for node in refs.regexes:
        try:
            matcher.compile(node)
        except Exception:  # noqa: BLE001 - mirror the lazy path
            skipped += 1
    return skipped


def _mentions(cls: str, obj) -> _Referenced:
    """What one keyed object (None when absent) names directly."""
    refs = _Referenced()
    if obj is not None:
        refs.add_object(cls, obj)
    return refs


def _build_dependents(ir: Ir) -> dict:
    """referenced ``(class, name)`` node → the objects naming it.

    A dependent is the ``(class, name)`` node of a set object or the
    plain ASN of an *aut-num* (policy rules are the leaves of the graph).
    One full AST walk; :func:`patch_index` runs it at most once per index
    lineage and afterwards edits a shallow copy of the map from the
    changed objects alone — no AST outside the delta is walked again.
    """
    dependents: dict = {}
    for cls, table in _IR_TABLES.items():
        for key, obj in getattr(ir, table).items():
            dependent = key if cls == "aut-num" else (cls, key)
            for node in _mentions(cls, obj).nodes():
                dependents.setdefault(node, set()).add(dependent)
    return dependents


def compile_index(ir: Ir, *, digest: str | None = None) -> CompiledIndex:
    """Compile an IR into a :class:`CompiledIndex` (the whole pass).

    The pass drives the ordinary :class:`QueryEngine`/:class:`AsPathMatcher`
    resolution code eagerly over every referenced name, then captures the
    resulting tables — so compiled lookups are the lazy path's answers,
    computed once.  Every resolved route-set's member index is frozen
    into its flat-plane form, so the artifact carries no lazy state.
    """
    registry = get_registry()
    started = time.perf_counter()
    with registry.span("compile/index"):
        engine = QueryEngine(ir)
        matcher = AsPathMatcher(engine)
        skipped = _resolve_references(engine, matcher, _collect_references(ir))
        for resolution in engine._route_set_cache.values():
            resolution.index.freeze()
        elapsed = time.perf_counter() - started
        index = CompiledIndex(
            digest=digest,
            route_trie=engine.routes,
            as_set_byref=engine._as_set_byref,
            route_set_byref=engine._route_set_byref,
            as_sets=engine._as_set_cache,
            route_sets=engine._route_set_cache,
            peering_sets=engine._peering_set_cache,
            aspath_regexes=matcher._compiled,
            compile_seconds=elapsed,
            skipped_regexes=skipped,
        )
    if registry.enabled:
        registry.gauge("index_compile_seconds").set(elapsed)
        for kind, count in index.stats().items():
            if kind in ("compile_seconds",):
                continue
            registry.gauge("index_entries", table=kind).set(count)
    return index


# -- incremental patching ----------------------------------------------------


def _reverse_reachable(seeds: set, reverse: dict, blocked=frozenset()) -> set:
    """Every node that can reach a seed (seeds included): the dirty set.

    ``blocked`` nodes are neither entered nor walked through.
    """
    dirty = set(seeds)
    stack = list(seeds)
    while stack:
        node = stack.pop()
        for parent in reverse.get(node, ()):
            if parent not in dirty and parent not in blocked:
                dirty.add(parent)
                stack.append(parent)
    return dirty


def _closure_effects(
    seeds: set, dirty: set, dependents: dict, old_as_sets: dict, new_as_sets: dict
) -> tuple[set[int], set[int], set[int]]:
    """Which aut-nums the dirty names can have changed a verdict of, and how.

    ``dirty`` is everything that had to be re-resolved; what a *reader*
    can see is narrower.  A dirty as-set whose re-resolved closure equals
    the old one shows its readers nothing.  One whose closure moved only
    in its member ASNs shows them something only where one of those ASNs
    is looked up (every reader asks "is AS *x* a member", for *x* an
    endpoint of the hop, an AS on the path, or the origin of a route
    object at or above the prefix).  Anything else — a recorded /
    unrecorded / ANY flag, a set that appeared or vanished, and every
    changed non-as-set name — can reach any verdict of its dependents.

    Returns ``(subjects, member_subjects, member_asns)``: aut-nums that
    lose every cached verdict, aut-nums reached only through member-ASN
    changes, and those ASNs.  as-set → as-set edges are not walked: each
    as-set on the way was re-resolved and is judged by its own closure.
    """
    as_set_nodes = {
        node for node in dirty if not isinstance(node, int) and node[0] == "as-set"
    }
    member_asns: set[int] = set()
    rewritten: set = set()
    regrouped: set = set()
    for node in as_set_nodes:
        old, new = old_as_sets.get(node[1]), new_as_sets.get(node[1])
        if old == new:
            continue
        if (
            old is not None
            and new is not None
            and dataclasses.replace(old, members=new.members) == new
        ):
            regrouped.add(node)
            member_asns |= old.members ^ new.members
        else:
            rewritten.add(node)
    subjects = {
        node
        for node in _reverse_reachable(
            (seeds - as_set_nodes) | rewritten, dependents, as_set_nodes
        )
        if isinstance(node, int)
    }
    member_subjects = {
        node
        for node in _reverse_reachable(regrouped, dependents, as_set_nodes)
        if isinstance(node, int) and node not in subjects
    }
    return subjects, member_subjects, member_asns


def _route_entry_key(entry) -> tuple[Prefix, int, str]:
    """A route entry's wire key parsed into canonical in-memory form.

    Journal keys carry the prefix as a string; parsing canonicalizes
    host bits and IPv6 spellings so lookups below match ``route.prefix``
    instead of silently missing a live route spelled differently.  An
    unparseable key cannot name any route — ``apply_journal_to_ir``
    degrades such journals to the full recompile before this fast path
    runs — so raising loudly beats patching by a wrong key.
    """
    key = entry.key
    try:
        return (Prefix.parse(key[0]), key[1], key[2])
    except (PrefixError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"route entry key {key!r} is not patchable: {exc}") from exc


def patch_index(
    index: CompiledIndex,
    old_ir: Ir,
    new_ir: Ir,
    journal,
    *,
    digest: str | None = None,
) -> CompiledIndex:
    """Patch a compiled index with one journal's deltas (the fast path).

    ``journal`` is a :class:`repro.irr.journal.Journal` whose entries
    transform ``old_ir`` (the IR ``index`` was compiled from) into
    ``new_ir``; the caller is responsible for having validated the replay
    (:func:`repro.irr.journal.apply_journal_to_ir` returned a clean
    degradation report) — a degraded journal must recompile instead.

    The reverse-dependency walk touches only what the entries reference:

    * route entries become point inserts/deletes on a thawed
      :class:`~repro.core.prefixtrie.RouteTrie` (tombstones; plane
      rebuilds when load factor or tombstone ratio trips) — no other
      table depends on trie *contents*, so nothing else is invalidated;
    * members-by-reference rows are recomputed for exactly the set names
      the changed objects join (or stop joining);
    * cached as-set closures and route-set resolutions are evicted along
      reverse reachability over the reference graph (``dependents``:
      built by one AST walk on the first patch that needs it — route
      churn that flips no origin does not — then edited, on a shallow
      copy, from the changed objects alone) — every cached name whose
      sweep could have seen a changed object — and re-resolved by the
      ordinary engine code, so patched entries are bit-identical to a
      fresh compile's;
    * the names and regexes the *changed* objects mention are resolved
      too, so first-time references are as warm as after a fresh compile.

    The result is a fresh :class:`CompiledIndex` (generation + 1, serials
    advanced, digest chained over the journal content) sharing unchanged
    tables with ``index``; the input index is not mutated and never keeps
    its mmap — planes are materialized so the caller can close the old
    artifact immediately after swapping.  Its ``effects`` field carries
    the :class:`PatchEffects` of this step: the same walk that finds the
    dirty closures also finds every aut-num whose cached hop verdicts the
    journal can reach, and comparing each re-resolved as-set closure with
    its predecessor says how far (:func:`_closure_effects`).
    """
    registry = get_registry()
    started = time.perf_counter()
    with registry.span("compile/patch"):
        entries = list(journal)
        route_entries = [e for e in entries if e.cls == "route"]
        named_entries = [e for e in entries if e.cls != "route"]
        changed: dict[str, set] = {}
        for entry in named_entries:
            changed.setdefault(entry.cls, set()).add(entry.key)

        # -- members-by-reference: which set names need recomputing -------
        as_byref_dirty: set[str] = set(changed.get("as-set", ()))
        for entry in named_entries:
            if entry.cls != "aut-num":
                continue
            old_aut = old_ir.aut_nums.get(entry.key)
            if old_aut is not None:
                as_byref_dirty.update(old_aut.member_of)
            if entry.obj is not None:
                as_byref_dirty.update(entry.obj.member_of)
        rs_byref_dirty: set[str] = set(changed.get("route-set", ()))
        for entry in route_entries:
            if entry.obj is not None:
                rs_byref_dirty.update(entry.obj.member_of)
        route_keys = [_route_entry_key(e) for e in route_entries]
        retired = {
            key
            for key, e in zip(route_keys, route_entries)
            if e.action in ("DEL", "MOD")
        }
        if retired:
            # Old-side member_of for retired routes: one pass, origin-int
            # prefiltered so the common row costs a set probe, not a key.
            retired_origins = {key[1] for key in retired}
            for route in old_ir.route_objects:
                if route.member_of and route.origin in retired_origins:
                    if (route.prefix, route.origin, route.source) in retired:
                        rs_byref_dirty.update(route.member_of)

        as_set_byref = index.as_set_byref
        if as_byref_dirty:
            as_set_byref = dict(as_set_byref)
            for name in as_byref_dirty:
                as_set_byref.pop(name, None)
            targets = {
                name: set() for name in as_byref_dirty if name in new_ir.as_sets
            }
            if targets:
                for aut_num in new_ir.aut_nums.values():
                    for set_name in aut_num.member_of:
                        bucket = targets.get(set_name)
                        if bucket is None:
                            continue
                        as_set = new_ir.as_sets[set_name]
                        if _byref_allowed(as_set.mbrs_by_ref, aut_num.mnt_by):
                            bucket.add(aut_num.asn)
                for name, asns in targets.items():
                    if asns:
                        as_set_byref[name] = asns

        route_set_byref = index.route_set_byref
        rs_targets: dict[str, list] = {}
        if rs_byref_dirty:
            route_set_byref = dict(route_set_byref)
            for name in rs_byref_dirty:
                route_set_byref.pop(name, None)
            rs_targets = {
                name: [] for name in rs_byref_dirty if name in new_ir.route_sets
            }

        # -- route trie: point mutations on the touched pairs -------------
        # MODs keep their (prefix, origin) pair — the pair IS the key — so
        # presence in new_ir decides each touched pair's final trie state.
        # Pairs hold parsed Prefix values, never wire strings: a journal
        # may spell a prefix non-canonically (host bits set, alternate
        # IPv6 forms) and a string comparison would silently miss the
        # live route — deleting it from the trie while the IR keeps it.
        touched_pairs: set[tuple[Prefix, int]] = {
            (key[0], key[1]) for key in route_keys
        }
        present: set[tuple[Prefix, int]] = set()
        if touched_pairs or rs_targets:
            touched_origins = {origin for _, origin in touched_pairs}
            for route in new_ir.route_objects:
                if rs_targets and route.member_of:
                    for set_name in route.member_of:
                        bucket = rs_targets.get(set_name)
                        if bucket is None:
                            continue
                        route_set = new_ir.route_sets[set_name]
                        if _byref_allowed(route_set.mbrs_by_ref, route.mnt_by):
                            bucket.append(route.prefix)
                if route.origin in touched_origins:
                    pair = (route.prefix, route.origin)
                    if pair in touched_pairs:
                        present.add(pair)
            for name, prefixes in rs_targets.items():
                if prefixes:
                    route_set_byref[name] = prefixes

        trie = index.route_trie
        if touched_pairs or index.resource is not None:
            # Thaw before mutating — and also when the old planes are mmap
            # views, so the patched index never pins the old artifact's fd.
            trie = trie.thaw()
        # Only pairs whose presence really changed count as effects: a MOD
        # (or a DEL shadowed by another source's registration) leaves
        # every trie answer as it was.
        moved: list[tuple[Prefix, int]] = []
        for pair in sorted(touched_pairs):
            if pair in present:
                changed_here = trie.insert_route(pair[0], pair[1])
            else:
                changed_here = trie.remove_route(pair[0], pair[1])
            if changed_here:
                moved.append(pair)
        old_trie = index.route_trie
        flipped_origins = frozenset(
            origin
            for origin in {origin for _, origin in moved}
            if old_trie.has_origin(origin) != trie.has_origin(origin)
        )

        # -- closure invalidation over the reference graph ------------------
        # Reverse reachability from what changed, over the union of the
        # old and the new IR's edges: an edge deleted this epoch still
        # made the dependent's cached state depend on the name, and an
        # edge added this epoch makes the new state depend on it.  New
        # edges go in before the walk, dead ones come out after it.
        seeds = {
            (cls, name)
            for cls, names in changed.items()
            if cls != "aut-num"
            for name in names
        }
        seeds.update(("as-set", name) for name in as_byref_dirty)
        seeds.update(("route-set", name) for name in rs_byref_dirty)
        # An origin that gained its first / lost its last route changes
        # what every AS<n> atom naming it reads (has_any_routes).
        seeds.update(("origin", asn) for asn in flipped_origins)
        dependents = index.dependents
        mentioned: list[_Referenced] = []
        retired_regexes: list[AsPathRegexNode] = []
        dirty: set = set()
        dead_edges: list[tuple] = []
        if seeds or changed:  # route churn that flips no origin needs no graph
            if dependents is None:
                dependents = _build_dependents(old_ir)
            elif changed:  # edited below: the input index keeps its own map
                dependents = dict(dependents)
            for cls, keys in changed.items():
                table = _IR_TABLES[cls]
                for key in keys:
                    dependent = key if cls == "aut-num" else (cls, key)
                    before = _mentions(cls, getattr(old_ir, table).get(key))
                    after = _mentions(cls, getattr(new_ir, table).get(key))
                    if cls != "as-set":  # members resolve inside their owner
                        mentioned.append(after)
                    retired_regexes.extend(before.regexes)
                    before_nodes, after_nodes = before.nodes(), after.nodes()
                    for node in after_nodes - before_nodes:
                        dependents[node] = dependents.get(node, frozenset()) | {
                            dependent
                        }
                    dead_edges.extend(
                        (node, dependent) for node in before_nodes - after_nodes
                    )
            dirty = _reverse_reachable(seeds, dependents)

        # A changed set object re-resolves whether or not it was cached
        # (an ADD nothing referenced yet is still compiled eagerly).
        dirty_sets = {node for node in dirty if not isinstance(node, int)}
        as_sets_cache = dict(index.as_sets)
        resolve_as = sorted(
            name
            for cls, name in dirty_sets
            if cls == "as-set"
            and (as_sets_cache.pop(name, None) is not None or name in new_ir.as_sets)
        )
        route_sets_cache = dict(index.route_sets)
        resolve_rs = sorted(
            name
            for cls, name in dirty_sets
            if cls == "route-set"
            and (
                route_sets_cache.pop(name, None) is not None
                or name in new_ir.route_sets
            )
        )
        # Peering-set rows hold only the set's own peerings (nesting is
        # followed per evaluation), so just the rewritten rows go stale.
        peering_sets_cache = dict(index.peering_sets)
        resolve_ps = sorted(changed.get("peering-set", ()))
        for name in resolve_ps:
            peering_sets_cache.pop(name, None)

        # -- re-resolve through the ordinary engine code -------------------
        base = dataclasses.replace(
            index,
            route_trie=trie,
            as_set_byref=as_set_byref,
            route_set_byref=route_set_byref,
            as_sets=as_sets_cache,
            route_sets=route_sets_cache,
            peering_sets=peering_sets_cache,
            resource=None,
        )
        engine = QueryEngine(new_ir, index=base)
        matcher = AsPathMatcher(engine, compiled=index.aspath_regexes)
        for name in resolve_as:
            engine.flatten_as_set(name)
        for name in resolve_rs:
            engine.resolve_route_set(name)
        for name in resolve_ps:
            engine.resolve_peering_set(name)
        skipped = index.skipped_regexes
        failed = sum(_resolve_references(engine, matcher, refs) for refs in mentioned)
        if failed or any(node not in matcher._compiled for node in retired_regexes):
            # A regex that cannot be lowered entered or left the IR:
            # ``skipped_regexes`` counts distinct nodes IR-wide, so only
            # the whole-IR walk can recount it (rare: e.g. a repetition
            # bound past what ``re`` accepts).
            skipped = _resolve_references(
                engine, matcher, _collect_references(new_ir)
            )
        for resolution in engine._route_set_cache.values():
            resolution.index.freeze()

        # -- what this step can have changed under a cached verdict --------
        subjects, member_subjects, member_asns = _closure_effects(
            seeds, dirty, dependents or {}, index.as_sets, engine._as_set_cache
        )
        # An export check reads only its aut-num's exports, bad rules
        # and source (the only-provider safelist, which reads the peerings
        # of both directions, applies to imports): a rewrite that left
        # those alone leaves the export verdicts standing.
        import_subjects: set[int] = set()
        for asn in changed.get("aut-num", ()):
            old, new = old_ir.aut_nums.get(asn), new_ir.aut_nums.get(asn)
            if (
                old is not None
                and new is not None
                and (old.exports, old.bad_rules, old.source)
                == (new.exports, new.bad_rules, new.source)
            ):
                import_subjects.add(asn)
            else:
                subjects.add(asn)
        effects = PatchEffects(
            subjects=frozenset(subjects),
            import_subjects=frozenset(import_subjects - subjects),
            member_subjects=frozenset(member_subjects - subjects),
            member_asns=frozenset(member_asns),
            prefixes=frozenset(prefix for prefix, _ in moved),
            flipped_origins=flipped_origins,
        )
        for node, dependent in dead_edges:
            remaining = dependents[node] - {dependent}
            if remaining:
                dependents[node] = remaining
            else:
                del dependents[node]

        if digest is None and index.digest is not None:
            digest = hashlib.sha256(
                (index.digest + journal.digest()).encode("utf-8")
            ).hexdigest()
        serials = dict(index.serials)
        serials.update(journal.serials())
        elapsed = time.perf_counter() - started
        patched = CompiledIndex(
            digest=digest,
            route_trie=engine.routes,
            as_set_byref=engine._as_set_byref,
            route_set_byref=engine._route_set_byref,
            as_sets=engine._as_set_cache,
            route_sets=engine._route_set_cache,
            peering_sets=engine._peering_set_cache,
            aspath_regexes=matcher._compiled,
            compile_seconds=elapsed,
            skipped_regexes=skipped,
            generation=index.generation + 1,
            serials=serials,
            dependents=dependents,
            effects=effects,
        )
    return patched


def ir_digest(ir: Ir) -> str:
    """The IR content digest the on-disk cache is keyed by.

    SHA-256 over the canonical JSON encoding — the same encoding
    ``rpslyzer parse`` exports — so the key survives re-serialization and
    never depends on in-memory identity.
    """
    return serialize.stable_digest(ir)


# -- the on-disk cache ------------------------------------------------------


def default_cache_dir() -> Path:
    """``$RPSLYZER_CACHE_DIR``, else ``$XDG_CACHE_HOME/rpslyzer``, else
    ``~/.cache/rpslyzer``."""
    override = os.environ.get("RPSLYZER_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "rpslyzer"


def index_cache_path(digest: str, cache_dir: str | Path | None = None) -> Path:
    """Where the artifact for an IR digest lives in the cache."""
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return directory / f"index-{digest[:32]}.pkl"


def _library_version() -> str:
    import repro

    return repro.__version__


def save_index(index: CompiledIndex, path: str | Path) -> None:
    """Persist an artifact atomically (write-temp-then-rename).

    Layout: ``RPSLIDX3`` magic, a little-endian header length, the JSON
    header (format / library version / IR digest / trie meta / plane
    directory), then the 16-aligned plane region with the residual
    pickle blob at its tail.  :func:`load_index` refuses anything whose
    magic, format, version, or digest does not match, so a stale cache
    can only ever cost a recompile.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # The region is laid out first and then written straight from the
    # planes' own buffers: assembled in memory it was a second copy (and,
    # while a plane was being appended, a third) of an index that is all
    # planes — the peak of a cold open's resident size.
    parts = []  # (directory entry, buffer) in file order
    end = 0
    for name, typecode, plane in index.route_trie.export_planes():
        nbytes = memoryview(plane).nbytes
        entry = {"name": name, "fmt": typecode, "offset": _aligned(end), "nbytes": nbytes}
        parts.append((entry, plane))
        end = entry["offset"] + nbytes
    rest = {
        f.name: getattr(index, f.name)
        for f in dataclasses.fields(index)
        if f.name != "route_trie" and f.name not in _TRANSIENT_FIELDS
    }
    blob = pickle.dumps(rest, protocol=pickle.HIGHEST_PROTOCOL)
    plane_entries = [entry for entry, _ in parts]
    pickle_entry = {"offset": _aligned(end), "nbytes": len(blob)}
    parts.append((pickle_entry, blob))
    header = json.dumps(
        {
            "format": INDEX_FORMAT,
            "version": _library_version(),
            "digest": index.digest,
            "trie": index.route_trie.meta(),
            "planes": plane_entries,
            "pickle": pickle_entry,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    lead = len(_MAGIC) + 8 + len(header)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(_MAGIC)
            stream.write(len(header).to_bytes(8, "little"))
            stream.write(header)
            stream.write(b"\x00" * (_aligned(lead) - lead))
            written = 0
            for entry, data in parts:
                stream.write(b"\x00" * (entry["offset"] - written))
                stream.write(data)
                written = entry["offset"] + entry["nbytes"]
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def load_index(path: str | Path, expect_digest: str | None = None) -> CompiledIndex:
    """Load a persisted artifact, validating format, version, and digest.

    The file is ``mmap``'d and the trie planes become zero-copy
    memoryview casts over the mapping — near-zero deserialization, pages
    shared between processes.  The returned index owns the mapping;
    :meth:`CompiledIndex.close` releases it.
    """
    registry = get_registry()
    started = time.perf_counter()
    lead = len(_MAGIC) + 8
    stream = open(path, "rb")
    try:
        head = stream.read(lead)
        if len(head) < lead or head[: len(_MAGIC)] != _MAGIC:
            # Earlier formats (plain pickle, ``RPSLIDX2``) land here too:
            # recompile.
            raise IndexCacheError(f"{path}: not a compiled index (bad magic)")
        header_len = int.from_bytes(head[len(_MAGIC) :], "little")
        if not 0 < header_len <= _MAX_HEADER_BYTES:
            raise IndexCacheError(f"{path}: not a compiled index (bad header length)")
        raw_header = stream.read(header_len)
        try:
            header = json.loads(raw_header)
        except ValueError as exc:
            raise IndexCacheError(f"{path}: not a compiled index (bad header)") from exc
        if not isinstance(header, dict) or header.get("format") != INDEX_FORMAT:
            fmt = header.get("format") if isinstance(header, dict) else None
            raise IndexCacheError(f"{path}: not a compiled index (format={fmt!r})")
        if header.get("version") != _library_version():
            raise IndexCacheError(
                f"{path}: compiled by repro {header.get('version')!r}, "
                f"running {_library_version()!r}"
            )
        if expect_digest is not None and header.get("digest") != expect_digest:
            raise IndexCacheError(
                f"{path}: IR digest mismatch "
                f"(cached {header.get('digest')!r}, expected {expect_digest!r})"
            )
        mapped = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
    finally:
        stream.close()
    root = memoryview(mapped)
    resource = _MmapResource(mapped, views := [root])
    try:
        region = _aligned(lead + header_len)
        planes = {}
        for entry in header["planes"]:
            start = region + entry["offset"]
            view = root[start : start + entry["nbytes"]].cast(entry["fmt"])
            views.append(view)
            planes[entry["name"]] = view
        blob = header["pickle"]
        start = region + blob["offset"]
        rest = pickle.loads(bytes(root[start : start + blob["nbytes"]]))
        trie = RouteTrie.from_planes(header["trie"], planes)
        index = CompiledIndex(route_trie=trie, resource=resource, **rest)
    except (KeyError, TypeError, ValueError, pickle.PickleError, EOFError) as exc:
        resource.close()
        raise IndexCacheError(f"{path}: corrupt compiled index ({exc})") from exc
    if registry.enabled:
        registry.gauge("index_load_seconds").set(time.perf_counter() - started)
        registry.gauge("index_mmap_bytes").set(len(mapped))
    return index


def get_or_compile(
    ir: Ir,
    *,
    digest: str | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    refresh: bool = False,
) -> CompiledIndex:
    """The caching entry point: load the artifact for this IR or build it.

    ``digest`` defaults to :func:`ir_digest` of the IR.  With
    ``use_cache=False`` the pass always runs and nothing touches disk
    (the ``--no-index-cache`` escape hatch); ``refresh=True`` recompiles
    and overwrites an existing cache entry.  Cache I/O failures are never
    fatal — a corrupt or unwritable cache degrades to a recompile.
    """
    registry = get_registry()
    if digest is None:
        digest = ir_digest(ir)
    if not use_cache:
        return compile_index(ir, digest=digest)
    path = index_cache_path(digest, cache_dir)
    if not refresh:
        try:
            index = load_index(path, expect_digest=digest)
        except FileNotFoundError:
            pass
        except (IndexCacheError, pickle.PickleError, EOFError, OSError, ValueError):
            # Unusable cache entry: recompile and overwrite below.
            pass
        else:
            if registry.enabled:
                registry.counter("index_cache_total", result="hit").inc()
            return index
    if registry.enabled:
        registry.counter("index_cache_total", result="miss").inc()
    index = compile_index(ir, digest=digest)
    try:
        save_index(index, path)
    except OSError:
        pass  # read-only cache dir: the compile still succeeded
    return index
