"""``repro.api`` — the single supported entry point to the pipeline.

Since 1.4.0 the facade is *session-oriented*: :func:`open_session` loads
an IR once (from a dump directory, an exported JSON IR, a
:class:`~repro.irr.synth.SynthWorld`, or an in-memory :class:`Ir`), adopts
the digest-cached :class:`CompiledIndex`, and hands back a
:class:`Session` whose methods answer any number of queries against the
warm state::

    from repro import api

    with api.open_session("dumps/", as_rel="as-rel.txt") as session:
        report = session.verify_route("192.0.2.0/24", [64500, 64496])
        stats = session.verify_table(entries, processes=8)
        report, events = session.explain("192.0.2.0/24", [64500, 64496])
        print(session.characterize()["counts"])

The CLI and the ``rpslyzer serve`` daemon — whose WHOIS front-end is the
one WHOIS server, also behind ``rpslyzer whois`` and
:meth:`Session.whois_server` — are thin adapters over :class:`Session`.
A session's state is one frozen :class:`Generation` (IR, index, verifier,
query engine, digest), replaced whole by :meth:`Session.apply_deltas`;
read several of its fields through :attr:`Session.current`.

Loading stages (:func:`synthesize`, :func:`parse_dumps`) return a
:class:`LoadResult` carrying ``ir``, ``errors``, and ``degradation``;
``ir, errors = parse_dumps(...)`` keeps working via tuple unpacking.

All stages report into the current :mod:`repro.obs` metrics registry when
one is installed; a :class:`Session` can also own a private registry
(``open_session(..., registry=MetricsRegistry())``), which is what the
serve daemon exposes at ``GET /metrics``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.bgp.table import RouteEntry
from repro.bgp.topology import AsRelationships
from repro.core.compiled import (
    CompiledIndex,
    IndexCacheError,
    get_or_compile,
    index_cache_path,
    ir_digest,
    load_index,
    save_index,
)
from repro.core.compiled import compile_index as _compile_index
from repro.core.compiled import patch_index as _patch_index
from repro.core.degradation import DegradationReport
from repro.core.parallel import verify_table as _verify_table
from repro.core.query import QueryEngine
from repro.core.report import RouteReport
from repro.core.verify import Verifier, VerifyOptions
from repro.ir.model import Ir
from repro.irr.journal import Journal, apply_journal_to_ir, load_journal
from repro.irr.registry import Registry, parse_registry_dir
from repro.irr.synth import SynthConfig, SynthWorld, build_world, default_config, tiny_config
from repro.obs import MetricsRegistry, get_registry, use_registry
from repro.obs.trace import TraceConfig, Tracer, use_tracer
from repro.rpsl.errors import ErrorCollector, ErrorKind
from repro.stats.as_sets import as_set_stats
from repro.stats.routes import route_object_stats
from repro.stats.usage import filter_kind_census, peering_simplicity, rules_ccdf
from repro.stats.verification import VerificationStats
from repro.tools.recommend import RouteSetRecommendation, recommend_route_set

if TYPE_CHECKING:
    from repro.serve import ServeHandle

__all__ = [
    "CompiledIndex",
    "DegradationReport",
    "Generation",
    "IndexCacheError",
    "LoadResult",
    "Session",
    "SessionClosedError",
    "apply_journal",
    "compile_index",
    "get_or_compile",
    "load_journal",
    "patch_index",
    "index_cache_path",
    "ir_digest",
    "load_index",
    "open_session",
    "save_index",
    "synthesize",
    "parse_dumps",
    "parse_registry",
    "make_verifier",
    "characterize",
    "recommend_migrations",
    "run_chaos",
]

# Parse-issue kinds that are ingestion damage (not merely mis-written
# RPSL); these surface on LoadResult.degradation so a limped-through load
# is distinguishable from a clean one.
_INGEST_DAMAGE = (
    ErrorKind.OVERSIZED,
    ErrorKind.TRUNCATED,
    ErrorKind.UNREADABLE_INPUT,
)


def _ingest_degradation(errors: ErrorCollector) -> DegradationReport:
    """Fold ingestion-level parse damage into a degradation report."""
    report = DegradationReport()
    for issue in errors.issues:
        if issue.kind in _INGEST_DAMAGE:
            report.record("ingest", issue.kind.value, issue.source)
    for kind, count in errors.overflow.items():
        if kind in _INGEST_DAMAGE:
            report.record("ingest", kind.value, "(overflowed)", count=count)
    return report


class LoadResult:
    """What a loading stage produced: IR, parse issues, and degradation.

    The consistent return shape of :func:`synthesize` and
    :func:`parse_dumps`.  Tuple unpacking stays supported —
    ``ir, errors = api.parse_dumps(...)`` — via ``__iter__``; synthesis
    results additionally delegate attribute access to the underlying
    :class:`~repro.irr.synth.SynthWorld` (``result.write_to_dir(...)``,
    ``result.topology``), so pre-1.4 callers keep working unchanged.

    ``ir``/``errors`` are computed lazily for synthesis results (the dump
    text is only parsed when something asks for the IR).
    """

    def __init__(
        self,
        *,
        ir: Ir | None = None,
        errors: ErrorCollector | None = None,
        degradation: DegradationReport | None = None,
        world: SynthWorld | None = None,
        source: str | None = None,
    ):
        self._ir = ir
        self._errors = errors
        self._degradation = degradation
        self.world = world
        self.source = source

    def _parse_world(self) -> None:
        assert self.world is not None, "LoadResult has neither ir nor world"
        registry = self.world.registry()
        self._ir = registry.merged()
        self._errors = registry.all_errors()

    @property
    def ir(self) -> Ir:
        """The (priority-merged) IR this load produced."""
        if self._ir is None:
            self._parse_world()
        return self._ir

    @property
    def errors(self) -> ErrorCollector:
        """Every parse issue recorded while loading."""
        if self._errors is None:
            self._parse_world()
        return self._errors

    @property
    def degradation(self) -> DegradationReport:
        """Ingestion-level damage (truncated/oversized/unreadable input)."""
        if self._degradation is None:
            self._degradation = _ingest_degradation(self.errors)
        return self._degradation

    def __iter__(self):
        """Tuple-unpack compatibility: ``ir, errors = load_result``."""
        return iter((self.ir, self.errors))

    def __getattr__(self, name: str):
        # Compatibility bridge for synthesis results: anything LoadResult
        # itself does not define resolves against the SynthWorld.
        world = self.__dict__.get("world")
        if world is not None:
            return getattr(world, name)
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def __repr__(self) -> str:
        origin = f"world seed={self.world.config.seed}" if self.world else self.source
        return f"LoadResult({origin})"


def synthesize(
    config: SynthConfig | str | None = None, *, seed: int = 42
) -> LoadResult:
    """Generate a synthetic world (Section 3's offline evaluation setup).

    ``config`` is a :class:`SynthConfig`, a preset name (``"tiny"`` or
    ``"default"``), or None for the default preset; ``seed`` applies to
    preset names only.  Returns a :class:`LoadResult` whose ``world`` is
    the generated :class:`~repro.irr.synth.SynthWorld` (attribute access
    delegates to it, so ``result.write_to_dir(...)`` works) and whose
    ``ir``/``errors`` parse the generated dumps on first use.
    """
    if config is None:
        config = default_config(seed)
    elif isinstance(config, str):
        if config == "tiny":
            config = tiny_config(seed)
        elif config == "default":
            config = default_config(seed)
        else:
            raise ValueError(f"unknown preset {config!r} (try 'tiny' or 'default')")
    with get_registry().span("synth"):
        world = build_world(config)
    return LoadResult(world=world, source=f"synth(seed={world.config.seed})")


def parse_registry(directory: str | Path) -> Registry:
    """Parse every ``*.db`` dump in a directory into a multi-IRR registry."""
    return parse_registry_dir(directory)


def parse_dumps(directory: str | Path) -> LoadResult:
    """Parse and priority-merge a directory of IRR dumps.

    Returns a :class:`LoadResult` with the merged IR, every parse issue
    across all dumps, and the ingestion degradation report;
    ``ir, errors = parse_dumps(...)`` still unpacks.  Use
    :func:`parse_registry` instead when per-IRR views (Table 1) are
    needed.
    """
    registry = parse_registry_dir(directory)
    errors = registry.all_errors()
    return LoadResult(
        ir=registry.merged(),
        errors=errors,
        degradation=_ingest_degradation(errors),
        source=str(directory),
    )


def apply_journal(ir: Ir, journal: Journal) -> LoadResult:
    """Replay an NRTM-style journal onto an IR (provenance intact).

    Returns a :class:`LoadResult` whose ``ir`` is the patched snapshot
    (the input IR is never mutated — objects are shared, containers are
    fresh) and whose ``degradation`` carries every replay anomaly:
    corrupt entries, out-of-order or duplicate serials, missing targets.
    A non-empty report means the journal cannot be trusted for
    incremental index patching; recompile instead (that is exactly what
    :meth:`Session.apply_deltas` does).
    """
    patched, report = apply_journal_to_ir(ir, journal)
    return LoadResult(
        ir=patched,
        errors=ErrorCollector(),
        degradation=report,
        source="journal",
    )


class SessionClosedError(RuntimeError):
    """A method was called on a :class:`Session` after ``close()``."""


@dataclass(frozen=True, slots=True)
class Generation:
    """One consistent state of a :class:`Session`, never modified once built.

    ``index``, the warm ``verifier`` (None without AS relationships) and
    the one index-backed ``query`` engine (the verifier's own when there
    is one) are None until :meth:`Session.warm` ran.  The session
    publishes the next generation by one reference assignment, so a
    reader that takes :attr:`Session.current` once reads one snapshot,
    and a cache-mmap'd index stays mapped until its last reader lets go.
    """

    ir: Ir
    index: CompiledIndex | None = None
    verifier: Verifier | None = None
    query: QueryEngine | None = None
    digest: str | None = None  # the index's; Session.digest computes a missing one
    # ⟨wall-clock seconds, hop-cache report⟩ of the apply_deltas behind it.
    delta: tuple[float | None, dict | None] = (None, None)
    adopted: bool = False  # mapped by the session, not shared: evict_index unmaps it

    @property
    def number(self) -> int:
        """Index generation: 0 for a from-scratch compile, +1 per patch."""
        return self.index.generation if self.index is not None else 0

    @property
    def serials(self) -> dict:
        """Highest journal serial absorbed per source registry."""
        return dict(self.index.serials) if self.index is not None else {}


class Session:
    """A resident handle over one IR: index, verifier, and metrics lifecycle.

    Construct via :func:`open_session`.  A session owns:

    * its :attr:`current` :class:`Generation`, the one field that changes
      (``ir``, ``index``, ``verifier``, ``digest``, … read it): the parsed
      :class:`Ir`, the :class:`CompiledIndex` adopted once (digest-keyed
      disk cache by default) and the warm single-route :class:`Verifier`
      whose hop cache persists across :meth:`verify_route` calls — and
      across :meth:`apply_deltas`, minus the verdicts the journal can reach;
    * the :class:`LoadResult` when loaded from disk and optional
      :class:`AsRelationships`;
    * optionally a private :class:`~repro.obs.MetricsRegistry` installed
      around every operation (otherwise the ambient registry is used).

    Reading :attr:`current` is safe from any thread; verifying and
    :meth:`apply_deltas` are not (the hop cache is mutable and changes
    hands) — the serve daemon serializes them through its batch executor.
    """

    def __init__(
        self,
        ir: Ir,
        relationships: AsRelationships | None = None,
        *,
        options: VerifyOptions | None = None,
        processes: int | None = 1,
        index: CompiledIndex | None = None,
        cache_dir: str | Path | None = None,
        use_cache: bool = True,
        trace: TraceConfig | None = None,
        registry: MetricsRegistry | None = None,
        load: LoadResult | None = None,
    ):
        self.relationships = relationships
        self.options = options
        self.processes = processes
        self.load = load
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.tracer = Tracer(trace) if trace is not None else None
        self._registry = registry
        self._generation = Generation(ir, index, digest=index and index.digest)
        self._closed = False
        # The event log this session reports into (repro.obs.events): the
        # serve daemon's flight ring, attached by VerifyService so embedders
        # can read it via flight_events(); in a pool worker, the log its
        # result frames drain.  explain() splices its hop events into it.
        self.flight = None

    # -- lifecycle ---------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("this Session has been closed")

    def _scope(self):
        """The metrics scope for one operation: the session's own registry
        when it has one, else a no-op pass-through to the ambient one."""
        if self._registry is not None:
            return use_registry(self._registry)
        return nullcontext(get_registry())

    @property
    def registry(self) -> MetricsRegistry:
        """The registry session operations report into."""
        return self._registry if self._registry is not None else get_registry()

    @property
    def current(self) -> Generation:
        """The live :class:`Generation`: take it once, read one state."""
        return self._generation

    @property
    def ir(self) -> Ir:
        """The current generation's IR."""
        return self._generation.ir

    @property
    def digest(self) -> str:
        """The IR content digest that keys the index cache."""
        self._check_open()
        current = self._generation
        return current.digest or ir_digest(current.ir)

    @property
    def index(self) -> CompiledIndex | None:
        """The adopted compiled index (None until :meth:`warm` runs)."""
        return self._generation.index

    @property
    def verifier(self) -> Verifier | None:
        """The warm verifier (None until :meth:`warm` runs, and without
        AS relationships); a pool worker verifies its table chunks on it."""
        return self._generation.verifier

    def _generation_over(self, ir, index, delta=(None, None), adopted=False):
        """A warm :class:`Generation` over ⟨ir, index⟩, built off to the side."""
        if self.relationships is not None:
            verifier = Verifier(ir, self.relationships, self.options, index=index)
            query = verifier.query
        else:
            verifier, query = None, QueryEngine(ir, index=index)
        return Generation(ir, index, verifier, query, index.digest, delta, adopted)

    def warm(self) -> "Session":
        """Adopt the compiled index and build the warm single-route verifier.

        The index comes from the digest-keyed disk cache
        (``use_cache=True``, the default) or an in-memory compile;
        either way subsequent queries never recompile — the point of a
        resident session.  Idempotent.
        """
        self._check_open()
        current = self._generation
        if current.query is None:
            with self._scope():
                index = current.index or get_or_compile(
                    current.ir,
                    digest=self.digest,
                    cache_dir=self.cache_dir,
                    use_cache=self.use_cache,
                )
                self._generation = self._generation_over(
                    current.ir, index, current.delta, current.index is None
                )
        return self

    @property
    def generation(self) -> int:
        """Index generation: 0 for a from-scratch compile, +1 per patch."""
        return self._generation.number

    @property
    def serials(self) -> dict:
        """Highest journal serial absorbed per source registry."""
        return self._generation.serials

    @property
    def last_delta_seconds(self) -> float | None:
        """Wall-clock of the most recent :meth:`apply_deltas` (None if never)."""
        return self._generation.delta[0]

    @property
    def last_delta_hop_cache(self) -> dict | None:
        """What the most recent :meth:`apply_deltas` did to the hop cache:
        ``{"carried": n, "invalidated": {reason: n}}``, or None when there
        was no warm verifier to take a cache from."""
        return self._generation.delta[1]

    def apply_deltas(self, journal: Journal) -> DegradationReport:
        """Absorb an NRTM-style journal: patch the IR and the live index.

        The IR is replayed first (:func:`repro.irr.journal.apply_journal_to_ir`,
        never mutating the current one).  A clean replay whose serials
        continue from the index's recorded high-water marks takes the
        incremental path — :func:`repro.core.compiled.patch_index`, point
        trie mutations plus reverse-dependency cache invalidation.  Any
        degradation (corrupt entries, serial gaps going backwards,
        missing targets) falls back to a full recompile of the replayed
        IR: slower, never wrong.  Either way the next :class:`Generation`
        is published by the last statement — a failure leaves the session
        where it was — and the old one, mmap and file descriptor included,
        is released when its last reader lets go.

        The new verifier adopts the previous one's hop cache minus the
        entries the journal can reach
        (:meth:`repro.core.verify.Verifier.adopt_hop_cache`,
        driven by the patch's :class:`~repro.core.compiled.PatchEffects`),
        so the pass after a delta stays warm.  The full-recompile branch
        has no effects summary and therefore carries nothing;
        :attr:`last_delta_hop_cache` says what happened either way.

        Returns the degradation report (empty ⇒ the fast path ran).
        """
        self._check_open()
        with self._scope() as registry:
            started = time.perf_counter()
            old = self._generation
            patched_ir, report = apply_journal_to_ir(old.ir, journal)
            if old.index is not None and not report:
                # NRTM discipline across applies: a journal whose serials
                # do not advance past what the index already absorbed is
                # a replay/stale stream — degrade to the full path.
                first_serial: dict[str, int] = {}
                for entry in journal:
                    if entry.serial < first_serial.get(entry.source, entry.serial + 1):
                        first_serial[entry.source] = entry.serial
                for source, first in sorted(first_serial.items()):
                    previous = old.index.serials.get(source)
                    if previous is not None and first <= previous:
                        report.record(
                            "journal",
                            "stale-serial",
                            detail=(
                                f"source {source or '?'}: serial {first} "
                                f"not past applied {previous}"
                            ),
                        )
            hop_cache = None
            if old.index is None:
                new = Generation(patched_ir)
            else:
                if report:
                    new_index = _compile_index(patched_ir, digest=ir_digest(patched_ir))
                    new_index.generation = old.index.generation + 1
                    new_index.serials = {**old.index.serials, **journal.serials()}
                else:
                    new_index = _patch_index(old.index, old.ir, patched_ir, journal)
                new = self._generation_over(patched_ir, new_index)
                if new.verifier is not None and old.verifier is not None:
                    hop_cache = new.verifier.adopt_hop_cache(
                        old.verifier, new_index.effects
                    )
            elapsed = time.perf_counter() - started
            if registry.enabled:
                registry.gauge("delta_apply_seconds").set(elapsed)
                registry.gauge("index_generation").set(new.number)
                for source, serial in sorted(journal.serials().items()):
                    registry.gauge("journal_serial", source=source or "?").set(serial)
                registry.counter(
                    "delta_apply_total",
                    result="degraded" if report else "patched",
                ).inc()
            self._generation = replace(new, delta=(elapsed, hop_cache))
        return report

    def evict_index(self) -> None:
        """Drop the index, unmapping it now (the one explicit unmap: not
        under concurrent readers) when the session adopted it itself.

        The next :meth:`warm` (or warm-requiring query) re-adopts from the
        cache: a long-lived session can release the artifact mapping and
        its file descriptor without closing.
        """
        self._check_open()
        evicted = self._generation
        self._generation = replace(
            evicted, index=None, verifier=None, query=None, adopted=False
        )
        if evicted.adopted:
            evicted.index.close()

    def close(self) -> None:
        """Let go of the generation (its index is unmapped with its last
        reader); further queries raise :class:`SessionClosedError`.
        Idempotent."""
        self._closed = True
        self._generation = Generation(self._generation.ir)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queries -----------------------------------------------------------

    def _need_relationships(self) -> AsRelationships:
        if self.relationships is None:
            raise ValueError(
                "this Session has no AS relationships; pass as_rel= to open_session()"
            )
        return self.relationships

    def verify_route(
        self,
        prefix: str,
        as_path: Iterable[int],
        *,
        collector: str = "session",
    ) -> RouteReport:
        """Verify one ⟨prefix, AS-path⟩ against the warm verifier."""
        self._check_open()
        self._need_relationships()
        verifier = self._generation.verifier or self.warm()._generation.verifier
        with self._scope():
            return verifier.verify_route(prefix, tuple(as_path), collector=collector)

    def verify_table(
        self,
        entries: Iterable[RouteEntry],
        *,
        options: VerifyOptions | None = None,
        processes: int | None = None,
        chunk_size: int = 2000,
        start_method: str | None = None,
        on_report: Callable[[RouteReport], None] | None = None,
        fault_hook: Callable[[int], None] | None = None,
    ) -> VerificationStats:
        """Verify a table of routes (Section 5), serial or multi-process.

        Defaults come from the session (``processes``, ``options``, the
        adopted index); see :func:`repro.core.parallel.verify_table` for
        the resilience contract.  When the session owns a tracer, sampled
        decision provenance is recorded into it.
        """
        self._check_open()
        relationships = self._need_relationships()
        current = self._generation
        tracer_scope = (
            use_tracer(self.tracer) if self.tracer is not None else nullcontext()
        )
        with self._scope(), tracer_scope:
            return _verify_table(
                current.ir,
                relationships,
                entries,
                options=options if options is not None else self.options,
                processes=processes if processes is not None else self.processes,
                chunk_size=chunk_size,
                start_method=start_method,
                on_report=on_report,
                fault_hook=fault_hook,
                index=current.index,
            )

    def explain(
        self,
        prefix: str,
        as_path: Iterable[int],
        *,
        options: VerifyOptions | None = None,
        collector: str = "explain",
        request_id: str | None = None,
    ) -> tuple[RouteReport, list[dict]]:
        """Replay one ⟨prefix, AS-path⟩ with tracing forced on.

        Returns ``(report, events)``: the route report plus the full
        decision-provenance event list (sample rate 1, deep chains always
        recorded — the verifier is fresh, so every hop is a cache miss and
        its filter-evaluation path is captured).  This is what
        ``rpslyzer explain`` and ``POST /explain`` print.  The events carry
        ``request_id`` (the served request being answered, if any) and the
        generation, and also land in the session's event log when it has
        one — so ``rpslyzer debug --id`` shows an explained request's
        matched rules next to its stage breakdown.
        """
        self._check_open()
        relationships = self._need_relationships()
        current = self._generation
        tracer = Tracer(
            TraceConfig(sample_rate=1, deep=True),
            ids={"request": request_id or None, "generation": current.number},
        )
        with self._scope(), use_tracer(tracer):
            verifier = Verifier(
                current.ir,
                relationships,
                options if options is not None else self.options,
                index=current.index,
            )
            report = verifier.verify_route(
                prefix, tuple(as_path), collector=collector
            )
        if self.flight is not None:
            self.flight.absorb(tracer.log.lines())
        return report, tracer.events

    def characterize(self) -> dict:
        """The Section 4 characterization of the session's IR."""
        self._check_open()
        current = self._generation
        ir = current.ir
        with self._scope() as registry:
            with registry.span("characterize"):
                return {
                    "counts": ir.counts(),
                    "rules_ccdf_head": rules_ccdf(ir)[:20],
                    "peering_simplicity": peering_simplicity(ir),
                    "filter_kinds": filter_kind_census(ir),
                    "route_objects": route_object_stats(ir).as_dict(),
                    "as_sets": as_set_stats(ir, query=current.query).as_dict(),
                }

    def whois_server(self, host: str = "127.0.0.1", port: int = 0) -> "ServeHandle":
        """Start a serve daemon with only its WHOIS/IRRd front-end over this
        session; returns its running :class:`~repro.serve.daemon.ServeHandle`
        (``whois_port``, ``stop()``, context manager)."""
        self._check_open()
        # Imported lazily: repro.serve imports this module.
        from repro.serve import ServeConfig, ServeDaemon

        config = ServeConfig(host=host, http_port=None, whois_port=port)
        return ServeDaemon(self, config).start_in_thread()

    def metrics_snapshot(self) -> dict:
        """A JSON-able snapshot of the session's registry."""
        return self.registry.snapshot()

    def flight_events(self, **filters) -> list[dict]:
        """Decoded serve flight-ring events, oldest first.

        Filters pass through to :func:`repro.obs.events.filter_events`
        (``request``, ``route``, ``kinds``, ``since``, ``until``,
        ``limit``).  Returns ``[]`` until a
        :class:`~repro.serve.core.VerifyService` has attached its ring to
        this session.
        """
        if self.flight is None:
            return []
        return self.flight.events(**filters)


def _load_source(
    source: str | Path | Ir | SynthWorld | LoadResult,
) -> tuple[Ir, LoadResult | None, AsRelationships | None]:
    """Resolve an open_session source to (ir, load, implied relationships)."""
    if isinstance(source, Ir):
        return source, None, None
    if isinstance(source, SynthWorld):
        load = LoadResult(world=source, source="synth-world")
        return load.ir, load, source.topology
    if isinstance(source, LoadResult):
        implied = source.world.topology if source.world is not None else None
        return source.ir, source, implied
    path = Path(source)
    if path.is_dir():
        load = parse_dumps(path)
        return load.ir, load, None
    from repro.ir.json_io import load_ir

    with get_registry().span("load-ir"):
        return load_ir(path), None, None


def open_session(
    source: str | Path | Ir | SynthWorld | LoadResult,
    *,
    as_rel: str | Path | AsRelationships | None = None,
    options: VerifyOptions | None = None,
    processes: int | None = 1,
    index: CompiledIndex | str | Path | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    trace: TraceConfig | None = None,
    registry: MetricsRegistry | None = None,
    warm: bool = True,
) -> Session:
    """Open a :class:`Session`: load once, answer many queries warm.

    ``source`` is a directory of IRR dumps, a path to an exported IR JSON
    file, an in-memory :class:`Ir`, a :class:`~repro.irr.synth.SynthWorld`,
    or a prior :class:`LoadResult`.  ``as_rel`` is an
    :class:`AsRelationships` or a path to a CAIDA-style as-rel file; a
    SynthWorld source implies its own topology when ``as_rel`` is omitted.

    ``index`` pins a compiled-index artifact (a :class:`CompiledIndex` or
    a path saved by ``rpslyzer compile``); otherwise the digest-keyed disk
    cache under ``cache_dir`` is consulted and populated
    (``use_cache=False`` compiles in memory, never touching disk).  With
    ``warm=True`` (default) adoption happens before this returns, so the
    first query is already index-lookup bound.

    ``registry`` makes the session own a private metrics registry that
    every operation reports into (the serve daemon's ``/metrics`` source);
    by default operations report to the ambient registry, preserving the
    CLI's ``--metrics`` behavior.
    """
    scope = use_registry(registry) if registry is not None else nullcontext()
    with scope:
        ir, load, implied_rels = _load_source(source)
        if as_rel is None:
            relationships = implied_rels
        elif isinstance(as_rel, AsRelationships):
            relationships = as_rel
        else:
            relationships = AsRelationships.load(as_rel)
    if index is not None and not isinstance(index, CompiledIndex):
        index = load_index(index, expect_digest=ir_digest(ir))
    session = Session(
        ir,
        relationships,
        options=options,
        processes=processes,
        index=index,
        cache_dir=cache_dir,
        use_cache=use_cache,
        trace=trace,
        registry=registry,
        load=load,
    )
    if warm:
        session.warm()
    return session


def make_verifier(
    ir: Ir,
    relationships: AsRelationships,
    options: VerifyOptions | None = None,
    *,
    index: CompiledIndex | None = None,
) -> Verifier:
    """A single-route verifier for ad-hoc ⟨prefix, AS-path⟩ checks.

    Pass ``index`` (see :func:`compile_index`) to start the verifier from
    precompiled query caches instead of deriving them lazily.  Prefer
    :meth:`Session.verify_route` for repeated queries.
    """
    return Verifier(ir, relationships, options, index=index)


def compile_index(ir: Ir, *, digest: str | None = None) -> CompiledIndex:
    """Compile an IR's query plans once, ahead of verification.

    The returned :class:`CompiledIndex` is immutable and picklable: every
    as-set closure, route-/filter-/peering-set resolution, prefix index,
    and AS-path regex program is materialized eagerly, so verifiers built
    from it never resolve anything in the hot loop.  Feed it to
    :func:`open_session`/:func:`make_verifier`, persist it with
    :func:`save_index`, or let :func:`get_or_compile` manage an on-disk
    cache keyed by :func:`ir_digest`.  ``digest`` stamps the artifact for
    cache validation (defaults to unstamped).
    """
    return _compile_index(ir, digest=digest)


def patch_index(
    index: CompiledIndex,
    old_ir: Ir,
    new_ir: Ir,
    journal: Journal,
    *,
    digest: str | None = None,
) -> CompiledIndex:
    """Patch a compiled index with one journal's deltas (the fast path).

    See :func:`repro.core.compiled.patch_index`; prefer
    :meth:`Session.apply_deltas`, which also handles the degraded-journal
    fallback and publishes IR, index and verifier together.
    """
    return _patch_index(index, old_ir, new_ir, journal, digest=digest)


def characterize(ir: Ir) -> dict:
    """The Section 4 characterization of an IR as one JSON-able dict."""
    with Session(ir) as session:
        return session.characterize()


def recommend_migrations(
    ir: Ir,
    asns: Iterable[int] | None = None,
    relationships: AsRelationships | None = None,
    limit: int = 0,
) -> Iterator[RouteSetRecommendation]:
    """Yield route-set migration proposals (the paper's Section 4 advice)."""
    query = QueryEngine(ir)
    targets = sorted(ir.aut_nums) if asns is None else [int(asn) for asn in asns]
    emitted = 0
    for asn in targets:
        recommendation = recommend_route_set(ir, asn, query, relationships)
        if recommendation is None:
            continue
        yield recommendation
        emitted += 1
        if limit and emitted >= limit:
            return


def run_chaos(
    seed: int = 42,
    preset: str = "tiny",
    processes: int = 2,
    only: str | None = None,
):
    """Run the fault-injection suite; returns a ``repro.chaos.ChaosReport``.

    Every mutator and fault in the catalogue is driven against a seeded
    synthetic world (see ``docs/robustness.md``); the report carries
    pass/fail resilience checks plus the aggregated
    :class:`DegradationReport`.  ``only="serve-supervisor"`` restricts
    the run to the serve worker-pool crash/hang layer.
    """
    from repro.chaos import run_chaos as _run_chaos

    return _run_chaos(seed=seed, preset=preset, processes=processes, only=only)
