"""``churn``: writes beside reads — journal applies under a read workload.

Set-up opens a ``Session`` on the standard world and pre-generates a
chain of NRTM-style journals (``evolve_with_journal``, default churn rates
x0.1).  One epoch is ``Session.apply_deltas(journal)`` followed by the
same seeded working set through ``Session.verify_route`` twice: the first
pass runs against the verifier the apply just rebuilt (hop cache cold),
the second against the cache the first one filled.

This is the only workload that uses ``core.compiled`` as a *mutated*
structure (``patch_index``) and ``core.verify``'s hop cache under
invalidation; ``verify_table`` and ``serve`` only read them.  A change
that speeds read-only lookups at the cost of patching (or the reverse)
shows as ``verify_table`` up / ``churn`` down.

Gates: no apply degrades to a full recompile; after the last epoch the
working set's verdicts equal those of a fresh ``compile_index`` of the
session's final IR; both passes of an epoch agree.
"""

from __future__ import annotations

import shutil

import repro.api
import repro.core.verify
from repro import api
from repro.obs import MetricsRegistry, get_registry, use_registry

from harness import (
    Context,
    Measured,
    Outcome,
    counter_total,
    median,
    peak_rss_mib,
    run_rounds,
    texts_digest,
)
from inputs import build_standard_world, chained_journals, sample_routes, table_routes


def set_up(ctx: Context) -> dict:
    world = build_standard_world(ctx.sizes)
    dumps = ctx.scratch / "dumps"
    world.write_to_dir(dumps)
    working_set = [
        (str(entry.prefix), entry.as_path)
        for entry in sample_routes(
            table_routes(world, ctx.seed), ctx.seed, ctx.sizes.churn_working_set
        )
    ]
    session = api.open_session(
        dumps, as_rel=dumps / "as-rel.txt", cache_dir=ctx.scratch / "index-cache"
    )
    _final_ir, journals = chained_journals(session.ir, ctx.seed, ctx.sizes)
    return {
        "dumps": dumps, "session": session,
        "working_set": working_set, "journals": journals,
    }


def tear_down(inputs: dict) -> None:
    inputs["session"].close()
    shutil.rmtree(inputs["dumps"], ignore_errors=True)


def _cache_counters() -> tuple[float, float]:
    snapshot = get_registry().snapshot()
    return (
        counter_total(snapshot, "verify_hop_cache_total", result="hit"),
        counter_total(snapshot, "verify_hop_cache_total", result="miss"),
    )


def _epoch(ctx: Context, inputs: dict, number: int) -> dict:
    tracer = ctx.tracer
    session = inputs["session"]
    journal = inputs["journals"][number]
    working_set = inputs["working_set"]
    verify = session.verify_route
    facts: dict = {"entries": len(journal)}
    mark = tracer.mark()
    # One calibration bracket per epoch: its three parts are too short
    # to be bracketed one by one, and share the epoch's speed factor.
    with ctx.timed("churn.epoch", "harness", number) as epoch:
        with tracer.span("Session.apply_deltas", "api", number) as apply:
            degradation = session.apply_deltas(journal)
        counters = _cache_counters() if tracer.recording else None
        with tracer.span("verify_route first pass", "api", number) as cold:
            first = [verify(prefix, path) for prefix, path in working_set]
        if counters is not None:
            hits, misses = (now - then for now, then in zip(_cache_counters(), counters))
            facts["hit_ratio"] = hits / (hits + misses)
            facts["hop_checks"] = hits + misses
        with tracer.span("verify_route second pass", "api", number) as warm:
            second = [verify(prefix, path) for prefix, path in working_set]
    factor = epoch.normal_s / epoch.seconds
    facts.update(
        epoch=epoch,
        apply_s=apply.seconds,
        cold_s=cold.seconds,
        warm_s=warm.seconds,
        normal_update_s=(apply.seconds + cold.seconds) * factor,
        normal_warm_s=warm.seconds * factor,
        degraded=bool(degradation),
        passes_agree=first == second,
        reports=second,
    )
    if tracer.recording:
        facts["apply_ir_s"] = sum(tracer.durations("repro.api.apply_journal_to_ir", mark))
        facts["patch_s"] = sum(tracer.durations("repro.api._patch_index", mark))
        facts["rebuild_s"] = sum(tracer.durations("Verifier.__init__", mark))
        facts["busy_s"] = sum(tracer.durations("Verifier.verify_entry", mark))
    return facts


def measure(ctx: Context, inputs: dict, outcome: Outcome) -> Measured:
    tracer = ctx.tracer
    session = inputs["session"]
    working_set = inputs["working_set"]
    # Session.apply_deltas calls the api module's own bindings of the
    # public irr.journal.apply_journal_to_ir and core.compiled.patch_index.
    tracer.wrap(repro.api, "apply_journal_to_ir", "irr.journal")
    tracer.wrap(repro.api, "_patch_index", "core.compiled")
    tracer.wrap(repro.core.verify.Verifier, "__init__", "core.verify")
    tracer.wrap(repro.core.verify.Verifier, "verify_entry", "core.verify")

    registry = MetricsRegistry() if ctx.traced else None

    def one_round(number: int) -> dict:
        if not tracer.recording:
            facts = _epoch(ctx, inputs, number)
        else:
            with use_registry(registry):
                facts = _epoch(ctx, inputs, number)
        if number != 1:
            facts["reports"] = None  # epoch 1's verdicts are the pinned work count
        return facts

    epochs, reference = run_rounds(ctx, one_round, maximum=len(inputs["journals"]))
    tracer.unwrap()
    everything = epochs + ([reference] if reference else [])

    outcome.ran(len(everything), sum(f["degraded"] for f in everything), "journal applies (degraded)")
    routes = 2 * len(working_set) * len(everything)
    outcome.ran(routes)
    for facts in everything:
        outcome.gate(facts["passes_agree"], "churn: first and second pass verdicts differ")

    # Final gate: the patched index answers like a from-scratch compile.
    fresh = api.make_verifier(
        session.ir, session.relationships, index=api.compile_index(session.ir)
    )
    wrong = sum(
        str(fresh.verify_route(prefix, path, collector="session"))
        != str(session.verify_route(prefix, path))
        for prefix, path in working_set
    )
    outcome.ran(len(working_set), wrong, "final-epoch verdicts vs a fresh compile_index")

    epoch_one = reference if ctx.traced else epochs[1]
    counts = {
        "journal.entries_generated": sum(len(j) for j in inputs["journals"]),
        "working_set_routes": len(working_set),
        "verdict_digest_epoch1": texts_digest(map(str, epoch_one["reports"])),
    }
    ctx.golden(outcome, counts)

    warm_s = median(f["warm_s"] for f in epochs)
    end_to_end = {
        "work_per_s": routes / sum(f["epoch"].normal_s for f in everything),
        "primary_op_ms": median(f["normal_update_s"] for f in epochs) * 1e3,
        "secondary_op_ms": median(f["normal_warm_s"] for f in epochs) * 1e3,
        "cpu_us_per_unit": sum(f["epoch"].cpu_normal_s for f in everything) * 1e6 / routes,
        "peak_rss_mib": peak_rss_mib(),
    }
    per_layer = {
        "compiled.fallback_recompiles": sum(f["degraded"] for f in everything),
        "journal.entries": sum(f["entries"] for f in everything),
        "session.apply_deltas_ms_p50": median(f["apply_s"] for f in epochs) * 1e3,
        "session.verify_route_us_warm": warm_s * 1e6 / len(working_set),
        "verify.cold_pass_s": median(f["cold_s"] for f in epochs),
        "verify.warm_pass_s": warm_s,
    }
    if ctx.traced:
        per_layer.update(
            {
                "compiled.patch_ms_p50": median(f["patch_s"] for f in epochs) * 1e3,
                "journal.apply_ir_ms_p50": median(f["apply_ir_s"] for f in epochs) * 1e3,
                "verify.rebuild_ms_p50": median(f["rebuild_s"] for f in epochs) * 1e3,
                "verify.busy_s": median(f["busy_s"] for f in epochs),
                "verify.hop_checks": median(f["hop_checks"] for f in epochs),
                "verify.hop_cache_hit_ratio": median(f["hit_ratio"] for f in epochs),
                "trace.overhead_ratio": median(f["normal_update_s"] for f in epochs)
                / reference["normal_update_s"],
            }
        )
    detail = {
        "epochs": len(everything),
        "raw_apply_ms": [round(f["apply_s"] * 1e3, 3) for f in epochs],
        "raw_cold_pass_s": per_layer["verify.cold_pass_s"],
        "raw_warm_pass_s": warm_s,
    }
    return Measured(end_to_end, per_layer, counts, detail)
