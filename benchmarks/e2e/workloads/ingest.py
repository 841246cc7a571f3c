"""``ingest``: dumps on disk -> warm Session, cold and warm.

The only workload where ``rpsl`` / ``irr`` / ``ir`` / ``core.compiled``
do all the work and ``core.verify`` / ``serve`` do none.  One round is
the full ingest cycle a deployment goes through:

(a) cold ``api.open_session(dumps_dir, cache_dir=<empty>)`` = lex ->
    parse -> merge -> ``ir_digest`` -> ``compile_index`` -> ``save_index``;
(b) ``dump_ir`` of the merged IR to JSON;
(c) warm ``api.open_session(ir.json, cache_dir=<same>)`` = ``load_ir`` ->
    ``ir_digest`` -> ``load_index``.

The dumps are the `default`-preset world's 13 ``*.db`` files, their
objects reordered by the seed.

Gates: the warm open's digest equals the cold open's, the warm open
really adopted the cached artifact, and object/issue counts equal the
pinned golden (seeds 42 and 7) and repeat from round to round.
"""

from __future__ import annotations

import shutil

import repro.api
import repro.core.compiled
import repro.ir.json_io
import repro.irr.registry
from repro import api
from repro.ir.json_io import dump_ir
from repro.obs import MetricsRegistry, use_registry

from harness import (
    Context,
    Measured,
    Outcome,
    counter_total,
    median,
    median_layers,
    peak_rss_mib,
    run_rounds,
    span_wall,
)
from inputs import build_ingest_world, shuffled_dumps
from tracing import Tracer

OBJECT_CLASSES = ("aut-num", "as-set", "route-set", "peering-set", "filter-set", "route")


def set_up(ctx: Context) -> dict:
    world = build_ingest_world(ctx.sizes)
    shuffled_dumps(world, ctx.seed)
    dumps = ctx.scratch / "dumps"
    world.write_to_dir(dumps)
    return {
        "dumps": dumps,
        "as_rel": dumps / "as-rel.txt",
        "ir_json": ctx.scratch / "ir.json",
        "dump_bytes": sum(path.stat().st_size for path in dumps.glob("*.db")),
    }


def tear_down(inputs: dict) -> None:
    shutil.rmtree(inputs["dumps"], ignore_errors=True)


def _wrap_layers(tracer: Tracer) -> None:
    """Span the public functions ``open_session`` goes through.

    ``repro.api`` binds ``parse_registry_dir`` / ``ir_digest`` /
    ``get_or_compile`` at import, so the api module's own attributes are
    the ones wrapped; ``get_or_compile`` resolves compile/save/load in
    ``repro.core.compiled`` at call time.
    """
    tracer.wrap(repro.api, "parse_registry_dir", "irr.registry")
    tracer.wrap(repro.irr.registry, "parse_dump_file", "rpsl")
    tracer.wrap(repro.irr.registry.Registry, "merged", "ir.merge")
    tracer.wrap(repro.api, "ir_digest", "ir.serialize")
    tracer.wrap(repro.api, "get_or_compile", "core.compiled")
    tracer.wrap(repro.core.compiled, "compile_index", "core.compiled")
    tracer.wrap(repro.core.compiled, "save_index", "core.compiled")
    tracer.wrap(repro.core.compiled, "load_index", "core.compiled")
    tracer.wrap(repro.ir.json_io, "load_ir", "ir.json_io")


def _cycle(ctx: Context, inputs: dict, number: int, outcome: Outcome) -> dict:
    """One cold open -> IR export -> warm open; returns timings and facts."""
    cache = ctx.scratch / f"index-cache-{number}"
    facts: dict = {}
    with ctx.timed("cold_open", "api", number) as cold:
        session = api.open_session(inputs["dumps"], as_rel=inputs["as_rel"], cache_dir=cache)
    counts = session.ir.counts()
    facts["objects"] = sum(counts[cls] for cls in OBJECT_CLASSES)
    facts["rules"] = counts["import"] + counts["export"]
    facts["issues"] = len(session.load.errors)
    facts["digest"] = session.digest
    artifacts = list(cache.glob("index-*.pkl"))
    facts["artifact_bytes"] = artifacts[0].stat().st_size if artifacts else 0
    with ctx.timed("dump_ir", "ir.json_io", number) as dump:
        dump_ir(session.ir, inputs["ir_json"])
    facts["json_bytes"] = inputs["ir_json"].stat().st_size
    session.close()
    del session
    with ctx.timed("warm_open", "api", number) as warm:
        reopened = api.open_session(inputs["ir_json"], as_rel=inputs["as_rel"], cache_dir=cache)
    outcome.ran(2)  # the two opens; an exception aborts the run instead
    outcome.gate(
        reopened.digest == facts["digest"],
        f"ingest round {number}: warm-open digest {reopened.digest[:16]} "
        f"!= cold-open digest {facts['digest'][:16]}",
    )
    outcome.gate(
        reopened.index is not None
        and reopened.index.resource is not None
        and len(list(cache.glob("index-*.pkl"))) == 1,
        f"ingest round {number}: warm open did not adopt the cached index artifact",
    )
    reopened.close()
    del reopened
    shutil.rmtree(cache, ignore_errors=True)
    facts.update(cold=cold, dump=dump, warm=warm)
    return facts


def _traced_cycle(ctx: Context, inputs: dict, number: int, outcome: Outcome) -> dict:
    """A cycle under the program's own registry plus the harness spans."""
    tracer = ctx.tracer
    mark = tracer.mark()
    with use_registry(MetricsRegistry()) as registry:
        facts = _cycle(ctx, inputs, number, outcome)
        snapshot = registry.snapshot()

    def total(name: str) -> float:
        return sum(tracer.durations(name, mark))

    lex_s = span_wall(snapshot, "/lex")
    facts["layers"] = {
        "rpsl.lex_s": lex_s,
        "rpsl.parse_s": total("repro.irr.registry.parse_dump_file") - lex_s,
        "rpsl.objects": counter_total(snapshot, "lex_objects_total"),
        "irr.parse_registry_dir_s": total("repro.api.parse_registry_dir"),
        "ir.merge_s": total("Registry.merged"),
        "ir.digest_s": total("repro.api.ir_digest"),
        "ir.load_json_s": total("repro.ir.json_io.load_ir"),
        "compiled.compile_s": total("repro.core.compiled.compile_index"),
        "compiled.save_s": total("repro.core.compiled.save_index"),
        "compiled.load_s": total("repro.core.compiled.load_index"),
    }
    return facts


def measure(ctx: Context, inputs: dict, outcome: Outcome) -> Measured:
    mib = inputs["dump_bytes"] / 2**20
    _wrap_layers(ctx.tracer)

    def one_round(number: int) -> dict:
        cycle = _traced_cycle if ctx.tracer.recording else _cycle
        return cycle(ctx, inputs, number, outcome)

    rounds, reference = run_rounds(ctx, one_round)
    ctx.tracer.unwrap()

    first = rounds[0]
    for facts in rounds[1:]:
        outcome.gate(
            all(facts[key] == first[key] for key in ("objects", "rules", "issues", "digest")),
            "ingest: object/issue counts or digest differ between rounds",
        )
    counts = {
        "ir.objects_merged": first["objects"],
        "ir.rules": first["rules"],
        "rpsl.issues": first["issues"],
    }
    ctx.golden(outcome, counts)
    counts["ir.digest"] = first["digest"]

    everything = rounds + ([reference] if reference else [])
    operations = [r[op] for r in everything for op in ("cold", "dump", "warm")]
    units = first["objects"] * len(everything)
    cold_ms = median(r["cold"].normal_s for r in rounds) * 1e3
    warm_ms = median(r["warm"].normal_s for r in rounds) * 1e3
    end_to_end = {
        "work_per_s": units / sum(op.normal_s for op in operations),
        "primary_op_ms": cold_ms / mib,
        "secondary_op_ms": warm_ms / mib,
        "cpu_us_per_unit": sum(op.cpu_normal_s for op in operations) * 1e6 / units,
        "peak_rss_mib": peak_rss_mib(),
    }
    per_layer = {
        "rpsl.issues": first["issues"],
        "ir.objects_merged": first["objects"],
        "ir.dump_json_s": median(r["dump"].seconds for r in rounds),
        "ir.json_bytes": first["json_bytes"],
        "compiled.artifact_bytes": first["artifact_bytes"],
    }
    if ctx.traced:
        per_layer.update(median_layers(rounds))
        per_layer["rpsl.mib_per_s"] = mib / (per_layer["rpsl.lex_s"] + per_layer["rpsl.parse_s"])
        per_layer["trace.overhead_ratio"] = (
            median(r["cold"].normal_s for r in rounds) / reference["cold"].normal_s
        )
    detail = {
        "rounds": len(rounds),
        "rpsl_mib": mib,
        "raw_cold_open_s": median(r["cold"].seconds for r in rounds),
        "raw_warm_open_s": median(r["warm"].seconds for r in rounds),
        "normal_cold_open_s": cold_ms / 1e3,
        "normal_warm_open_s": warm_ms / 1e3,
    }
    return Measured(end_to_end, per_layer, counts, detail)
