"""``verify_table``: the paper's Section 5 workload, whole table, cold cache.

The standard world's *whole* collector table is written to disk in
set-up; one round is ``parse_table_file`` -> ``Session.verify_table
(processes=1)`` once over every distinct route, the hop cache starting
cold (``verify_table`` builds its verifier per call).  ``core.verify`` /
``core.query`` / ``core.prefixtrie`` and the filter, peering and as-path
matchers do the work; the parser and serve layers are idle.  A full
distinct table — not a repeated hot sample — is what the headline
routes/s of a table run is made of.

The pass is made in a few contiguous slices, one ``verify_table`` call
each, so that a calibration sample can be taken between them.  Routes of
one prefix are adjacent in the table and the hop cache only ever hits
within a prefix, so slicing leaves the hit ratio (and, exactly, every
verdict) as in one call over the whole table.

Gates: per-status hop histogram and a blake2b digest over every
<route, hop statuses> equal the pinned golden (seeds 42 and 7) and repeat
from round to round; a seeded sample of routes gets the identical report
from the lazy (index-free) engine.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from collections import Counter

import repro.core.verify
import repro.stats.verification
from repro import api
from repro.bgp.table import parse_table_file, write_table_file
from repro.net.prefix import RangeOp
from repro.obs import MetricsRegistry, use_registry

from harness import (
    Context,
    Measured,
    Outcome,
    counter_total,
    histogram_totals,
    median,
    median_layers,
    peak_rss_mib,
    run_rounds,
    texts_digest,
)
from inputs import build_standard_world, table_routes


def set_up(ctx: Context) -> dict:
    world = build_standard_world(ctx.sizes)
    dumps = ctx.scratch / "dumps"
    world.write_to_dir(dumps)
    table = ctx.scratch / "table.txt"
    routes = write_table_file(table, table_routes(world, ctx.seed))
    session = api.open_session(
        dumps, as_rel=dumps / "as-rel.txt", cache_dir=ctx.scratch / "index-cache"
    )
    return {"dumps": dumps, "table": table, "routes": routes, "session": session}


def tear_down(inputs: dict) -> None:
    inputs["session"].close()
    shutil.rmtree(inputs["dumps"], ignore_errors=True)
    inputs["table"].unlink(missing_ok=True)


def _verdict_digest(reports) -> str:
    """One line per route: collector, prefix, path, and every hop's status."""
    return texts_digest(
        f"{r.entry.collector}|{r.entry.prefix}|{' '.join(map(str, r.entry.as_path))}|"
        + (r.ignored or ",".join(hop.status.label for hop in r.hops))
        for r in reports
    )


def _pass(ctx: Context, inputs: dict, number: int, processes: int) -> dict:
    """One table run: parse the file, verify every route once."""
    session = inputs["session"]
    reports: list = []
    with ctx.timed("parse_table_file", "bgp.table", number) as parse:
        entries = list(parse_table_file(inputs["table"]))
    # The pool chunks the table itself; slicing would starve its workers.
    slices = ctx.sizes.verify_slices if processes == 1 else 1
    size = -(-len(entries) // slices)
    verifies = []
    hop_totals: Counter = Counter()
    routes = 0
    degraded = False
    for index in range(slices):
        chunk = entries[index * size : (index + 1) * size]
        with ctx.timed("Session.verify_table", "api", number) as verify:
            stats = session.verify_table(chunk, processes=processes, on_report=reports.append)
        verifies.append(verify)
        hop_totals.update(stats.hop_totals)
        routes += stats.routes_total
        degraded |= bool(stats.degradation)
    return {
        "parse": parse,
        "verifies": verifies,
        "routes": routes,
        "hops": sum(hop_totals.values()),
        "histogram": {
            status.label: count
            for status, count in sorted(hop_totals.items(), key=lambda item: item[0].label)
        },
        "digest": _verdict_digest(reports),
        "degraded": degraded,
        "reports": reports,
    }


def _traced_pass(ctx: Context, inputs: dict, number: int) -> dict:
    tracer = ctx.tracer
    mark = tracer.mark()
    with use_registry(MetricsRegistry()) as registry:
        facts = _pass(ctx, inputs, number, 1)
        snapshot = registry.snapshot()
    hits = counter_total(snapshot, "verify_hop_cache_total", result="hit")
    misses = counter_total(snapshot, "verify_hop_cache_total", result="miss")
    miss_seconds, miss_count = histogram_totals(snapshot, "verify_hop_seconds")
    facts["layers"] = {
        "table.parse_s": facts["parse"].seconds,
        "table.lines_per_s": facts["routes"] / facts["parse"].seconds,
        "verify.busy_s": sum(tracer.durations("Verifier.verify_entry", mark))
        + sum(tracer.durations("Verifier.__init__", mark)),
        "verify.hop_checks": hits + misses,
        "verify.hop_cache_hit_ratio": hits / (hits + misses),
        "verify.hop_cache_evictions": counter_total(snapshot, "verify_hop_cache_evictions_total"),
        "verify.us_per_hop_miss": miss_seconds * 1e6 / miss_count,
        "verify.cold_pass_s": sum(v.seconds for v in facts["verifies"]),
        "stats.add_report_s": sum(tracer.durations("VerificationStats.add_report", mark)),
    }
    return facts


def _prefixtrie_replay(inputs: dict, reports) -> float:
    """us per ``route_trie.match_origin`` over every <prefix, origin> of the table."""
    trie = inputs["session"].index.route_trie
    queries = [
        (r.entry.origin, r.entry.prefix.version, r.entry.prefix.network, r.entry.prefix.length)
        for r in reports
        if r.entry.as_path
    ]
    op = RangeOp()
    match = trie.match_origin
    started = time.perf_counter()
    for origin, version, network, length in queries:
        match(origin, version, network, length, op)
    return (time.perf_counter() - started) * 1e6 / len(queries)


def measure(ctx: Context, inputs: dict, outcome: Outcome) -> Measured:
    tracer = ctx.tracer
    processes = min(os.cpu_count() or 1, 4) if ctx.pool else 1
    tracer.wrap(repro.core.verify.Verifier, "__init__", "core.verify")
    tracer.wrap(repro.core.verify.Verifier, "verify_entry", "core.verify")
    tracer.wrap(repro.stats.verification.VerificationStats, "add_report", "stats.verification")

    def one_round(number: int) -> dict:
        if tracer.recording:
            facts = _traced_pass(ctx, inputs, number)
        else:
            facts = _pass(ctx, inputs, number, processes)
        if number:
            del facts["reports"]  # round 0's feed the gates; the rest are only counted
        return facts

    rounds, reference = run_rounds(ctx, one_round)
    tracer.unwrap()

    first = rounds[0]
    everything = rounds + ([reference] if reference else [])
    routes = sum(r["routes"] for r in everything)
    outcome.ran(routes)
    outcome.gate(first["routes"] == inputs["routes"], "verify_table: routes verified != routes written")
    for facts in everything:
        outcome.gate(not facts["degraded"], "verify_table: the run degraded")
        outcome.gate(
            (facts["digest"], facts["histogram"]) == (first["digest"], first["histogram"]),
            "verify_table: verdict digest or hop histogram differs between rounds",
        )
    counts = {
        "routes": first["routes"],
        "verify.hop_checks": first["hops"],
        "hop_histogram": first["histogram"],
        "verdict_digest": first["digest"],
    }
    reports = first["reports"]
    if not ctx.pool:  # pool workers fold reports away; only the histogram comes back
        ctx.golden(outcome, counts)
        # Differential gate: the lazy engine must render the same report.
        lazy = api.make_verifier(inputs["session"].ir, inputs["session"].relationships)
        picks = random.Random(ctx.seed).sample(
            range(len(reports)), min(ctx.sizes.differential_routes, len(reports))
        )
        differing = sum(
            str(lazy.verify_entry(reports[i].entry)) != str(reports[i]) for i in picks
        )
        outcome.ran(len(picks), differing, "lazy-engine differential routes")

    def verify_seconds(facts: dict, attribute: str = "normal_s") -> float:
        return sum(getattr(v, attribute) for v in facts["verifies"])

    operations = [op for r in everything for op in (r["parse"], *r["verifies"])]
    verify_s = median(verify_seconds(r) for r in rounds)
    parse_s = median(r["parse"].normal_s for r in rounds)
    end_to_end = {
        "work_per_s": routes / sum(op.normal_s for op in operations),
        "primary_op_ms": verify_s * 1e3 / (first["hops"] / 1000),
        "secondary_op_ms": parse_s * 1e3 / (first["routes"] / 1000),
        "cpu_us_per_unit": sum(op.cpu_normal_s for op in operations) * 1e6 / routes,
        "peak_rss_mib": peak_rss_mib(),
    }
    per_layer = {}
    if ctx.traced:
        per_layer.update(median_layers(rounds))
        per_layer["prefixtrie.match_origin_us"] = _prefixtrie_replay(inputs, reports)
        per_layer["prefixtrie.plane_bytes"] = inputs["session"].index.stats()["plane_bytes"]
        per_layer["trace.overhead_ratio"] = verify_s / verify_seconds(reference)
    raw_verify_s = median(verify_seconds(r, "seconds") for r in rounds)
    detail = {
        "rounds": len(rounds),
        "processes": processes,
        "slices": len(first["verifies"]),
        "raw_verify_pass_s": raw_verify_s,
        "raw_routes_per_s_verify_only": first["routes"] / raw_verify_s,
        "normal_verify_pass_s": verify_s,
        "normal_parse_pass_s": parse_s,
    }
    return Measured(end_to_end, per_layer, counts, detail)
