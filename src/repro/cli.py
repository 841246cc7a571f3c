"""Command-line interface: ``rpslyzer <subcommand>``.

Subcommands mirror the paper's pipeline:

* ``synth <dir>`` — generate a synthetic world (13 IRR dumps, an as-rel
  file, collector peers) into a directory;
* ``parse <dir> -o ir.json`` — parse all ``*.db`` dumps, priority-merge,
  and export the IR as JSON;
* ``verify --ir ir.json --as-rel as-rel.txt --table dump.txt`` — verify a
  BGP table dump and print summary statistics (or per-route reports with
  ``--report``); the verification index is compiled once and cached on
  disk keyed by the IR digest (``--no-index-cache`` opts out);
* ``compile --ir ir.json`` — precompile the verification index into the
  cache (or ``-o artifact.pkl``) ahead of a verify run;
* ``stats --ir ir.json`` — print the Section 4 characterization;
* ``metrics run.json`` — render a run manifest as Prometheus exposition
  text (``--format json`` for the manifest with each histogram's
  cumulative ``[le, count]`` view spelled out, ``--out`` to a file);
* ``explain --ir ir.json --as-rel as-rel.txt 10.0.0.0/24 64500 64501`` —
  replay one route with tracing forced on and print which rule, filter
  term, and relaxation tier decided each hop;
* ``trace events.jsonl`` — summarize or filter a trace file written by
  ``verify --trace``;
* ``chaos --seed 42`` — run the fault-injection suite and print its
  degradation report (exit 1 if any resilience check fails);
* ``serve --ir ir.json --as-rel as-rel.txt`` — run the resident
  verification daemon: HTTP/JSON (``POST /verify``, ``POST /explain``,
  ``GET /healthz``, ``GET /metrics``) and optionally the WHOIS line
  protocol with a ``!v`` verify command, answering warm from one
  loaded session (see ``docs/serving.md``); request-scoped telemetry
  (correlation ids, stage timings, ``--access-log``, the flight
  recorder) is on by default — ``--no-telemetry`` opts out;
* ``debug <events.jsonl | http://host:port>`` — render an event log (an
  incident dump, an access log, a trace file, or a live daemon's
  ``/debug/flight`` ring) as a filtered timeline (``--id``, ``--type``,
  ``--since``, ``--until``, ``--limit``, ``--json``).

The pipeline subcommands accept ``--metrics <path>`` to record the run —
phase wall/CPU timings, counters, histograms, input digests — into a JSON
run manifest for diffable, auditable benchmarking (see
``docs/observability.md``).

Every subcommand is a thin adapter over a :class:`repro.api.Session`
(opened via :func:`repro.api.open_session`), the supported programmatic
entry point; the CLI touches no pipeline internals.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from repro import VerifyOptions, api
from repro.bgp.routegen import collector_routes
from repro.bgp.table import parse_table_file, write_table_file
from repro.bgp.topology import AsRelationships
from repro.ir.json_io import dump_ir, load_ir
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    PhaseProfiler,
    TraceConfig,
    build_manifest,
    cache_summary,
    cumulative_view,
    filter_events,
    load_manifest,
    read_events,
    render_prometheus,
    summarize_events,
    use_registry,
    write_manifest,
)

__all__ = ["main"]


@contextmanager
def _metrics_session(
    args: argparse.Namespace, inputs: list, config: dict, extras: dict | None = None
):
    """Record the run into a manifest when ``--metrics <path>`` was given.

    ``extras`` lets the command deposit values computed inside the session
    (``extras["degradation"]``, ``extras["trace"]``) for inclusion in the
    manifest.  ``--profile`` additionally runs the background resource
    sampler for the session and records its timeline.
    """
    path = getattr(args, "metrics", None)
    if not path:
        if getattr(args, "profile", False):
            print("--profile requires --metrics; ignoring", file=sys.stderr)
        yield
        return
    registry = MetricsRegistry()
    profiler = PhaseProfiler(registry) if getattr(args, "profile", False) else None
    with use_registry(registry):
        if profiler is not None:
            profiler.start()
        try:
            yield
        finally:
            if profiler is not None:
                profiler.stop()
    manifest = build_manifest(
        command=" ".join([args.command, *map(str, inputs)]),
        registry=registry,
        inputs=inputs,
        config=config,
        degradation=(extras or {}).get("degradation"),
        profile=profiler.snapshot() if profiler is not None else None,
        trace=(extras or {}).get("trace"),
    )
    write_manifest(path, manifest)
    print(f"run manifest written to {path}", file=sys.stderr)


def _cmd_synth(args: argparse.Namespace) -> int:
    world = api.synthesize(args.preset, seed=args.seed)
    world.write_to_dir(args.directory)
    if args.routes:
        entries = collector_routes(world.topology, world.announced, world.collectors)
        count = write_table_file(Path(args.directory) / "table.txt", entries)
        print(f"wrote {count} routes", file=sys.stderr)
    print(f"world written to {args.directory}", file=sys.stderr)
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    with _metrics_session(args, [args.directory], {"output": args.output}):
        load = api.parse_dumps(args.directory)
        dump_ir(load.ir, args.output)
    counts = load.ir.counts()
    print(
        f"parsed {counts['aut-num']} aut-nums, {counts['route']} routes, "
        f"{counts['import'] + counts['export']} rules, "
        f"{len(load.errors)} parse issues -> {args.output}",
        file=sys.stderr,
    )
    return 0


def _open_cli_session(args: argparse.Namespace, config: dict, **kwargs):
    """An :func:`api.open_session` honoring the CLI's index-cache knobs.

    ``--index PATH`` pins a specific artifact; ``--no-index-cache``
    compiles in-memory without touching disk; the default consults (and
    populates) the on-disk cache keyed by the IR content digest.  The
    choice and the digest are recorded into the manifest ``config``.
    """
    index = getattr(args, "index", None) or None
    use_cache = True
    if index is not None:
        config["index"] = {"source": str(index)}
    elif getattr(args, "no_index_cache", False):
        use_cache = False
        config["index"] = {"source": "compiled", "cache": False}
    else:
        config["index"] = {"source": "cache", "cache": True}
    session = api.open_session(
        args.ir,
        index=index,
        cache_dir=getattr(args, "cache_dir", None),
        use_cache=use_cache,
        **kwargs,
    )
    config["ir_digest"] = session.digest
    return session


def _cmd_verify(args: argparse.Namespace) -> int:
    options = VerifyOptions(
        relaxations=not args.no_relaxations, safelists=not args.no_safelists
    )
    config = {
        "relaxations": options.relaxations,
        "safelists": options.safelists,
        "processes": args.processes,
        "report": bool(args.report),
    }
    trace_config = None
    if args.trace:
        trace_config = TraceConfig(sample_rate=args.trace_sample)
        config["trace"] = {"path": str(args.trace), "sample_rate": args.trace_sample}
    extras: dict = {}
    tracer = None
    with _metrics_session(args, [args.ir, args.as_rel, args.table], config, extras):
        with _open_cli_session(
            args,
            config,
            as_rel=args.as_rel,
            options=options,
            processes=args.processes,
            trace=trace_config,
        ) as session:

            def print_report(report) -> None:
                if report.ignored is None:
                    print(report)
                    print()

            stats = session.verify_table(
                parse_table_file(args.table),
                on_report=print_report if args.report else None,
            )
            extras["degradation"] = stats.degradation.as_dict()
            tracer = session.tracer
            if tracer is not None:
                extras["trace"] = {"path": str(args.trace), **tracer.stats()}
    if tracer is not None:
        tracer.write(args.trace)
        print(
            f"trace: {tracer.emitted} event(s) "
            f"({tracer.sampled['head']} head / {tracer.sampled['verdict']} verdict "
            f"sampled route(s)) -> {args.trace}",
            file=sys.stderr,
        )
    if args.figures_dir:
        from repro.stats import export

        directory = Path(args.figures_dir)
        directory.mkdir(parents=True, exist_ok=True)
        export.write_csv(export.fig2_rows(stats), directory / "fig2_per_as.csv")
        export.write_csv(export.fig3_rows(stats), directory / "fig3_per_pair.csv")
        export.write_csv(export.fig4_rows(stats), directory / "fig4_per_route.csv")
        export.write_csv(export.fig5_rows(stats), directory / "fig5_unrecorded.csv")
        export.write_csv(export.fig6_rows(stats), directory / "fig6_special.csv")
        print(f"figure CSVs written to {directory}", file=sys.stderr)
    json.dump(stats.summary(), sys.stdout, indent=2, default=str)
    print()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with _metrics_session(args, [args.ir], {}):
        ir = load_ir(args.ir)
        result = api.characterize(ir)
    json.dump(result, sys.stdout, indent=2, default=str)
    print()
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    config = {"output": args.output, "cache_dir": args.cache_dir}
    with _metrics_session(args, [args.ir], config):
        ir = load_ir(args.ir)
        digest = api.ir_digest(ir)
        config["ir_digest"] = digest
        destination = (
            Path(args.output)
            if args.output
            else api.index_cache_path(digest, args.cache_dir)
        )
        if destination.exists() and not args.force:
            print(
                f"{destination} already exists (use --force to recompile)",
                file=sys.stderr,
            )
            if args.stats:
                existing = api.load_index(destination, expect_digest=digest)
                try:
                    json.dump(existing.stats(), sys.stdout, indent=2, sort_keys=True)
                    print()
                finally:
                    existing.close()
            return 0
        index = api.compile_index(ir, digest=digest)
        api.save_index(index, destination)
    stats = index.stats()
    print(
        f"compiled index for IR {digest[:16]} -> {destination} "
        f"({stats['as_sets']} as-sets, {stats['route_sets']} route-sets, "
        f"{stats['aspath_regexes']} regexes, "
        f"{stats['plane_bytes']} plane bytes, "
        f"{stats['compile_seconds']:.2f}s)",
        file=sys.stderr,
    )
    if args.stats:
        json.dump(stats, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


_CACHE_FIGURES = (
    "hop_cache_hits",
    "hop_cache_misses",
    "hop_cache_evictions",
    "hop_cache_hit_rate",
    "index_cache_hits",
    "index_cache_misses",
    "index_compile_seconds",
    "index_load_seconds",
    "index_mmap_bytes",
)


def _cmd_metrics(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    if args.format == "json":
        document = dict(manifest)
        metrics = document.get("metrics")
        if isinstance(metrics, dict) and metrics.get("histograms"):
            # Spell out each histogram's cumulative [le, count] pairs so
            # external percentile math never has to know the internal
            # bucket_counts alignment (the final +Inf bucket is implicit
            # there — one more count than there are bounds).
            metrics = dict(metrics)
            metrics["histograms"] = [
                {**record, "cumulative": cumulative_view(record)}
                for record in metrics["histograms"]
            ]
            document["metrics"] = metrics
        rendered = json.dumps(document, indent=2, sort_keys=True) + "\n"
    else:
        rendered = render_prometheus(manifest)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(rendered)
        print(f"metrics ({args.format}) written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    if args.format == "prom":
        # The exposition content type a scraper should be served with.
        print(f"content-type: {PROMETHEUS_CONTENT_TYPE}", file=sys.stderr)
    caches = cache_summary(manifest, cache_dir=args.cache_dir)
    # The run's own cache counters; disk figures are reported separately
    # below (disk_cache_dir is always set, so it must not gate this line).
    if any(caches[figure] for figure in _CACHE_FIGURES):
        print(
            "caches: hop {hits}/{total} hits ({rate:.1%}), "
            "{evictions} evictions, {plans} rule plans for {misses} misses; "
            "index {index_hits} hits / "
            "{index_misses} misses, compile {compile:.2f}s".format(
                hits=caches["hop_cache_hits"],
                total=caches["hop_cache_hits"] + caches["hop_cache_misses"],
                rate=caches["hop_cache_hit_rate"],
                evictions=caches["hop_cache_evictions"],
                plans=caches["rule_plans_built"],
                misses=caches["hop_cache_misses"],
                index_hits=caches["index_cache_hits"],
                index_misses=caches["index_cache_misses"],
                compile=caches["index_compile_seconds"],
            ),
            file=sys.stderr,
        )
        if caches["index_mmap_bytes"]:
            print(
                "index mmap: {size:.0f} bytes attached in {load:.3f}s".format(
                    size=caches["index_mmap_bytes"],
                    load=caches["index_load_seconds"],
                ),
                file=sys.stderr,
            )
    if caches["index_generation"]:
        serials = ", ".join(
            f"{source}:{serial:.0f}"
            for source, serial in sorted(caches["journal_serials"].items())
        )
        dropped = ", ".join(
            f"{reason} {count:.0f}"
            for reason, count in sorted(caches["hop_cache_invalidated"].items())
            if count
        )
        print(
            "incremental: generation {generation:.0f}, last delta apply "
            "{delta:.4f}s{serials}; hop cache carried {carried:.0f}, "
            "invalidated {dropped}".format(
                generation=caches["index_generation"],
                delta=caches["delta_apply_seconds"],
                serials=f" (serials {serials})" if serials else "",
                carried=caches["hop_cache_carried"],
                dropped=dropped or "none",
            ),
            file=sys.stderr,
        )
    if caches["disk_cache_entries"] is None:
        print(
            f"index disk cache: none ({caches['disk_cache_dir']} does not exist)",
            file=sys.stderr,
        )
    else:
        print(
            "index disk cache: {entries} artifact(s), {size} bytes in {directory}".format(
                entries=caches["disk_cache_entries"],
                size=caches["disk_cache_bytes"],
                directory=caches["disk_cache_dir"],
            ),
            file=sys.stderr,
        )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    with api.open_session(args.ir, as_rel=args.as_rel, warm=False) as session:
        ir = session.ir
        report, events = session.explain(args.prefix, args.as_path)
    if args.json:
        json.dump(
            {"report": str(report), "events": events},
            sys.stdout,
            indent=2,
            sort_keys=True,
        )
        print()
        return 0
    print(f"route {args.prefix} path {' '.join(map(str, args.as_path))}")
    if report.ignored is not None:
        print(f"  ignored: {report.ignored}")
        return 0
    hop_events = [event for event in events if event.get("kind") == "hop"]
    for hop, event in zip(report.hops, hop_events):
        subject = hop.subject_asn
        print(
            f"  {hop.direction} {hop.from_asn} -> {hop.to_asn}: "
            f"{hop.status.label} (rules of AS{subject})"
        )
        rule_index = event.get("rule")
        if rule_index is not None:
            aut_num = ir.aut_nums.get(subject)
            rules = (
                aut_num.imports if hop.direction == "import" else aut_num.exports
            ) if aut_num is not None else []
            if 0 <= rule_index < len(rules) and rules[rule_index].raw:
                print(f"    rule[{rule_index}]: {' '.join(rules[rule_index].raw.split())}")
            else:
                print(f"    rule[{rule_index}]")
        if event.get("registry"):
            print(f"    registry: {event['registry']}")
        if event.get("tier"):
            print(f"    tier: {event['tier']}")
        if event.get("unrecorded"):
            print(f"    unrecorded: {event['unrecorded']}")
        for item in event.get("items", ()):
            print(f"    item: {item}")
        for step in event.get("chain", ()):
            print(f"    eval: {step}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    _, events = read_events(args.trace_file)
    selected = events
    if args.status:
        wanted_traces = {
            event["ids"].get("route")
            for event in events
            if event.get("kind") == "hop" and event.get("status") == args.status
        }
        selected = [e for e in selected if e["ids"].get("route") in wanted_traces]
    if args.prefix:
        wanted_traces = {
            event["ids"].get("route")
            for event in events
            if event.get("kind") == "route" and event.get("prefix") == args.prefix
        }
        selected = [e for e in selected if e["ids"].get("route") in wanted_traces]
    if args.trace_id:
        selected = filter_events(selected, route=args.trace_id)
    if args.json:
        shown = selected[: args.limit] if args.limit else selected
        for event in shown:
            print(json.dumps(event, separators=(",", ":"), sort_keys=True))
        return 0
    summary = summarize_events(selected)
    print(
        f"{summary['routes']} route(s), {summary['hops']} hop event(s), "
        f"{summary['workers']} worker(s)"
    )
    if summary["sampled"]:
        sampled = ", ".join(
            f"{reason}: {count}" for reason, count in sorted(summary["sampled"].items())
        )
        print(f"sampled: {sampled}")
    for status, count in sorted(summary["hop_status"].items()):
        print(f"  {status}: {count}")
    if summary["top_evidence"]:
        print("top evidence:")
        for name, count in summary["top_evidence"]:
            print(f"  {name}: {count}")
    if args.limit:
        for event in selected[: args.limit]:
            print(json.dumps(event, separators=(",", ":"), sort_keys=True))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.tools.lint import lint_ir

    ir = load_ir(args.ir)
    relationships = AsRelationships.load(args.as_rel) if args.as_rel else None
    report = lint_ir(ir, None, relationships)
    print(report.render())
    print(f"\n{len(report)} finding(s): {report.counts()}", file=sys.stderr)
    return 1 if args.strict and report.findings else 0


def _cmd_asrel(args: argparse.Namespace) -> int:
    from repro.tools.asrel import infer_relationships, score_inference

    ir = load_ir(args.ir)
    inferred = infer_relationships(ir)
    if args.output:
        inferred.save(args.output)
        print(f"inferred as-rel written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(inferred.to_as_rel_text())
    if args.truth:
        truth = AsRelationships.load(args.truth)
        json.dump(score_inference(truth, inferred).as_dict(), sys.stderr, indent=2)
        print(file=sys.stderr)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.tools.classify import classify_ir

    ir = load_ir(args.ir)
    relationships = AsRelationships.load(args.as_rel) if args.as_rel else None
    all_asns = set(relationships.ases()) if relationships else None
    labels, census = classify_ir(ir, all_asns, relationships)
    json.dump({"census": dict(census)}, sys.stdout, indent=2)
    print()
    if args.verbose:
        for asn in sorted(labels):
            print(f"AS{asn}\t{labels[asn]}", file=sys.stderr)
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    ir = load_ir(args.ir)
    relationships = AsRelationships.load(args.as_rel) if args.as_rel else None
    asns = [int(asn) for asn in args.asn] if args.asn else None
    emitted = 0
    for recommendation in api.recommend_migrations(
        ir, asns, relationships, limit=args.limit
    ):
        print(recommendation.summary())
        print(recommendation.rpsl)
        print()
        emitted += 1
    print(f"{emitted} migration(s) proposed", file=sys.stderr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import run_chaos

    report = run_chaos(
        seed=args.seed, preset=args.preset, processes=args.processes, only=args.only
    )
    if args.json:
        json.dump(report.as_dict(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(report.render())
    return 0 if report.ok else 1


def _run_daemon(session, serve_config) -> int:
    """Serve ``session`` until SIGTERM/Ctrl-C has drained the daemon."""
    from repro.serve import ServeDaemon

    def banner(ready: ServeDaemon) -> None:
        if ready.http is not None:
            print(
                f"http on {serve_config.host}:{ready.http.port} "
                "(POST /verify, POST /explain, POST /reload, "
                "GET /healthz, GET /metrics, GET /debug/flight)",
                file=sys.stderr,
            )
        if ready.whois is not None:
            print(
                f"whois on {serve_config.host}:{ready.whois.port} (!v to verify)",
                file=sys.stderr,
            )
        print(
            f"serving IR {session.digest[:16]} "
            "(SIGTERM or Ctrl-C drains and exits)",
            file=sys.stderr,
        )

    try:
        asyncio.run(ServeDaemon(session, serve_config).run(on_ready=banner))
    except KeyboardInterrupt:  # pragma: no cover - loops without signal support
        pass
    finally:
        session.close()
    return 0


def _cmd_whois(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig

    return _run_daemon(
        api.open_session(args.ir, warm=False),
        ServeConfig(host=args.host, http_port=None, whois_port=args.port),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig

    # The daemon owns a private registry so GET /metrics reflects this
    # process alone (load, index adoption, and every query report there).
    session = _open_cli_session(
        args, {}, as_rel=args.as_rel, processes=1, registry=MetricsRegistry()
    )
    serve_config = ServeConfig(
        host=args.host,
        http_port=args.http_port,
        whois_port=args.whois_port,
        queue_size=args.queue_size,
        batch_max=args.batch_max,
        default_deadline=args.deadline,
        max_deadline=max(args.deadline, args.max_deadline),
        drain_timeout=args.drain_timeout,
        workers=args.workers,
        journal_path=args.journal,
        journal_poll=args.journal_poll,
        telemetry=not args.no_telemetry,
        access_log=args.access_log,
        slow_ms=args.slow_ms,
        flight_events=args.flight_events,
        incident_dir=args.incident_dir,
    )
    return _run_daemon(session, serve_config)


def _cmd_debug(args: argparse.Namespace) -> int:
    header: dict = {}
    if args.source.startswith(("http://", "https://")):
        from urllib.parse import urlencode
        from urllib.request import urlopen

        params = []
        if args.id:
            params.append(("id", args.id))
        for event_type in args.type or ():
            params.append(("type", event_type))
        for name in ("since", "until", "limit"):
            value = getattr(args, name)
            if value is not None:
                params.append((name, value))
        url = args.source.rstrip("/") + "/debug/flight"
        if params:
            url += "?" + urlencode(params)
        try:
            with urlopen(url, timeout=10) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except OSError as exc:
            print(f"cannot reach {url}: {exc}", file=sys.stderr)
            return 1
        events = payload.get("events", [])
        header = {"source": url, "stats": payload.get("stats")}
    else:
        try:
            header, events = read_events(args.source)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.source}: {exc}", file=sys.stderr)
            return 1
        events = filter_events(
            events,
            request=args.id,
            kinds=args.type,
            since=args.since,
            until=args.until,
            limit=args.limit,
        )
    if args.json:
        json.dump({"header": header, "events": events}, sys.stdout, sort_keys=True)
        print()
        return 0
    reason = header.get("reason")
    if reason:
        print(f"# incident: {reason} (pid {header.get('pid')})", file=sys.stderr)
    stats = header.get("stats")
    if stats:
        print(
            f"# ring: {stats['events']}/{stats['capacity']} events, "
            f"{stats['incidents']} incident dump(s)",
            file=sys.stderr,
        )
    for event in events:
        ids = dict(event.get("ids") or {})
        rid = f" id={ids.pop('request')}" if ids.get("request") else ""
        fields = {**ids, **event}
        extras = " ".join(
            f"{key}={fields[key]}"
            for key in sorted(fields)
            if key not in ("ts", "kind", "ids")
        )
        print(
            f"{event.get('ts', 0.0):.6f} {event.get('kind', '?'):<20}"
            f"{rid}{' ' + extras if extras else ''}"
        )
    print(f"{len(events)} event(s)", file=sys.stderr)
    return 0


def _add_metrics_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write a JSON run manifest (timings, counters, input digests) here",
    )
    subparser.add_argument(
        "--profile",
        action="store_true",
        help="sample wall/CPU/RSS during the run into the manifest (needs --metrics)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="rpslyzer", description="RPSL parsing, characterization, verification"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    synth = subparsers.add_parser("synth", help="generate a synthetic world")
    synth.add_argument("directory")
    synth.add_argument("--preset", choices=("tiny", "default"), default="default")
    synth.add_argument("--seed", type=int, default=42)
    synth.add_argument("--routes", action="store_true", help="also write table.txt")
    synth.set_defaults(func=_cmd_synth)

    parse = subparsers.add_parser("parse", help="parse IRR dumps to IR JSON")
    parse.add_argument("directory")
    parse.add_argument("-o", "--output", default="ir.json")
    _add_metrics_flag(parse)
    parse.set_defaults(func=_cmd_parse)

    verify = subparsers.add_parser("verify", help="verify a BGP table dump")
    verify.add_argument("--ir", required=True)
    verify.add_argument("--as-rel", required=True)
    verify.add_argument("--table", required=True)
    verify.add_argument("--report", action="store_true", help="print per-route reports")
    verify.add_argument("--no-relaxations", action="store_true")
    verify.add_argument("--no-safelists", action="store_true")
    verify.add_argument("--processes", type=int, default=1, help="worker processes")
    verify.add_argument("--figures-dir", help="also write Figures 2-6 CSV data here")
    verify.add_argument(
        "--index",
        metavar="PATH",
        help="use a compiled index artifact (see 'rpslyzer compile')",
    )
    verify.add_argument(
        "--no-index-cache",
        action="store_true",
        help="compile the index in-memory; never read or write the disk cache",
    )
    verify.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="compiled-index cache directory (default: ~/.cache/rpslyzer)",
    )
    verify.add_argument(
        "--trace",
        metavar="PATH",
        help="write sampled decision-provenance events (JSONL) here",
    )
    verify.add_argument(
        "--trace-sample",
        type=int,
        default=128,
        metavar="N",
        help="head-sample 1-in-N routes (default 128; non-verified verdicts "
        "are always traced)",
    )
    _add_metrics_flag(verify)
    verify.set_defaults(func=_cmd_verify)

    compile_ = subparsers.add_parser(
        "compile",
        help="precompile the verification index for an IR (docs/performance.md)",
    )
    compile_.add_argument("--ir", required=True)
    compile_.add_argument(
        "-o",
        "--output",
        help="artifact path (default: the digest-keyed cache entry)",
    )
    compile_.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="compiled-index cache directory (default: ~/.cache/rpslyzer)",
    )
    compile_.add_argument(
        "--force", action="store_true", help="recompile even if the artifact exists"
    )
    compile_.add_argument(
        "--stats",
        action="store_true",
        help="print the full artifact stats (table sizes, trie planes) as JSON",
    )
    _add_metrics_flag(compile_)
    compile_.set_defaults(func=_cmd_compile)

    stats = subparsers.add_parser("stats", help="characterize an IR")
    stats.add_argument("--ir", required=True)
    _add_metrics_flag(stats)
    stats.set_defaults(func=_cmd_stats)

    metrics = subparsers.add_parser(
        "metrics", help="render a run manifest (Prometheus text or JSON)"
    )
    metrics.add_argument("manifest")
    metrics.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="prom = Prometheus exposition text (default), json = full manifest",
    )
    metrics.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    metrics.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="index disk-cache directory to inspect (default: ~/.cache/rpslyzer)",
    )
    metrics.set_defaults(func=_cmd_metrics)

    explain = subparsers.add_parser(
        "explain",
        help="replay one route with tracing forced on and print the decision chain",
    )
    explain.add_argument("--ir", required=True)
    explain.add_argument("--as-rel", required=True)
    explain.add_argument("prefix")
    explain.add_argument("as_path", nargs="+", type=int, help="AS path, neighbor first")
    explain.add_argument("--json", action="store_true", help="emit raw trace events")
    explain.set_defaults(func=_cmd_explain)

    trace = subparsers.add_parser(
        "trace", help="summarize or filter a trace JSONL file"
    )
    trace.add_argument("trace_file")
    trace.add_argument("--status", help="keep routes with a hop of this status")
    trace.add_argument("--prefix", help="keep routes announcing this prefix")
    trace.add_argument("--trace-id", help="keep one trace id")
    trace.add_argument(
        "--limit", type=int, default=0, metavar="N", help="also print the first N events"
    )
    trace.add_argument("--json", action="store_true", help="print events, no summary")
    trace.set_defaults(func=_cmd_trace)

    lint = subparsers.add_parser("lint", help="lint RPSL policies")
    lint.add_argument("--ir", required=True)
    lint.add_argument("--as-rel", help="enable relationship-aware checks")
    lint.add_argument("--strict", action="store_true", help="exit 1 on findings")
    lint.set_defaults(func=_cmd_lint)

    asrel = subparsers.add_parser(
        "asrel", help="infer AS relationships from policies"
    )
    asrel.add_argument("--ir", required=True)
    asrel.add_argument("-o", "--output", help="write as-rel file here")
    asrel.add_argument("--truth", help="ground-truth as-rel for scoring")
    asrel.set_defaults(func=_cmd_asrel)

    classify = subparsers.add_parser("classify", help="classify ASes by RPSL usage")
    classify.add_argument("--ir", required=True)
    classify.add_argument("--as-rel")
    classify.add_argument("-v", "--verbose", action="store_true")
    classify.set_defaults(func=_cmd_classify)

    recommend = subparsers.add_parser(
        "recommend", help="propose route-set migrations (the paper's §4 advice)"
    )
    recommend.add_argument("--ir", required=True)
    recommend.add_argument("--as-rel")
    recommend.add_argument("--asn", nargs="*", help="specific ASNs (default: all)")
    recommend.add_argument("--limit", type=int, default=0)
    recommend.set_defaults(func=_cmd_recommend)

    chaos = subparsers.add_parser(
        "chaos", help="run the fault-injection suite (see docs/robustness.md)"
    )
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument("--preset", choices=("tiny", "default"), default="tiny")
    chaos.add_argument("--processes", type=int, default=2)
    chaos.add_argument(
        "--only",
        choices=("serve-supervisor",),
        default=None,
        help="run a single chaos layer instead of the full suite",
    )
    chaos.add_argument("--json", action="store_true", help="emit the report as JSON")
    chaos.set_defaults(func=_cmd_chaos)

    whois = subparsers.add_parser("whois", help="serve the IR over WHOIS/IRRd")
    whois.add_argument("--ir", required=True)
    whois.add_argument("--host", default="127.0.0.1")
    whois.add_argument("--port", type=int, default=4343)
    whois.set_defaults(func=_cmd_whois)

    serve = subparsers.add_parser(
        "serve",
        help="run the resident verification daemon (docs/serving.md)",
    )
    serve.add_argument("--ir", required=True)
    serve.add_argument("--as-rel", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--http-port",
        type=int,
        default=8080,
        help="HTTP/JSON port (0 = ephemeral; default 8080)",
    )
    serve.add_argument(
        "--whois-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also speak the WHOIS line protocol here (0 = ephemeral; off by default)",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=256,
        help="bounded request queue; overflow answers 429/%%%% BUSY (default 256)",
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=64,
        help="most queries coalesced into one verify pass (default 64)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="default per-request deadline (default 5s)",
    )
    serve.add_argument(
        "--max-deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="cap on client-requested deadlines (default 30s)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="bound on the graceful shutdown drain (default 5s)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="supervised verify worker processes (0 = in-process, the default)",
    )
    serve.add_argument(
        "--journal",
        metavar="PATH",
        help="follow this NRTM-style journal file, hot-swapping new entries "
        "into the live index (see docs/incremental.md)",
    )
    serve.add_argument(
        "--journal-poll",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="how often to poll --journal for new entries (default 2s)",
    )
    serve.add_argument(
        "--index",
        metavar="PATH",
        help="use a compiled index artifact (see 'rpslyzer compile')",
    )
    serve.add_argument(
        "--no-index-cache",
        action="store_true",
        help="compile the index in-memory; never read or write the disk cache",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="compiled-index cache directory (default: ~/.cache/rpslyzer)",
    )
    serve.add_argument(
        "--access-log",
        metavar="PATH",
        help="append one JSONL line per request here (id, stages, outcome)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="promote requests at/above this latency to <access-log>.slow "
        "and the flight ring (0 = off, the default)",
    )
    serve.add_argument(
        "--flight-events",
        type=int,
        default=2048,
        metavar="N",
        help="flight ring capacity (0 disables it; default 2048)",
    )
    serve.add_argument(
        "--incident-dir",
        metavar="DIR",
        help="write flight incident dumps here (default: none — incidents stay "
        "in the ring, see GET /debug/flight)",
    )
    serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable request ids, stage histograms, and the access log",
    )
    serve.set_defaults(func=_cmd_serve)

    debug = subparsers.add_parser(
        "debug",
        help="inspect an event log (incident dump, access log, trace file or live daemon)",
    )
    debug.add_argument(
        "source",
        help="an event .jsonl file, or http://host:port of a live daemon",
    )
    debug.add_argument("--id", help="keep events with this request id")
    debug.add_argument(
        "--type",
        action="append",
        metavar="EVENT",
        help="keep events of these kinds (repeatable)",
    )
    debug.add_argument(
        "--since", type=float, metavar="EPOCH", help="drop events before this ts"
    )
    debug.add_argument(
        "--until", type=float, metavar="EPOCH", help="drop events after this ts"
    )
    debug.add_argument(
        "--limit", type=int, metavar="N", help="keep only the newest N matches"
    )
    debug.add_argument("--json", action="store_true", help="emit raw JSON events")
    debug.set_defaults(func=_cmd_debug)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
