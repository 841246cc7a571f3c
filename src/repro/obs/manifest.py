"""Run manifests: one JSON document per pipeline run, built for diffing.

A manifest captures everything needed to audit or compare two benchmark
runs: what ran (command, config), on what (input files with SHA-256
digests), with which code (python/package versions), how long each phase
took (wall and CPU seconds per span path), the process's peak resident
set size, and every metric the run recorded.  ``rpslyzer metrics
<manifest.json>`` renders the metric dump as a Prometheus-style text
table for eyeballing or scraping.

Keys are emitted sorted so two runs over the same inputs produce
line-diffable documents.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import sys
from pathlib import Path
from typing import IO, Iterable

from repro.obs.metrics import (
    MetricsRegistry,
    _label_text,
    render_prometheus_snapshot,
)

__all__ = [
    "MANIFEST_FORMAT",
    "digest_file",
    "digest_inputs",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "render_prometheus",
    "cache_summary",
]

MANIFEST_FORMAT = "rpslyzer-run-manifest/1"


def digest_file(path: str | Path) -> dict:
    """``{path, bytes, sha256}`` for one input file."""
    path = Path(path)
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
            size += len(block)
    return {"path": str(path), "bytes": size, "sha256": digest.hexdigest()}


def digest_inputs(paths: Iterable[str | Path]) -> list[dict]:
    """Digest input files; directories expand to their ``*.db``/``*.db.gz`` dumps."""
    records = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            dumps = sorted(path.glob("*.db")) + sorted(path.glob("*.db.gz"))
            records.extend(digest_file(dump) for dump in dumps)
        elif path.exists():
            records.append(digest_file(path))
        else:
            records.append({"path": str(path), "bytes": 0, "sha256": None})
    return sorted(records, key=lambda record: record["path"])


def _versions() -> dict:
    import repro

    return {
        "repro": repro.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def build_manifest(
    command: str,
    registry: MetricsRegistry,
    *,
    inputs: Iterable[str | Path] = (),
    config: dict | None = None,
    degradation: dict | None = None,
    trace: dict | None = None,
) -> dict:
    """Assemble the manifest document from a finished run's registry.

    ``degradation`` is the run's
    :meth:`~repro.core.degradation.DegradationReport.as_dict` — how the
    run deviated from the clean path (requeued chunks, dropped objects);
    always present in the document so clean and degraded runs stay
    line-diffable.  ``trace`` is a :meth:`~repro.obs.trace.Tracer.stats`
    summary, always emitted (null for an untraced run).  ``peak_rss_kb`` is
    read here, at the end of the run; a pre-1.20 manifest's ``profile``
    timeline still loads (:func:`load_manifest` keeps unknown keys).
    """
    snapshot = registry.snapshot()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        peak_rss //= 1024
    phases = {
        record["path"]: {
            "count": record["count"],
            "wall_s": record["wall_s"],
            "cpu_s": record["cpu_s"],
        }
        for record in snapshot.pop("spans")
    }
    return {
        "format": MANIFEST_FORMAT,
        "command": command,
        "versions": _versions(),
        "inputs": digest_inputs(inputs),
        "config": config or {},
        "phases": phases,
        "metrics": snapshot,
        "degradation": degradation if degradation is not None else {"events": [], "total": 0},
        "peak_rss_kb": peak_rss,
        "trace": trace,
    }


def write_manifest(destination: str | Path | IO[str], manifest: dict) -> None:
    """Serialize a manifest as stable, sorted, indented JSON."""
    if hasattr(destination, "write"):
        json.dump(manifest, destination, indent=2, sort_keys=True)
        destination.write("\n")
        return
    with open(destination, "w", encoding="utf-8") as stream:
        json.dump(manifest, stream, indent=2, sort_keys=True)
        stream.write("\n")


def load_manifest(source: str | Path | IO[str]) -> dict:
    """Read a manifest back; rejects documents of an unknown format."""
    if hasattr(source, "read"):
        manifest = json.load(source)
    else:
        with open(source, encoding="utf-8") as stream:
            manifest = json.load(stream)
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"not a run manifest: format={manifest.get('format')!r}")
    return manifest


def cache_summary(manifest: dict, cache_dir: str | Path | None = None) -> dict:
    """Cache-effectiveness figures extracted from a run manifest.

    Gathers the verifier's per-hop memo cache (hits, misses, evictions,
    hit rate), the rule plans its misses ran on (built, reused) and the
    compiled-index cache (disk hits/misses, compile
    seconds) into one flat dict, so ``rpslyzer metrics`` and the benchmark
    suite can report cache behaviour without re-parsing the raw metric
    dump.  Counters that the run never touched read as zero.

    Also inspects the on-disk index cache (``cache_dir`` or the default
    ``~/.cache/rpslyzer``): ``disk_cache_entries`` is None when the
    directory does not exist yet — a fresh machine is a normal state, not
    an error, and callers print an explicit "no cache" line for it.
    """
    metrics = manifest.get("metrics", {})

    def counter(name: str, **labels: str) -> int:
        for record in metrics.get("counters", ()):
            if record["name"] == name and record.get("labels", {}) == labels:
                return record["value"]
        return 0

    def gauge(name: str) -> float:
        for record in metrics.get("gauges", ()):
            if record["name"] == name and not record.get("labels"):
                return record["value"]
        return 0.0

    hop_hits = counter("verify_hop_cache_total", result="hit")
    hop_misses = counter("verify_hop_cache_total", result="miss")
    hop_total = hop_hits + hop_misses
    index_hits = counter("index_cache_total", result="hit")
    index_misses = counter("index_cache_total", result="miss")
    summary = {
        "hop_cache_hits": hop_hits,
        "hop_cache_misses": hop_misses,
        "hop_cache_evictions": counter("verify_hop_cache_evictions_total"),
        "hop_cache_hit_rate": hop_hits / hop_total if hop_total else 0.0,
        # What the misses cost: a miss evaluates the subject's rule plan
        # for the remote AS, built on first use — "built" plans served
        # "built + hits" misses.  A plan that is a verdict answers its
        # checks before the hop cache is probed: verdicts + hop-cache hits
        # + misses = checks.
        "rule_plans_built": counter("verify_rule_plans_total", result="built"),
        "rule_plan_hits": counter("verify_rule_plans_total", result="hit"),
        "rule_plan_verdicts": counter("verify_rule_plans_total", result="verdict"),
        "index_cache_hits": index_hits,
        "index_cache_misses": index_misses,
        "index_compile_seconds": gauge("index_compile_seconds"),
        # mmap-load figures (format-2 flat envelope): how long attaching
        # the cached artifact took and how many bytes stayed file-backed.
        "index_load_seconds": gauge("index_load_seconds"),
        "index_mmap_bytes": gauge("index_mmap_bytes"),
        # Incremental-ingestion figures: how many journal patches the
        # index has absorbed and what the last one cost.
        "index_generation": gauge("index_generation"),
        "delta_apply_seconds": gauge("delta_apply_seconds"),
        "journal_serials": {
            record.get("labels", {}).get("source", "?"): record["value"]
            for record in metrics.get("gauges", ())
            if record["name"] == "journal_serial"
        },
        # What journal applies did to the hop cache: entries the last
        # apply kept warm, and how many were dropped (cumulative) per
        # reason — subject / prefix / origin-flip / full.
        "hop_cache_carried": gauge("verify_hop_cache_carried"),
        "hop_cache_invalidated": {
            record["labels"]["reason"]: record["value"]
            for record in metrics.get("counters", ())
            if record["name"] == "verify_hop_cache_invalidated_total"
        },
    }
    summary.update(_disk_cache_summary(cache_dir))
    return summary


def _disk_cache_summary(cache_dir: str | Path | None) -> dict:
    """On-disk index-cache figures; tolerates a directory that never
    existed (``disk_cache_entries`` is None) and any I/O error."""
    from repro.core.compiled import default_cache_dir  # lazy: import cycle

    directory = Path(cache_dir) if cache_dir else default_cache_dir()
    entries: int | None = None
    total_bytes = 0
    try:
        if directory.is_dir():
            artifacts = [path for path in directory.iterdir() if path.is_file()]
            entries = len(artifacts)
            total_bytes = sum(path.stat().st_size for path in artifacts)
    except OSError:
        entries = None
        total_bytes = 0
    return {
        "disk_cache_dir": str(directory),
        "disk_cache_entries": entries,
        "disk_cache_bytes": total_bytes,
    }


# -- Prometheus-style rendering --------------------------------------------


def render_prometheus(manifest: dict) -> str:
    """The manifest's metrics and phases as Prometheus exposition text.

    The instrument families delegate to
    :func:`repro.obs.metrics.render_prometheus_snapshot` (whose output
    round-trips through :func:`repro.obs.metrics.parse_prometheus`); phase
    aggregates follow as ``repro_phase_*`` gauges.
    """
    lines: list[str] = []
    rendered = render_prometheus_snapshot(manifest.get("metrics", {}))
    if rendered:
        lines.extend(rendered.rstrip("\n").split("\n"))

    phases = manifest.get("phases", {})
    if phases:
        lines.append("# TYPE repro_phase_wall_seconds gauge")
        for path in sorted(phases):
            label = _label_text({"phase": path})
            lines.append(
                f"repro_phase_wall_seconds{label} {phases[path]['wall_s']!r}"
            )
        lines.append("# TYPE repro_phase_cpu_seconds gauge")
        for path in sorted(phases):
            label = _label_text({"phase": path})
            lines.append(
                f"repro_phase_cpu_seconds{label} {phases[path]['cpu_s']!r}"
            )
        lines.append("# TYPE repro_phase_count gauge")
        for path in sorted(phases):
            label = _label_text({"phase": path})
            lines.append(f"repro_phase_count{label} {phases[path]['count']}")
    return "\n".join(lines) + "\n"
