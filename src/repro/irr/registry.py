"""The multi-IRR registry model (Table 1 of the paper).

A :class:`Registry` ties together the per-IRR IRs, their parse errors, and
the merged view used by verification and characterization.  On disk a
registry is a directory of ``<irr-name>.db`` dump files, mirroring how the
paper ingests the 13 public IRR dumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.gcpause import cyclic_gc_paused
from repro.ir.merge import IRR_PRIORITY, merge_irs
from repro.ir.model import Ir
from repro.irr.dump import parse_dump_file, parse_dump_text
from repro.obs import get_registry
from repro.rpsl.errors import ErrorCollector

__all__ = ["IrrSource", "Registry", "parse_registry_dir"]


def _record_source(source: IrrSource) -> None:
    """Fold one parsed IRR's object/rule counts into the live registry."""
    registry = get_registry()
    if not registry.enabled:
        return
    counts = source.ir.counts()
    objects = registry.counter("parse_objects_total", irr=source.name)
    for kind in ("aut-num", "as-set", "route-set", "peering-set", "filter-set", "route"):
        objects.inc(counts[kind])
    registry.counter("parse_rules_total", irr=source.name).inc(
        counts["import"] + counts["export"]
    )
    registry.counter("parse_bytes_total", irr=source.name).inc(source.raw_bytes)


@dataclass(slots=True)
class IrrSource:
    """One IRR's parsed contents plus bookkeeping for Table 1."""

    name: str
    ir: Ir
    errors: ErrorCollector
    raw_bytes: int = 0

    def table1_row(self) -> dict[str, int]:
        """The Table 1 columns for this IRR."""
        counts = self.ir.counts()
        return {
            "size_bytes": self.raw_bytes,
            "aut-num": counts["aut-num"],
            "route": counts["route"],
            "import": counts["import"],
            "export": counts["export"],
        }


@dataclass(slots=True)
class Registry:
    """A set of IRRs and their priority-merged IR."""

    sources: dict[str, IrrSource] = field(default_factory=dict)
    priority: tuple[str, ...] = IRR_PRIORITY

    def add_text(self, name: str, text: str) -> IrrSource:
        """Parse one IRR's dump text and register it.

        The parse builds one acyclic object tree that lives on, so the
        cyclic collector is paused over it — per dump, never across dumps.
        """
        registry = get_registry()
        with registry.span("parse"), registry.span(name), cyclic_gc_paused():
            ir, errors = parse_dump_text(text, source=name)
        source = IrrSource(name=name, ir=ir, errors=errors, raw_bytes=len(text))
        self.sources[name] = source
        _record_source(source)
        return source

    def add_file(self, name: str, path: str | Path) -> IrrSource:
        """Parse one IRR's dump file and register it."""
        registry = get_registry()
        with registry.span("parse"), registry.span(name), cyclic_gc_paused():
            ir, errors = parse_dump_file(path, source=name)
        source = IrrSource(
            name=name, ir=ir, errors=errors, raw_bytes=Path(path).stat().st_size
        )
        self.sources[name] = source
        _record_source(source)
        return source

    def merged(self) -> Ir:
        """The priority-merged IR across all registered IRRs."""
        return merge_irs({name: src.ir for name, src in self.sources.items()}, self.priority)

    def all_errors(self) -> ErrorCollector:
        """Every parse issue across all IRRs, concatenated."""
        combined = ErrorCollector()
        for source in self.sources.values():
            combined.extend(source.errors)
        return combined

    def table1(self) -> list[tuple[str, dict[str, int]]]:
        """Per-IRR rows in priority order, plus a ``Total`` row."""
        order = [name for name in self.priority if name in self.sources]
        order += sorted(name for name in self.sources if name not in self.priority)
        rows = [(name, self.sources[name].table1_row()) for name in order]
        total = {
            key: sum(row[key] for _, row in rows)
            for key in ("size_bytes", "aut-num", "route", "import", "export")
        }
        rows.append(("Total", total))
        return rows


def parse_registry_dir(directory: str | Path) -> Registry:
    """Parse every ``*.db`` / ``*.db.gz`` dump in a directory into a Registry.

    When both the plain and the gzipped form of one IRR are present, the
    plain file wins (it is parsed last under the same name).
    """
    registry = Registry()
    directory = Path(directory)
    paths = sorted(directory.glob("*.db.gz")) + sorted(directory.glob("*.db"))
    for path in paths:
        name = path.name.removesuffix(".gz").removesuffix(".db").upper()
        registry.add_file(name, path)
    return registry
