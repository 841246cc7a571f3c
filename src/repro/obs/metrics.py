"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Instrumented pipeline code asks the *current* registry (see
:func:`get_registry`) for named instruments and updates them on hot paths.
By default the current registry is :data:`NULL_REGISTRY`, whose instruments
are shared no-op singletons — so an un-instrumented run pays one attribute
lookup per instrumentation site at *setup* time and nothing per event.
Callers that want metrics install a real :class:`MetricsRegistry` with
:func:`set_registry` or the :func:`use_registry` context manager (the CLI's
``--metrics`` flag does exactly this); the installed registry belongs to
the current thread or asyncio task (a context variable).

Instruments are keyed by ``(name, sorted labels)`` the way Prometheus keys
time series; asking twice for the same key returns the same instrument.
Registries are deliberately not thread-safe on the *update* path: the
pipeline parallelizes by process, and per-worker registries are folded
back into the parent with :meth:`MetricsRegistry.merge_snapshot` (the
same discipline as :class:`~repro.stats.verification.VerificationStats`).
Instrument *creation* is guarded by a lock, because a registry is looked
up from more than one thread: the serve daemon's event loop, the thread
its session patch runs on, and whatever thread embeds the session.
Callers that mutate instruments from several threads serialize those
updates themselves (the serve core, its worker pool included, writes
every ``serve_*`` instrument on its event loop's thread).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.obs.spans import NULL_SPAN, SpanStore

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "render_prometheus_snapshot",
    "parse_prometheus",
    "cumulative_view",
    "DEFAULT_LATENCY_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
]

# The Prometheus text exposition format 0.0.4 content type — what a
# scraper expects from ``GET /metrics`` and ``rpslyzer metrics --format
# prom``.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

LabelItems = tuple[tuple[str, str], ...]

# Upper bounds (seconds) for latency histograms: 1 µs .. ~4 s, doubling.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    1e-6 * 2**i for i in range(23)
)


def _label_items(labels: dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (events, objects, errors)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A point-in-time value (hit rate, queue depth, worker count)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}


class Histogram:
    """A distribution over fixed bucket upper bounds (Prometheus ``le``).

    ``buckets`` are inclusive upper bounds in increasing order; an implicit
    overflow bucket (``+Inf``) catches everything beyond the last bound.
    ``bucket_counts[i]`` is the *non-cumulative* count of observations with
    ``buckets[i-1] < v <= buckets[i]`` (rendering cumulates them).
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} needs increasing bucket bounds")
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ending with ``(inf, count)``."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.buckets, self.bucket_counts):
            running += bucket_count
            pairs.append((bound, running))
        pairs.append((float("inf"), self.count))
        return pairs

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """A live collection of instruments plus the phase-span store."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelItems], object] = {}
        self._create_lock = threading.Lock()
        self.spans = SpanStore()
        self._drained = 0  # instruments created before the last drain()

    # -- instrument access -------------------------------------------------

    def _get(self, cls, name: str, labels: dict[str, str], **kwargs):
        key = (name, _label_items(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._create_lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = cls(name, key[1], **kwargs)
                    self._instruments[key] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def span(self, name: str):
        """A nested phase timer (see :class:`repro.obs.spans.SpanStore`)."""
        return self.spans.span(name)

    # -- snapshots and merging ---------------------------------------------

    def instruments(self) -> Iterator[object]:
        return iter(self._instruments.values())

    def snapshot(self) -> dict:
        """A JSON-able dump of every instrument and span aggregate."""
        metrics = [instrument.as_dict() for instrument in self._instruments.values()]
        kinds = [instrument.kind for instrument in self._instruments.values()]
        return {
            "counters": [m for m, k in zip(metrics, kinds) if k == "counter"],
            "gauges": [m for m, k in zip(metrics, kinds) if k == "gauge"],
            "histograms": [m for m, k in zip(metrics, kinds) if k == "histogram"],
            "spans": self.spans.snapshot(),
        }

    def drain(self) -> dict:
        """What was recorded since the last drain, in :meth:`snapshot` shape:
        counters, histogram buckets and span aggregates are zeroed in place
        (pre-bound instruments stay valid), gauges pass through, and anything
        with nothing new is left out unless created since the last drain."""
        instruments = list(self._instruments.values())
        fresh = {id(instrument) for instrument in instruments[self._drained :]}
        self._drained = len(instruments)
        drained: dict = {"counters": [], "gauges": [], "histograms": []}
        for instrument in instruments:
            kind = instrument.kind
            news = instrument.count if kind == "histogram" else instrument.value
            if kind == "gauge" or news or id(instrument) in fresh:
                drained[kind + "s"].append(instrument.as_dict())
            if kind == "counter":
                instrument.value = 0
            elif kind == "histogram":
                instrument.bucket_counts[:] = [0] * len(instrument.bucket_counts)
                instrument.sum, instrument.count = 0.0, 0
        drained["spans"] = [span for span in self.spans.snapshot() if span["count"]]
        for aggregate in self.spans._totals.values():
            aggregate.count, aggregate.wall_s, aggregate.cpu_s = 0, 0.0, 0.0
        return drained

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one (exact sums).

        Counters and histogram buckets add; gauges take the incoming value
        (last writer wins); span aggregates add wall/CPU/count.  This is the
        cross-process merge used by parallel verification.
        """
        for data in snapshot.get("counters", ()):
            self.counter(data["name"], **data["labels"]).inc(data["value"])
        for data in snapshot.get("gauges", ()):
            self.gauge(data["name"], **data["labels"]).set(data["value"])
        for data in snapshot.get("histograms", ()):
            histogram = self.histogram(
                data["name"], buckets=tuple(data["buckets"]), **data["labels"]
            )
            if list(histogram.buckets) != list(data["buckets"]):
                raise ValueError(
                    f"histogram {data['name']!r} bucket bounds differ across merges"
                )
            for index, bucket_count in enumerate(data["bucket_counts"]):
                histogram.bucket_counts[index] += bucket_count
            histogram.sum += data["sum"]
            histogram.count += data["count"]
        for data in snapshot.get("spans", ()):
            self.spans.add_timing(
                data["path"], data["wall_s"], data["cpu_s"], data["count"]
            )


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> int:
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op.

    ``enabled`` is False so hot paths can hoist a single boolean check and
    skip instrumentation entirely; code that does not bother checking still
    works, it just updates the shared null instrument.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, **labels: str):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: str):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS, **labels: str):
        return _NULL_INSTRUMENT

    def span(self, name: str):
        return NULL_SPAN

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": [], "spans": []}

    def merge_snapshot(self, snapshot: dict) -> None:
        pass


NULL_REGISTRY = NullRegistry()

# The installed registry is scoped per thread and per asyncio task: a
# scope entered on one never installs or removes another's registry (the
# serve loop verifying while a reload patches on ``asyncio.to_thread``).
# Tasks and ``asyncio.to_thread`` copy the context they start in; a plain
# thread starts from the null registry unless it runs in a copy of its
# starter's context (``contextvars.copy_context().run``).
_current: ContextVar[MetricsRegistry] = ContextVar("repro_metrics_registry", default=NULL_REGISTRY)


def get_registry() -> MetricsRegistry:
    """The registry instrumented code should report to right now."""
    return _current.get()


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` (None restores the null registry) in the current
    context; returns the previously installed one so callers can restore it."""
    previous = _current.get()
    _current.set(registry if registry is not None else NULL_REGISTRY)
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry | None = None):
    """Temporarily install a registry (a fresh one if none is given)."""
    if registry is None:
        registry = MetricsRegistry()
    token = _current.set(registry)
    try:
        yield registry
    finally:
        _current.reset(token)


# -- Prometheus text exposition ---------------------------------------------


def cumulative_view(record: dict) -> list[list]:
    """A histogram record's buckets as explicit cumulative ``[le, count]``
    pairs, ending with ``["+Inf", count]``.

    Snapshot records carry non-cumulative ``bucket_counts`` with an
    *implicit* final overflow bucket (one more count than there are
    bounds) — an alignment convention external consumers have to know.
    This view spells the distribution out the way Prometheus exposes it,
    so percentile math needs no knowledge of the internal layout.
    """
    pairs: list[list] = []
    running = 0
    for bound, bucket_count in zip(record["buckets"], record["bucket_counts"]):
        running += bucket_count
        pairs.append([bound, running])
    pairs.append(["+Inf", record["count"]])
    return pairs


def _metric_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _label_text(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(f'{key}="{merged[key]}"' for key in sorted(merged))
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prometheus_snapshot(snapshot: dict) -> str:
    """A registry snapshot's instruments as Prometheus exposition text.

    Renders the ``counters``/``gauges``/``histograms`` sections of
    :meth:`MetricsRegistry.snapshot` (span aggregates are a manifest
    concern — see :func:`repro.obs.manifest.render_prometheus`).  The text
    round-trips through :func:`parse_prometheus`.
    """
    lines: list[str] = []
    by_name: dict[str, list[dict]] = {}
    kinds: dict[str, str] = {}
    for kind in ("counters", "gauges", "histograms"):
        for record in snapshot.get(kind, ()):
            name = _metric_name(record["name"])
            by_name.setdefault(name, []).append(record)
            kinds[name] = kind.rstrip("s")

    for name in sorted(by_name):
        lines.append(f"# TYPE {name} {kinds[name]}")
        for record in by_name[name]:
            labels = record.get("labels", {})
            if kinds[name] == "histogram":
                running = 0
                for bound, bucket_count in zip(
                    record["buckets"], record["bucket_counts"]
                ):
                    running += bucket_count
                    le = _label_text(labels, {"le": _format_value(float(bound))})
                    lines.append(f"{name}_bucket{le} {running}")
                le = _label_text(labels, {"le": "+Inf"})
                lines.append(f"{name}_bucket{le} {record['count']}")
                lines.append(f"{name}_sum{_label_text(labels)} {record['sum']!r}")
                lines.append(f"{name}_count{_label_text(labels)} {record['count']}")
            else:
                value = record["value"]
                text = value if isinstance(value, int) else repr(float(value))
                lines.append(f"{name}{_label_text(labels)} {text}")
    return "\n".join(lines) + "\n" if lines else ""


_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
_SAMPLE_RE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def _parse_number(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_prometheus(text: str) -> dict:
    """Parse exposition text back into a snapshot-shaped dict.

    The inverse of :func:`render_prometheus_snapshot` for the subset of
    the format this package emits: ``# TYPE`` comments declare each
    family, histograms are reassembled from their ``_bucket``/``_sum``/
    ``_count`` series (cumulative bucket counts are de-cumulated back to
    the internal representation).  Unknown comment lines are ignored.
    Returns ``{"counters": [...], "gauges": [...], "histograms": [...]}``.
    """
    types: dict[str, str] = {}
    samples: list[tuple[str, dict, float]] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        matched = _SAMPLE_RE.match(line)
        if matched is None:
            raise ValueError(f"unparsable exposition line: {raw_line!r}")
        name, label_body, value_text = matched.groups()
        labels = (
            {key: value for key, value in _LABEL_RE.findall(label_body)}
            if label_body
            else {}
        )
        samples.append((name, labels, _parse_number(value_text)))

    def family_of(name: str) -> tuple[str, str]:
        """Resolve a sample name to (family, histogram-part)."""
        for suffix in ("_bucket", "_sum", "_count"):
            family = name[: -len(suffix)] if name.endswith(suffix) else None
            if family and types.get(family) == "histogram":
                return family, suffix[1:]
        return name, ""

    counters: list[dict] = []
    gauges: list[dict] = []
    # Histograms accumulate across their three series, keyed by label set.
    partials: dict[tuple[str, tuple], dict] = {}
    for name, labels, value in samples:
        family, part = family_of(name)
        kind = types.get(family)
        if kind == "histogram":
            bare = {k: v for k, v in labels.items() if k != "le"}
            key = (family, tuple(sorted(bare.items())))
            record = partials.setdefault(
                key,
                {"name": family, "labels": bare, "bounds": [], "sum": 0.0, "count": 0},
            )
            if part == "bucket":
                record["bounds"].append((_parse_number(labels["le"]), int(value)))
            elif part == "sum":
                record["sum"] = value
            elif part == "count":
                record["count"] = int(value)
            continue
        if value not in (float("inf"), float("-inf")) and value.is_integer():
            value = int(value)
        entry = {"name": name, "labels": labels, "value": value}
        if kind == "counter":
            counters.append(entry)
        else:
            gauges.append(entry)

    histograms: list[dict] = []
    for record in partials.values():
        bounds = sorted(record.pop("bounds"), key=lambda pair: pair[0])
        finite = [(bound, total) for bound, total in bounds if bound != float("inf")]
        buckets = [bound for bound, _ in finite]
        cumulative = [total for _, total in finite]
        bucket_counts = [
            total - (cumulative[i - 1] if i else 0)
            for i, total in enumerate(cumulative)
        ]
        bucket_counts.append(record["count"] - (cumulative[-1] if cumulative else 0))
        histograms.append(
            {
                "name": record["name"],
                "labels": record["labels"],
                "buckets": buckets,
                "bucket_counts": bucket_counts,
                "sum": record["sum"],
                "count": record["count"],
            }
        )
    return {"counters": counters, "gauges": gauges, "histograms": histograms}
