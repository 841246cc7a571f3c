"""Harness-side spans: who called into which layer, for how long.

Spans are recorded from the benchmark's own files only — either by an
explicit ``with tracer.span(...)`` around a call into a layer's public
function, or by :meth:`Tracer.wrap` swapping a public attribute for a
timing shim for the duration of a traced run.  Nothing under ``src/``
knows about this module.

A span is ``{id, name, layer, start_ns, end_ns, parent, workload, unit_id}``
(``parent`` is another span's ``id``, -1 for a root).
They are kept in memory and written out once, after the measured section.
A layer's *self time* is its spans' duration minus the part of each
interval that child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer", "percentile", "self_times"]


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer.

    ``spans`` are ``(name, layer, start_ns, end_ns, parent, unit_id)``
    tuples whose ``parent`` indexes into the same sequence (-1 = root).
    Child cover is the *union* of the children's intervals clipped to the
    parent, so overlapping children (other threads) are not subtracted
    twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _name, _layer, start, end, parent, _unit in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index, (_name, layer, start, end, _parent, _unit) in enumerate(spans):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        totals[layer] = totals.get(layer, 0.0) + (end - start - covered) / 1e9
    return totals


class _Timing:
    """What ``with tracer.span(...) as timing`` yields: the elapsed wall.

    ``normal_s`` / ``cpu_normal_s`` are filled in by ``Context.timed``.
    """

    __slots__ = ("seconds", "normal_s", "cpu_normal_s")

    def __init__(self) -> None:
        self.seconds = 0.0


class Tracer:
    """Times every span; records them only when ``enabled``.

    The disabled tracer is what untraced (end-to-end) runs use: the
    ``with`` block still measures its wall time — the harness needs it for
    the end-to-end metrics — but nothing is stored and nothing is wrapped.
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.recording = enabled
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._wrapped: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> int:
        # Reserve the slot at start so children can name their parent.
        with self._lock:
            self.spans.append(())
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, layer: str, unit_id: int | None = None):
        timing = _Timing()
        if not self.recording:
            started = time.perf_counter()
            try:
                yield timing
            finally:
                timing.seconds = time.perf_counter() - started
            return
        stack = self._stack()
        parent = stack[-1] if stack else -1
        index = self._open()
        stack.append(index)
        started = time.perf_counter_ns()
        try:
            yield timing
        finally:
            ended = time.perf_counter_ns()
            stack.pop()
            self.spans[index] = (name, layer, started, ended, parent, unit_id)
            timing.seconds = (ended - started) / 1e9

    def wrap(self, owner, attribute: str, layer: str) -> None:
        """Swap ``owner.attribute`` for a span-recording shim (traced runs).

        ``owner`` is a module or a class; the original is restored by
        :meth:`unwrap`.  A no-op on the disabled tracer, so untraced runs
        execute exactly the program's own code.
        """
        if not self.enabled:
            return
        original = owner.__dict__[attribute]
        function = original.__func__ if isinstance(original, staticmethod) else original
        name = f"{getattr(owner, '__name__', owner)}.{attribute}"
        spans = self.spans
        stack_of = self._stack
        open_span = self._open
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def shim(*args, **kwargs):
            if not self.recording:
                return function(*args, **kwargs)
            stack = stack_of()
            parent = stack[-1] if stack else -1
            index = open_span()
            stack.append(index)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                spans[index] = (name, layer, started, ended, parent, None)

        replacement = staticmethod(shim) if isinstance(original, staticmethod) else shim
        setattr(owner, attribute, replacement)
        self._wrapped.append((owner, attribute, original))

    @contextmanager
    def paused(self):
        """Run a block unrecorded: the reference round of a traced run,
        whose wall time is the denominator of ``trace.overhead_ratio``."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = self.enabled

    def unwrap(self) -> None:
        while self._wrapped:
            owner, attribute, original = self._wrapped.pop()
            setattr(owner, attribute, original)

    # -- reading -------------------------------------------------------------

    def mark(self) -> int:
        """A cursor: spans opened from now on have an index >= this."""
        return len(self.spans)

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Seconds of every finished span called ``name`` opened since a mark."""
        return [
            (span[3] - span[2]) / 1e9
            for span in self.spans[since:]
            if span and span[0] == name
        ]

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                if not span:
                    continue
                name, layer, start, end, parent, unit_id = span
                stream.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "layer": layer,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "workload": self.workload,
                            "unit_id": unit_id,
                        }
                    )
                )
                stream.write("\n")
