"""The installed fault plan: the one way chaos faults enter the product.

No product signature takes a fault.  Tests and the chaos harness install
a :class:`FaultPlan` with :func:`use_faults` (re-exported by
:mod:`repro.chaos`), and two points read it: a pool worker's chunk frame
(:func:`repro.core.pool._verify_chunk`, never the parent's in-process
fallback) and :meth:`repro.serve.core.VerifyService._run_batch`, which
runs a batch fault on an executor thread.  The pool ships the plan
current at each spawn in the worker's start arguments, so a
``spawn``-started or respawned worker carries it like a forked one.
This module imports nothing from ``repro``: reading it never pulls in
the chaos harness.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

__all__ = ["FaultPlan", "current", "install", "use_faults"]


@dataclass(frozen=True)
class FaultPlan:
    """``chunk`` is called with a table chunk's index, ``batch`` with a
    serve batch's queries.  The plan rides a worker's start arguments, so
    under ``spawn`` both must pickle (``fork`` pickles nothing)."""

    chunk: Callable[[int], None] | None = None
    batch: Callable[[Sequence], None] | None = None


_current = FaultPlan()


def current() -> FaultPlan:
    """The installed plan (an empty one unless a test installed one)."""
    return _current


def install(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide; returns the previous one."""
    global _current
    previous, _current = _current, plan
    return previous


@contextmanager
def use_faults(
    *,
    chunk: Callable[[int], None] | None = None,
    batch: Callable[[Sequence], None] | None = None,
) -> Iterator[FaultPlan]:
    """Install a plan of these faults for the ``with`` block."""
    previous = install(FaultPlan(chunk=chunk, batch=batch))
    try:
        yield current()
    finally:
        install(previous)
