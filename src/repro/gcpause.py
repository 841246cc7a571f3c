"""Pausing the cyclic garbage collector over an allocation burst.

The one place the library touches ``gc``: the stages that build or walk
large *acyclic* object graphs (a dump file's parse, the IR codec, a
table file's parse, the serial table pass) import :func:`cyclic_gc_paused` from here, so the
save/restore discipline lives in one function.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["cyclic_gc_paused"]


@contextmanager
def cyclic_gc_paused() -> Iterator[None]:
    """Suspend the generational (cyclic) collector for a bounded stretch.

    The paused stages allocate tracked objects by the ten thousand — IR
    and AST nodes, encoded dict trees, route reports, hop-cache keys — that
    all live on to the end of the stage and none of which is cyclic:
    reference counting frees every one.  The collector can only re-traverse
    them, and re-traverse the whole heap at each full collection (on the
    36.5k-route table pass: 435 young + 40 middle + 3 full collections,
    0.2-0.5 s of 1.9 s), landing wherever the allocation counters happen to
    trip.  Pausing it makes the stage cheaper and — what the end-to-end
    ledger is sensitive to — makes *where* the deferred work is paid the
    same from run to run (at the first allocation after the stretch).
    Process-wide state, so it is restored on every exit path and left alone
    when the caller had the collector off already (which also makes nested
    pauses safe); cyclic garbage made meanwhile waits for the stretch to end.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
