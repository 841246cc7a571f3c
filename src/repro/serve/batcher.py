"""The micro-batcher: a *natural* batcher over a bounded queue.

Submitters enqueue work items onto a *bounded* queue (overflow is the
backpressure signal, surfaced as HTTP 429 / ``%% BUSY`` by the
front-ends).  ``concurrency`` dispatcher coroutines each own one
execution slot and run the same loop: wait for an item, drain whatever
else is queued (at most ``batch_max``), execute that batch, yield to the
event loop, repeat.  An item therefore leaves the queue only when a slot
is free to run it:

* an idle service runs a lone request at once, and a client that sends
  one request at a time never meets a timer: a slot that ran a batch of
  one is free again as soon as it has yielded;
* a busy service coalesces exactly the arrivals that landed while the
  previous batch was executing, so batches grow with load and the
  per-batch costs (queue-wait bookkeeping, a pool round trip) amortize
  precisely when there is something to amortize them over;
* a slot that ran a *coalesced* batch (more than one item: clients are
  overlapping) stays closed until :data:`COALESCE_PERIOD_S` after that
  batch started, so the same clients' next items land in one batch
  again.  A batch that took longer than the period is followed by the
  next at once — under real load the rule never binds.  It is the one
  timer on the path, it is not configurable, and what it trades is
  written down in ``docs/serving.md``, "Request core": a handful of
  overlapping closed-loop clients wait up to a period for each other,
  and in exchange their rate is set by a clock instead of by how fast
  the host happens to run this second.

``execute`` is a coroutine function, so the owner decides where a batch
runs: the serve core executes in-process batches directly on the event
loop and awaits the worker pool's pipes for the rest (see
:meth:`repro.serve.core.VerifyService._run_batch_async`).  Whatever
genuinely blocks goes through :meth:`MicroBatcher.run_blocking`, onto an
executor with one thread per slot.  Because a batch that runs on the
loop never awaits, each dispatcher yields explicitly between batches:
however deep the backlog, the loop is held for one batch at a time.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable, Callable, Sequence

__all__ = ["COALESCE_PERIOD_S", "MicroBatcher", "QueueFull"]

# How long after a coalesced batch started its slot takes the next one.
# asyncio's epoll wait is whole milliseconds, rounded up, so the pause
# really ends about a millisecond after the loop last had I/O to do.
COALESCE_PERIOD_S = 0.001

QueueFull = asyncio.QueueFull

_STOP = object()


class MicroBatcher:
    """Bounded queue + one dispatcher per execution slot.

    ``execute`` is awaited with each batch (a list of submitted items)
    and must return one outcome per item, in order; an outcome that is
    an ``Exception`` instance is set as the item future's exception,
    anything else as its result.  Items must expose an asyncio ``future``
    attribute; outcomes for futures that are already done (deadline hit,
    client gone) are discarded.

    ``on_collect`` is called with each batch as it leaves the queue and
    ``on_batch`` with its size and its wall seconds (from leaving the
    queue to its outcomes) once it has executed.  ``discard`` is
    called with each item still queued when the batcher stops — the
    owner fails those waiters explicitly (the serve core raises
    ``BusyError``) instead of leaving them to hang until their deadline.
    """

    def __init__(
        self,
        execute: Callable[[Sequence], Awaitable[list]],
        *,
        queue_size: int = 256,
        batch_max: int = 64,
        concurrency: int = 1,
        on_batch: Callable[[int, float], None] | None = None,
        on_collect: Callable[[list], None] | None = None,
        discard: Callable[[object], None] | None = None,
    ):
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self._execute = execute
        self._queue_size = queue_size
        self._batch_max = batch_max
        self._concurrency = concurrency
        self._on_batch = on_batch
        self._on_collect = on_collect
        self._discard = discard
        self._queue: asyncio.Queue | None = None
        self._dispatchers: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self.inflight = 0  # items in the batches executing right now
        self.batches = 0
        self.items = 0

    async def start(self) -> "MicroBatcher":
        """Create the queue and the dispatchers inside the running loop."""
        if self._dispatchers:
            return self
        self._queue = asyncio.Queue(maxsize=self._queue_size)
        self._executor = ThreadPoolExecutor(
            max_workers=self._concurrency,
            thread_name_prefix="rpslyzer-serve-batch",
        )
        self._dispatchers = [
            asyncio.create_task(self._dispatch(), name=f"serve-batcher-{slot}")
            for slot in range(self._concurrency)
        ]
        return self

    # -- submission --------------------------------------------------------

    def submit_nowait(self, item) -> None:
        """Enqueue one item; raises :data:`QueueFull` when saturated.

        The caller turns that into its protocol's backpressure response —
        the queue bound is the service's explicit admission control.
        """
        assert self._queue is not None, "MicroBatcher.start() was not awaited"
        self._queue.put_nowait(item)

    def qsize(self) -> int:
        """Items currently queued (excludes batches being executed)."""
        return self._queue.qsize() if self._queue is not None else 0

    @property
    def busy(self) -> bool:
        """Whether any batch is executing right now."""
        return self.inflight > 0

    # -- dispatch ----------------------------------------------------------

    def _collect(self, first) -> list:
        """One batch: ``first`` plus whatever is queued behind it right now."""
        batch = [first]
        queue = self._queue
        while len(batch) < self._batch_max and not queue.empty():
            item = queue.get_nowait()
            if item is _STOP:
                queue.put_nowait(item)  # for the dispatchers' outer loops
                break
            batch.append(item)
        if self._on_collect is not None:
            self._on_collect(batch)
        return batch

    async def _dispatch(self) -> None:
        """One execution slot: it is free exactly while this waits on the queue."""
        queue = self._queue
        clock = asyncio.get_running_loop().time
        while True:
            first = await queue.get()
            if first is _STOP:
                queue.put_nowait(first)  # hand the sentinel to the next slot
                return
            started = clock()
            batch = self._collect(first)
            await self._run_batch(batch, started, clock)
            # After a coalesced batch: the rest of its period.  Always at
            # least a yield — a batch executed on the loop never awaited,
            # and get() does not yield while the queue holds items, so
            # without it the loop would be held for the whole backlog.
            rest = started + COALESCE_PERIOD_S - clock() if len(batch) > 1 else 0.0
            await asyncio.sleep(rest if rest > 0.0 else 0)

    def run_blocking(self, fn: Callable, *args):
        """Run a blocking callable on the batcher's executor (awaitable).

        For the sections of ``execute`` (and of the owner's maintenance
        work) that cannot stay on the loop; the executor has one thread
        per execution slot, so they share the batcher's concurrency bound.
        """
        return asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def _run_batch(self, batch: list, started: float, clock) -> None:
        self.inflight += len(batch)
        try:
            try:
                outcomes = await self._execute(batch)
            except Exception as exc:  # noqa: BLE001 - fail the whole batch
                outcomes = [exc] * len(batch)
            self.batches += 1
            self.items += len(batch)
            if self._on_batch is not None:
                self._on_batch(len(batch), clock() - started)
            for item, outcome in zip(batch, outcomes):
                future = item.future
                if future.done():
                    continue  # deadline already hit or client went away
                if isinstance(outcome, Exception):
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)
        finally:
            self.inflight -= len(batch)

    # -- shutdown ----------------------------------------------------------

    async def drain(self, timeout: float) -> bool:
        """Wait (bounded) until the queue is empty and no batch is running."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while (self.qsize() or self.busy) and loop.time() < deadline:
            await asyncio.sleep(0.005)
        return not self.qsize() and not self.busy

    def _take_queued(self) -> list:
        """Empty the queue; returns its items (the stop sentinel dropped)."""
        items = []
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not _STOP:
                items.append(item)
        return items

    async def stop(self) -> None:
        """Stop the dispatchers and release the executor threads.

        Items still queued (a drain that timed out, or a full queue at
        shutdown) are handed to ``discard`` so their waiters get an
        explicit refusal rather than a hang.
        """
        if not self._dispatchers:
            return
        # Anything still queued is refused, not executed: stop() runs
        # after the drain window has closed, and the waiters must get an
        # explicit BusyError rather than surprise late verdicts.  This
        # runs on the loop thread between the dispatchers' awaits, so
        # the hand-off is race-free.
        leftovers = self._take_queued()
        self._queue.put_nowait(_STOP)
        stopping = asyncio.gather(*self._dispatchers, return_exceptions=True)
        try:
            # Each dispatcher finishes the batch it is executing first.
            await asyncio.wait_for(stopping, timeout=5)
        except asyncio.TimeoutError:  # pragma: no cover - wait_for cancelled them
            pass
        self._dispatchers = []
        # The sentinel, and anything submitted behind it, comes out too.
        leftovers += self._take_queued()
        for item in leftovers:
            if self._discard is not None:
                self._discard(item)
            elif not item.future.done():  # pragma: no cover - fallback
                item.future.cancel()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
