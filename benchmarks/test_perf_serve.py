"""P? — serve throughput: the supervised worker pool vs in-process.

The pool exists for isolation first (a crashed evaluation must not take
the daemon down), but it must not *cost* throughput: with 4 workers the
warm pool has to at least match the single-executor-thread baseline.

The flood drives :meth:`VerifyService.submit` directly rather than going
through HTTP — the front-end is identical (and asyncio-serialized) in
both configurations, so routing the comparison through it would measure
connection handling, not the execution core the pool parallelizes.
Batches amortize the pipe/pickle cost: one coalesced batch ships as a
single frame and verifies on a truly parallel process, while the
baseline executes every batch GIL-serialized on one executor thread.

The ≥-baseline floor only fails under ``RPSLYZER_PERF_STRICT`` — and
only when the machine actually has cores for the workers to run on
(``workers + 1`` at minimum): on a single-core box the pool's processes
all time-share one CPU with the parent, so there is no parallelism to
harvest and the floor is physically unreachable.  The measured rates
and the core count are always emitted to ``benchmarks/results/`` for
auditing.
"""

import asyncio
import os
import time

from conftest import emit

from repro import api
from repro.obs import MetricsRegistry
from repro.serve import Query, ServeConfig, ServeDaemon

STRICT = bool(os.environ.get("RPSLYZER_PERF_STRICT"))
N_QUERIES = 4000
IN_FLIGHT = 512
POOL_WORKERS = 4
CORES = len(os.sched_getaffinity(0))


def _throughput(session, workers: int, queries: list[Query]) -> float:
    """Requests/s for one flood against a fresh service."""
    from repro.serve.core import VerifyService

    async def flood() -> float:
        service = VerifyService(
            session,
            ServeConfig(
                workers=workers,
                queue_size=1024,
                default_deadline=120.0,
                max_deadline=120.0,
            ),
        )
        await service.start()
        try:
            await service.submit(queries[0])  # warm the path
            semaphore = asyncio.Semaphore(IN_FLIGHT)

            async def one(query: Query) -> dict:
                async with semaphore:
                    return await service.submit(query)

            started = time.perf_counter()
            results = await asyncio.gather(*(one(query) for query in queries))
            elapsed = time.perf_counter() - started
        finally:
            await service.stop()
        assert len(results) == len(queries)
        assert all(isinstance(result, bytes) for result in results)
        return len(queries) / elapsed

    return asyncio.run(flood())


def test_pool_throughput_at_least_single_thread(world, routes):
    sample = [routes[i % len(routes)] for i in range(N_QUERIES)]
    queries = [
        Query(
            kind="verify",
            prefix=str(entry.prefix),
            as_path=tuple(entry.as_path),
        )
        for entry in sample
    ]
    with api.open_session(
        world, registry=MetricsRegistry(), use_cache=False
    ) as session:
        session.warm()
        baseline = _throughput(session, 0, queries)
        pooled = _throughput(session, POOL_WORKERS, queries)
    emit(
        "perf_serve_pool",
        f"queries: {N_QUERIES} ({IN_FLIGHT} in flight, {CORES} cores)\n"
        f"single-thread: {baseline:.0f} req/s\n"
        f"pool ({POOL_WORKERS} workers): {pooled:.0f} req/s\n"
        f"speedup: {pooled / baseline:.2f}x",
    )
    assert baseline > 0 and pooled > 0
    if STRICT and CORES > POOL_WORKERS:
        assert pooled >= baseline


# The daemon-level flag wiring (``rpslyzer serve --workers``) is covered
# functionally in tests/; this module only measures the execution core.
assert ServeDaemon is not None
