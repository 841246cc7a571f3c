"""P2 — Section 5 performance: route verification throughput.

The paper verifies 779.3 M routes in 2h49m (~77k routes/s on 128 Rust
threads).  We measure single-thread Python routes/s on a route sample;
the claim that carries over is the *feasibility* of bulk verification —
per-hop checks are cache-friendly and amortize to microseconds.
"""

from conftest import emit


def verify_sample(verifier, sample):
    verified = 0
    for entry in sample:
        report = verifier.verify_entry(entry)
        verified += report.ignored is None
    return verified


def test_verify_throughput(benchmark, verifier, routes):
    sample = routes[:: max(1, len(routes) // 1000)][:1000]
    benchmark(verify_sample, verifier, sample)
    seconds = benchmark.stats.stats.mean
    rate = len(sample) / seconds
    hops = sum(len(entry.as_path) for entry in sample)
    emit(
        "perf_verify",
        f"sample routes: {len(sample)}\nmean time: {seconds:.3f}s\n"
        f"throughput: {rate:.0f} routes/s (~{hops / seconds:.0f} hop-checks/s)",
    )
    assert rate > 50  # sanity floor for single-thread Python


def test_verify_throughput_parallel(benchmark, ir, world, routes):
    import os

    from repro.api import Session
    from repro.core.compiled import compile_index

    sample = routes[:6000]
    cores = os.cpu_count() or 1
    workers = min(4, cores)
    # Compiled once, outside the rounds: the pass is what is timed.
    session = Session(ir, world.topology, index=compile_index(ir))

    def run():
        return session.verify_table(sample, processes=workers, chunk_size=1000)

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    seconds = benchmark.stats.stats.mean
    emit(
        "perf_verify_parallel",
        f"sample routes: {len(sample)} ({workers} workers on {cores} cores; "
        f"pool start and stop inside each round)\n"
        f"mean time: {seconds:.3f}s\n"
        f"throughput: {len(sample) / seconds:.0f} routes/s",
    )
    assert stats.routes_total == len(sample)


def test_verify_single_route_latency(benchmark, verifier, routes):
    entry = max(routes, key=lambda route: len(route.as_path))
    report = benchmark(verifier.verify_entry, entry)
    emit(
        "perf_verify_latency",
        f"longest path: {len(entry.as_path)} hops\n"
        f"mean latency: {benchmark.stats.stats.mean * 1e6:.1f} µs",
    )
    assert report.hops
