#!/usr/bin/env python3
"""Monitoring a live BGP update feed with RPSL verification.

An operational scenario the paper motivates: watch collector updates and
surface announcements that (i) fail origin validation against route
objects, or (ii) traverse hops whose policies mismatch.  The synthetic
feed includes flaps and path changes; a few "hijacks" (wrong-origin
announcements) are injected to show both detectors firing.

Run: ``python examples/update_stream_monitoring.py``
"""

import random

from repro.baseline.origin_validation import OriginStatus, OriginValidator
from repro.bgp.routegen import collector_routes
from repro.bgp.updates import UpdateEntry, synthesize_updates
from repro.core.status import VerifyStatus
from repro.core.verify import Verifier
from repro.irr.synth import build_world, tiny_config


def inject_hijacks(updates, world, count=5, seed=5):
    """Announce victim prefixes from unrelated origins."""
    rng = random.Random(seed)
    victims = [
        (asn, prefix)
        for asn, prefixes in sorted(world.announced.items())
        for prefix in prefixes
        if prefix.version == 4
    ]
    peers = sorted(world.collectors[0].peer_asns)
    hijacked = []
    for _ in range(count):
        victim_asn, prefix = rng.choice(victims)
        attacker = rng.choice(sorted(world.topology.ases()))
        peer = rng.choice(peers)
        if attacker in (victim_asn, peer):
            continue
        timestamp = updates[len(updates) // 2].timestamp
        hijacked.append(
            UpdateEntry(timestamp, "A", "rrc00", peer, prefix, (peer, attacker))
        )
    merged = sorted(updates + hijacked, key=lambda u: u.timestamp)
    return merged, hijacked


def main() -> None:
    world = build_world(tiny_config(seed=21))
    ir = world.merged_ir()
    verifier = Verifier(ir, world.topology)
    validator = OriginValidator(ir, verifier.query)

    table = list(collector_routes(world.topology, world.announced, world.collectors))
    updates = synthesize_updates(table[:2000], flap_probability=0.2)
    updates, hijacks = inject_hijacks(updates, world)
    print(f"monitoring {len(updates)} updates ({len(hijacks)} injected hijacks)\n")

    # The monitored RIB: (collector, peer, prefix) -> AS path.
    rib = {}
    announcements = withdrawals = alerts = 0
    for update in updates:
        key = (update.collector, update.peer_asn, update.prefix)
        if update.kind == "W":
            withdrawals += 1
            rib.pop(key, None)
            continue
        announcements += 1
        rib[key] = update.as_path
        report = verifier.verify_entry(update.to_route_entry())
        if report.ignored is not None:
            continue
        origin_status = validator.validate(update.prefix, update.as_path[-1])
        bad_hops = [h for h in report.hops if h.status is VerifyStatus.UNVERIFIED]
        if origin_status is OriginStatus.INVALID_ORIGIN:
            alerts += 1
            print(
                f"ALERT origin  t={update.timestamp} {update.prefix} from "
                f"AS{update.as_path[-1]}: registered to another origin"
            )
        elif len(bad_hops) >= 2 and alerts < 12:
            alerts += 1
            print(
                f"alert policy  t={update.timestamp} {update.prefix} path "
                f"{' '.join(map(str, update.as_path))}: {len(bad_hops)} "
                "unverified hops"
            )

    print(
        f"\nprocessed {announcements} announcements, "
        f"{withdrawals} withdrawals; RIB size {len(rib)}; "
        f"{alerts} alerts raised"
    )
    assert alerts > 0


if __name__ == "__main__":
    main()
