#!/usr/bin/env python3
"""Section 5 per collector: one resident session, one table per collector.

A route-collector project publishes one RIB dump per collector, and the
paper verifies the dumps of 60 collectors against one IRR snapshot.  A
program that keeps one session open verifies each dump with its own
``Session.verify_table`` call, so each collector keeps its own
statistics.  Every call is a pass over the same index generation: each
starts with a cold hop cache, but the generation's rule plans are built
by whichever pass first needs them and borrowed by the others, and by
``Session.explain`` on the same session.

Run: ``python examples/verify_collector_tables.py [seed]``
"""

import sys
from itertools import groupby

from repro import api
from repro.bgp.routegen import collector_routes
from repro.core.status import VerifyStatus
from repro.irr.synth import build_world, tiny_config
from repro.obs import MetricsRegistry


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    world = build_world(tiny_config(seed))
    table = list(collector_routes(world.topology, world.announced, world.collectors))
    dumps = {
        collector: list(routes)
        for collector, routes in groupby(
            sorted(table, key=lambda entry: entry.collector),
            key=lambda entry: entry.collector,
        )
    }

    registry = MetricsRegistry()
    plans_built = registry.counter("verify_rule_plans_total", result="built")
    with api.open_session(world, registry=registry, use_cache=False) as session:
        print("collector  routes   hops  verified  unverified  plans built so far")
        for collector, routes in dumps.items():
            summary = session.verify_table(routes).summary()
            fractions = summary["hop_fractions"]
            print(
                f"{collector:9} {summary['routes']:7} {summary['hops']:6}"
                f"  {fractions['verified']:8.1%}  {fractions['unverified']:10.1%}"
                f"  {plans_built.value:18}"
            )

        # Explain the first route with an unverified hop: the replay
        # borrows the plans the table passes built.
        plans_before = plans_built.value
        for entry in table:
            report = session.verify_route(entry.prefix, entry.as_path)
            if any(hop.status is VerifyStatus.UNVERIFIED for hop in report.hops):
                report, events = session.explain(entry.prefix, entry.as_path)
                break
        print(f"\nexplain {entry.prefix} via {' '.join(map(str, entry.as_path))}:")
        print(f"{len(events)} provenance events, "
              f"{plans_built.value - plans_before} rule plan(s) built for it")
        print(report)


if __name__ == "__main__":
    main()
