#!/usr/bin/env python3
"""Tour of the tooling layer: WHOIS serving, linting, inference, classes.

The paper's conclusion calls for "further RPSL tooling such as linters"
and lists AS-relationship inference and usage classification as future
applications; this example runs all of them on one synthetic registry,
including live queries against the IRRd-style WHOIS server.

Run: ``python examples/irr_tooling.py``
"""

from repro import api
from repro.irr.synth import build_world, tiny_config
from repro.irr.whois import whois_query
from repro.tools.asrel import infer_relationships, score_inference
from repro.tools.classify import classify_ir
from repro.tools.lint import lint_ir
from repro.tools.recommend import recommend_route_set


def main() -> None:
    world = build_world(tiny_config(seed=7))
    registry = world.registry()
    ir = registry.merged()

    print("== WHOIS / IRRd server ==")
    some_asn = next(asn for asn, aut in sorted(ir.aut_nums.items()) if aut.rule_count)
    some_set = sorted(name for name in ir.as_sets if ":" in name)[0]
    with api.open_session(ir, use_cache=False) as session, session.whois_server() as server:
        port = server.whois_port
        print(f"(serving {ir.counts()['aut-num']} aut-nums on port {port})")
        print(f"$ whois AS{some_asn}")
        print(whois_query("127.0.0.1", port, f"AS{some_asn}")[:400])
        print(f"\n$ whois !i{some_set},1   # recursive set expansion")
        print(whois_query("127.0.0.1", port, f"!i{some_set},1")[:200])
        print(f"\n$ whois !gAS{some_asn}   # prefixes originated")
        print(whois_query("127.0.0.1", port, f"!gAS{some_asn}")[:200])

    print("\n== Linter ==")
    report = lint_ir(ir, registry.all_errors(), world.topology)
    print(f"{len(report)} findings; counts per check: {report.counts()}")
    for finding in report.findings[:8]:
        print(f"  {finding}")

    print("\n== AS-relationship inference vs ground truth ==")
    inferred = infer_relationships(ir)
    for key, value in score_inference(world.topology, inferred).as_dict().items():
        print(f"  {key:24}: {value}")

    print("\n== Usage archetypes ==")
    _, census = classify_ir(ir, world.topology.ases(), world.topology)
    for label, count in census.most_common():
        print(f"  {label:18}: {count}")

    print("\n== Route-set migration advisor (the paper's §4 recommendation) ==")
    advised = 0
    for asn in sorted(ir.aut_nums):
        recommendation = recommend_route_set(ir, asn, relationships=world.topology)
        if recommendation is not None:
            print(recommendation.summary())
            advised += 1
            if advised >= 2:
                break


if __name__ == "__main__":
    main()
