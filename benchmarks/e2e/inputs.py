"""Seeded inputs: the same ``--seed`` always yields the same bytes.

The program under test receives only what is generated here (dump
directories, a table file, an IR JSON, journals, request bodies); the
seed itself never reaches it.

The *world* — topology, operator profiles, policies — is fixed
(``WORLD_SEED``): ROADMAP item 1 asks for one fixed standard world, and
the cost of a hop check depends on which large ASes happen to be
documented, so worlds drawn from different seeds differ by +-25 % in
time per hop (README "Seeds").  ``--seed`` varies everything *drawn
from* the world: the order of objects inside each dump, the decoration
of the collector table (prepending, AS_SETs, communities), which routes
the serve sample and the churn working set hold, and the journals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.bgp.routegen import RouteGenConfig, collector_routes
from repro.bgp.table import RouteEntry
from repro.irr.history import ChurnConfig, evolve_with_journal
from repro.irr.synth import SynthConfig, SynthWorld, build_world

__all__ = [
    "PRESETS",
    "WORLD_SEED",
    "Sizes",
    "build_ingest_world",
    "build_standard_world",
    "chained_journals",
    "sample_routes",
    "shuffled_dumps",
    "table_routes",
]

WORLD_SEED = 42


@dataclass(frozen=True, slots=True)
class Sizes:
    """Input sizes of one preset (recorded in every result)."""

    # SynthConfig overrides of the ingest world and of the standard world
    # shared by verify_table / serve / churn.
    ingest_world: dict
    standard_world: dict
    serve_sample: int  # distinct routes the HTTP clients cycle through
    whois_queries: int
    churn_working_set: int
    churn_epochs: int  # journals generated in set-up = most epochs a run does
    churn_rate_scale: float  # ChurnConfig default rates times this
    differential_routes: int  # verify_table routes re-checked on the lazy engine
    verify_slices: int  # contiguous slices one table pass is verified in
    setup_repeats: int  # set-ups per run; setup_s is their median


PRESETS = {
    # Sized on a 2-core host so that every measured operation takes at
    # most ~0.7 s — short enough for the interleaved calibration samples
    # to track the host's speed phases (see README "Sizes").
    "standard": Sizes(
        ingest_world=dict(),  # SynthConfig defaults = the `default` preset, ~940 ASes

        standard_world=dict(
            n_tier1=6, n_tier2=30, n_tier3=100, n_stub=360,
            n_collectors=3, peers_per_collector=10,
        ),
        serve_sample=1500,
        whois_queries=600,
        churn_working_set=5000,
        churn_epochs=14,
        churn_rate_scale=0.1,
        differential_routes=200,
        verify_slices=8,
        setup_repeats=3,
    ),
    # The self-tests' preset: every code path, seconds in total.
    "tiny": Sizes(
        ingest_world=dict(n_tier1=3, n_tier2=8, n_tier3=15, n_stub=35),
        standard_world=dict(
            n_tier1=3, n_tier2=8, n_tier3=15, n_stub=35,
            n_collectors=2, peers_per_collector=5,
        ),
        serve_sample=60,
        whois_queries=30,
        churn_working_set=150,
        churn_epochs=3,
        churn_rate_scale=1.0,
        differential_routes=50,
        verify_slices=2,
        setup_repeats=1,
    ),
}


def build_ingest_world(sizes: Sizes) -> SynthWorld:
    return build_world(SynthConfig(seed=WORLD_SEED, **sizes.ingest_world))


def build_standard_world(sizes: Sizes) -> SynthWorld:
    return build_world(SynthConfig(seed=WORLD_SEED, **sizes.standard_world))


def shuffled_dumps(world: SynthWorld, seed: int) -> None:
    """Reorder the objects inside every dump of ``world`` (in place).

    The same objects in another order: the same parsing work, different
    bytes, and — because the IR keeps route objects in dump order — a
    different IR digest per seed.
    """
    rng = random.Random(seed)
    for name in sorted(world.irr_dumps):
        paragraphs = world.irr_dumps[name].split("\n\n")
        rng.shuffle(paragraphs)
        world.irr_dumps[name] = "\n\n".join(p.strip("\n") for p in paragraphs) + "\n"


def table_routes(world: SynthWorld, seed: int) -> list[RouteEntry]:
    """The whole collector table of a world, in generation order."""
    return list(
        collector_routes(
            world.topology,
            world.announced,
            world.collectors,
            RouteGenConfig(seed=seed),
        )
    )


def sample_routes(routes: list[RouteEntry], seed: int, count: int) -> list[RouteEntry]:
    return random.Random(seed).sample(routes, min(count, len(routes)))


def chained_journals(ir, seed: int, sizes: Sizes):
    """``churn_epochs`` journals, each continuing from the previous IR.

    Returns ``(final_ir, journals)``; serials run on so that every journal
    is strictly past what the index absorbed before it.
    """
    defaults = ChurnConfig()
    scale = sizes.churn_rate_scale
    config = replace(
        defaults,
        route_removal=defaults.route_removal * scale,
        route_addition=defaults.route_addition * scale,
        rule_removal=defaults.rule_removal * scale,
        rule_addition=defaults.rule_addition * scale,
        as_set_member_addition=defaults.as_set_member_addition * scale,
        seed=seed,
    )
    journals = []
    serial = 1
    for epoch in range(sizes.churn_epochs):
        ir, journal = evolve_with_journal(ir, config, epoch=epoch, start_serial=serial)
        serial += len(journal)
        journals.append(journal)
    return ir, journals
