"""Fault injection for the pipeline (see ``docs/robustness.md``).

The paper's pipeline ingests dumps published by third parties and runs
for hours over hundreds of millions of routes; the interesting failures
are therefore *environmental* — truncated or binary-spliced dumps,
pathologically large objects, corrupt table lines, workers killed by the
OOM killer, flaky WHOIS servers.  This package makes those failures
reproducible:

* :mod:`repro.chaos.mutators` — seeded, composable corruptions of dump
  and table text;
* :mod:`repro.chaos.faults` — runtime faults (kill a verify worker at a
  chosen chunk, SIGKILL/SIGSTOP a pool worker by PID, a TCP
  proxy that drops the first N connections, a slow client that wedges
  thread-per-connection handlers);
* :mod:`repro.chaos.harness` — :func:`run_chaos` drives every mutator
  and fault against a synthetic world and returns a structured
  :class:`ChaosReport` (also ``rpslyzer chaos --seed 42``).

Everything is deterministic under a seed: a failing chaos run is a
repro, not an anecdote.
"""

from repro.chaos.faults import (
    FlakyTcpProxy,
    HungWorker,
    KillServeWorker,
    KillWorkerChunk,
    RaiseOnChunk,
    SlowClient,
    hang_a_worker_at,
)
from repro.chaos.harness import ChaosCheck, ChaosReport, run_chaos
from repro.chaos.mutators import DUMP_MUTATORS, MUTATORS, TABLE_MUTATORS

__all__ = [
    "ChaosCheck",
    "ChaosReport",
    "DUMP_MUTATORS",
    "FlakyTcpProxy",
    "HungWorker",
    "KillServeWorker",
    "KillWorkerChunk",
    "MUTATORS",
    "RaiseOnChunk",
    "SlowClient",
    "TABLE_MUTATORS",
    "hang_a_worker_at",
    "run_chaos",
]
