"""Shared fixtures: a tiny synthetic world and its derived artifacts.

The tiny world (≈60 ASes) is generated once per session; tests that need
an IR, a verifier, or collector routes share it instead of regenerating.
"""

from __future__ import annotations

import os
from fnmatch import fnmatch
from pathlib import Path

import pytest
from hypothesis import settings

from repro.bgp.routegen import collector_routes
from repro.core.verify import Verifier
from repro.irr.synth import build_world, tiny_config

# Hypothesis effort is profile-driven: the default keeps local runs and
# per-commit CI fast; "nightly" raises example counts for the scheduled
# fuzz job (CI exports HYPOTHESIS_PROFILE=nightly).  Tests that pin their
# own @settings(max_examples=...) keep their pinned value.
settings.register_profile("default", max_examples=100, deadline=None)
settings.register_profile("nightly", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Running the suite must leave nothing behind that it did not mean to
# write (ROADMAP aim 3): a new entry at the top of the checkout — or of
# the working directory — that ``.gitignore`` does not cover fails the
# session.  Tests that want files use ``tmp_path``.
_ROOT = Path(__file__).resolve().parent.parent
_IGNORED = [".benchmarks"] + [
    line.strip().rstrip("/")
    for line in (_ROOT / ".gitignore").read_text().splitlines()
    if line.strip() and not line.startswith("#") and "/" not in line.strip().rstrip("/")
]
_listing: dict[Path, set[str]] = {}


def pytest_sessionstart(session):
    for directory in {_ROOT, Path.cwd().resolve()}:
        _listing[directory] = set(os.listdir(directory))


def pytest_sessionfinish(session, exitstatus):
    strays = sorted(
        str(directory / name)
        for directory, before in _listing.items()
        for name in set(os.listdir(directory)) - before
        if not any(fnmatch(name, pattern) for pattern in _IGNORED)
    )
    if strays:
        print(f"\nERROR: the test run left files behind: {strays}")
        session.exitstatus = 1


@pytest.fixture(scope="session", autouse=True)
def _index_cache_in_tmp(tmp_path_factory):
    """Sessions opened without a ``cache_dir`` must not create
    ``~/.cache/rpslyzer`` (the CI hygiene step fails a job that does)."""
    patch = pytest.MonkeyPatch()
    patch.setenv("RPSLYZER_CACHE_DIR", str(tmp_path_factory.mktemp("index-cache")))
    yield
    patch.undo()


@pytest.fixture(scope="session")
def tiny_world():
    """A deterministic ~60-AS world with IRR dumps and collectors."""
    return build_world(tiny_config(seed=42))


@pytest.fixture(scope="session")
def tiny_registry(tiny_world):
    """The tiny world's dumps parsed into a multi-IRR registry."""
    return tiny_world.registry()


@pytest.fixture(scope="session")
def tiny_ir(tiny_registry):
    """The priority-merged IR of the tiny world."""
    return tiny_registry.merged()


@pytest.fixture(scope="session")
def tiny_verifier(tiny_ir, tiny_world):
    """A verifier over the tiny world with paper-default options."""
    return Verifier(tiny_ir, tiny_world.topology)


@pytest.fixture(scope="session")
def tiny_world_dir(tiny_world, tmp_path_factory):
    """The tiny world written to disk (dumps, as-rel, collectors, table)."""
    from repro.bgp.table import write_table_file

    directory = tmp_path_factory.mktemp("tiny-world")
    tiny_world.write_to_dir(directory)
    entries = collector_routes(
        tiny_world.topology, tiny_world.announced, tiny_world.collectors
    )
    write_table_file(directory / "table.txt", entries)
    return directory


@pytest.fixture(scope="session")
def tiny_routes(tiny_world):
    """All collector routes of the tiny world, materialized."""
    return list(
        collector_routes(tiny_world.topology, tiny_world.announced, tiny_world.collectors)
    )
