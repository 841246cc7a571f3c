"""Every example script must run cleanly — they are living documentation.

Each runs as a fresh interpreter over ``src/``, with its working
directory, ``HOME``, ``XDG_CACHE_HOME`` and ``TMPDIR`` under ``tmp_path``:
an example may write only there (the index cache included), never into
the checkout, the user's cache or the shared temp directory.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def _footprint() -> dict:
    """What an example must leave alone: the checkout's files (size and
    mtime), the user's index cache and the shared temp directory's entries."""
    checkout = {}
    for directory, subdirectories, files in os.walk(ROOT):
        subdirectories[:] = [name for name in subdirectories if name != ".git"]
        for name in files:
            status = os.stat(os.path.join(directory, name))
            checkout[os.path.join(directory, name)] = (status.st_size, status.st_mtime_ns)
    user_cache = Path.home() / ".cache" / "rpslyzer"
    return {
        "checkout": checkout,
        "user_cache": sorted(os.listdir(user_cache)) if user_cache.is_dir() else None,
        "tmp": set(os.listdir(tempfile.gettempdir())),
    }


def test_examples_present():
    names = {path.name for path in EXAMPLES}
    assert {
        "quickstart.py",
        "characterize_registry.py",
        "verify_bgp_routes.py",
        "generate_filters.py",
        "route_leak_detection.py",
        "irr_tooling.py",
        "update_stream_monitoring.py",
        "verify_collector_tables.py",
    } <= names


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    home = tmp_path / "home"
    scratch = tmp_path / "tmp"
    home.mkdir()
    scratch.mkdir()
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("RPSLYZER_CACHE_DIR", "PYTHONPATH")
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        HOME=str(home),
        XDG_CACHE_HOME=str(home / ".cache"),
        TMPDIR=str(scratch),
    )
    before = _footprint()
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must print something"
    assert _footprint() == before, "the example wrote outside tmp_path"
