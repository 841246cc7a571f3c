"""Repository quality gates: docstring coverage and API hygiene.

These tests enforce the documentation contract mechanically: every public
module, class, and function in ``repro`` carries a docstring, every
``__all__`` entry resolves, and the packages import cleanly in isolation.
"""

import importlib
import inspect
import pkgutil
import re
import tomllib
import warnings
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro", "repro.net", "repro.rpsl", "repro.ir", "repro.irr",
    "repro.bgp", "repro.core", "repro.stats", "repro.baseline", "repro.tools",
    "repro.chaos",
]


def all_modules():
    names = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        names.append(package_name)
        for info in pkgutil.iter_modules(package.__path__):
            names.append(f"{package_name}.{info.name}")
    # de-dup (subpackages appear twice)
    return sorted(set(names))


@pytest.mark.parametrize("module_name", all_modules())
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", all_modules())
def test_public_api_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        member = getattr(module, name, None)
        assert member is not None, f"{module_name}.__all__ lists missing {name!r}"
        if inspect.isclass(member) or inspect.isfunction(member):
            if member.__module__ != module_name:
                continue  # re-export; documented at its home
            if not (member.__doc__ and member.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(member):
                for method_name, method in vars(member).items():
                    if method_name.startswith("_"):
                        continue
                    if not inspect.isfunction(method):
                        continue
                    if method.__doc__ and method.__doc__.strip():
                        continue
                    # An override inherits its contract from a documented
                    # base-class method (e.g. the many to_rpsl renderers).
                    inherited = any(
                        getattr(base, method_name, None) is not None
                        and getattr(getattr(base, method_name), "__doc__", None)
                        for base in member.__mro__[1:]
                    )
                    if not inherited:
                        undocumented.append(f"{name}.{method_name}")
    assert not undocumented, f"{module_name}: missing docstrings on {undocumented}"


@pytest.mark.parametrize("module_name", all_modules())
def test_module_imports_standalone(module_name):
    # Fresh import must not raise (no hidden import-order dependencies).
    module = importlib.import_module(module_name)
    assert module is not None


def test_config_knobs_are_pinned():
    """Adding a serving or pool knob takes a deliberate edit here: overload
    is one admission rule and one pool-health rule, not a field per
    mechanism."""
    from dataclasses import fields

    from repro.core.pool import SupervisorConfig
    from repro.serve import ServeConfig

    serve = {field.name for field in fields(ServeConfig)}
    assert serve == {
        "host", "http_port", "whois_port", "queue_size", "batch_max",
        "default_deadline", "max_deadline", "drain_timeout", "workers",
        "hang_timeout", "heartbeat_interval", "heartbeat_timeout",
        "restart_budget", "start_method", "journal_path", "journal_poll",
        "telemetry", "access_log", "slow_ms", "flight_events", "incident_dir",
    }
    assert len(serve) == 21
    supervisor = {field.name for field in fields(SupervisorConfig)}
    assert supervisor == {
        "workers", "hang_timeout", "heartbeat_interval", "heartbeat_timeout",
        "spawn_timeout", "lease_timeout", "restart_budget", "backoff_base",
        "backoff_max", "batch_retries", "start_method",
    }
    assert len(supervisor) == 11


def test_version_exported():
    assert repro.__version__


def test_the_distribution_version_is_the_packages():
    """One version: ``pyproject.toml`` declares none of its own, so what pip
    and ``importlib.metadata`` report is what the ledger and the run
    manifests record (they had drifted nine releases apart)."""
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    document = tomllib.loads(path.read_text(encoding="utf-8"))
    assert "version" not in document["project"]
    assert "version" in document["project"]["dynamic"]
    assert document["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }
    # What setuptools makes of it (static read of the attribute: nothing is
    # built, imported from an install, or downloaded).
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # pyproject support is "beta" in older setuptools
        resolved = pyprojecttoml.read_configuration(path)["project"]["version"]
    assert resolved == repro.__version__
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
