"""Repository quality gates: docstring coverage and API hygiene.

These tests enforce the documentation contract mechanically: every public
module, class, and function in ``repro`` carries a docstring, every
``__all__`` entry resolves, and the packages import cleanly in isolation.
"""

import argparse
import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import tomllib
import warnings
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro", "repro.net", "repro.rpsl", "repro.ir", "repro.irr",
    "repro.bgp", "repro.core", "repro.stats", "repro.baseline", "repro.tools",
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
        "access_log", "slow_ms", "flight_events", "incident_dir",
    }
    assert len(serve) == 20
    supervisor = {field.name for field in fields(SupervisorConfig)}
    assert supervisor == {
        "workers", "hang_timeout", "heartbeat_interval", "heartbeat_timeout",
        "restart_budget", "start_method",
    }
    assert len(supervisor) == 6


def test_engine_and_verifier_parameters_are_pinned():
    """One resolution mode: a query engine is a view that needs its index,
    and a verifier given none compiles one.  A new knob on either takes a
    deliberate edit here."""
    from repro.core.query import QueryEngine
    from repro.core.verify import Verifier

    engine = inspect.signature(QueryEngine).parameters
    assert list(engine) == ["ir", "index"]
    assert engine["index"].default is inspect.Parameter.empty
    assert list(inspect.signature(Verifier).parameters) == [
        "ir", "relationships", "options", "index",
    ]


_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_one_resolver():
    """Set references are resolved at compile time only: nothing under
    ``src/`` outside ``core/compiled.py`` constructs the resolver, and every
    ``QueryEngine(...)`` call passes an index."""
    offenders = []
    for path in sorted(_SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            where = f"{path.relative_to(_SRC)}:{node.lineno}"
            if name == "Resolver" and path != _SRC / "core" / "compiled.py":
                offenders.append(f"{where} constructs the resolver")
            indexed = len(node.args) >= 2 or any(k.arg == "index" for k in node.keywords)
            if name == "QueryEngine" and not indexed:
                offenders.append(f"{where} builds a QueryEngine without an index")
    assert not offenders, offenders


def _call_scopes(tree, callee: str, scope: str = "<module>"):
    """The scope (qualified def name) of every call to ``callee`` in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
            yield from _call_scopes(node, callee, inner)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if (getattr(func, "id", None) or getattr(func, "attr", None)) == callee:
                yield scope
        yield from _call_scopes(node, callee, scope)


def test_one_plan_store_per_generation():
    """A verifier's rule plans, interned reports and only-provider memo are
    its generation's: ``src/`` constructs a ``Verifier`` only for a new
    generation (``Session._generation_over``) and for the public
    ``make_verifier``.  Every pass borrows the generation's stores through
    ``Verifier.for_pass``."""
    sites = sorted(
        f"{path.relative_to(_SRC)}:{scope}"
        for path in _SRC.rglob("*.py")
        for scope in _call_scopes(ast.parse(path.read_text(encoding="utf-8")), "Verifier")
    )
    assert sites == ["api.py:Session._generation_over", "api.py:make_verifier"]


def _is_chunk(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == "chunk"


def _chunk_protocol_sites(tree):
    """Lines that speak the ``chunk`` frame: a frame tuple or ``kind=`` of
    ``"chunk"``, a comparison with it, or a use of the pool's chunk
    dispatcher or the worker's chunk answer (whose outcome is unpacked)."""
    for node in ast.walk(tree):
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if (
            name in ("dispatch_chunk", "_verify_chunk")
            or (isinstance(node, ast.Tuple) and node.elts and _is_chunk(node.elts[0]))
            or (isinstance(node, ast.keyword) and _is_chunk(node.value))
            or (
                isinstance(node, ast.Compare)
                and any(map(_is_chunk, [node.left, *node.comparators]))
            )
        ):
            yield getattr(node, "lineno", None) or node.value.lineno


def test_one_table_pass():
    """``Session.verify_table`` is the one table pass: ``core/parallel.py`` is
    gone, the pass takes no per-call options and the session no default
    process count, and ``core/pool.py`` alone speaks the chunk frame — it
    sends it and it reads the answer."""
    from repro import api

    assert not (_SRC / "core" / "parallel.py").exists()
    signature = inspect.signature(api.Session.verify_table)
    assert [
        (name, parameter.kind.name, parameter.default)
        for name, parameter in signature.parameters.items()
    ] == [
        ("self", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("entries", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("processes", "KEYWORD_ONLY", 1),
        ("chunk_size", "KEYWORD_ONLY", 2000),
        ("start_method", "KEYWORD_ONLY", None),
        ("on_report", "KEYWORD_ONLY", None),
    ]
    for opener in (api.open_session, api.Session):
        assert "processes" not in inspect.signature(opener).parameters
    offenders = [
        f"{path.relative_to(_SRC)}:{line}"
        for path in sorted(_SRC.rglob("*.py"))
        if path != _SRC / "core" / "pool.py"
        for line in _chunk_protocol_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not offenders, offenders
    # The pool is imported only by a pooled pass, never with the facade.
    probe = (
        "import sys, repro.api; "
        "print(sorted({'asyncio', 'multiprocessing', 'repro.core.pool'} & set(sys.modules)))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(_SRC.parent)},
    ).stdout.strip()
    assert loaded == "[]"


def test_public_surface_is_pinned():
    """A name is public only while a caller outside the tests uses it —
    ``cli``, ``serve``, a benchmark, an example, ``scripts/`` or a README
    code block.  Adding one takes a deliberate edit here."""
    from repro import api

    assert set(repro.__all__) == {
        "Verifier", "VerifyOptions", "__version__", "parse_dump_text", "synthesize",
    }
    assert set(api.__all__) == {
        "LoadResult", "Session", "SessionClosedError", "characterize",
        "compile_index", "index_cache_path", "ir_digest", "load_index",
        "make_verifier", "open_session", "parse_dumps", "parse_registry",
        "recommend_migrations", "save_index", "synthesize",
    }


def test_one_request_core():
    """``VerifyService`` is the request core: no batcher beside it, one
    thread in it (the loop produces every in-process verdict; only a
    batch fault and a session patch leave it, through ``asyncio.to_thread``),
    no thread lock, one timer (the coalescing pause in ``_slot``; ``drain``
    joins the queue), and no lock shared with the pool."""
    from repro import serve
    from repro.core.pool import WorkerSupervisor

    assert set(serve.__all__) == {
        "BadRequestError", "BusyError", "DeadlineExpired", "Query",
        "ServeConfig", "ServeDaemon", "ServeError", "ServeHandle",
        "SupervisorConfig", "VerifyService", "WorkerSupervisor", "report_as_dict",
    }
    assert not (_SRC / "serve" / "batcher.py").exists()
    tree = ast.parse((_SRC / "serve" / "core.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    assert not imported & {"threading", "_thread", "concurrent.futures"}, imported
    calls = [
        f"{getattr(node.func.value, 'id', '')}.{node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert not [call for call in calls if call.endswith(".run_in_executor")], calls
    assert not [call for call in calls if call.startswith("threading.")], calls
    assert calls.count("asyncio.sleep") == 1, calls
    sleeper = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef) and node.name == "_slot"
    )
    assert "asyncio.sleep" in ast.unparse(sleeper)
    assert "metrics_lock" not in inspect.signature(WorkerSupervisor).parameters


def test_one_pool_loop(tiny_session, tiny_routes, monkeypatch):
    """The pool lives on its caller's event loop: ``core/pool.py`` imports
    no ``threading`` or ``queue``, never sleeps a thread, enters a loop in
    one place (the table client), and a pooled pass runs no supervisor
    thread."""
    import threading

    from repro.core import pool

    tree = ast.parse((_SRC / "core" / "pool.py").read_text(encoding="utf-8"))
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    assert not imported & {"threading", "queue"}, imported
    calls = [
        f"{node.func.value.id}.{node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    ]
    assert calls.count("asyncio.run") == 1
    assert "time.sleep" not in calls
    seen: set[str] = set()
    dispatch_chunk = pool.WorkerSupervisor.dispatch_chunk

    async def spied(self, index, entries):
        seen.update(thread.name for thread in threading.enumerate())
        return await dispatch_chunk(self, index, entries)

    monkeypatch.setattr(pool.WorkerSupervisor, "dispatch_chunk", spied)
    tiny_session.verify_table(tiny_routes, processes=2, chunk_size=300)
    assert seen, "the pass never reached the pool"
    assert not [name for name in seen if name.endswith("-supervisor")], seen


def test_ledger_probes_still_resolve():
    """The end-to-end ledger times these ``repro.api`` module attributes by
    name (``benchmarks/e2e``); without them its per-layer facts go silent."""
    from repro import api
    from repro.core.compiled import get_or_compile, ir_digest, patch_index
    from repro.irr.journal import apply_journal_to_ir
    from repro.irr.registry import parse_registry_dir

    assert api._patch_index is patch_index
    assert api.get_or_compile is get_or_compile
    assert api.apply_journal_to_ir is apply_journal_to_ir
    assert api.ir_digest is ir_digest
    assert api.parse_registry_dir is parse_registry_dir


def _identifiers(node):
    for child in ast.walk(node):
        for field in ("id", "attr", "arg", "name"):
            value = getattr(child, field, None)
            if isinstance(value, str):
                yield child, value


def test_no_chaos_instrumentation_in_product_signatures():
    """Chaos faults reach the product through the installed fault plan
    (``repro.faultplan``) only, and ``LoadResult`` has no pre-1.4 bridges."""
    offenders = []
    for path in sorted(_SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, name in _identifiers(tree):
            if name == "fault_hook":
                where = f"{path.relative_to(_SRC)}:{getattr(node, 'lineno', '?')}"
                offenders.append(where)
    assert not offenders, offenders
    api_tree = ast.parse((_SRC / "api.py").read_text(encoding="utf-8"))
    (load_result,) = [
        node
        for node in api_tree.body
        if isinstance(node, ast.ClassDef) and node.name == "LoadResult"
    ]
    methods = {
        node.name for node in load_result.body if isinstance(node, ast.FunctionDef)
    }
    assert not methods & {"__getattr__", "__iter__"}, methods


def _imported_modules(tree) -> list[tuple[int, str]]:
    """``(lineno, module)`` per import; a relative import as ``.module``."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append((node.lineno, "." * node.level + (node.module or "")))
    return imported


def test_the_chaos_apparatus_is_not_shipped():
    """Fault injection is test apparatus (``tests/chaos/``): the product has
    no chaos package or subcommand, imports nothing from ``tests/``, and
    its one fault hook, ``repro.faultplan``, imports nothing from ``repro``."""
    from repro.cli import build_parser

    assert not (_SRC / "chaos").exists()
    tests_dir = Path(__file__).resolve().parent
    test_modules = {"tests", "chaos"} | {path.stem for path in tests_dir.glob("*.py")}
    offenders = [
        f"{path.relative_to(_SRC)}:{lineno} imports {module}"
        for path in sorted(_SRC.rglob("*.py"))
        for lineno, module in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if module.split(".")[0] in test_modules or module.startswith("repro.chaos")
    ]
    assert not offenders, offenders
    faultplan = ast.parse((_SRC / "faultplan.py").read_text(encoding="utf-8"))
    assert not [
        module
        for _, module in _imported_modules(faultplan)
        if module.startswith((".", "repro"))
    ]
    (subcommands,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert subcommands and "chaos" not in subcommands


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
