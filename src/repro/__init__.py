"""RPSLyzer reproduction: parse, characterize, and verify RPSL policies.

The supported entry point is the :mod:`repro.api` facade, re-exported
here; it mirrors the paper's pipeline stages:

* :func:`synthesize` — generate an offline world (IRR dumps + topology);
* :func:`parse_dumps` — parse a directory of dumps into one merged
  :class:`Ir` plus its parse issues;
* :func:`open_session` — load once, then :meth:`Session.verify_table`
  verifies BGP routes, serial or multi-process, into
  :class:`VerificationStats`;
* :func:`characterize` — the Section 4 characterization.

Observability for all of it lives in :mod:`repro.obs` (metrics registry,
phase spans, run manifests); lower-level pieces (:class:`Verifier`,
:class:`Registry`, the RPSL parsers) remain importable for tooling but are
implementation detail.

Quickstart::

    from repro import open_session
    from repro.bgp.table import parse_table_file

    with open_session("dumps/", as_rel="as-rel.txt") as session:
        stats = session.verify_table(parse_table_file("table.txt"), processes=4)
        report = session.verify_route("192.0.2.0/24", [64500, 64496])
    print(stats.summary())
"""

from repro.api import (
    LoadResult,
    Session,
    SessionClosedError,
    characterize,
    make_verifier,
    open_session,
    parse_dumps,
    parse_registry,
    synthesize,
)
from repro.bgp.topology import AsRelationships
from repro.core.status import SpecialCase, VerifyStatus
from repro.core.verify import Verifier, VerifyOptions
from repro.ir.model import Ir
from repro.irr.dump import parse_dump_file, parse_dump_text
from repro.irr.registry import Registry, parse_registry_dir
from repro.net.prefix import Prefix
from repro.stats.verification import VerificationStats

__version__ = "1.19.0"

__all__ = [
    # the supported facade
    "LoadResult",
    "Session",
    "SessionClosedError",
    "characterize",
    "make_verifier",
    "open_session",
    "parse_dumps",
    "parse_registry",
    "synthesize",
    "VerificationStats",
    "VerifyOptions",
    # core model and lower-level pieces
    "AsRelationships",
    "Ir",
    "Prefix",
    "Registry",
    "SpecialCase",
    "Verifier",
    "VerifyStatus",
    "__version__",
    "parse_dump_file",
    "parse_dump_text",
    "parse_registry_dir",
]
