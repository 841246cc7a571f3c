"""RPSLyzer reproduction: parse, characterize, and verify RPSL policies.

The supported entry point is the :mod:`repro.api` facade, whose stages
mirror the paper's pipeline: ``synthesize`` an offline world,
``parse_dumps`` into one merged IR, ``open_session`` to verify routes
(``Session.verify_table``) and ``characterize`` (Section 4).  This package
re-exports only what callers outside the test suite use; observability
lives in :mod:`repro.obs`.

Quickstart::

    from repro import api
    from repro.bgp.table import parse_table_file

    with api.open_session("dumps/", as_rel="as-rel.txt") as session:
        stats = session.verify_table(parse_table_file("table.txt"), processes=4)
        report = session.verify_route("192.0.2.0/24", [64500, 64496])
    print(stats.summary())
"""

from repro.api import synthesize
from repro.core.verify import Verifier, VerifyOptions
from repro.irr.dump import parse_dump_text

__version__ = "1.27.0"

__all__ = [
    "Verifier",
    "VerifyOptions",
    "__version__",
    "parse_dump_text",
    "synthesize",
]
