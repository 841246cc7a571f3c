"""The verification engine: RPSLyzer's primary contribution.

Pipeline: :func:`~repro.core.compiled.compile_index` resolves the IR into a
:class:`~repro.core.compiled.CompiledIndex`, read through a
:class:`~repro.core.query.QueryEngine`; the
peering/filter/AS-path matchers evaluate rule components against observed
routes; the :class:`~repro.core.verify.Verifier` walks each BGP route hop
by hop, classifying every import and export into the status lattice
Verified → Skip → Unrecorded → Relaxed → Safelisted → Unverified.
"""

from repro.core.compiled import (
    CompiledIndex,
    IndexCacheError,
    compile_index,
    get_or_compile,
    ir_digest,
    load_index,
    save_index,
)
from repro.core.query import QueryEngine
from repro.core.report import HopReport, ReportItem, RouteReport
from repro.core.status import SpecialCase, VerifyStatus
from repro.core.verify import Verifier, VerifyOptions

__all__ = [
    "CompiledIndex",
    "HopReport",
    "IndexCacheError",
    "QueryEngine",
    "ReportItem",
    "RouteReport",
    "SpecialCase",
    "Verifier",
    "VerifyOptions",
    "VerifyStatus",
    "compile_index",
    "get_or_compile",
    "ir_digest",
    "load_index",
    "save_index",
]
