"""Verification statuses and special-case labels (Section 5 of the paper).

The classification order is significant: when several statuses could apply
to an import/export, the earliest in :class:`VerifyStatus` wins — exactly
the check order the paper specifies (Verified, Skip, Unrecorded, Relaxed,
Safelisted, Unverified).
"""

from __future__ import annotations

from enum import Enum, IntEnum

__all__ = ["VerifyStatus", "SpecialCase", "UnrecordedReason"]


class VerifyStatus(IntEnum):
    """The six verification statuses, in classification-priority order."""

    VERIFIED = 0
    SKIP = 1
    UNRECORDED = 2
    RELAXED = 3
    SAFELISTED = 4
    UNVERIFIED = 5

    @property
    def label(self) -> str:
        """Lower-case label used in figures and reports."""
        return self.name.lower()


class SpecialCase(Enum):
    """The six common RPSL misuses of Section 5.1, in check order.

    The first three are *relaxed filters*, the last three *safelisted
    relationships*.
    """

    # Members are singletons compared by identity, so an identity hash is
    # exact and runs in C (Enum's own hashes the name in Python, once per
    # tally-key probe).  Nothing printed depends on it: figures iterate
    # members in declaration order and dicts in insertion order.
    __hash__ = object.__hash__

    EXPORT_SELF = "export-self"
    IMPORT_CUSTOMER = "import-customer"
    MISSING_ROUTES = "missing-routes"
    ONLY_PROVIDER_POLICIES = "only-provider-policies"
    TIER1_PAIR = "tier1-pair"
    UPHILL = "uphill"


class UnrecordedReason(Enum):
    """Sub-reasons of the UNRECORDED status (Figure 5 of the paper)."""

    __hash__ = object.__hash__  # as SpecialCase's

    NO_AUT_NUM = "no-aut-num"
    NO_RULES = "no-rules"
    ZERO_ROUTE_AS = "zero-route-as"
    MISSING_SET = "missing-set"
