"""Fault injection for the resilience contract (see ``docs/robustness.md``).

Damaged input or a dying worker costs a recorded degradation, never a
crash, a hang or unbounded memory.  :mod:`chaos.mutators` damages dump
and table text under a seed, :mod:`chaos.faults` kills, wedges and
disconnects at runtime, and the ``test_*`` modules assert the contract
once per check against the seed-42 tiny world of ``tests/conftest.py``.
The product reads faults through one hook, :mod:`repro.faultplan`.
"""

from __future__ import annotations

import http.client
import json

from repro.core.degradation import DegradationReport


def assert_recorded(degradation: DegradationReport, *kinds: str) -> None:
    """``degradation`` holds every ``component/kind`` in ``kinds`` and its
    JSON form serialises."""
    assert len(degradation) > 0
    recorded = degradation.by_kind()
    assert all(recorded.get(kind, 0) >= 1 for kind in kinds), recorded
    json.dumps(degradation.as_dict())


def http_request(port: int, method: str, path: str, body: str | None = None):
    """One request on a fresh connection: ``(status, body bytes)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def post_verify(port: int, body: str) -> tuple[int, dict]:
    """``POST /verify``: ``(status, decoded JSON body)``."""
    status, payload = http_request(port, "POST", "/verify", body)
    return status, json.loads(payload)
