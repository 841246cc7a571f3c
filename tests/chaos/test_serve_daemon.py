"""The resident serve daemon flooded past its queue bound.

The contract: every request gets a definite answer — a verdict
bit-identical to the batch path, or an explicit 429 under backpressure —
and shutdown still drains.  Nothing hangs and nothing crashes.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from chaos import post_verify
from repro.api import Session
from repro.faultplan import use_faults
from repro.serve import ServeConfig, ServeDaemon


@pytest.fixture(scope="module")
def daemon(tiny_ir, tiny_world, tiny_routes):
    """``(handle, body, expected text)`` for a daemon with a 4-deep queue."""
    session = Session(tiny_ir, tiny_world.topology, index=None, use_cache=False)
    entry = tiny_routes[0]
    expected = str(
        session.warm().verify_route(str(entry.prefix), entry.as_path, collector="serve")
    )
    body = json.dumps({"prefix": str(entry.prefix), "as_path": list(entry.as_path)})
    handle = ServeDaemon(
        session,
        ServeConfig(http_port=0, queue_size=4, batch_max=2, default_deadline=30.0),
    ).start_in_thread()
    yield handle, body, expected
    handle.stop()


def test_serve_http_bit_identity(daemon):
    handle, body, expected = daemon
    status, payload = post_verify(handle.http_port, body)
    assert status == 200 and payload["text"] == expected


def test_serve_flood_backpressure(daemon):
    handle, body, expected = daemon
    # Make each batch slow so the bounded queue actually fills.
    slow = use_faults(batch=lambda queries: time.sleep(0.05))
    with slow, ThreadPoolExecutor(max_workers=32) as pool:
        outcomes = list(pool.map(lambda _: post_verify(handle.http_port, body), range(32)))
    statuses = {status for status, _ in outcomes}
    assert statuses <= {200, 429}
    assert 429 in statuses and 200 in statuses, statuses
    assert all(payload["text"] == expected for status, payload in outcomes if status == 200)


def test_serve_graceful_stop(daemon):
    """The daemon drains on stop; later connections are refused."""
    handle, body, _ = daemon
    handle.stop()
    with pytest.raises(OSError):
        post_verify(handle.http_port, body)
