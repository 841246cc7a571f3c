"""The WHOIS front-end behind a flaky network and beside a stalled client.

The over-long query line is ``tests/test_chaos.py::test_whois_query_line_cap``.
"""

from __future__ import annotations

import threading
import time

import pytest

from chaos.faults import FlakyTcpProxy, SlowClient
from repro.api import Session
from repro.irr.whois import whois_query


@pytest.fixture(scope="module")
def session(tiny_ir, tiny_world):
    with Session(tiny_ir, tiny_world.topology, use_cache=False) as session:
        yield session


def test_whois_retry_through_flaky_proxy(session):
    asn = min(session.ir.aut_nums)
    with session.whois_server() as server:
        with FlakyTcpProxy("127.0.0.1", server.whois_port, failures=2) as proxy:
            answer = whois_query(
                "127.0.0.1", proxy.port, f"AS{asn}", retries=3, backoff=0.01
            )
    assert "aut-num" in answer
    assert proxy.connections == 3


def test_flaky_proxy_stops_promptly_after_serving(session):
    """A proxy whose accept thread has served a connection is back in
    ``accept()`` when it stops; ``stop()`` must wake it, not wait it out."""
    with session.whois_server() as server:
        proxy = FlakyTcpProxy("127.0.0.1", server.whois_port, failures=0).start()
        thread = proxy._thread
        assert "aut-num" in whois_query(
            "127.0.0.1", proxy.port, f"AS{min(session.ir.aut_nums)}"
        )
        started = time.monotonic()
        proxy.stop()
        assert time.monotonic() - started < 1.0
    assert not thread.is_alive()
    assert thread not in threading.enumerate()


def test_whois_slow_client_shutdown_bounded(session):
    """A client that connects and never completes a query decides nothing
    about the daemon's exit: ``stop()`` returns inside its bound and the
    server, not the client, closes the connection."""
    server = session.whois_server()
    with SlowClient("127.0.0.1", server.whois_port, partial=b"AS") as slow:
        time.sleep(0.1)  # let the handler reach its read
        server.stop(timeout=5)  # raises TimeoutError past the bound
        assert slow.reads_eof()
