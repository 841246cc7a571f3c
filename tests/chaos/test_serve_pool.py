"""The serve daemon's supervised worker pool, crashed and wedged mid-flood.

The contract: SIGKILLing one worker costs only its in-flight batch
(retried on another worker, so every client still gets a verdict
bit-identical to the batch path), the supervisor respawns a replacement
and the restart shows in the metrics and the degradation report; a
SIGSTOPped worker is caught by the heartbeat and replaced without
operator intervention.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from chaos import assert_recorded, http_request, post_verify
from chaos.faults import HungWorker, KillServeWorker
from repro.api import Session
from repro.faultplan import use_faults
from repro.obs import MetricsRegistry
from repro.serve import ServeConfig, ServeDaemon

WORKERS = 2


def _wait_for(condition, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.fixture(scope="module")
def pool(tiny_ir, tiny_world, tiny_routes):
    """``(handle, daemon, body, expected text)`` for a 2-worker daemon."""
    # A private registry so the restart counter is visible at /metrics.
    session = Session(
        tiny_ir, tiny_world.topology, index=None, use_cache=False, registry=MetricsRegistry()
    )
    entry = tiny_routes[0]
    expected = str(
        session.warm().verify_route(str(entry.prefix), entry.as_path, collector="serve")
    )
    body = json.dumps({"prefix": str(entry.prefix), "as_path": list(entry.as_path)})
    daemon = ServeDaemon(
        session,
        ServeConfig(
            http_port=0,
            workers=WORKERS,
            queue_size=128,
            batch_max=4,
            default_deadline=30.0,
            hang_timeout=3.0,
            heartbeat_interval=0.1,
            heartbeat_timeout=1.0,
        ),
    )
    handle = daemon.start_in_thread()
    yield handle, daemon, body, expected
    handle.stop()


@pytest.fixture(scope="module")
def killed_mid_flood(pool):
    """48 requests in flight when one worker is SIGKILLed; their outcomes."""
    handle, daemon, body, _ = pool
    victim = daemon.service.supervisor.worker_pids()[0]
    # The batch fault slows each batch so the flood is still in flight
    # when the kill lands and some batch actually dies with its worker.
    slow = use_faults(batch=lambda queries: time.sleep(0.02))
    with slow, ThreadPoolExecutor(max_workers=16) as flood:
        futures = [flood.submit(post_verify, handle.http_port, body) for _ in range(48)]
        time.sleep(0.1)
        KillServeWorker()(victim)
        outcomes = [future.result() for future in futures]
    supervisor = daemon.service.supervisor
    _wait_for(lambda: supervisor.state()["restarts_total"] >= 1)
    return outcomes


@pytest.fixture(scope="module")
def hung_replaced(pool, killed_mid_flood):
    """Whether a SIGSTOPped idle worker was replaced by heartbeat."""
    _, daemon, _, _ = pool
    supervisor = daemon.service.supervisor
    victim = supervisor.worker_pids()[0]
    HungWorker()(victim)

    def replaced() -> bool:
        pids = supervisor.worker_pids()
        return victim not in pids and len(pids) == WORKERS

    return _wait_for(replaced)


def test_serve_pool_bit_identity(pool):
    handle, _, body, expected = pool
    status, payload = post_verify(handle.http_port, body)
    assert status == 200 and payload["text"] == expected


def test_serve_pool_kill_mid_flood_no_request_lost(pool, killed_mid_flood):
    expected = pool[3]
    assert [status for status, _ in killed_mid_flood] == [200] * len(killed_mid_flood)
    assert all(payload["text"] == expected for _, payload in killed_mid_flood)


def test_serve_pool_restart_recorded(pool, killed_mid_flood):
    service = pool[1].service
    assert service.supervisor.state()["restarts_total"] >= 1
    assert_recorded(service.degradation)
    kinds = service.degradation.by_kind()
    assert kinds.get("serve/worker-crashed", 0) + kinds.get("serve/worker-hung", 0) >= 1


def test_serve_pool_restart_in_metrics(pool, killed_mid_flood):
    _, metrics = http_request(pool[0].http_port, "GET", "/metrics")
    text = metrics.decode()
    assert (
        "serve_worker_restarts_total 1" in text or "serve_worker_restarts_total 2" in text
    )


def test_serve_pool_hung_worker_replaced(hung_replaced):
    assert hung_replaced


def test_serve_pool_healthz_supervisor_state(pool, hung_replaced):
    status, health = http_request(pool[0].http_port, "GET", "/healthz")
    block = json.loads(health)["supervisor"]
    assert status == 200
    assert block["live"] == WORKERS and not block["degraded"], block
