"""Runtime faults: dead workers and flaky networks, on demand.

These are the injection points the mutators cannot reach — failures of
the *processes and sockets* around the pipeline rather than of its
inputs.  Both are built to be driven from tests and the chaos harness:

* :class:`KillWorkerChunk` / :class:`RaiseOnChunk` plug into
  ``verify_table(fault_hook=...)`` (picklable, so they survive the trip
  into spawn-started workers);
* :class:`KillServeWorker` / :class:`HungWorker` act on the worker
  pool's processes *from outside*, by PID — SIGKILL for a crash,
  SIGSTOP for a wedge the hang bound or the heartbeat must detect.
  External delivery matters: an in-worker hook would fire again in every
  respawned worker and the pool could never heal.
  :func:`hang_a_worker_at` delivers :class:`HungWorker` to a table run's
  pool, whose PIDs no caller sees;
* :class:`FlakyTcpProxy` sits in front of a live server and RST-drops
  the first N connections, exercising client retry paths;
* :class:`SlowClient` opens a connection and then just sits on it —
  the peer a server's shutdown must close rather than wait for.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import struct
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "KillWorkerChunk",
    "RaiseOnChunk",
    "KillServeWorker",
    "HungWorker",
    "hang_a_worker_at",
    "FlakyTcpProxy",
    "SlowClient",
]


@dataclass(frozen=True)
class KillWorkerChunk:
    """Kill the worker process that picks up one specific chunk.

    The hook fires in the worker before verification, so the chunk's work
    is lost entirely — the parent sees the worker's pipe close.  The kill
    repeats every time the pool retries the chunk on another worker (no
    cross-process state exists to count attempts), which is exactly what
    drives the chunk back to the parent's in-process fallback.
    """

    chunk_index: int
    signum: int = signal.SIGKILL

    def __call__(self, index: int) -> None:
        if index == self.chunk_index:
            os.kill(os.getpid(), self.signum)


@dataclass(frozen=True)
class RaiseOnChunk:
    """Raise inside the worker for one specific chunk (worker survives).

    Distinguishes a failed chunk from a failed worker: the exception
    travels back in the result frame, the chunk is verified in-process
    by the parent, and the pool stays whole.
    """

    chunk_index: int
    message: str = "injected chunk failure"

    def __call__(self, index: int) -> None:
        if index == self.chunk_index:
            raise RuntimeError(f"{self.message} (chunk {index})")


@dataclass(frozen=True)
class KillServeWorker:
    """Crash one pool worker: SIGKILL it by PID.

    Target a PID from ``WorkerSupervisor.worker_pids()``.  The
    supervisor must fail only that worker's in-flight batch (retried on
    another worker), respawn a replacement, and keep every client
    answered.
    """

    signum: int = signal.SIGKILL

    def __call__(self, pid: int) -> None:
        os.kill(pid, self.signum)


@dataclass(frozen=True)
class HungWorker:
    """Wedge one pool worker: SIGSTOP it by PID.

    A stopped worker answers neither batches or table chunks (caught by
    the per-batch hang bound) nor heartbeat pings (caught within
    ``heartbeat_interval + heartbeat_timeout`` while idle); either way
    the supervisor must SIGKILL and replace it.  SIGKILL terminates a
    stopped process, so no explicit SIGCONT cleanup is needed.
    """

    def __call__(self, pid: int) -> None:
        os.kill(pid, signal.SIGSTOP)


def hang_a_worker_at(entries: Iterable, position: int) -> Iterator:
    """Yield ``entries``; on reaching ``position``, wedge one worker of
    the pooled ``verify_table`` run that is consuming them.

    The table's pool lives and dies inside the call, so the victim is
    found among this process's children.  ``position`` must lie past the
    first chunk — the pool starts once that chunk has been pulled.
    """
    for at, entry in enumerate(entries):
        if at == position:
            victim = next(
                child
                for child in multiprocessing.active_children()
                if child.name.startswith("rpslyzer-verify-worker")
            )
            HungWorker()(victim.pid)
        yield entry


class FlakyTcpProxy:
    """A TCP proxy that RST-drops the first ``failures`` connections.

    Later connections are piped byte-for-byte to the target.  The drop
    uses ``SO_LINGER(0)`` so the client sees a hard connection reset (an
    ``OSError``), not a polite empty response — the failure mode retry
    logic must actually handle.

    Use as a context manager::

        with session.whois_server() as handle, FlakyTcpProxy(
            "127.0.0.1", handle.whois_port, failures=2
        ) as proxy:
            text = whois_query("127.0.0.1", proxy.port, "AS64512", retries=3)
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        failures: int = 1,
        host: str = "127.0.0.1",
    ):
        self.target = (target_host, target_port)
        self.failures = failures
        self.connections = 0
        self._listener = socket.create_server((host, 0))
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The proxy's bound TCP port."""
        return self._listener.getsockname()[1]

    def start(self) -> "FlakyTcpProxy":
        """Accept connections in a daemon thread."""
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and close the listener."""
        self._stopping.set()
        self._listener.close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "FlakyTcpProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _serve(self) -> None:
        while not self._stopping.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            if self.connections <= self.failures:
                # linger(0) turns close() into a RST: the client's next
                # read/write raises instead of seeing a clean EOF.
                client.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                client.close()
                continue
            threading.Thread(target=self._pipe, args=(client,), daemon=True).start()

    def _pipe(self, client: socket.socket) -> None:
        try:
            upstream = socket.create_connection(self.target, timeout=5)
        except OSError:
            client.close()
            return
        back = threading.Thread(
            target=self._pump, args=(upstream, client), daemon=True
        )
        back.start()
        self._pump(client, upstream)
        back.join(timeout=5)
        for sock in (client, upstream):
            try:
                sock.close()
            except OSError:
                pass

    @staticmethod
    def _pump(source: socket.socket, sink: socket.socket) -> None:
        try:
            while data := source.recv(65536):
                sink.sendall(data)
        except OSError:
            pass
        finally:
            try:
                sink.shutdown(socket.SHUT_WR)
            except OSError:
                pass


class SlowClient:
    """A client that connects and then never says anything.

    A server whose shutdown waits for its connections to end hands such
    a peer the decision of when it exits; the serve front-ends close the
    connection themselves instead (:mod:`repro.serve.frontend`), which
    :meth:`reads_eof` observes.  Optionally sends a partial line first,
    so the handler is mid-request rather than waiting for one.

    Use as a context manager; ``close()`` releases the socket.
    """

    def __init__(self, host: str, port: int, partial: bytes = b""):
        self._sock = socket.create_connection((host, port), timeout=10)
        if partial:
            self._sock.sendall(partial)  # no trailing newline: never a query

    def reads_eof(self, timeout: float = 2.0) -> bool:
        """Whether the server has closed the connection (within ``timeout``)."""
        self._sock.settimeout(timeout)
        try:
            return self._sock.recv(1) == b""
        except OSError:  # still open (timed out), or reset instead of closed
            return False

    def close(self) -> None:
        """Drop the connection."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "SlowClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
