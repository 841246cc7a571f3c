"""The serve daemon: lifecycle glue around the request core.

:class:`ServeDaemon` owns the event loop's view of the service — it
starts the :class:`~repro.serve.core.VerifyService` and whichever
front-ends the :class:`~repro.serve.core.ServeConfig` enables, installs
signal handlers, and runs the graceful-shutdown sequence:

1. stop accepting connections (close the listening sockets) and close
   the idle ones — each such client reads EOF;
2. mark the service draining — queries already admitted keep executing,
   new submissions on surviving connections get BUSY;
3. wait (bounded by ``drain_timeout``) for the queue and the in-flight
   batches to finish, so every accepted request gets its answer;
4. stop the service's execution slots (waiters the drain never reached
   get an explicit ``BusyError``, not a hang) and the worker pool;
5. abort the connections still open and return once every connection
   handler has: no client decides when the daemon exits
   (:mod:`repro.serve.frontend`).

The :class:`~repro.serve.core.VerifyService` is started *before* the
front-ends bind, so the worker pool's forked processes never inherit
the listening sockets.

SIGTERM and SIGINT both trigger that sequence, so ``kill <pid>`` on the
daemon is a clean drain, not a mid-verdict abort.  SIGQUIT instead dumps
the flight recorder to a timestamped incident file (under
``--incident-dir``; without one the incident is only marked in the ring)
and keeps serving —
the classic "what is this daemon doing right now" probe.

For tests and embedding there is :meth:`ServeDaemon.start_in_thread`,
which runs the daemon on a private event loop in a daemon thread and
returns a :class:`ServeHandle` exposing the bound ports and a blocking
``stop()``.
"""

from __future__ import annotations

import asyncio
import contextvars
import logging
import signal
import threading
from typing import Callable

from repro.api import Session
from repro.serve.core import ServeConfig, VerifyService
from repro.serve.http import HttpFrontend
from repro.serve.whois import WhoisFrontend

__all__ = ["ServeDaemon", "ServeHandle"]

log = logging.getLogger("repro.serve")


class ServeDaemon:
    """One resident service over one session.

    The session should carry AS relationships (``!v``/``/verify`` need
    them) and ideally its own :class:`~repro.obs.MetricsRegistry` so
    ``GET /metrics`` reflects this daemon alone.
    """

    def __init__(self, session: Session, config: ServeConfig | None = None):
        self.session = session
        self.config = config or ServeConfig()
        self.service: VerifyService | None = None
        self.http: HttpFrontend | None = None
        self.whois: WhoisFrontend | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._follower: asyncio.Task | None = None

    # -- the daemon coroutine ---------------------------------------------

    async def run(self, *, on_ready: Callable[["ServeDaemon"], None] | None = None) -> None:
        """Serve until a shutdown is requested, then drain and return."""
        config = self.config
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._install_signal_handlers()
        self.service = await VerifyService(self.session, config).start()
        try:
            if config.http_port is not None:
                self.http = await HttpFrontend(
                    self.service, config.host, config.http_port
                ).start()
            if config.whois_port is not None:
                self.whois = await WhoisFrontend(
                    self.service, config.host, config.whois_port
                ).start()
            if self.http is None and self.whois is None:
                raise ValueError("ServeConfig enables no front-end")
            if config.journal_path is not None:
                self._follower = asyncio.create_task(
                    self._follow_journal(), name="rpslyzer-journal-follower"
                )
            if on_ready is not None:
                on_ready(self)
            await self._shutdown.wait()
        finally:
            await self._graceful_stop()

    async def _follow_journal(self) -> None:
        """Poll the configured journal file, hot-swapping fresh entries.

        The whole file is re-read on every change; the service's reload
        filters already-absorbed serials, so a growing NRTM-style journal
        is applied incrementally and re-reads are idempotent.  Unreadable
        or failing reloads are logged and retried on the next poll —
        the follower never takes the daemon down.
        """
        from pathlib import Path

        from repro.irr.journal import JournalError, load_journal

        path = Path(self.config.journal_path)
        last_signature: tuple[int, int] | None = None
        while True:
            await asyncio.sleep(self.config.journal_poll)
            try:
                stat = path.stat()
            except OSError:
                continue  # not there (yet): keep watching
            signature = (stat.st_mtime_ns, stat.st_size)
            if signature == last_signature:
                continue
            try:
                journal = load_journal(path)
            except (JournalError, OSError) as exc:
                log.warning("journal follower: unreadable %s: %s", path, exc)
                continue
            try:
                summary = await self.service.reload(journal)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - keep following
                log.warning("journal follower: reload failed: %s", exc)
                continue
            # Commit the signature only after the reload landed: a
            # transient read or reload failure must be retried on the
            # next poll even if the file itself never changes again.
            last_signature = signature
            if summary["applied"]:
                log.info(
                    "journal follower: applied %d entries "
                    "(generation %d%s)",
                    summary["applied"],
                    summary["generation"],
                    ", degraded to full recompile" if summary["degraded"] else "",
                )

    def request_shutdown(self) -> None:
        """Trigger the drain sequence; safe to call from any thread, and a
        no-op once the daemon's loop has closed (it has already stopped)."""
        loop = self._loop
        if loop is None or self._shutdown is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._shutdown.set)
        except RuntimeError:  # the loop closed after the check above
            pass

    def _install_signal_handlers(self) -> None:
        assert self._loop is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._on_signal, signum)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread or platform without loop signal support
                # (start_in_thread, Windows): shutdown comes via the handle.
                return
        quit_signal = getattr(signal, "SIGQUIT", None)
        if quit_signal is not None:
            try:
                self._loop.add_signal_handler(quit_signal, self._on_sigquit)
            except (NotImplementedError, RuntimeError, ValueError):
                pass

    def _on_signal(self, signum: int) -> None:
        log.info("received %s: draining", signal.Signals(signum).name)
        self._shutdown.set()

    def _on_sigquit(self) -> None:
        """SIGQUIT: dump the flight ring to an incident file, keep serving."""
        if self.service is None:
            return
        path = self.service.flight.dump_incident(
            "sigquit", trigger={"kind": "signal", "signal": "SIGQUIT"}
        )
        if path is not None:
            log.info("SIGQUIT: flight ring dumped to %s", path)
        else:
            log.info(
                "SIGQUIT: flight dump skipped (no --incident-dir, disabled, "
                "or rate-limited)"
            )

    async def _graceful_stop(self) -> None:
        # 0. Stop the journal follower before the service goes away.
        if self._follower is not None:
            self._follower.cancel()
            try:
                await self._follower
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._follower = None
        # 1. Stop accepting new connections; close the idle ones.
        frontends = [f for f in (self.http, self.whois) if f is not None]
        for frontend in frontends:
            await frontend.close()
        if self.service is None:
            return
        # 2–3. Refuse new queries, let admitted ones finish.
        drained = await self.service.drain()
        if not drained:  # pragma: no cover - only under pathological load
            log.warning(
                "drain timed out after %.1fs with %d queries pending",
                self.config.drain_timeout,
                self.service.health()["queue_depth"],
            )
        # 4. Stop the execution slots and the worker pool.
        await self.service.stop()
        # 5. No connection outlives the loop, whatever its client does.
        for frontend in frontends:
            await frontend.wait_closed()
        log.info("serve daemon stopped")

    # -- threaded embedding (tests, notebooks) -----------------------------

    def start_in_thread(self, *, timeout: float = 30.0) -> "ServeHandle":
        """Run the daemon on a private loop in a daemon thread.

        Blocks until the front-ends are bound (so the handle's ports are
        real) or the daemon dies during startup, in which case the
        startup exception is re-raised here.
        """
        ready = threading.Event()
        failure: list[BaseException] = []

        def _main() -> None:
            try:
                asyncio.run(self.run(on_ready=lambda _self: ready.set()))
            except BaseException as exc:  # noqa: BLE001 - reported via handle
                failure.append(exc)
                ready.set()

        # The daemon reports to its starter's ambient registry.
        thread = threading.Thread(
            target=contextvars.copy_context().run, args=(_main,), name="rpslyzer-serve", daemon=True
        )
        thread.start()
        if not ready.wait(timeout):
            self.request_shutdown()
            raise TimeoutError("serve daemon did not start within %.1fs" % timeout)
        if failure:
            raise failure[0]
        return ServeHandle(self, thread)


class ServeHandle:
    """A running threaded daemon: bound ports plus a blocking stop."""

    def __init__(self, daemon: ServeDaemon, thread: threading.Thread):
        self.daemon = daemon
        self._thread = thread

    @property
    def host(self) -> str:
        return self.daemon.config.host

    @property
    def http_port(self) -> int | None:
        return self.daemon.http.port if self.daemon.http is not None else None

    @property
    def whois_port(self) -> int | None:
        return self.daemon.whois.port if self.daemon.whois is not None else None

    def stop(self, timeout: float = 30.0) -> None:
        """Request the drain sequence and wait for the daemon to exit (idempotent)."""
        self.daemon.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover
            raise TimeoutError("serve daemon did not stop within %.1fs" % timeout)

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
